"""Line-oriented text formats for complexes and cochains.

Complex files:  `dim <n>`, optional `rank <v> <r>` lines, `simplex <v0> ...`
for maximal simplices, `boundary auto` or explicit `boundary <v0> ...`
lines, optional `orient <v0> ... <+1|-1>` lines, `#` comments.  Vertices
are nonnegative integers and all parsing is bit-exact: every integer, in
both formats, is an optional sign and ASCII digits (``integer``).  A file
is refused, with the line named, when a line is malformed or a dim or rank
line has extra fields, when dim is declared twice, a vertex is ranked
twice, or a simplex is listed twice on simplex lines, on boundary lines or
on orient lines (in any vertex order), when `boundary auto` is repeated or
joined by explicit boundary lines, and when a rank, boundary or orient line
names a vertex that lies in no simplex.

Cochain files: a `cochain <ring> <degree>` header followed by lines
`<v0> <v1> ... -> <value>`; Z2 values are 0/1, Z4 values 0..3, QmodZ
values `num/den` or an integer.
"""

from __future__ import annotations

import hashlib
import re
from fractions import Fraction
from typing import Dict, List, Optional

from .cochains import Cochain, QMODZ, RINGS
from .complexes import (
    ManifoldPair, OrderedComplex, Simplex, build_complex, face_closure, maximal_simplices,
    validate_manifold,
)
from .errors import ParseError


# a sign and ASCII digits; int() alone would also take underscores and
# the digits of other scripts ('1_1', an Arabic-Indic or a fullwidth 3)
_INT = re.compile(r"[+-]?[0-9]+")


def integer(text: str) -> int:
    """The integer written in text, or a ValueError if it is not one.
    Spaces around it are allowed, as int() allows them."""
    if not _INT.fullmatch(text.strip()):
        raise ValueError(f"{text!r} is not an integer")
    return int(text)


def _vertex(text: str) -> int:
    """A vertex of a complex file, which is a nonnegative integer."""
    v = integer(text)
    if v < 0:
        raise ValueError(f"vertex {v} is negative")
    return v


def _simplex(args: List[str]) -> Simplex:
    """The vertices named on a simplex, boundary or orient line, at least one."""
    if not args:
        raise ValueError("no vertices")
    return tuple(map(_vertex, args))


class ComplexSpec:
    def __init__(self, dim: Optional[int] = None,
                 rank: Optional[Dict[int, int]] = None,
                 maximal: Optional[List[Simplex]] = None,
                 boundary: object = "auto",
                 orientation: Optional[Dict[Simplex, int]] = None) -> None:
        self.dim = dim
        self.rank: Dict[int, int] = {} if rank is None else rank
        self.maximal: List[Simplex] = [] if maximal is None else maximal
        self.boundary = boundary
        self.orientation = orientation

    def __eq__(self, other: object) -> bool:
        return type(other) is ComplexSpec and vars(other) == vars(self)

    def __repr__(self) -> str:
        return (f"ComplexSpec(dim={self.dim!r}, rank={self.rank!r}, "
                f"maximal={self.maximal!r}, boundary={self.boundary!r}, "
                f"orientation={self.orientation!r})")


def _fields(args: List[str], count: int) -> List[str]:
    """The fields of a dim or rank line, exactly count of them."""
    if len(args) != count:
        raise ValueError(f"expected {count} field{'s' * (count > 1)}, got {len(args)}")
    return args


def parse_complex(text: str) -> ComplexSpec:
    """The spec of a complex file, or a ParseError naming the first line
    the module docstring refuses."""
    spec = ComplexSpec()
    explicit_boundary: List[Simplex] = []
    auto_line: Optional[int] = None  # the boundary auto line
    named: List[tuple] = []  # (lineno, raw, vertices) of rank/boundary/orient lines
    # sorted simplex -> the line that lists it, one table per directive
    listed: Dict[str, Dict[Simplex, int]] = {"simplex": {}, "boundary": {}, "orient": {}}

    def once(key: str, simplex: Simplex, lineno: int) -> None:
        first = listed[key].setdefault(tuple(sorted(simplex)), lineno)
        if first != lineno:
            what = f"{simplex} is oriented" if key == "orient" else f"{key} {simplex} is listed"
            raise ParseError(f"{what} twice, first on line {first}", lineno)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        key, args = parts[0], parts[1:]
        try:
            if key == "dim":
                if spec.dim is not None:
                    raise ParseError("second dim line", lineno)
                (dim,) = _fields(args, 1)
                spec.dim = integer(dim)
            elif key == "rank":
                vertex, r = _fields(args, 2)
                v = _vertex(vertex)
                if v in spec.rank:
                    raise ParseError(f"vertex {v} is ranked twice", lineno)
                spec.rank[v] = integer(r)
                named.append((lineno, raw, (v,)))
            elif key == "simplex":
                spec.maximal.append(_simplex(args))
                once(key, spec.maximal[-1], lineno)
            elif key == "boundary":
                if args == ["auto"]:
                    if auto_line is not None:
                        raise ParseError(f"second boundary auto line, first on line {auto_line}",
                                         lineno)
                    auto_line = lineno
                else:
                    explicit_boundary.append(_simplex(args))
                    once(key, explicit_boundary[-1], lineno)
                    named.append((lineno, raw, explicit_boundary[-1]))
                if auto_line is not None and explicit_boundary:
                    first = min(auto_line, *listed["boundary"].values())
                    raise ParseError("boundary auto and explicit boundary lines together, "
                                     f"first on line {first}", lineno)
            elif key == "orient":
                sign = {"+1": 1, "1": 1, "-1": -1}[args[-1]]
                simplex = _simplex(args[:-1])
                once(key, simplex, lineno)
                if spec.orientation is None:
                    spec.orientation = {}
                spec.orientation[simplex] = sign
                named.append((lineno, raw, simplex))
            else:
                raise ParseError(f"unknown directive {key!r}", lineno)
        except ParseError:
            raise
        except Exception as e:
            raise ParseError(f"cannot parse {raw.strip()!r} ({e})", lineno)
    if not spec.maximal:
        raise ParseError("no simplex lines found")
    vertices = {v for s in spec.maximal for v in s}
    for lineno, raw, simplex in named:
        missing = sorted(set(simplex) - vertices)
        if missing:
            raise ParseError(
                f"{raw.strip()!r} names vertex {missing[0]}, which is in no simplex", lineno)
    if explicit_boundary:
        spec.boundary = explicit_boundary
    return spec


def complex_from_spec(spec: ComplexSpec) -> OrderedComplex:
    rank = spec.rank if spec.rank else None
    x = build_complex(spec.maximal, rank)
    if spec.dim is not None and x.dim != spec.dim:
        raise ParseError(f"declared dim {spec.dim} but complex has dim {x.dim}")
    return x


def complex_from_text(text: str) -> OrderedComplex:
    return complex_from_spec(parse_complex(text))


def manifold_from_text(
    text: str, *, require_full: bool = True, require_ordering: bool = True
) -> ManifoldPair:
    spec = parse_complex(text)
    x = complex_from_spec(spec)
    boundary = spec.boundary
    if boundary != "auto":
        boundary = face_closure(x.sort_simplex(s) for s in boundary)
    orientation = "auto"
    if spec.orientation is not None:
        orientation = {x.sort_simplex(s): v for s, v in spec.orientation.items()}
    return validate_manifold(
        x,
        spec.dim,
        boundary=boundary,
        orientation=orientation,
        require_full=require_full,
        require_ordering=require_ordering,
    )


def format_complex(x: OrderedComplex, *, orientation=None, name: str = "") -> str:
    lines = []
    if name:
        lines.append(f"# {name}")
    lines.append(f"dim {x.dim}")
    if any(x.rank[v] != v for v in x.vertices):
        for v in x.vertices:
            lines.append(f"rank {v} {x.rank[v]}")
    for s in maximal_simplices(x):
        lines.append("simplex " + " ".join(map(str, s)))
    lines.append("boundary auto")
    if orientation:
        for s in sorted(orientation):
            sign = "+1" if orientation[s] > 0 else "-1"
            lines.append("orient " + " ".join(map(str, s)) + f" {sign}")
    return "\n".join(lines) + "\n"


def content_hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# -- cochains -------------------------------------------------------------

# a sign, digits and an optional /digits; Fraction alone would also take
# decimals and exponents, and an exponent costs time superlinear in its value
_FRACTION = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def parse_cochain(text: str, complex: OrderedComplex) -> Cochain:
    ring = None
    degree = None
    values: Dict[Simplex, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("cochain"):
            parts = line.split()
            if ring is not None:
                raise ParseError("second cochain header", lineno)
            try:
                if len(parts) != 3 or parts[1] not in RINGS:
                    raise ValueError
                degree = integer(parts[2])
            except ValueError:
                raise ParseError(f"bad header {line!r}", lineno)
            ring = parts[1]
            continue
        if ring is None:
            raise ParseError("value line before the cochain header", lineno)
        if "->" not in line:
            raise ParseError(f"expected '<vertices> -> <value>' in {line!r}", lineno)
        try:
            left, right = line.split("->")
            simplex = tuple(map(integer, left.split()))
            right = right.strip()
            if ring == QMODZ and not _FRACTION.fullmatch(right):
                raise ValueError("a QmodZ value is an integer or num/den")
            value = Fraction(right) if ring == QMODZ else integer(right)
        except Exception as e:
            raise ParseError(f"cannot parse {line!r} ({e})", lineno)
        if not complex.has_simplex(simplex):
            raise ParseError(f"{simplex} is not a simplex of the complex "
                             "(vertices in rank order)", lineno)
        if len(simplex) != degree + 1:
            raise ParseError(f"{simplex} is not a {degree}-simplex", lineno)
        if simplex in values:
            raise ParseError(f"{simplex} is listed twice", lineno)
        values[simplex] = value
    if ring is None:
        raise ParseError("missing cochain header")
    return Cochain(complex, degree, ring, values)


def format_cochain(c: Cochain) -> str:
    lines = [f"cochain {c.ring} {c.degree}"]
    for s in sorted(c.values):
        v = c.values[s]
        text = f"{v.numerator}/{v.denominator}" if c.ring == QMODZ else str(v)
        lines.append(" ".join(map(str, s)) + f" -> {text}")
    return "\n".join(lines) + "\n"
