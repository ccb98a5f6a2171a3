"""Normalized cochain algebra: coboundary, cup_i products, Steenrod squares,
pullback, integration, and GF(2) cohomology solving.

Coefficient rings are exact: Int (Python int), Z2, Z4, and QmodZ
(fractions in [0,1)).  cup_i is implemented by the cut-point formula; the
integer sign convention is pinned by the coboundary identity

    d(X u_i Y) = (-1)^i ( dX u_i Y + (-1)^|X| X u_i dY
                          - X u_{i-1} Y - (-1)^{i+|X||Y|} Y u_{i-1} X )

together with the suspension relation, both of which the test suite checks
verbatim.

Two constructors.  ``Cochain(...)`` takes values from outside the engine
(parsed files, ``extend_by_zero``, callers): it checks that each key is a
simplex of the complex of the right dimension, then reduces the values
into the ring with ``_reduced``, which drops zeros.  ``Cochain._of(...)``
checks nothing.  It serves the producers whose keys are simplices reached
through the complex and whose values are reduced and nonzero by
construction or pass through ``_reduced``: ``d``, ``cup_i``, ``sq``, ``+``,
``-``, ``from_bits``, ``pullback``, the embeddings, ``quadratic._push``
and ``random_relative_cochain``, ``suspension.suspend`` and ``desuspend``.
Re-checking their output was once the engine's largest cost.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import itemgetter
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ._gf2 import Echelon, combine, eliminate, low_bit, nullspace_and_top_bits, representatives, top_bits
from .complexes import ComplexPair, ManifoldPair, OrderedComplex, SimplicialMap, Simplex, cached, cofaces
from .errors import (
    ComplexMismatch,
    InvariantViolation,
    NotACocycle,
    NotRelative,
    OrientationRequired,
    RingMismatch,
    check_operator,
)

INT = "Int"
Z2 = "Z2"
Z4 = "Z4"
QMODZ = "QmodZ"

RINGS = (INT, Z2, Z4, QMODZ)

# the two modes of quadratic functions and G-pairs: Z/4 values (pin), or
# values in 2(Z/2) < Z/4 with R/Z-valued w (spin)
PIN = "pin"
SPIN = "spin"


def _reduced(ring: str, values: Dict[Simplex, object]) -> Dict[Simplex, object]:
    """values reduced into ring, zeros dropped; the one normaliser."""
    if ring == Z2:
        return {s: 1 for s, v in values.items() if int(v) % 2}
    if ring == INT:
        return {s: w for s, v in values.items() if (w := int(v))}
    if ring == Z4:
        return {s: w for s, v in values.items() if (w := int(v) % 4)}
    if ring == QMODZ:
        return {s: w for s, v in values.items() if (w := Fraction(v) % 1)}
    raise RingMismatch(f"unknown ring {ring}")


class Cochain:
    """Sparse normalized cochain of one degree over one coefficient ring."""

    __slots__ = ("complex", "degree", "ring", "values")

    def __init__(
        self,
        complex: OrderedComplex,
        degree: int,
        ring: str,
        values: Optional[Dict[Simplex, object]] = None,
    ) -> None:
        self.complex = complex
        self.degree = degree
        self.ring = ring
        vals: Dict[Simplex, object] = {}
        if values:
            for s, v in values.items():
                s = tuple(s)
                if not complex.has_simplex(s):
                    raise ValueError(f"{s} is not a simplex of the complex")
                if len(s) != degree + 1:
                    raise ValueError(f"{s} has the wrong dimension")
                vals[s] = v
            vals = _reduced(ring, vals)
        self.values = vals

    @classmethod
    def _of(cls, complex: OrderedComplex, degree: int, ring: str, values: Dict) -> "Cochain":
        """Unchecked: values reduced, nonzero, keyed by the complex's degree-k simplices."""
        c = object.__new__(cls)
        c.complex, c.degree, c.ring, c.values = complex, degree, ring, values
        return c

    def __call__(self, s: Simplex):
        v = self.values.get(tuple(s))
        if v is None:
            return Fraction(0) if self.ring == QMODZ else 0
        return v

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Cochain)
            and self.complex is other.complex
            and self.degree == other.degree
            and self.ring == other.ring
            and self.values == other.values
        )

    def __hash__(self):
        return hash((id(self.complex), self.degree, self.ring,
                     tuple(sorted(self.values.items()))))

    def _assert_compatible(self, other: "Cochain") -> None:
        if self.complex is not other.complex:
            raise ComplexMismatch("cochains on different complexes")
        if self.ring != other.ring:
            raise RingMismatch(f"{self.ring} vs {other.ring}")
        if self.degree != other.degree:
            raise ValueError("cochains of different degrees")

    def __add__(self, other: "Cochain") -> "Cochain":
        self._assert_compatible(other)
        vals = dict(self.values)
        for s, v in other.values.items():
            vals[s] = vals.get(s, 0) + v
        return Cochain._of(self.complex, self.degree, self.ring, _reduced(self.ring, vals))

    def __neg__(self) -> "Cochain":
        return Cochain._of(self.complex, self.degree, self.ring,
                           _reduced(self.ring, {s: -v for s, v in self.values.items()}))

    def __sub__(self, other: "Cochain") -> "Cochain":
        return self + (-other)

    def is_zero(self) -> bool:
        return not self.values

    def is_relative(self, pair: ComplexPair) -> bool:
        return all(not pair.in_sub(s) for s in self.values)

    def __repr__(self) -> str:
        return f"Cochain(deg={self.degree}, ring={self.ring}, |supp|={len(self.values)})"


def zero_cochain(complex: OrderedComplex, degree: int, ring: str) -> Cochain:
    return Cochain(complex, degree, ring)


def dual_cochain(complex: OrderedComplex, s: Simplex, ring: str = Z2) -> Cochain:
    """The cochain dual to a single simplex."""
    s = tuple(s)
    return Cochain(complex, len(s) - 1, ring, {s: 1})


# -- coercions -----------------------------------------------------------


def embed_z2_z4(c: Cochain) -> Cochain:
    """The inclusion Z/2 -> Z/4 sending 1 to 2."""
    if c.ring != Z2:
        raise RingMismatch("expected a Z2 cochain")
    return Cochain._of(c.complex, c.degree, Z4, {s: 2 * v for s, v in c.values.items()})


def embed_z2_qmodz(c: Cochain) -> Cochain:
    """The inclusion Z/2 -> R/Z sending 1 to 1/2."""
    if c.ring != Z2:
        raise RingMismatch("expected a Z2 cochain")
    return Cochain._of(c.complex, c.degree, QMODZ,
                       {s: Fraction(v, 2) for s, v in c.values.items()})


# -- coboundary ----------------------------------------------------------


def d(c: Cochain) -> Cochain:
    """Simplicial coboundary (alternating signs; they vanish mod 2), pushed
    from each simplex of the support onto its cofaces.  Over Z2 each coface
    keeps a parity, filtered once; the other rings keep signed sums.  Both
    list a coface at its first occurrence."""
    up = cofaces(c.complex, c.degree)
    above = c.complex.simplices(c.degree + 1)
    vals: Dict[Simplex, object] = {}
    if c.ring == Z2:
        # the parity of each coface, flipped in place: every value is 1
        get = vals.get
        for s in c.values:
            for t in up[s][1:]:
                tau = above[t]
                vals[tau] = get(tau, 0) ^ 1
        return Cochain._of(c.complex, c.degree + 1, Z2,
                           {tau: 1 for tau, v in vals.items() if v})
    for s, v in c.values.items():
        entry = up[s]
        e = entry[0]
        for t in entry[1:e + 1]:
            tau = above[t]
            vals[tau] = vals.get(tau, 0) + v
        for t in entry[e + 1:]:
            tau = above[t]
            vals[tau] = vals.get(tau, 0) - v
    return Cochain._of(c.complex, c.degree + 1, c.ring, _reduced(c.ring, vals))


# -- the mod-2 coboundary as bits -----------------------------------------


def _index(pair: ComplexPair, k: int) -> Dict[Simplex, int]:
    """Position of each relative k-simplex in the canonical enumeration."""
    return cached(pair, ("index", k), lambda: {
        s: j for j, s in enumerate(pair.relative_simplices(k))})


def to_bits(pair: ComplexPair, c: Cochain) -> int:
    """A relative Z2 cochain as bits over the relative simplices."""
    if c.ring != Z2:
        raise RingMismatch("solver works over Z2")
    idx = _index(pair, c.degree)
    bits = 0
    for s in c.values:
        j = idx.get(s)
        if j is None:
            raise NotRelative(f"{s} lies in the subcomplex")
        bits |= 1 << j
    return bits


def from_bits(pair: ComplexPair, k: int, bits: int) -> Cochain:
    """The Z2 k-cochain whose support is the relative simplices in bits."""
    simplices = pair.relative_simplices(k)
    vals = {}
    while bits:
        j = low_bit(bits)
        bits &= bits - 1
        vals[simplices[j]] = 1
    return Cochain._of(pair.ambient, k, Z2, vals)


def coboundary_bits(pair: ComplexPair, k: int) -> List[int]:
    """The mod-2 coboundary from relative k- to relative (k+1)-cochains.

    Entry j is d of the j-th relative k-simplex, as bits over the relative
    (k+1)-simplices, both in canonical order.  The bits are read off the
    complex's coface index (``complexes.cofaces``), whose positions index
    ``ambient.simplices(k + 1)``: when the subcomplex has no
    (k+1)-simplex, as on an empty one, a position is the bit.  Otherwise it
    is mapped to the bit through a position list, built in one walk beside
    ``relative_simplices(k + 1)``, which holds the ambient's own tuples in
    the ambient's order, so no coface is hashed.  Built once per pair and
    degree; callers must not mutate it.  An operator whose dense size
    exceeds ``errors.OPERATOR_BUDGET`` is refused before any column is built.
    """
    def build() -> List[int]:
        simplices, above = pair.relative_simplices(k), pair.relative_simplices(k + 1)
        check_operator(k, len(simplices), len(above))
        up = cofaces(pair.ambient, k)
        entries = up.values() if len(simplices) == len(up) else map(up.__getitem__, simplices)
        ambient = pair.ambient.simplices(k + 1)
        columns = []
        if len(above) == len(ambient):
            for entry in entries:
                v = 0
                for t in entry[1:]:
                    v |= 1 << t
                columns.append(v)
            return columns
        # ambient position -> relative one, -1 in the subcomplex, where no
        # coface of a relative simplex lies: the subcomplex is face-closed
        bit, j = [], 0
        relative = iter(above)
        following = next(relative, None)
        for tau in ambient:
            if tau is following:
                bit.append(j)
                j += 1
                following = next(relative, None)
            else:
                bit.append(-1)
        for entry in entries:
            v = 0
            for t in entry[1:]:
                v |= 1 << bit[t]
            columns.append(v)
        return columns

    return cached(pair, ("coboundary", k), build)


def _tops(pair: ComplexPair, k: int) -> frozenset:
    """The top bits of the image of d_k, as indices of relative (k+1)-simplices.

    The columns of d_k at ``_tops(pair, k - 1)`` are dependent on earlier
    ones (the clearing lemma of ``_gf2``), so they are skipped: the span,
    and with it its top bits, is the same.  The image of d_k is 0 for k < 0
    and for k >= dim, so the chain below a degree is at most dim long.
    """
    if k < 0 or k >= pair.ambient.dim:
        return frozenset()
    return cached(pair, ("tops", k), lambda: top_bits(
        coboundary_bits(pair, k), _tops(pair, k - 1)))


# -- cup_i products ------------------------------------------------------


def steenrod_sign_exponent(p: int, q: int, i: int, cuts: Tuple[int, ...]) -> int:
    """Mod-2 exponent of the sign of one cut term of u_i (degrees p, q).

    Uniquely determined (given sign +1 for every cup_0 term) by the
    coboundary identity and the suspension relation quoted in the module
    docstring; both are re-verified exhaustively by the test suite.
    """
    ksum = sum(cuts)
    kpos = sum(j * k for j, k in enumerate(cuts))
    kchoose2 = sum((k * (k - 1) // 2) for k in cuts)
    c2p = p * (p - 1) // 2
    c2q = q * (q - 1) // 2
    c2i = i * (i - 1) // 2
    return (c2p + c2i + kpos + kchoose2
            + i * (1 + q + ksum + p * q + c2p + c2q)) % 2


def _face(positions: List[int]) -> Callable[[Simplex], Simplex]:
    """The face of a simplex at the given positions, always as a tuple."""
    t = positions[0]
    return itemgetter(*positions) if len(positions) > 1 else itemgetter(slice(t, t + 1))


@lru_cache(maxsize=None)
def _cut_patterns(p: int, q: int, i: int) -> Tuple[Tuple[Callable, Callable, int], ...]:
    """Admissible (even face, odd face, sign exponent) triples, each face
    read off the (p+q-i)-simplex by ``_face`` of its positions.

    The cut indices 0 <= k_0 < ... < k_i <= m (m = p+q-i) split [0, m] into
    blocks B_0=[0,k_0], B_1=[k_0,k_1], ..., B_{i+1}=[k_i,m] sharing the cut
    vertices; even-indexed blocks feed the first factor, odd-indexed the
    second.  A cut is admissible when the factors receive p+1 and q+1
    vertices.
    """
    m = p + q - i
    if i < 0 or i > p or i > q or m < 0:
        return ()
    out = []
    for cuts in itertools.combinations(range(m + 1), i + 1):
        bounds = (0,) + cuts + (m,)
        blocks = [range(lo, hi + 1) for lo, hi in zip(bounds, bounds[1:])]
        even = [t for b in blocks[0::2] for t in b]
        odd = [t for b in blocks[1::2] for t in b]
        if len(even) == p + 1 and len(odd) == q + 1:
            sign = steenrod_sign_exponent(p, q, i, cuts)
            out.append((_face(even), _face(odd), sign))
    return tuple(out)


def cup_i(u: Cochain, v: Cochain, i: int) -> Cochain:
    """Steenrod cup_i product; identically zero for i < 0 or i > min(p, q).

    Only the (p+q-i)-simplices above both supports can be nonzero; they are
    reached from the smaller support through the coface index, and there is
    no walk when the complex has none."""
    if u.complex is not v.complex:
        raise ComplexMismatch("cup_i needs cochains on one complex")
    if u.ring != v.ring:
        raise RingMismatch(f"{u.ring} vs {v.ring}")
    if u.ring not in (INT, Z2):
        raise RingMismatch("cup_i is defined over Int and Z2; coerce afterwards")
    p, q = u.degree, v.degree
    x = u.complex
    if (i < 0 or i > p or i > q or not u.values or not v.values
            or p + q - i not in x.simplices_by_dim):
        return Cochain._of(x, p + q - i, u.ring, {})
    low, above = (p, u.values) if len(u.values) <= len(v.values) else (q, v.values)
    for k in range(low, p + q - i):
        up, simplices = cofaces(x, k), x.simplices(k + 1)
        above = {simplices[t] for s in above for t in up[s][1:]}
    patterns = _cut_patterns(p, q, i)
    vals: Dict[Simplex, int] = {}
    mod2 = u.ring == Z2
    for s in above:
        total = 0
        for even, odd, sign in patterns:
            uv = u.values.get(even(s))
            if not uv:
                continue
            vv = v.values.get(odd(s))
            if not vv:
                continue
            term = uv * vv
            total += -term if (sign & 1) and not mod2 else term
        if mod2:
            total %= 2
        if total:
            vals[s] = total
    return Cochain._of(x, p + q - i, u.ring, vals)


def cup_form(m: ManifoldPair, p: int, i: int,
             tops: Optional[Iterable[Simplex]] = None) -> Dict[Simplex, int]:
    """The cup_i form of an n-manifold between p-simplices and relative
    (n+i-p)-simplices: the entry of a p-simplex s holds bit k when
    int(s* u_i t_k*) = 1, for t_k the k-th relative (n+i-p)-simplex in
    canonical order.

    Each term of the integral is the even face of a top simplex against its
    odd face, over the cut patterns of u_i, so one walk over the top
    simplices visits them all.  Given ``tops``, only those are walked, and
    an entry counts only their terms: it is exact at s, or at bit k, when
    every top simplex above s, or above t_k, is given, as ``cup_i`` walks
    only those above a support.  A form with no cut pattern, such as
    (n-2, n-4) at n = 3, is empty and walks nothing.
    """
    faces = [(even, odd) for even, odd, _ in _cut_patterns(p, m.n + i - p, i)]
    if not faces:
        return {}
    idx = _index(m.pair, m.n + i - p)
    form: Dict[Simplex, int] = {}
    for s in m.complex.simplices(m.n) if tops is None else tops:
        for even, odd in faces:
            k = idx.get(odd(s))
            if k is not None:
                e = even(s)
                form[e] = form.get(e, 0) ^ (1 << k)
    return form


def cup_rows(pair: ComplexPair, k: int, i: int, bits: int) -> List[int]:
    """Row j is e_j* u_i c as bits over the relative (2k-i)-simplices, for
    e_j the j-th relative k-simplex and c the relative k-cochain with the
    given bits: ``to_bits(pair, cup_i(dual_cochain(x, e_j), c, i))``.

    Each term is the even face of a (2k-i)-simplex against its odd face in
    supp(c), over the cut patterns of u_i, so one walk over the simplices
    above supp(c) builds every row, as ``cup_form`` walks the top simplices.
    There is no walk, and no cut pattern is built, when the complex has no
    (2k-i)-simplex.
    """
    rows = [0] * len(pair.relative_simplices(k))
    x, m = pair.ambient, 2 * k - i
    if not bits or m not in x.simplices_by_dim:
        return rows
    patterns = _cut_patterns(k, k, i)
    if not patterns:
        return rows
    support = above = from_bits(pair, k, bits).values
    for deg in range(k, m):
        up, upper = cofaces(x, deg), x.simplices(deg + 1)
        above = {upper[t] for s in above for t in up[s][1:]}
    idx, top = _index(pair, k), _index(pair, m)
    for s in above:
        bit = 1 << top[s]
        for even, odd, _ in patterns:
            if odd(s) in support:
                j = idx.get(even(s))
                if j is not None:
                    rows[j] ^= bit
    return rows


def cup(u: Cochain, v: Cochain) -> Cochain:
    return cup_i(u, v, 0)


def sq(i: int, c: Cochain) -> Cochain:
    """Cochain Steenrod square: Sq^i c = c u_{k-i} c + c u_{k-i+1} dc.

    Both terms lie in degree k + i, so Sq^i c is the zero cochain, and dc is
    not built, when i > k + 1 or the complex has no (k+i)-simplex.
    """
    if c.ring != Z2:
        raise RingMismatch("Sq^i is defined on Z2 cochains")
    k = c.degree
    if i > k + 1 or k + i not in c.complex.simplices_by_dim:
        return Cochain._of(c.complex, k + i, Z2, {})
    return cup_i(c, c, k - i) + cup_i(c, d(c), k - i + 1)


def extend_by_zero(target: OrderedComplex, c: Cochain) -> Cochain:
    """Reinterpret c on a larger complex containing its support simplices."""
    return Cochain(target, c.degree, c.ring, dict(c.values))


def pullback(f: SimplicialMap, c: Cochain) -> Cochain:
    """(f*c)(s) = c(f s), zero on simplices with degenerate image.

    A degenerate image repeats a vertex, so it is no key of ``c.values``
    and one lookup of the image tuple covers both cases."""
    if c.complex is not f.target:
        raise ComplexMismatch("cochain does not live on the map's target")
    vertex_map, values = f.vertex_map, c.values
    vals: Dict[Simplex, object] = {}
    for s in f.source.simplices(c.degree):
        v = values.get(tuple([vertex_map[u] for u in s]))
        if v:
            vals[s] = v
    return Cochain._of(f.source, c.degree, c.ring, vals)


def integrate(m: ManifoldPair, w: Cochain):
    """Evaluate a top-degree cochain on the fundamental class.

    The sum runs over the support, which lies in the top simplices: Z2 and
    Z4 plainly, Int and QmodZ with the signs of the orientation they need.
    """
    if w.degree != m.n:
        raise ValueError(f"integrate needs degree {m.n}, got {w.degree}")
    if w.complex is not m.complex:
        raise ComplexMismatch("cochain lives on a different complex")
    if w.ring in (Z2, Z4):
        return sum(w.values.values()) % (2 if w.ring == Z2 else 4)
    if m.orientation is None:
        raise OrientationRequired("signed integration needs an orientation")
    total = sum(m.orientation[s] * v for s, v in w.values.items())
    return Fraction(total) % 1 if w.ring == QMODZ else total


# -- cohomology over F2 --------------------------------------------------


class CohomologySolver:
    """Basis of H^k(X, Y; F2) with exact decomposition certificates.

    Columns are ordered by the canonical (sorted) simplex enumeration.  The
    cocycles are the kernel of d_k, from the highest-bit pass of
    ``_gf2.nullspace_and_top_bits``; the pivot rule does not move a kernel
    tracker.  The representatives and the decompositions read the
    lowest-bit boundary echelon of d_{k-1} (``_gf2.representatives``),
    which fixes the bases.  It is built on first read: at once when
    cocycles survive, to reduce them to representatives, and otherwise on
    the first decomposition, so a degree where no class survives runs no
    lowest-bit pass until a decomposition.  The deferred build is the same
    ``eliminate`` on the same columns and skip, so its rows and trackers
    are those of the eager one.
    Two clearings (``_gf2``) skip the columns at the top bits of an image:
    those of d_k at the top bits of im d_{k-1}, so the kernel holds only the
    dim H^k cocycles that survive modulo the boundaries, and those of
    d_{k-1} at the top bits of im d_{k-2}, about half of the boundary
    echelon's columns on a subdivided 3-manifold and the costliest ones.
    A skipped column is dependent on earlier ones and would have stored no
    row and no tracker, so bases and certificates are those of the
    unskipped elimination, and reproducible.  The top bits of im d_k are
    found once per pair with the columns at those of im d_{k-1} skipped,
    so a lone solver builds the chain below it and consecutive degrees
    share it.  The kernel pass of d_k is that same pass, so the solver
    stores its top bits as ``_tops(pair, k)`` for the solver above.
    A degree with no relative k-simplex (k < 0, k > dim, or every
    k-simplex in the subcomplex) has no cohomology: its solver has the
    empty basis and an empty echelon, and builds no operator.  Its
    decompositions still run the checks below, which build d_k and
    d_{k-1} on first use.
    """

    def __init__(self, pair: ComplexPair, degree: int) -> None:
        self.pair = pair
        self.degree = degree
        self.simplices: Tuple[Simplex, ...] = pair.relative_simplices(degree)
        self._shift = len(pair.relative_simplices(degree - 1))

        self._rep_bits: List[int] = []
        if not self.simplices:
            # an empty degree: no operator, no elimination, and d_k has no
            # column, so im d_k has no top bit
            cached(pair, ("tops", degree), frozenset)
            self._ech = Echelon()
        else:
            below = coboundary_bits(pair, degree - 1)  # budget-checked before d_k
            cocycles, tops = nullspace_and_top_bits(
                coboundary_bits(pair, degree), _tops(pair, degree - 1))
            cached(pair, ("tops", degree), lambda: tops)
            if cocycles:
                self._ech, self._rep_bits = representatives(
                    below, cocycles, self._shift, _tops(pair, degree - 2))
        self.basis: Tuple[Cochain, ...] = tuple(
            from_bits(pair, degree, r) for r in self._rep_bits)

    @cached_property
    def _ech(self) -> Echelon:
        """The boundary echelon when the constructor set none (no class
        survives): ``representatives`` with no cycle is this ``eliminate``."""
        return eliminate(coboundary_bits(self.pair, self.degree - 1),
                         _tops(self.pair, self.degree - 2))

    @property
    def dim(self) -> int:
        return len(self.basis)

    # -- the decompose-and-correct pattern --------------------------------

    def decompose(self, p: Cochain) -> Tuple[Tuple[int, ...], Cochain]:
        """Write p = sum a_j p_j + dc exactly; returns (a, c).

        Raises NotACocycle / NotRelative when p fails the preconditions.
        """
        coords, pre, _ = self._decompose_bits(p)
        a = tuple((coords >> j) & 1 for j in range(self.dim))
        return a, from_bits(self.pair, self.degree - 1, pre)

    def _decompose_bits(self, p: Cochain) -> Tuple[int, int, int]:
        """``decompose`` as bits: (a, c, dc), with a over the basis, c over
        the relative (k-1)-simplices and dc over the relative k-simplices.
        dc is the one the identity check computes anyway."""
        if p.complex is not self.pair.ambient:
            raise ComplexMismatch("cocycle lives on a different complex")
        if p.degree != self.degree:
            raise ValueError("wrong degree")
        return self._decompose_cocycle_bits(to_bits(self.pair, p))

    def _decompose_cocycle_bits(self, bits: int) -> Tuple[int, int, int]:
        """``_decompose_bits`` of a k-cochain already given as bits over the
        relative k-simplices, with the same three checks."""
        if combine(coboundary_bits(self.pair, self.degree), bits):
            raise NotACocycle("dp != 0")
        r, track = self._ech.reduce(bits)
        if r:
            raise NotACocycle("cocycle space bookkeeping failed")
        coords, pre = track >> self._shift, track & ((1 << self._shift) - 1)
        dpre = combine(coboundary_bits(self.pair, self.degree - 1), pre)
        if self._cocycle_bits(coords) ^ dpre != bits:
            raise InvariantViolation("decomposition identity failed")
        return coords, pre, dpre

    def reconstruct(self, coords: Sequence[int]) -> Cochain:
        """sum a_j p_j for one coordinate a_j per basis class."""
        if len(coords) != self.dim:
            raise ValueError("one coordinate per basis class")
        bits = sum((a % 2) << j for j, a in enumerate(coords))
        return from_bits(self.pair, self.degree, self._cocycle_bits(bits))

    def _cocycle_bits(self, coords: int) -> int:
        """sum a_j p_j as bits over the relative simplices, for a as bits
        over the basis."""
        return combine(self._rep_bits, coords)


def solver(pair: ComplexPair, k: int) -> CohomologySolver:
    """The degree-k solver of pair, built once per pair and degree."""
    return cached(pair, ("solver", k), lambda: CohomologySolver(pair, k))


def sq2_of_basis(pair: ComplexPair, k: int) -> Iterator[Tuple[Cochain, Cochain]]:
    """(c, Sq^2 c) for each basis cocycle c of H^k(pair), in basis order.

    Below degree 2 Sq^2 vanishes on cocycles, so there are none and no
    solver is built: Sq^2 is 0 on 0-cochains, and on a 1-cocycle c it is
    c u_{-1} c + c u_0 dc = 0."""
    if k < 2:
        return
    for c in solver(pair, k).basis:
        yield c, sq(2, c)


def wu_v2_check(m: ManifoldPair) -> Optional[Cochain]:
    """None when v2 vanishes, else a basis cocycle c of H^{n-2} with
    integral(Sq^2 c) = 1.  Below dimension 4 no solver is built."""
    for c, sq2 in sq2_of_basis(m.pair, m.n - 2):
        if integrate(m, sq2) % 2:
            return c
    return None
