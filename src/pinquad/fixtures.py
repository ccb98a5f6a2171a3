"""The fixture catalog: spheres, disks, and the small standard surfaces.

Closed fixtures are minimal triangulations; fixtures with boundary are one
barycentric subdivision of a minimal complex so that the boundary is a
full subcomplex and boundary vertices precede interior vertices (the
conditions every quadratic-function operation relies on).  The raw
unsubdivided pairs are kept available for group computations, where those
conditions are irrelevant and enumeration sizes matter: ``RAW_PAIRS`` maps
a fixture name to the builder of its raw pair, which ``pinquad ggroup
--fixture`` computes on in place of the catalog entry.

Each fixture is declared once, in ``_BUILDERS``, the table from fixture
name to builder: its keys, in order, are ``CATALOG_NAMES``, and ``catalog``
refuses every other name.

    name         f-vector              notes
    sphere(n)    binomials of n+2      boundary of a simplex, oriented
    disk(n)      cone over sphere(n-1) oriented, apex ranked last
    rp2          (6, 15, 10)           complete 1-skeleton, chi = 1
    torus        (7, 21, 14)           cyclic orbit triangulation, oriented
    klein        (9, 27, 18)           3x3 grid quotient, chi = 0
    mobius       (20, 50, 30)          subdivision of the 5-vertex strip
    annulus      (24, 60, 36)          subdivision of the prism I x S1
    solid_torus  (120, 624, 936, 432)  subdivision of the double prism
    cp2          (9, 36, 84, 90, 36)   from the data file; fails the Wu check

cp2 is the one catalog entry admitting no quadratic functions.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Tuple

from .complexes import (
    ComplexPair,
    ManifoldPair,
    OrderedComplex,
    barycentric_subdivide,
    build_complex,
    cone,
    cylinder,
    validate_manifold,
)
from .errors import UnknownFixture
from .textio import format_complex, manifold_from_text

# 6-vertex projective plane: complete 1-skeleton, 10 triangles.
RP2_TRIANGLES = (
    (0, 1, 3), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 4, 5),
    (1, 2, 4), (1, 2, 5), (1, 3, 4), (2, 3, 5), (3, 4, 5),
)

# 7-vertex torus: orbits of (0,1,3) and (0,2,3) under the cyclic shift.
TORUS_TRIANGLES = tuple(sorted(
    {tuple(sorted(((a + s) % 7, (b + s) % 7, (c + s) % 7)))
     for (a, b, c) in ((0, 1, 3), (0, 2, 3)) for s in range(7)}
))

# 9-vertex Klein bottle: 3x3 grid on F_3^2, columns wrap plainly and rows
# wrap with the orientation-reversing flip c -> -c.
def _klein_triangles() -> Tuple[Tuple[int, ...], ...]:
    def vert(r: int, c: int) -> int:
        if c == 3:
            c = 0
        if r == 3:
            r, c = 0, (-c) % 3
        return 3 * r + c

    tris = []
    for r in range(3):
        for c in range(3):
            a, b = vert(r, c), vert(r, c + 1)
            aa, bb = vert(r + 1, c), vert(r + 1, c + 1)
            tris.append(tuple(sorted((a, b, bb))))
            tris.append(tuple(sorted((a, aa, bb))))
    return tuple(sorted(tris))


KLEIN_TRIANGLES = _klein_triangles()

# 5-vertex Moebius band; boundary is the 5-cycle 0-2-4-1-3.
MOBIUS_TRIANGLES = ((0, 1, 2), (1, 2, 3), (2, 3, 4), (0, 3, 4), (0, 1, 4))

def sphere_complex(n: int) -> OrderedComplex:
    """Boundary of the standard (n+1)-simplex."""
    return build_complex(itertools.combinations(range(n + 2), n + 1))


def circle_complex() -> OrderedComplex:
    return sphere_complex(1)


def raw_mobius_pair() -> ComplexPair:
    """The unsubdivided 5-vertex Moebius band with its boundary circle."""
    m = validate_manifold(build_complex(MOBIUS_TRIANGLES), 2,
                          require_full=False, require_ordering=False)
    return m.pair


def raw_annulus_pair() -> ComplexPair:
    """The unsubdivided prism annulus I x S1 with its two boundary circles."""
    cyl = cylinder(circle_complex())
    m = validate_manifold(cyl.complex, 2, require_full=False, require_ordering=False)
    return m.pair


# fixture name -> builder of the raw pair that group computations use instead
RAW_PAIRS: Dict[str, Callable[[], ComplexPair]] = {
    "mobius": raw_mobius_pair, "annulus": raw_annulus_pair}


def _subdivided(x: OrderedComplex, n: int) -> ManifoldPair:
    return validate_manifold(barycentric_subdivide(x).complex, n)


def _cp2() -> ManifoldPair:
    # importlib.resources (pathlib, tempfile, zipfile) is most of this
    # module's import time, and only cp2 reads a data file
    from importlib import resources

    text = resources.files("pinquad.data").joinpath("cp2_9.txt").read_text()
    return manifold_from_text(text)


# fixture name -> builder, in catalog order: the one list of fixtures
_BUILDERS: Dict[str, Callable[[], ManifoldPair]] = {
    **{f"sphere{n}": (lambda n=n: validate_manifold(sphere_complex(n), n))
       for n in range(5)},
    **{f"disk{n}": (lambda n=n: validate_manifold(cone(sphere_complex(n - 1)).complex, n))
       for n in range(1, 4)},
    "rp2": lambda: validate_manifold(build_complex(RP2_TRIANGLES), 2),
    "torus": lambda: validate_manifold(build_complex(TORUS_TRIANGLES), 2),
    "klein": lambda: validate_manifold(build_complex(KLEIN_TRIANGLES), 2),
    "mobius": lambda: _subdivided(build_complex(MOBIUS_TRIANGLES), 2),
    "annulus": lambda: _subdivided(cylinder(circle_complex()).complex, 2),
    "solid_torus": lambda: _subdivided(cylinder(cylinder(circle_complex()).complex).complex, 3),
    "cp2": _cp2,
}
CATALOG_NAMES = tuple(_BUILDERS)

_cache: Dict[str, ManifoldPair] = {}


def catalog(name: str) -> ManifoldPair:
    """A validated ManifoldPair for one of the documented fixture names."""
    key = name.strip().lower().replace("(", "").replace(")", "")
    if key not in _BUILDERS:
        raise UnknownFixture(name)
    if key not in _cache:
        _cache[key] = _BUILDERS[key]()
    return _cache[key]


def fixture_text(name: str) -> str:
    """The complex text serialization of a fixture (used for hashing)."""
    m = catalog(name)
    return format_complex(m.complex, orientation=m.orientation, name=name)
