"""Ordered simplicial complexes, constructions, and manifold validation.

Vertices are ints, negative ones included; only the text format of
``textio`` refuses them.  A complex carries an integer rank per vertex;
inside every simplex the ranks are strictly increasing, and simplex tuples
are always stored in rank order.  Only the relative order within simplices
ever matters.

Two constructors each.  ``OrderedComplex(...)`` and ``SimplicialMap(...)``
take input from outside the engine (parsed files, tests, the covers of
``quadratic``): the complex is stored canonically, then checked for
dimensions, strict rank order and closure under faces; the map for weak
order preservation and simplex images.  ``OrderedComplex._of(...)`` and
``SimplicialMap._of(...)`` check nothing.  They serve the producers whose
output is valid by construction:

- ``build_complex``: its own repeat and tie checks on the given simplices
  order each strictly by rank, and ``face_closure`` closes them;
- ``barycentric_subdivide``: the simplices are the chains of faces, listed
  below each top face, so closed, and ranked by dimension, so strictly
  increasing; along a chain the faces grow, so their maximum vertices
  rise weakly in rank, and ``to_base`` sends the chain onto a face of its
  top face;
- ``cone`` and ``suspension``: the base simplices and their joins with a
  new vertex ranked after (or before) every other, closed since the base is;
- ``cylinder``: its complex comes from ``build_complex``, each end maps a
  simplex onto a face of its prism at that level, and the projection maps
  a prism onto its simplex with each rank kept;
- ``disjoint_union``: two closed complexes on disjoint vertices, their
  ranks kept, and the two inclusions;
- ``identity_map``, and ``ComplexPair.sub_complex``, whose sub was checked
  face-closed in the ambient when the pair was built.

``_of`` takes ``simplices_by_dim`` in the canonical form that the checking
path stores (``_by_dim``), so both give equal complexes.  Re-checking the
output of subdivision once cost about as much as subdividing.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .errors import (
    BoundaryNotFull,
    EmptyBoundary,
    NeedsSubdivision,
    NotPseudoManifold,
    OrderingViolation,
    TieInSimplex,
)

Simplex = Tuple[int, ...]


def _by_dim(simplices: Iterable[Simplex]) -> Dict[int, Tuple[Simplex, ...]]:
    """Distinct simplices filed by dimension, each dimension sorted: the
    canonical form in which a complex stores them."""
    by_dim: Dict[int, List[Simplex]] = {}
    for s in simplices:
        by_dim.setdefault(len(s) - 1, []).append(s)
    return {k: tuple(sorted(by_dim[k])) for k in sorted(by_dim)}


class OrderedComplex:
    """Vertex-ordered simplicial complex, closed under faces."""

    def __init__(
        self,
        simplices_by_dim: Mapping[int, Sequence[Simplex]],
        rank: Mapping[int, int],
    ) -> None:
        self._store({
            k: tuple(sorted(set(map(tuple, sims))))
            for k, sims in sorted(simplices_by_dim.items())
            if sims
        }, dict(rank))
        self._check()

    @classmethod
    def _of(cls, simplices_by_dim: Dict[int, Tuple[Simplex, ...]],
            rank: Dict[int, int]) -> "OrderedComplex":
        """Unchecked: simplices canonical (``_by_dim``), closed under faces,
        each in strictly increasing rank."""
        x = object.__new__(cls)
        x._store(simplices_by_dim, rank)
        return x

    def _store(self, simplices_by_dim: Dict[int, Tuple[Simplex, ...]],
               rank: Dict[int, int]) -> None:
        self.rank = rank
        self.simplices_by_dim = simplices_by_dim
        self._simplex_set = frozenset(
            s for sims in simplices_by_dim.values() for s in sims
        )
        self.cache: Dict[object, object] = {}

    def _check(self) -> None:
        for k, sims in self.simplices_by_dim.items():
            for s in sims:
                if len(s) != k + 1:
                    raise ValueError(f"simplex {s} filed under dimension {k}")
                ranks = [self.rank[v] for v in s]
                if any(a >= b for a, b in zip(ranks, ranks[1:])):
                    raise TieInSimplex(f"ranks not strictly increasing in {s}")
                if k > 0:
                    for face in itertools.combinations(s, k):
                        if face not in self._simplex_set:
                            raise ValueError(f"face {face} of {s} missing")

    # -- basic queries ----------------------------------------------------

    @property
    def dim(self) -> int:
        return max(self.simplices_by_dim, default=-1)

    @property
    def vertices(self) -> Tuple[int, ...]:
        return tuple(s[0] for s in self.simplices_by_dim.get(0, ()))

    def simplices(self, k: int) -> Tuple[Simplex, ...]:
        return self.simplices_by_dim.get(k, ())

    def all_simplices(self) -> Iterable[Simplex]:
        for k in sorted(self.simplices_by_dim):
            yield from self.simplices_by_dim[k]

    def has_simplex(self, s: Simplex) -> bool:
        return tuple(s) in self._simplex_set

    def f_vector(self) -> Tuple[int, ...]:
        return tuple(len(self.simplices(k)) for k in range(self.dim + 1))

    def euler(self) -> int:
        return sum((-1) ** k * len(self.simplices(k)) for k in range(self.dim + 1))

    def sort_simplex(self, vertices: Iterable[int]) -> Simplex:
        """Order a vertex set by rank, rejecting rank ties."""
        out = tuple(sorted(set(vertices), key=lambda v: (self.rank[v], v)))
        ranks = [self.rank[v] for v in out]
        if any(a == b for a, b in zip(ranks, ranks[1:])):
            raise TieInSimplex(f"ranks tie in {out}")
        return out

    def __repr__(self) -> str:
        return f"OrderedComplex(f={self.f_vector()})"


def face_closure(simplices: Iterable[Simplex]) -> set:
    """Every nonempty face of every given simplex, vertex order kept."""
    return {face for s in simplices for r in range(1, len(s) + 1)
            for face in itertools.combinations(s, r)}


def build_complex(
    maximal_simplices: Iterable[Sequence[int]],
    rank: Optional[Mapping[int, int]] = None,
) -> OrderedComplex:
    """Close the given simplices under faces; default rank is the vertex id."""
    maximal = [tuple(s) for s in maximal_simplices]
    verts = sorted({v for s in maximal for v in s})
    if rank is None:
        rank = {v: v for v in verts}
    else:
        rank = dict(rank)
        for v in verts:
            rank.setdefault(v, v)
    sorted_maximal = []
    for s in maximal:
        t = tuple(sorted(set(s), key=lambda v: rank[v]))
        if len(t) != len(s):
            raise TieInSimplex(f"repeated vertex in simplex {s}")
        ranks = [rank[v] for v in t]
        if any(a == b for a, b in zip(ranks, ranks[1:])):
            raise TieInSimplex(f"ranks tie in simplex {s}")
        sorted_maximal.append(t)
    return OrderedComplex._of(_by_dim(face_closure(sorted_maximal)),
                              {v: rank[v] for v in verts})


class SimplicialMap:
    """Weakly order preserving simplicial map between ordered complexes."""

    def __init__(
        self,
        source: OrderedComplex,
        target: OrderedComplex,
        vertex_map: Mapping[int, int],
    ) -> None:
        self.source = source
        self.target = target
        self.vertex_map = dict(vertex_map)
        self._check()

    @classmethod
    def _of(cls, source: OrderedComplex, target: OrderedComplex,
            vertex_map: Dict[int, int]) -> "SimplicialMap":
        """Unchecked: weakly order preserving, each image a target simplex."""
        f = object.__new__(cls)
        f.source, f.target, f.vertex_map = source, target, vertex_map
        return f

    def _check(self) -> None:
        rank_t = self.target.rank
        for s in self.source.all_simplices():
            img = [self.vertex_map[v] for v in s]
            ranks = [rank_t[w] for w in img]
            if any(a > b for a, b in zip(ranks, ranks[1:])):
                raise ValueError(f"map not order preserving on {s}")
            dedup = self.image(s)
            if not self.target.has_simplex(dedup):
                raise ValueError(f"image {dedup} of {s} is not a target simplex")

    def image(self, s: Simplex) -> Simplex:
        """Image simplex with repeats deleted."""
        img = [self.vertex_map[v] for v in s]
        out = [img[0]]
        for w in img[1:]:
            if w != out[-1]:
                out.append(w)
        return tuple(out)

    def nondegenerate_image(self, s: Simplex) -> Optional[Simplex]:
        """Image simplex, or None when the image is degenerate."""
        img = tuple(self.vertex_map[v] for v in s)
        return img if len(set(img)) == len(img) else None

    def __repr__(self) -> str:
        return f"SimplicialMap({self.source!r} -> {self.target!r})"


def identity_map(x: OrderedComplex) -> SimplicialMap:
    return SimplicialMap._of(x, x, {v: v for v in x.vertices})


class ComplexPair:
    """An ambient complex with a face-closed subcomplex."""

    def __init__(self, ambient: OrderedComplex, sub: Iterable[Simplex]) -> None:
        self.ambient = ambient
        self.sub = frozenset(map(tuple, sub))
        for s in self.sub:
            if not ambient.has_simplex(s):
                raise ValueError(f"sub simplex {s} not in ambient")
            if len(s) > 1:
                for face in itertools.combinations(s, len(s) - 1):
                    if face not in self.sub:
                        raise ValueError(f"sub not face-closed at {s}")
        self.sub_vertices = frozenset(s[0] for s in self.sub if len(s) == 1)
        self.cache: Dict[object, object] = {}

    def in_sub(self, s: Simplex) -> bool:
        return tuple(s) in self.sub

    def relative_simplices(self, k: int) -> Tuple[Simplex, ...]:
        """The k-simplices outside the subcomplex, in canonical order: the
        ambient's own tuple when the subcomplex is empty."""
        if not self.sub:
            return self.ambient.simplices(k)
        return cached(self, ("simplices", k), lambda: tuple(
            s for s in self.ambient.simplices(k) if s not in self.sub))

    def sub_complex(self) -> OrderedComplex:
        rank = {v: self.ambient.rank[v] for v in self.sub_vertices}
        return OrderedComplex._of(_by_dim(self.sub), rank)

    def __repr__(self) -> str:
        return f"ComplexPair(ambient={self.ambient!r}, |sub|={len(self.sub)})"


def absolute_pair(x: OrderedComplex) -> ComplexPair:
    return ComplexPair(x, ())


def cached(owner, key, build: Callable[[], object]):
    """The memo of an object with a ``cache`` dict: build() on the first
    request for key, the stored value after.

    The coface index depends on the complex alone, which never changes once
    built, so it lives on the OrderedComplex: fresh pairs over one complex
    share it, and the repeated calls of the solve_scaled benchmark are not
    cold for face enumeration.  Its cofaces are positions in the complex's
    own enumeration, so it serves every subcomplex alike.  What depends on a
    subcomplex lives on the pairs, so each new pair starts cold for it: the
    relative simplices (the ambient's own tuples when the subcomplex is
    empty, with no entry) and their index, the mod-2 operators, the top
    bits and the solvers.
    """
    cache = owner.cache
    if key not in cache:
        cache[key] = build()
    return cache[key]


def cofaces(x: OrderedComplex, k: int) -> Dict[Simplex, Tuple[int, ...]]:
    """The (k+1)-simplices above each k-simplex of x, split by sign, as
    positions in ``x.simplices(k + 1)``.

    The entry of s is (e, t_1, ..., t_m): s is a face of every
    x.simplices(k + 1)[t_j], with sign +1 in the boundary of t_1..t_e and -1
    in that of the rest, each group in increasing position, which is the
    canonical order.  The keys are x.simplices(k) in canonical order.  Built
    once per complex and degree and shared by every pair over x; callers
    must not mutate it.  With no (k+1)-simplices, as in the top degree,
    every entry is the one tuple (0,).
    """
    if k < 0:
        return {}

    def build() -> Dict[Simplex, Tuple[int, ...]]:
        if not x.simplices(k + 1):
            return dict.fromkeys(x.simplices(k), (0,))
        split = {s: ([], []) for s in x.simplices(k)}
        for t, tau in enumerate(x.simplices(k + 1)):
            # the i-th face drops vertex k+1-i, of the parity of k+1+i
            for j, face in enumerate(itertools.combinations(tau, k + 1), k + 1):
                split[face][j % 2].append(t)
        return {s: (len(plus), *plus, *minus) for s, (plus, minus) in split.items()}

    return cached(x, ("cofaces", k), build)


def maximal_simplices(x: OrderedComplex) -> List[Simplex]:
    """The simplices of x that are faces of no other, by dimension, then canonically."""
    return [s for k in range(x.dim + 1) for s, up in cofaces(x, k).items() if len(up) == 1]


# -- manifolds -----------------------------------------------------------


class ManifoldPair:
    """A pseudo-manifold with boundary subcomplex and optional orientation."""

    def __init__(
        self,
        pair: ComplexPair,
        n: int,
        orientation: Optional[Mapping[Simplex, int]],
        boundary_full: bool,
        ordering_ok: bool,
    ) -> None:
        self.pair = pair
        self.n = n
        self.orientation = dict(orientation) if orientation is not None else None
        self.boundary_full = boundary_full
        self.ordering_ok = ordering_ok
        self.cache: Dict[object, object] = {}

    @property
    def complex(self) -> OrderedComplex:
        return self.pair.ambient

    @property
    def closed(self) -> bool:
        return not self.pair.sub

    @property
    def orientable(self) -> bool:
        return self.orientation is not None

    def boundary_complex(self) -> OrderedComplex:
        if not self.pair.sub:
            raise EmptyBoundary("manifold is closed")
        return cached(self, "boundary_complex", self.pair.sub_complex)

    def absolute(self) -> ComplexPair:
        """(X, empty) on this manifold's complex, one object per manifold: a
        closed manifold's own pair, so its operators and solvers serve both."""
        if self.closed:
            return self.pair
        return cached(self, "absolute", lambda: ComplexPair(self.complex, ()))

    def __repr__(self) -> str:
        kind = "closed" if self.closed else "bounded"
        return f"ManifoldPair(n={self.n}, {kind}, f={self.complex.f_vector()})"


def _orient(tops: Tuple[Simplex, ...],
            interior: List[Tuple[Simplex, int, int, int]]) -> Optional[Dict[Simplex, int]]:
    """Propagate compatible orientations over the top simplices, by position
    in ``tops``; None when nonorientable.  The signs are keyed in canonical
    order."""
    sign = [0] * len(tops)
    adjacency: List[List[Tuple[int, int]]] = [[] for _ in tops]
    for _, a, b, rel in interior:
        adjacency[a].append((b, rel))
        adjacency[b].append((a, rel))
    for seed in range(len(tops)):
        if sign[seed]:
            continue
        sign[seed] = 1
        queue = [seed]
        while queue:
            cur = queue.pop()
            for nxt, rel in adjacency[cur]:
                want = sign[cur] * rel
                if not sign[nxt]:
                    sign[nxt] = want
                    queue.append(nxt)
                elif sign[nxt] != want:
                    return None
    return dict(zip(tops, sign))


def validate_manifold(
    x: OrderedComplex,
    n: Optional[int] = None,
    *,
    boundary="auto",
    orientation="auto",
    require_full: bool = True,
    require_ordering: bool = True,
) -> ManifoldPair:
    """Check the manifold-pair conditions and assemble a ManifoldPair.

    Every ManifoldPair of the package, and its flags, comes from here; the
    constructions only construct.  Raises NotPseudoManifold for structural
    failures.  Fullness and the boundary-vertices-first rank condition raise
    NeedsSubdivision (one barycentric subdivision always repairs both)
    unless the corresponding require_* flag is off, in which case the defect
    is recorded on the result.

    Purity is read off the coface indexes below the top degree: x has no
    simplex above dimension n, so every n-simplex is maximal, and a
    k-simplex with k < n is maximal exactly when its entry holds only the
    count.  The first such simplex, lowest dimension first, then in
    canonical order, is the one refused.

    Fullness and ordering are scanned only when the boundary has vertices;
    a complex without boundary vertices satisfies both.  Fullness is then
    scanned over every simplex: a lone triangle, all of whose edges are
    boundary, fails it only in dimension 2.  Ordering is scanned over the
    edges alone: a simplex lists a boundary vertex after an interior one
    exactly when some edge of it runs from an interior vertex to a boundary
    vertex, and the edges come first among the simplices, so the first
    violating edge is also the first violating simplex.  An explicit
    orientation must sign exactly the top simplices, each +1 or -1, with
    the signs cancelling on every interior face.
    """
    if n is None:
        n = x.dim
    if x.dim != n:
        raise NotPseudoManifold(f"complex has dimension {x.dim}, expected {n}")
    for k in range(n):
        up = cofaces(x, k)
        if 1 in map(len, up.values()):
            s = next(s for s, above in up.items() if len(above) == 1)
            raise NotPseudoManifold(f"simplex {s} is not a face of any top simplex")
    computed_boundary = []
    # (face, a, b, rel), a and b positions in tops: compatible orientations
    # sign b as rel times a, and rel is +1 exactly when face has opposite
    # signs in the boundaries of a and b
    interior = []
    tops = x.simplices(n)
    for face, up in cofaces(x, n - 1).items():
        if len(up) == 2:
            computed_boundary.append(face)
        elif len(up) == 3:
            interior.append((face, up[1], up[2], 1 if up[0] == 1 else -1))
        else:
            raise NotPseudoManifold(f"{face} has {len(up) - 1} top cofaces")
    sub = face_closure(computed_boundary)
    if boundary != "auto":
        if set(map(tuple, boundary)) != sub:
            raise NotPseudoManifold("declared boundary differs from the computed one")
    pair = ComplexPair(x, sub)

    on_boundary = pair.sub_vertices
    not_full = misordered = None
    if on_boundary:
        not_full = next((s for s in filter(on_boundary.issuperset, x.all_simplices())
                         if s not in sub), None)
        misordered = next((e for e in x.simplices(1)
                           if e[0] not in on_boundary and e[1] in on_boundary), None)
    if require_full and not_full is not None:
        raise NeedsSubdivision([f"boundary not full at {not_full}"])
    if require_ordering and misordered is not None:
        raise NeedsSubdivision([f"boundary vertex after interior vertex in {misordered}"])

    if orientation == "auto":
        orient = _orient(tops, interior)
    else:
        orient = dict(orientation)
        if (set(orient) != set(tops)
                or any(v not in (1, -1) for v in orient.values())):
            raise NotPseudoManifold("an orientation gives each top simplex a sign +1 or -1")
        for face, a, b, rel in interior:
            if orient[tops[b]] != rel * orient[tops[a]]:
                raise NotPseudoManifold(f"orientation signs do not cancel at {face}")
    return ManifoldPair(pair, n, orient, not_full is None, misordered is None)


# -- constructions -------------------------------------------------------


class Subdivision(NamedTuple):
    complex: OrderedComplex
    to_base: SimplicialMap
    vertex_of: Dict[Simplex, int]

    def __repr__(self) -> str:
        return f"Subdivision(complex={self.complex!r}, to_base={self.to_base!r})"


def barycentric_subdivide(x: OrderedComplex) -> Subdivision:
    """First barycentric subdivision with the canonical dimension ranks.

    New vertices are the simplices of x, ranked by dimension; simplices are
    chains of faces.  The returned map sends each barycenter to the maximum
    vertex of its underlying simplex.
    """
    cells = sorted(x.all_simplices(), key=lambda s: (len(s), s))
    vertex_of = {s: j for j, s in enumerate(cells)}
    rank = {j: len(s) - 1 for j, s in enumerate(cells)}
    # the chains whose top face is s, listed after those of every proper face
    chains: Dict[Simplex, List[Simplex]] = {}
    for s in cells:
        top = (vertex_of[s],)
        chains[s] = [top] + [c + top for r in range(1, len(s))
                             for face in itertools.combinations(s, r)
                             for c in chains[face]]
    sd = OrderedComplex._of(
        _by_dim(itertools.chain.from_iterable(chains.values())), rank)
    b = SimplicialMap._of(sd, x, {j: s[-1] for j, s in enumerate(cells)})
    return Subdivision(sd, b, vertex_of)


class Cone(NamedTuple):
    pair: ComplexPair
    upper: int
    base: OrderedComplex

    @property
    def complex(self) -> OrderedComplex:
        return self.pair.ambient


def cone(x: OrderedComplex) -> Cone:
    """Cone with the apex, ``upper``, ranked after every vertex of the base."""
    upper = max(x.vertices, default=-1) + 1
    rank = dict(x.rank)
    rank[upper] = max(rank.values(), default=-1) + 1
    simplices = [(upper,)]
    for s in x.all_simplices():
        simplices += (s, s + (upper,))
    cx = OrderedComplex._of(_by_dim(simplices), rank)
    return Cone(ComplexPair(cx, x.all_simplices()), upper, x)


class SuspensionComplex(NamedTuple):
    complex: OrderedComplex
    base: OrderedComplex
    upper: int
    lower: int


def suspension(x: OrderedComplex) -> SuspensionComplex:
    """Union of an upper cone (vertex ranked last) and a lower cone (first)."""
    lower = max(x.vertices, default=-1) + 1
    upper = lower + 1
    rank = dict(x.rank)
    rank[lower] = min(x.rank.values(), default=0) - 1
    rank[upper] = max(x.rank.values(), default=0) + 1
    simplices = [(lower,), (upper,)]
    for s in x.all_simplices():
        simplices += (s, s + (upper,), (lower,) + s)
    sx = OrderedComplex._of(_by_dim(simplices), rank)
    return SuspensionComplex(sx, x, upper, lower)


class Cylinder(NamedTuple):
    complex: OrderedComplex
    base: OrderedComplex
    end0: SimplicialMap
    end1: SimplicialMap
    projection: SimplicialMap


def cylinder(x: OrderedComplex) -> Cylinder:
    """Prism triangulation of I x X, level 0 ranked before level 1.

    Each k-simplex (v0..vk) contributes the k+1 simplices
    ((0,v0)..(0,vi),(1,vi)..(1,vk)).
    """
    verts = sorted(x.vertices)
    vid = {v: j for j, v in enumerate(verts)}
    nverts = len(verts)
    shift = max(x.rank.values()) - min(x.rank.values()) + 1

    def at(level: int, v: int) -> int:
        return vid[v] + level * nverts

    rank = {}
    for v in verts:
        rank[at(0, v)] = x.rank[v]
        rank[at(1, v)] = x.rank[v] + shift
    maximal = []
    for s in x.all_simplices():
        k = len(s) - 1
        for i in range(k + 1):
            prism = tuple(at(0, v) for v in s[: i + 1]) + tuple(
                at(1, v) for v in s[i:]
            )
            maximal.append(prism)
    cx = build_complex(maximal, rank)
    end0 = SimplicialMap._of(x, cx, {v: at(0, v) for v in verts})
    end1 = SimplicialMap._of(x, cx, {v: at(1, v) for v in verts})
    proj_map = {at(0, v): v for v in verts}
    proj_map.update({at(1, v): v for v in verts})
    projection = SimplicialMap._of(cx, x, proj_map)
    return Cylinder(cx, x, end0, end1, projection)


class Collapse(NamedTuple):
    """The collapse map onto ``cone``, the cone over bd M (its ``base``)."""

    map: SimplicialMap
    cone: Cone


def collapse_map(m: ManifoldPair) -> Collapse:
    """Collapse (M, bd M) -> (C+ bd M, bd M): identity on the boundary, all
    interior vertices to the cone vertex."""
    if m.closed:
        raise EmptyBoundary("collapse map needs a boundary")
    if not m.boundary_full:
        raise BoundaryNotFull("collapse map needs a full boundary subcomplex")
    if not m.ordering_ok:
        raise OrderingViolation("collapse map needs boundary vertices ranked first")
    c = cone(m.boundary_complex())
    vm = {}
    for v in m.complex.vertices:
        vm[v] = v if v in m.pair.sub_vertices else c.upper
    return Collapse(SimplicialMap(m.complex, c.complex, vm), c)


def disjoint_union(
    x: OrderedComplex, y: OrderedComplex
) -> Tuple[OrderedComplex, SimplicialMap, SimplicialMap]:
    # y's vertices move above x's; shifting a negative one by max + 1 alone
    # could land it on a vertex of x
    offset = max(x.vertices, default=-1) + 1 - min(min(y.vertices, default=0), 0)
    rank = dict(x.rank)
    for v in y.vertices:
        rank[v + offset] = y.rank[v]
    simplices = list(x.all_simplices())
    simplices += (tuple(v + offset for v in s) for s in y.all_simplices())
    z = OrderedComplex._of(_by_dim(simplices), rank)
    ix = SimplicialMap._of(x, z, {v: v for v in x.vertices})
    iy = SimplicialMap._of(y, z, {v: v + offset for v in y.vertices})
    return z, ix, iy
