import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinquad import identities
from pinquad.complexes import (
    ComplexPair,
    OrderedComplex,
    SimplicialMap,
    absolute_pair,
    barycentric_subdivide,
    build_complex,
    cofaces,
    collapse_map,
    cone,
    cylinder,
    disjoint_union,
    face_closure,
    identity_map,
    maximal_simplices,
    suspension,
    validate_manifold,
)
from pinquad.cochains import CohomologySolver
from pinquad.errors import (
    BoundaryNotFull,
    NeedsSubdivision,
    NotPseudoManifold,
    OrderingViolation,
    TieInSimplex,
    UnknownFixture,
)
from pinquad.fixtures import (
    CATALOG_NAMES,
    MOBIUS_TRIANGLES,
    catalog,
    circle_complex,
    raw_annulus_pair,
    raw_mobius_pair,
)


def betti2(x, k, rel_pair=None):
    pair = rel_pair if rel_pair is not None else absolute_pair(x)
    return CohomologySolver(pair, k).dim


class TestBuildComplex:
    def test_single_triangle_closure(self):
        x = build_complex([(0, 1, 2)])
        assert sum(len(x.simplices(k)) for k in range(3)) == 7

    def test_boundary_of_tetrahedron(self):
        x = build_complex(itertools.combinations(range(4), 3))
        assert x.f_vector() == (4, 6, 4)

    def test_rp2_six_vertices(self, rp2):
        assert rp2.complex.f_vector() == (6, 15, 10)
        assert betti2(rp2.complex, 1) == 1

    def test_rank_tie_rejected(self):
        with pytest.raises(TieInSimplex):
            build_complex([(0, 1, 2)], rank={0: 0, 1: 0, 2: 1})

    def test_repeated_vertex_rejected(self):
        with pytest.raises(TieInSimplex):
            build_complex([(0, 1, 1)])


class TestSubdivision:
    def test_edge(self):
        x = build_complex([(0, 1)])
        sd = barycentric_subdivide(x)
        assert sd.complex.f_vector() == (3, 2)
        barycenter = sd.vertex_of[(0, 1)]
        assert sd.to_base.vertex_map[barycenter] == 1

    def test_boundary_triangle_is_hexagon(self):
        x = build_complex(itertools.combinations(range(3), 2))
        sd = barycentric_subdivide(x)
        assert sd.complex.f_vector() == (6, 6)
        assert betti2(sd.complex, 1) == betti2(x, 1) == 1

    def test_pullback_preserves_cocycles_and_classes(self):
        from pinquad.cochains import Cochain, Z2, d, pullback

        x = build_complex(itertools.combinations(range(3), 2))
        sd = barycentric_subdivide(x)
        rng = random.Random(0)
        for _ in range(10):
            vals = {s: rng.randint(0, 1) for s in x.simplices(1)}
            c = Cochain(x, 1, Z2, vals)
            assert pullback(sd.to_base, d(c)) == d(pullback(sd.to_base, c))

    def test_rp2_subdivision(self, rp2):
        sd = barycentric_subdivide(rp2.complex)
        assert sd.complex.f_vector() == (31, 90, 60)
        m = validate_manifold(sd.complex, 2)
        assert m.closed


class TestConeSuspension:
    def test_two_points_suspend_to_circle(self):
        x = build_complex([(0,), (1,)])
        sx = suspension(x)
        assert sx.complex.f_vector() == (4, 4)
        assert betti2(sx.complex, 1) == 1

    def test_octahedron_like_sphere(self):
        x = build_complex(itertools.combinations(range(3), 2))
        sx = suspension(x)
        m = validate_manifold(sx.complex, 2)
        assert m.closed and len(m.complex.simplices(m.n)) == 6

    def test_suspension_of_rp2_cohomology(self, rp2):
        # suspension isomorphism: H^{k+1}(SX) = reduced H^k(X)
        sx = suspension(rp2.complex)
        assert betti2(sx.complex, 2) == betti2(rp2.complex, 1) == 1
        assert betti2(sx.complex, 3) == betti2(rp2.complex, 2) == 1
        assert betti2(sx.complex, 1) == 0

    def test_at_most_one_cone_vertex(self, rp2):
        sx = suspension(rp2.complex)
        for s in sx.complex.all_simplices():
            assert not (sx.upper in s and sx.lower in s)

    def test_cone_pair(self):
        x = build_complex(itertools.combinations(range(3), 2))
        c = cone(x)
        assert c.complex.dim == 2
        assert c.pair.in_sub((0, 1))
        assert c.complex.rank[c.upper] > max(x.rank.values())


class TestCylinder:
    def test_point(self):
        x = build_complex([(0,)])
        cyl = cylinder(x)
        assert cyl.complex.f_vector() == (2, 1)

    def test_circle_gives_annulus(self):
        cyl = cylinder(circle_complex())
        assert cyl.complex.f_vector() == (6, 12, 6)
        m = validate_manifold(cyl.complex, 2, require_full=False,
                              require_ordering=False)
        assert not m.closed
        boundary_edges = [s for s in m.pair.sub if len(s) == 2]
        assert len(boundary_edges) == 6

    def test_double_cylinder_is_a_3_manifold(self):
        cyl = cylinder(cylinder(circle_complex()).complex)
        m = validate_manifold(cyl.complex, 3, require_full=False,
                              require_ordering=False)
        assert not m.closed
        boundary = m.pair.sub_complex()
        assert boundary.euler() == 0
        assert betti2(boundary, 1) == 2  # boundary is a torus

    def test_ends_isomorphic_to_base(self):
        x = circle_complex()
        cyl = cylinder(x)
        for end in (cyl.end0, cyl.end1):
            imgs = {end.image(s) for s in x.all_simplices()}
            assert all(cyl.complex.has_simplex(s) for s in imgs)
            assert len(imgs) == sum(len(x.simplices(k)) for k in range(x.dim + 1))


class TestValidation:
    def test_sphere_is_closed(self):
        m = validate_manifold(build_complex(itertools.combinations(range(4), 3)), 2)
        assert m.closed and m.orientable

    def test_full_simplex_needs_subdivision(self):
        x = build_complex([(0, 1, 2, 3)])
        with pytest.raises(NeedsSubdivision):
            validate_manifold(x, 3)
        m = validate_manifold(x, 3, require_full=False, require_ordering=False)
        assert not m.boundary_full
        sd = barycentric_subdivide(x)
        m = validate_manifold(sd.complex, 3)
        assert m.boundary_full and m.ordering_ok

    def test_three_triangles_on_one_edge(self):
        x = build_complex([(0, 1, 2), (0, 1, 3), (0, 1, 4)])
        with pytest.raises(NotPseudoManifold):
            validate_manifold(x, 2)

    def test_torus_orientation_signs_cancel(self, torus):
        orient = torus.orientation
        assert orient is not None
        total = {}
        for s, sign in orient.items():
            for j in range(3):
                face = s[:j] + s[j + 1:]
                total[face] = total.get(face, 0) + sign * (-1) ** j
        assert all(v == 0 for v in total.values())

    def test_explicit_orientation_checked(self, torus):
        bad = dict(torus.orientation)
        first = next(iter(bad))
        bad[first] = -bad[first]
        with pytest.raises(NotPseudoManifold):
            validate_manifold(torus.complex, 2, orientation=bad)

    @pytest.mark.parametrize("change", ["drop", "edge", "sign"])
    def test_explicit_orientation_covers_the_top_simplices(self, torus, change):
        bad = dict(torus.orientation)
        first = next(iter(bad))
        if change == "drop":
            del bad[first]
        elif change == "edge":
            bad[first[:2]] = 1
        else:  # the signs still cancel, but are not +-1
            bad = {s: 2 * v for s, v in bad.items()}
        with pytest.raises(NotPseudoManifold):
            validate_manifold(torus.complex, 2, orientation=bad)

    @pytest.mark.parametrize("extra", [(2, 3), (3,)], ids=["dangling_edge", "isolated_vertex"])
    def test_non_pure_is_refused(self, extra):
        x = build_complex([(0, 1, 2), extra])
        with pytest.raises(NotPseudoManifold):
            validate_manifold(x, 2, require_full=False, require_ordering=False)

    def test_the_lowest_dimension_offender_is_named(self):
        # two offenders: the vertex (5,), of the lower dimension, is named
        # before the edge (3, 4)
        x = build_complex([(0, 1, 2), (3, 4), (5,)])
        with pytest.raises(NotPseudoManifold) as info:
            validate_manifold(x, 2, require_full=False, require_ordering=False)
        assert str(info.value) == "simplex (5,) is not a face of any top simplex"

    def test_explicit_orientation_of_a_lone_triangle(self):
        # no interior face, so no sign pair would notice the gap
        with pytest.raises(NotPseudoManifold):
            validate_manifold(build_complex([(0, 1, 2)]), 2, orientation={},
                              require_full=False, require_ordering=False)


def _first_violations(x, sub):
    """The first simplex of x, scanning every simplex in order, that is not
    full and the first that lists a boundary vertex after an interior one
    (None when there is none)."""
    on_boundary = {v for s in sub for v in s}
    not_full = next((s for s in x.all_simplices()
                     if s not in sub and set(s) <= on_boundary), None)
    misordered = next((s for s in x.all_simplices()
                       if any(s[j] in on_boundary and not set(s[:j]) <= on_boundary
                              for j in range(len(s)))), None)
    return not_full, misordered


BOUNDED_SOURCES = tuple(name for name in CATALOG_NAMES if not catalog(name).closed) + (
    "raw_mobius", "raw_annulus")


class TestValidationScans:
    """The fullness and ordering flags, and the reasons of NeedsSubdivision,
    agree with a scan of every simplex under random rank relabellings of the
    bounded complexes."""

    DRAWS = 20

    @staticmethod
    def source(label):
        if label == "raw_mobius":
            pair = raw_mobius_pair()
        elif label == "raw_annulus":
            pair = raw_annulus_pair()
        else:
            pair = catalog(label).pair
        x = pair.ambient
        return x.simplices(x.dim), x.dim

    @pytest.mark.parametrize("label", BOUNDED_SOURCES)
    def test_relabelled(self, label):
        tops, n = self.source(label)
        verts = sorted({v for s in tops for v in s})
        rng = random.Random(f"scans:{label}")
        misordered_draws = 0
        for _ in range(self.DRAWS):
            ranks = rng.sample(range(len(verts)), len(verts))
            x = build_complex(tops, dict(zip(verts, ranks)))
            m = validate_manifold(x, n, require_full=False, require_ordering=False)
            not_full, misordered = _first_violations(x, m.pair.sub)
            assert (m.boundary_full, m.ordering_ok) == (not_full is None, misordered is None)
            misordered_draws += misordered is not None
            for full, bad, reason in (
                    (True, not_full, f"boundary not full at {not_full}"),
                    (False, misordered, f"boundary vertex after interior vertex in {misordered}")):
                if bad is None:
                    validate_manifold(x, n, require_full=full, require_ordering=not full)
                    continue
                with pytest.raises(NeedsSubdivision) as info:
                    validate_manifold(x, n, require_full=full, require_ordering=not full)
                assert info.value.reasons == (reason,)
        # control: a check that never meets a misordered complex cannot fail;
        # only the raw strips, all of whose vertices are on the boundary, have
        # no ordering to get wrong
        assert misordered_draws > 0 or m.pair.sub_vertices == set(verts)


CLOSED_SOURCES = tuple(name for name in CATALOG_NAMES if catalog(name).closed)


@pytest.mark.parametrize("name", CLOSED_SOURCES)
def test_closed_complexes_pass_both_scans_under_relabelling(name):
    """Without a boundary neither condition is scanned; a scan of every
    simplex agrees that both hold, whatever the ranks."""
    x = catalog(name).complex
    tops, verts = x.simplices(x.dim), x.vertices
    rng = random.Random(f"closed:{name}")
    for _ in range(5):
        ranks = rng.sample(range(len(verts)), len(verts))
        y = build_complex(tops, dict(zip(verts, ranks)))
        m = validate_manifold(y, x.dim)
        assert m.closed and m.boundary_full and m.ordering_ok
        assert _first_violations(y, m.pair.sub) == (None, None)


class TestCollapse:
    def test_interval(self):
        d1 = catalog("disk1")
        col = collapse_map(d1)
        interior = [v for v in d1.complex.vertices
                    if v not in d1.pair.sub_vertices]
        assert all(col.map.vertex_map[v] == col.cone.upper for v in interior)
        # the cone is the one over the manifold's boundary complex
        assert col.cone.base is d1.boundary_complex()

    def test_mobius_collapse_surjective(self, mobius):
        col = collapse_map(mobius)
        image = {col.map.vertex_map[v] for v in mobius.complex.vertices}
        assert image == set(col.cone.complex.vertices)

    def test_annulus_core_collapses(self, annulus):
        col = collapse_map(annulus)
        interior = [v for v in annulus.complex.vertices
                    if v not in annulus.pair.sub_vertices]
        assert interior
        assert {col.map.vertex_map[v] for v in interior} == {col.cone.upper}

    def test_refuses_a_boundary_that_is_not_full(self):
        # the raw Moebius band: every vertex is on the boundary circle, but
        # its interior edges are not
        m = validate_manifold(build_complex(MOBIUS_TRIANGLES), 2,
                              require_full=False, require_ordering=False)
        assert not m.boundary_full
        with pytest.raises(BoundaryNotFull):
            collapse_map(m)

    def test_refuses_an_interior_vertex_ranked_first(self):
        # a square coned from vertex 4, which is ranked before its boundary
        x = build_complex([(4, 0, 1), (4, 1, 2), (4, 2, 3), (4, 0, 3)],
                          rank={4: -1, 0: 0, 1: 1, 2: 2, 3: 3})
        with pytest.raises(NeedsSubdivision) as info:
            validate_manifold(x, 2)
        assert info.value.reasons == ("boundary vertex after interior vertex in (4, 0)",)
        m = validate_manifold(x, 2, require_ordering=False)
        assert m.boundary_full and not m.ordering_ok
        with pytest.raises(OrderingViolation):
            collapse_map(m)


class TestCatalog:
    def test_euler_characteristics(self):
        expected = {"rp2": 1, "torus": 0, "klein": 0, "mobius": 0, "annulus": 0}
        for name, chi in expected.items():
            assert catalog(name).complex.euler() == chi

    def test_unknown_fixture(self):
        with pytest.raises(UnknownFixture):
            catalog("lens_space")

    @pytest.mark.parametrize("name", ["sphere5", "sphere-1", "disk0", "disk4", "cp3"])
    def test_names_outside_the_catalog_are_refused_before_building(self, name):
        with pytest.raises(UnknownFixture):
            catalog(name)

    @pytest.mark.parametrize("name", [n for n in CATALOG_NAMES if catalog(n).closed])
    def test_a_closed_manifold_is_its_own_absolute_pair(self, name):
        m = catalog(name)
        assert m.absolute() is m.pair

    @pytest.mark.parametrize("name", ["annulus", "mobius", "disk1", "disk2", "disk3",
                                      "solid_torus"])
    def test_a_bounded_manifold_caches_one_absolute_pair(self, name):
        m = catalog(name)
        a = m.absolute()
        assert a is m.absolute() and a is not m.pair
        assert a.ambient is m.complex and not a.sub and m.pair.sub

    def test_catalog_names_all_build(self):
        for name in CATALOG_NAMES:
            m = catalog(name)
            assert m.boundary_full and m.ordering_ok

    def test_torus_fixture_shape(self, torus):
        assert torus.complex.f_vector() == (7, 21, 14)
        assert torus.orientable
        assert betti2(torus.complex, 1) == 2

    def test_annulus_relative_cohomology(self, annulus):
        assert betti2(annulus.complex, 1, annulus.pair) == 1
        assert betti2(annulus.complex, 2, annulus.pair) == 1


class TestMapsAndPairs:
    def test_map_must_preserve_order(self):
        from pinquad.complexes import SimplicialMap

        x = build_complex([(0, 1)])
        y = build_complex([(0, 1)])
        with pytest.raises(ValueError):
            SimplicialMap(x, y, {0: 1, 1: 0})

    def test_map_image_must_be_a_simplex(self):
        from pinquad.complexes import SimplicialMap

        x = build_complex([(0, 1)])
        y = build_complex([(0,), (1,)])
        with pytest.raises(ValueError):
            SimplicialMap(x, y, {0: 0, 1: 1})

    def test_pair_sub_must_be_face_closed(self):
        from pinquad.complexes import ComplexPair

        x = build_complex([(0, 1, 2)])
        with pytest.raises(ValueError):
            ComplexPair(x, [(0, 1)])  # edge without its vertices

    def test_pair_sub_must_lie_in_ambient(self):
        from pinquad.complexes import ComplexPair

        x = build_complex([(0, 1, 2)])
        with pytest.raises(ValueError):
            ComplexPair(x, [(3,)])


class TestDisjointUnion:
    def test_disjoint_euler(self, rp2, torus):
        z, ix, iy = disjoint_union(rp2.complex, torus.complex)
        assert z.euler() == rp2.complex.euler() + torus.complex.euler()
        assert betti2(z, 0) == 2

    def test_negative_vertices_stay_apart(self):
        x = build_complex(itertools.combinations(range(4), 3))
        y = build_complex(itertools.combinations(range(-1, 3), 3))
        z, ix, iy = disjoint_union(x, y)
        assert len(set(z.vertices)) == len(z.vertices) == 8
        checked = OrderedComplex(z.simplices_by_dim, z.rank)
        assert checked.simplices_by_dim == z.simplices_by_dim
        images = [set(f.vertex_map.values()) for f in (ix, iy)]
        assert not images[0] & images[1]
        assert all(z.has_simplex(f.image(s))
                   for f, w in ((ix, x), (iy, y)) for s in w.all_simplices())


def _shuffled_torus():
    """The 7-vertex torus with shuffled vertex ranks, so that the rank order
    of a simplex is not the order of its vertex ids."""
    x = catalog("torus").complex
    verts = x.vertices
    ranks = random.Random("cofaces:shuffled").sample(range(len(verts)), len(verts))
    y = build_complex(x.simplices(x.dim), dict(zip(verts, ranks)))
    assert any(list(s) != sorted(s) for s in y.simplices(2))
    return y


def _reference_cofaces(x, k):
    """The coface index built from the boundary formula, for every degree,
    each coface given by its position in x.simplices(k + 1)."""
    position = {tau: t for t, tau in enumerate(x.simplices(k + 1))}
    split = {s: ([], []) for s in x.simplices(k)}
    for tau in x.simplices(k + 1):
        for i in range(k + 2):
            split[tau[:i] + tau[i + 1:]][i % 2].append(position[tau])
    return {s: (len(plus), *plus, *minus) for s, (plus, minus) in split.items()}


@pytest.mark.parametrize("name", ("sphere0", "disk1", "rp2", "mobius", "solid_torus", "shuffled"))
def test_cofaces_match_the_boundary_formula(name):
    x = _shuffled_torus() if name == "shuffled" else catalog(name).complex
    for k in range(x.dim + 2):
        up = cofaces(x, k)
        assert up == _reference_cofaces(x, k)
        assert list(up) == list(x.simplices(k))
    assert set(cofaces(x, x.dim).values()) == {(0,)}


@st.composite
def small_complexes(draw):
    nv = draw(st.integers(min_value=3, max_value=7))
    count = draw(st.integers(min_value=1, max_value=4))
    maximal = []
    for _ in range(count):
        k = draw(st.integers(min_value=1, max_value=min(4, nv)))
        verts = draw(st.sets(st.integers(min_value=0, max_value=nv - 1),
                             min_size=k, max_size=k))
        maximal.append(tuple(sorted(verts)))
    return build_complex(maximal)


@settings(max_examples=40, deadline=None)
@given(small_complexes())
def test_subdivision_is_well_formed(x):
    sd = barycentric_subdivide(x)
    # the trusted construction checks nothing: re-check both outputs
    sd.complex._check()
    sd.to_base._check()
    rank = x.rank
    for v, w in sd.to_base.vertex_map.items():
        assert w in rank
    for s in sd.complex.all_simplices():
        imgs = [sd.to_base.vertex_map[v] for v in s]
        ranks = [rank[w] for w in imgs]
        assert all(a <= b for a, b in zip(ranks, ranks[1:]))


@settings(max_examples=20, deadline=None)
@given(small_complexes())
def test_suspension_cones_meet_in_base(x):
    sx = suspension(x)
    for s in sx.complex.all_simplices():
        assert not (sx.upper in s and sx.lower in s)


# -- the producers that build through the trusted constructors ------------


def _trusted_input(label):
    """(complex, sub) for a catalog fixture, sd of one, or a random draw."""
    kind, _, name = label.rpartition(":")
    if kind == "random":
        rng = random.Random(f"trusted:{name}")
        x = identities.random_complex(rng)
        tops = maximal_simplices(x)
        return x, face_closure(rng.sample(tops, len(tops) // 2))
    m = catalog(name)
    if kind == "sd":
        sd = barycentric_subdivide(m.complex).complex
        m = validate_manifold(sd, m.n, require_full=False, require_ordering=False)
    return m.complex, m.pair.sub


TRUSTED_INPUTS = (CATALOG_NAMES + tuple("sd:" + name for name in CATALOG_NAMES)
                  + tuple(f"random:{j}" for j in range(30)))

# subdivision and the cylinder multiply the size by 5 to 40 or more; on the
# three larger inputs (sd of sphere4, solid_torus and cp2, 4682 to 46560
# simplices) they would take seconds and hundreds of MiB each
GROWING_LIMIT = 2500


class TestTrustedComplexProducers:
    """Each producer that builds through ``_of`` gives output that passes
    the checks it skips and equals the checking construction field for
    field."""

    @staticmethod
    def assert_trusted_complex(x):
        # the checking constructor runs x._check() on a copy of x's fields,
        # so building it and finding it equal to x is passing x._check()
        checked = OrderedComplex(x.simplices_by_dim, x.rank)
        assert list(checked.simplices_by_dim.items()) == list(x.simplices_by_dim.items())
        assert checked.rank == x.rank
        assert checked._simplex_set == x._simplex_set

    @staticmethod
    def assert_trusted_map(f):
        f._check()
        assert set(f.vertex_map) == set(f.source.vertices)

    @pytest.mark.parametrize("label", TRUSTED_INPUTS)
    def test_producers(self, label):
        x, sub = _trusted_input(label)
        small = sum(x.f_vector()) <= GROWING_LIMIT
        rebuilt = build_complex(maximal_simplices(x), x.rank)
        self.assert_trusted_complex(rebuilt)
        assert rebuilt.simplices_by_dim == x.simplices_by_dim and rebuilt.rank == x.rank
        if small:
            sd = barycentric_subdivide(x)
            self.assert_trusted_complex(sd.complex)
            self.assert_trusted_map(sd.to_base)
            cyl = cylinder(x)
            self.assert_trusted_complex(cyl.complex)
            for f in (cyl.end0, cyl.end1, cyl.projection):
                self.assert_trusted_map(f)
        c = cone(x)
        self.assert_trusted_complex(c.complex)
        assert c.pair.sub_complex().simplices_by_dim == x.simplices_by_dim
        self.assert_trusted_complex(suspension(x).complex)
        z, ix, iy = disjoint_union(x, x)
        self.assert_trusted_complex(z)
        self.assert_trusted_map(ix)
        self.assert_trusted_map(iy)
        self.assert_trusted_map(identity_map(x))
        self.assert_trusted_complex(ComplexPair(x, sub).sub_complex())

    def test_the_empty_complex(self):
        # the cone over nothing is a point, its suspension S^0, and its
        # union with y a copy of y
        empty = build_complex([])
        y = build_complex([(-1, 0)])
        z, ix, iy = disjoint_union(empty, y)
        for x, f_vector in ((cone(empty).complex, (1,)), (suspension(empty).complex, (2,)),
                            (z, (2, 1))):
            self.assert_trusted_complex(x)
            assert x.f_vector() == f_vector
        self.assert_trusted_map(ix)
        self.assert_trusted_map(iy)

    def test_a_missing_face_fails_the_check(self):
        x = OrderedComplex._of({0: ((0,), (1,)), 1: ((0, 1), (0, 2))}, {0: 0, 1: 1, 2: 2})
        with pytest.raises(ValueError, match="missing"):
            x._check()
        with pytest.raises(ValueError):
            OrderedComplex(x.simplices_by_dim, x.rank)

    def test_a_rank_tie_fails_the_check(self):
        x = OrderedComplex._of({0: ((0,), (1,)), 1: ((0, 1),)}, {0: 0, 1: 0})
        with pytest.raises(TieInSimplex):
            x._check()

    def test_an_order_reversing_map_fails_the_check(self):
        x = build_complex([(0, 1)])
        with pytest.raises(ValueError, match="order"):
            SimplicialMap._of(x, x, {0: 1, 1: 0})._check()
