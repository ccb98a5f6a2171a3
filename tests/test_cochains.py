import itertools
import random
from fractions import Fraction
from functools import lru_cache

import pytest

from pinquad.cochains import (
    Cochain,
    CohomologySolver,
    INT,
    QMODZ,
    RINGS,
    Z2,
    Z4,
    coboundary_bits,
    cup_i,
    d,
    dual_cochain,
    embed_z2_qmodz,
    embed_z2_z4,
    from_bits,
    integrate,
    pullback,
    solver,
    sq,
    steenrod_sign_exponent,
    to_bits,
    wu_v2_check,
    zero_cochain,
)
from pinquad import _gf2, cochains, errors
from pinquad._gf2 import eliminate, representatives, top_bits
from pinquad.complexes import (
    ComplexPair,
    absolute_pair,
    barycentric_subdivide,
    build_complex,
    collapse_map,
    disjoint_union,
    identity_map,
    maximal_simplices,
    suspension,
    validate_manifold,
)
from pinquad.errors import (
    BudgetExceeded,
    ComplexMismatch,
    InvariantViolation,
    NotACocycle,
    NotRelative,
    OrientationRequired,
    RingMismatch,
)
from pinquad.fixtures import CATALOG_NAMES, catalog, raw_annulus_pair, raw_mobius_pair
from pinquad.identities import random_cochain, random_complex
from pinquad.quadratic import random_relative_cochain
from pinquad.suspension import desuspend, suspend


def view_z4_qmodz(c):
    """The R/Z view of a Z/4 cochain (value/4)."""
    return Cochain(c.complex, c.degree, QMODZ, {s: Fraction(v, 4) for s, v in c.values.items()})


def triangle():
    return build_complex([(0, 1, 2)])


class TestCoboundary:
    def test_zero(self):
        x = triangle()
        assert d(zero_cochain(x, 0, Z2)).is_zero()

    def test_edge_difference(self):
        x = build_complex([(0, 1)])
        c = Cochain(x, 0, Z2, {(0,): 1})
        assert d(c).values == {(0, 1): 1}

    def test_dd_zero_int(self):
        x = build_complex([(0, 1, 2, 3)])
        rng = random.Random(1)
        c = random_cochain(rng, x, 1, INT)
        assert d(d(c)).is_zero()

    def test_signs_alternate_over_int(self):
        x = triangle()
        c = Cochain(x, 1, INT, {(0, 1): 1, (1, 2): 1, (0, 2): 1})
        assert d(c).values == {(0, 1, 2): 1}

    @pytest.mark.parametrize("name", ["rp2", "mobius", "solid_torus"])
    def test_z2_parities_are_the_signed_sums_mod_2(self, name):
        # the Z2 path keeps a parity per coface; its values and its key
        # order are those of the signed sums reduced mod 2
        x = catalog(name).complex
        rng = random.Random(name)
        for k in range(x.dim + 1):
            for density in (0.05, 0.5, 1.0):
                support = {s: 1 for s in x.simplices(k) if rng.random() < density}
                signed = d(Cochain(x, k, INT, support)).values
                got = d(Cochain(x, k, Z2, support))
                assert got.ring == Z2 and got.degree == k + 1
                assert list(got.values.items()) == [
                    (tau, 1) for tau, v in signed.items() if v % 2]


class TestCupProducts:
    def test_cup0_is_front_back(self):
        x = triangle()
        u = Cochain(x, 1, Z2, {(0, 1): 1})
        v = Cochain(x, 1, Z2, {(1, 2): 1})
        assert cup_i(u, v, 0).values == {(0, 1, 2): 1}
        assert cup_i(v, u, 0).is_zero()

    def test_cup1_on_an_edge(self):
        x = build_complex([(0, 1)])
        u = Cochain(x, 1, Z2, {(0, 1): 1})
        v = Cochain(x, 1, Z2, {(0, 1): 1})
        assert cup_i(u, v, 1).values == {(0, 1): 1}

    def test_out_of_range_is_zero(self):
        x = triangle()
        u = Cochain(x, 1, Z2, {(0, 1): 1})
        assert cup_i(u, u, -1).is_zero()
        assert cup_i(u, u, 2).is_zero()

    def test_rp2_cup_square_detects_h1(self, rp2):
        solver = CohomologySolver(rp2.pair, 1)
        (x,) = solver.basis
        # independent oracle: expand the single-cut formula over the
        # fundamental triangles by hand
        total = 0
        for a, b, c in rp2.complex.simplices(2):
            total += x.values.get((a, b), 0) * x.values.get((b, c), 0)
        assert total % 2 == 1
        assert integrate(rp2, cup_i(x, x, 0)) == 1

    def test_ring_and_complex_mismatch(self):
        x, y = triangle(), triangle()
        u = Cochain(x, 1, Z2, {(0, 1): 1})
        v = Cochain(y, 1, Z2, {(0, 1): 1})
        with pytest.raises(ComplexMismatch):
            cup_i(u, v, 0)
        w = Cochain(x, 1, Z4, {(0, 1): 1})
        with pytest.raises(RingMismatch):
            cup_i(u, w, 0)

    def test_symmetry_defect_identity(self, rp2, klein):
        # d(p u_{n-1} q) = p u_{n-2} q + q u_{n-2} p for (n-1)-cocycles
        rng = random.Random(7)
        for m in (rp2, klein):
            solver = CohomologySolver(m.pair, 1)
            for _ in range(10):
                p = solver.reconstruct([rng.randint(0, 1) for _ in range(solver.dim)])
                q = solver.reconstruct([rng.randint(0, 1) for _ in range(solver.dim)])
                lhs = d(cup_i(p, q, 1))
                rhs = cup_i(p, q, 0) + cup_i(q, p, 0)
                assert lhs == rhs


class TestSteenrodSquares:
    def test_sq_above_degree_vanishes_on_cocycles(self, rp2):
        solver = CohomologySolver(rp2.pair, 1)
        (x,) = solver.basis
        assert sq(2, x).is_zero() or integrate(rp2, sq(2, x)) == 0
        assert sq(3, x).is_zero()

    def test_sq1_is_cup_square_for_1_cocycles(self, rp2):
        solver = CohomologySolver(rp2.pair, 1)
        (x,) = solver.basis
        assert sq(1, x) == cup_i(x, x, 0)
        assert integrate(rp2, sq(1, x)) == 1

    def test_sq_requires_z2(self):
        x = triangle()
        with pytest.raises(RingMismatch):
            sq(1, Cochain(x, 1, INT, {(0, 1): 1}))


class TestPullback:
    def test_identity(self, rp2):
        f = identity_map(rp2.complex)
        solver = CohomologySolver(rp2.pair, 1)
        (x,) = solver.basis
        assert pullback(f, x) == x

    def test_degenerate_images_vanish(self):
        x = build_complex([(0, 1)])
        from pinquad.complexes import SimplicialMap

        f = SimplicialMap(x, x, {0: 0, 1: 0})
        c = Cochain(x, 1, Z2, {(0, 1): 1})
        assert pullback(f, c).is_zero()

    def test_pullback_commutes_with_d_and_cups(self):
        """f* commutes with d and with every cup_i along subdivision maps."""
        rng = random.Random("pullback:1")
        pool = [random_complex(rng, 3) for _ in range(8)]
        subs = [barycentric_subdivide(x) for x in pool]
        failures = []
        for t in range(150):
            j = rng.randrange(len(pool))
            x, f = pool[j], subs[j].to_base
            p = rng.randint(0, min(3, x.dim))
            q = rng.randint(0, min(3, x.dim))
            i = rng.randint(0, min(p, q))
            X = random_cochain(rng, x, p, INT)
            Y = random_cochain(rng, x, q, INT)
            if pullback(f, d(X)) != d(pullback(f, X)):
                failures.append(f"trial {t}: d")
                continue
            if pullback(f, cup_i(X, Y, i)) != cup_i(pullback(f, X), pullback(f, Y), i):
                failures.append(f"trial {t}: cup_{i}")
        assert not failures


def reference_pullback(f, c):
    """The pullback as once written: drop the simplices whose image is
    degenerate, then look the image up."""
    vals = {}
    for s in f.source.simplices(c.degree):
        img = f.nondegenerate_image(s)
        if img is not None and c.values.get(img):
            vals[s] = c.values[img]
    return Cochain(f.source, c.degree, c.ring, vals)


# the catalog manifolds with a boundary, each with a collapse map
COLLAPSIBLE = ("disk1", "disk2", "disk3", "mobius", "annulus", "solid_torus")


@lru_cache(maxsize=None)
def _pullback_map(label):
    """to_base of sd of a catalog complex (sd:name), or the collapse map of
    ``collapse_transfer`` (collapse:name)."""
    kind, name = label.split(":")
    if kind == "sd":
        return barycentric_subdivide(catalog(name).complex).to_base
    return collapse_map(catalog(name)).map


class TestPullbackReference:
    def test_every_manifold_with_boundary_collapses(self):
        assert COLLAPSIBLE == tuple(n for n in CATALOG_NAMES if not catalog(n).closed)

    @pytest.mark.parametrize("label", [f"sd:{n}" for n in CATALOG_NAMES]
                             + [f"collapse:{n}" for n in COLLAPSIBLE])
    def test_matches_the_nondegenerate_filter(self, label):
        f = _pullback_map(label)
        rng = random.Random(f"pullback-reference:{label}")
        degenerate = 0
        for k in range(f.source.dim + 1):
            degenerate += sum(f.nondegenerate_image(s) is None for s in f.source.simplices(k))
            for ring in RINGS:
                c = random_cochain(rng, f.target, k, ring)
                got, ref = pullback(f, c), reference_pullback(f, c)
                assert got == ref and list(got.values) == list(ref.values), (k, ring)
        # the catalog disks have no interior vertex, so their collapse is
        # injective, and sd of a point is the point
        assert degenerate or label in ("sd:sphere0", "collapse:disk1", "collapse:disk2",
                                       "collapse:disk3")


class TestIntegrate:
    def test_zero(self, rp2):
        assert integrate(rp2, zero_cochain(rp2.complex, 2, Z2)) == 0

    def test_stokes_on_torus_over_int(self, torus):
        rng = random.Random(3)
        for _ in range(10):
            c = random_cochain(rng, torus.complex, 1, INT)
            assert integrate(torus, d(c)) == 0

    def test_stokes_mod2_on_fixtures(self, rp2, torus, klein, mobius, annulus,
                                     solid_torus, disk2):
        rng = random.Random(4)
        for m in (rp2, torus, klein, mobius, annulus, solid_torus, disk2):
            for _ in range(8):
                vals = {}
                for s in m.pair.relative_simplices(m.n - 1):
                    if rng.random() < 0.5:
                        vals[s] = 1
                c = Cochain(m.complex, m.n - 1, Z2, vals)
                assert integrate(m, d(c)) == 0

    def test_orientation_required(self, rp2):
        c = zero_cochain(rp2.complex, 2, INT)
        with pytest.raises(OrientationRequired):
            integrate(rp2, c)


class TestRingArithmetic:
    def test_z4_coboundary_signs(self):
        x = build_complex([(0, 1, 2)])
        c = Cochain(x, 1, Z4, {(0, 1): 1, (0, 2): 1, (1, 2): 3})
        # alternating sum mod 4: 3 - 1 + 1
        assert d(c).values == {(0, 1, 2): 3}

    def test_qmodz_values_wrap(self):
        from fractions import Fraction

        x = build_complex([(0, 1)])
        c = Cochain(x, 0, QMODZ, {(0,): Fraction(5, 4)})
        assert c((0,)) == Fraction(1, 4)

    def test_call_returns_zero_off_support(self, rp2):
        c = Cochain(rp2.complex, 1, Z2, {(0, 1): 1})
        assert c((0, 2)) == 0

    def test_integrate_z4(self, rp2):
        w = Cochain(rp2.complex, 2, Z4,
                    {s: 1 for s in rp2.complex.simplices(2)})
        assert integrate(rp2, w) == 10 % 4


class TestCoercions:
    def test_embeddings(self, rp2):
        solver = CohomologySolver(rp2.pair, 1)
        (x,) = solver.basis
        four = embed_z2_z4(x)
        assert all(v == 2 for v in four.values.values())
        half = embed_z2_qmodz(x)
        assert all(v == Fraction(1, 2) for v in half.values.values())
        assert view_z4_qmodz(four) == half


class TestSolver:
    def test_contractible(self):
        assert CohomologySolver(absolute_pair(triangle()), 1).dim == 0

    def test_rp2_h1(self, rp2):
        assert CohomologySolver(rp2.pair, 1).dim == 1

    def test_annulus_relative(self, annulus):
        assert CohomologySolver(annulus.pair, 1).dim == 1
        assert CohomologySolver(annulus.pair, 2).dim == 1

    def test_decompose_basis_element(self, torus):
        solver = CohomologySolver(torus.pair, 1)
        coords, cert = solver.decompose(solver.basis[0])
        assert coords == (1, 0) and cert.is_zero()

    def test_decompose_coboundary(self, rp2):
        sigma = rp2.complex.simplices(0)[0]
        c = dual_cochain(rp2.complex, sigma)
        coords, cert = CohomologySolver(rp2.pair, 1).decompose(d(c))
        assert coords == (0,)
        assert d(cert) == d(c)

    def test_round_trip_with_random_coboundary(self, torus):
        solver = CohomologySolver(torus.pair, 1)
        rng = random.Random(9)
        for _ in range(25):
            coords = [rng.randint(0, 1) for _ in range(solver.dim)]
            noise = {}
            for s in torus.complex.simplices(0):
                if rng.random() < 0.5:
                    noise[s] = 1
            p = solver.reconstruct(coords) + d(Cochain(torus.complex, 0, Z2, noise))
            got, cert = solver.decompose(p)
            assert list(got) == coords
            recomposed = solver.reconstruct(got) + d(cert)
            assert recomposed == p

    def test_bits_match_the_cochains(self, torus, solid_torus):
        rng = random.Random(12)
        for m in (torus, solid_torus):
            solver = CohomologySolver(m.pair, m.n - 1)
            for _ in range(10):
                coords = [rng.randint(0, 1) for _ in range(solver.dim)]
                noise = {s: 1 for s in m.pair.relative_simplices(m.n - 2)
                         if rng.random() < 0.5}
                p = solver.reconstruct(coords) + d(Cochain(m.complex, m.n - 2, Z2, noise))
                a, pre, dpre = solver._decompose_bits(p)
                got, cert = solver.decompose(p)
                assert [(a >> j) & 1 for j in range(solver.dim)] == list(got) == coords
                assert pre == to_bits(m.pair, cert)
                assert dpre == to_bits(m.pair, d(cert))

    @pytest.mark.parametrize("name", ["rp2", "solid_torus"])
    def test_from_bits_round_trips(self, name):
        """from_bits reads every set bit, the lowest and the top one included,
        and to_bits gives the mask back."""
        m = catalog(name)
        rng = random.Random(name)
        for k in range(m.n + 1):
            simplices = m.pair.relative_simplices(k)
            width = len(simplices)
            for b in (0, (1 << width) >> 1, (1 << width) - 1, rng.getrandbits(width)):
                c = from_bits(m.pair, k, b)
                assert set(c.values) == {s for j, s in enumerate(simplices) if (b >> j) & 1}
                assert to_bits(m.pair, c) == b

    def test_reconstruct_needs_one_coordinate_per_class(self, rp2):
        solver = CohomologySolver(rp2.pair, 1)
        assert solver.dim == 1
        for coords in ([1, 1], []):
            with pytest.raises(ValueError, match="one coordinate per basis class"):
                solver.reconstruct(coords)

    def test_not_a_cocycle(self, rp2):
        c = dual_cochain(rp2.complex, rp2.complex.simplices(1)[0])
        with pytest.raises(NotACocycle):
            CohomologySolver(rp2.pair, 1).decompose(c)

    def test_not_relative(self, annulus):
        boundary_edge = next(s for s in annulus.pair.sub if len(s) == 2)
        c = dual_cochain(annulus.complex, boundary_edge)
        with pytest.raises(NotRelative):
            CohomologySolver(annulus.pair, 1).decompose(c)

    def test_deterministic_bases(self, rp2):
        a = CohomologySolver(rp2.pair, 1)
        b = CohomologySolver(rp2.pair, 1)
        assert [p.values for p in a.basis] == [p.values for p in b.basis]

    @pytest.mark.parametrize("name,k", [
        ("rp2", -1), ("rp2", 3), ("annulus", -1), ("solid_torus", 4),
        # every vertex of the raw strips lies on the boundary
        ("raw_mobius", 0), ("raw_annulus", 0),
    ])
    def test_an_empty_degree_builds_no_operator(self, name, k):
        raw = {"raw_mobius": raw_mobius_pair, "raw_annulus": raw_annulus_pair}
        pair = raw[name]() if name in raw else catalog(name).pair
        fresh = ComplexPair(pair.ambient, pair.sub)
        s = solver(fresh, k)
        assert not fresh.relative_simplices(k)
        assert (s.dim, s._rep_bits, s._ech.rank) == (0, [], 0)
        assert s._shift == len(fresh.relative_simplices(k - 1))
        assert not [key for key in fresh.cache if key[0] == "coboundary"]
        # its decompositions still run every check, exactly
        zero = zero_cochain(fresh.ambient, k, Z2)
        coords, cert = s.decompose(zero)
        assert coords == () and cert == zero_cochain(fresh.ambient, k - 1, Z2)
        assert s.reconstruct(()) == zero


class TestWu:
    def test_surfaces_ok(self, rp2, torus, klein, mobius, annulus):
        for m in (rp2, torus, klein, mobius, annulus):
            assert wu_v2_check(m) is None

    def test_solid_torus_ok(self, solid_torus):
        assert wu_v2_check(solid_torus) is None

    def test_sphere4_ok(self):
        from pinquad.fixtures import catalog

        assert wu_v2_check(catalog("sphere4")) is None

    def test_cp2_witness(self, cp2):
        witness = wu_v2_check(cp2)
        assert witness is not None
        # oracle: Sq^2 in the middle degree is the cup square
        assert integrate(cp2, cup_i(witness, witness, 0)) == 1
        assert integrate(cp2, sq(2, witness)) == 1

    @pytest.mark.parametrize("name", ["rp2", "klein", "mobius", "solid_torus", "sphere3"])
    def test_below_dimension_4_builds_no_solver(self, name):
        # Sq^2 is 0 on H^0 and H^1, so v2 vanishes without a solver
        m = catalog(name)
        fresh = validate_manifold(m.complex, m.n)
        assert wu_v2_check(fresh) is None
        assert not [key for key in fresh.pair.cache if key[0] == "solver"]

    def test_from_dimension_4_the_solver_is_read(self, cp2):
        fresh = validate_manifold(cp2.complex, cp2.n)
        witness = wu_v2_check(fresh)
        assert witness is not None and ("solver", 2) in fresh.pair.cache
        assert integrate(fresh, sq(2, witness)) == 1


def _reference_coboundary(pair, k):
    """d_k mod 2 built without the coface index: the faces of each relative
    (k+1)-simplex, found by deleting one vertex, are looked up in a dict of
    the relative k-simplices."""
    lower = [s for s in pair.ambient.simplices(k) if s not in pair.sub]
    upper = [s for s in pair.ambient.simplices(k + 1) if s not in pair.sub]
    row = {s: j for j, s in enumerate(lower)}
    columns = [0] * len(lower)
    for t, tau in enumerate(upper):
        for i in range(k + 2):
            face = tau[:i] + tau[i + 1:]
            if face in row:
                columns[row[face]] |= 1 << t
    return lower, columns


def _shuffled_rp2():
    """rp2 with shuffled vertex ranks: rank order and id order differ."""
    x = catalog("rp2").complex
    verts = x.vertices
    ranks = random.Random("coboundary:shuffled").sample(range(len(verts)), len(verts))
    y = build_complex(x.simplices(x.dim), dict(zip(verts, ranks)))
    assert any(list(s) != sorted(s) for s in y.simplices(2))
    return absolute_pair(y)


def _coboundary_pair(label):
    if label == "shuffled":
        return _shuffled_rp2()
    if label == "one_sub_edge":
        # a subcomplex with a single simplex in a degree shifts the relative
        # positions by one
        return ComplexPair(build_complex([(0, 1, 2), (1, 2, 3)]), [(0,), (1,), (0, 1)])
    if label == "raw_mobius":
        return raw_mobius_pair()
    if label == "raw_annulus":
        return raw_annulus_pair()
    if label.startswith("sd:"):
        m = catalog(label[3:])
        return validate_manifold(barycentric_subdivide(m.complex).complex, m.n).pair
    return catalog(label).pair


COBOUNDARY_PAIRS = CATALOG_NAMES + tuple(
    "sd:" + name for name in ("rp2", "mobius", "annulus", "solid_torus")) + (
    "raw_mobius", "raw_annulus", "shuffled", "one_sub_edge")


class TestCoboundaryBits:
    @pytest.mark.parametrize("label", COBOUNDARY_PAIRS)
    def test_matches_the_faces_of_each_simplex(self, label):
        # a fresh pair builds its operators cold; the reference reads no
        # coface index
        source = _coboundary_pair(label)
        pair = ComplexPair(source.ambient, source.sub)
        for k in range(pair.ambient.dim + 1):
            lower, columns = _reference_coboundary(pair, k)
            assert pair.relative_simplices(k) == tuple(lower)
            assert coboundary_bits(pair, k) == columns, k

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_matches_signed_coboundary(self, name):
        # the mod-2 operator against signed d, both read off the coface index
        m = catalog(name)
        pair = m.pair
        for k in range(m.n):
            cols = coboundary_bits(pair, k)
            simplices = pair.relative_simplices(k)
            assert len(cols) == len(simplices)
            for col, s in zip(cols, simplices):
                assert col == to_bits(pair, d(dual_cochain(m.complex, s))), (k, s)

    def test_an_empty_subcomplex_lends_the_ambient_simplices(self):
        pair = absolute_pair(catalog("torus").complex)
        for k in range(3):
            assert pair.relative_simplices(k) is pair.ambient.simplices(k)
        assert not pair.cache


class TestOperatorBudget:
    def test_default_admits_sd_solid_torus_and_refuses_sd2(self):
        # relative f-vectors are at most the absolute ones: sd(solid_torus)
        # is (2112, 12912, 21168, 10368), sd^2 (46560, 297984, 500256, 248832)
        errors.check_operator(1, 12912, 21168)  # about 34 MB
        with pytest.raises(BudgetExceeded, match=r"^15559962624 bytes of d_2 exceed"):
            errors.check_operator(2, 500256, 248832)

    def test_refused_before_any_column_is_built(self, monkeypatch):
        sd = barycentric_subdivide(catalog("torus").complex).complex
        pair = absolute_pair(sd)
        # d_0 is 42 columns of 126 bits (672 bytes), d_1 126 of 84 (1386)
        monkeypatch.setattr(errors, "OPERATOR_BUDGET", 1000)
        with pytest.raises(BudgetExceeded, match=r"^1386 bytes of d_1 exceed the budget 1000$"):
            CohomologySolver(pair, 1)
        assert ("coboundary", 0) in pair.cache
        assert ("coboundary", 1) not in pair.cache


@lru_cache(maxsize=None)
def _euler_fixture(name):
    """A catalog entry, or with the prefix sd: its barycentric subdivision,
    relative to the boundary."""
    if name.startswith("sd:"):
        m = catalog(name[3:])
        return validate_manifold(barycentric_subdivide(m.complex).complex, m.n).pair
    return catalog(name).pair


EULER_FIXTURES = CATALOG_NAMES + tuple(
    "sd:" + name for name in ("rp2", "torus", "klein", "mobius", "annulus", "sphere3"))


class TestEulerCharacteristic:
    """sum_k (-1)^k dim H^k(X, Y) equals the alternating sum of the relative
    f-vector.  A skip set of the clearing that is too large loses classes
    without any error; this catches it on the fixtures no golden covers."""

    @staticmethod
    def relative_euler(pair):
        return sum((-1) ** k * len(pair.relative_simplices(k))
                   for k in range(pair.ambient.dim + 1))

    @pytest.mark.parametrize("name", EULER_FIXTURES)
    def test_one_fresh_pair_per_degree(self, name):
        # a lone degree-k solver builds the top-bit chain below it cold
        shared = _euler_fixture(name)
        dims = [CohomologySolver(ComplexPair(shared.ambient, shared.sub), k).dim
                for k in range(shared.ambient.dim + 1)]
        assert sum((-1) ** k * h for k, h in enumerate(dims)) == self.relative_euler(shared)

    @pytest.mark.parametrize("name", EULER_FIXTURES)
    def test_one_pair_for_all_degrees(self, name):
        shared = _euler_fixture(name)
        pair = ComplexPair(shared.ambient, shared.sub)
        dims = [CohomologySolver(pair, k).dim for k in range(pair.ambient.dim + 1)]
        assert sum((-1) ** k * h for k, h in enumerate(dims)) == self.relative_euler(pair)


class TestSolverTopBits:
    """A solver's kernel pass of d_k stores the top bits of im d_k, which
    must be the set that a separate ``top_bits`` pass over the same columns
    and skip would give."""

    @staticmethod
    def top_bit_chain(pair):
        chain, below = [], frozenset()
        for k in range(pair.ambient.dim + 1):
            below = top_bits(coboundary_bits(pair, k), below)
            chain.append(below)
        return chain

    @pytest.mark.parametrize("name", ("sd:rp2", "sd:torus", "sd:mobius", "sd:sphere3"))
    def test_stored_top_bits_match_a_fresh_pass(self, name):
        shared = _euler_fixture(name)
        expected = self.top_bit_chain(ComplexPair(shared.ambient, shared.sub))
        ascending = ComplexPair(shared.ambient, shared.sub)
        for k in range(shared.ambient.dim + 1):
            CohomologySolver(ascending, k)
            assert ascending.cache[("tops", k)] == expected[k]
            lone = ComplexPair(shared.ambient, shared.sub)
            CohomologySolver(lone, k)
            assert lone.cache[("tops", k)] == expected[k]


class TestDeferredEchelon:
    """The boundary echelon of d_{k-1} is read only to reduce surviving
    cocycles and by decompositions, so a degree where no class survives, or
    whose classes are read off the dual graph, eliminates it on its first
    decomposition and not before."""

    @staticmethod
    def count_eliminations(monkeypatch):
        calls = []

        def counting(columns, skip=()):
            calls.append(len(columns))
            return eliminate(columns, skip)

        monkeypatch.setattr(_gf2, "eliminate", counting)
        return calls

    @pytest.mark.parametrize("name,k", [
        ("sphere3", 1), ("sphere3", 2), ("sd:sphere3", 2), ("sphere2", 1)])
    def test_no_class_defers_the_elimination_to_a_decomposition(self, monkeypatch, name, k):
        shared = _euler_fixture(name)
        pair = ComplexPair(shared.ambient, shared.sub)
        calls = self.count_eliminations(monkeypatch)
        s = solver(pair, k)
        assert (s.dim, s._rep_bits, calls) == (0, [], [])
        below = coboundary_bits(pair, k - 1)
        rng = random.Random(f"deferred:{name}:{k}")
        for _ in range(2):
            c = from_bits(pair, k - 1, rng.getrandbits(len(below)))
            coords, cert = s.decompose(d(c))
            assert coords == () and d(cert) == d(c)
            assert calls == [len(below)]
        eager, reps = representatives(below, [], s._shift, cochains._tops(pair, k - 2))
        assert reps == [] and s._ech.rows == eager.rows  # rows and trackers
        assert eager.rows == representatives(below, [], s._shift)[0].rows

    @pytest.mark.parametrize("name,k", [("rp2", 1), ("torus", 1)])
    def test_surviving_classes_eliminate_in_the_constructor(self, monkeypatch, name, k):
        shared = _euler_fixture(name)
        pair = ComplexPair(shared.ambient, shared.sub)
        calls = self.count_eliminations(monkeypatch)
        s = solver(pair, k)
        assert s.dim > 0 and len(calls) == 1
        s.decompose(s.basis[0])
        assert len(calls) == 1

    @pytest.mark.parametrize("name,k", [("sd:sphere3", 3), ("rp2", 2), ("sd:mobius", 2)])
    def test_a_dual_graph_degree_defers(self, monkeypatch, name, k):
        shared = _euler_fixture(name)
        pair = ComplexPair(shared.ambient, shared.sub)
        calls = self.count_eliminations(monkeypatch)
        s = solver(pair, k)
        assert s.dim > 0 and calls == []
        assert not {("coboundary", k - 1), ("coboundary", k), ("tops", k - 1)} & set(pair.cache)
        s.decompose(s.basis[0])
        assert calls == [len(pair.relative_simplices(k - 1))]
        s.decompose(s.basis[-1])
        assert len(calls) == 1


def face_scan_d(c):
    """The coboundary by scanning every (k+1)-simplex for faces in the
    support, independent of the coface index."""
    x, k = c.complex, c.degree
    vals = {}
    for tau in x.simplices(k + 1):
        total = 0
        for j in range(k + 2):
            v = c.values.get(tau[:j] + tau[j + 1:])
            if v is not None:
                total = total + v if j % 2 == 0 else total - v
        if total:
            vals[tau] = total
    return Cochain(x, k + 1, c.ring, vals)


class TestCoboundaryReference:
    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_catalog(self, name):
        x = catalog(name).complex
        rng = random.Random(name)
        for ring in (INT, Z2, Z4, QMODZ):
            for k in range(-1, x.dim + 1):
                c = random_cochain(rng, x, k, ring)
                assert d(c) == face_scan_d(c), (ring, k)

    def test_random_complexes(self):
        # some random_complex draws are not pure: a maximal simplex lies
        # below the top dimension
        rng = random.Random(8)
        for _ in range(60):
            x = random_complex(rng)
            for ring in (INT, Z2, Z4, QMODZ):
                for k in range(x.dim + 1):
                    c = random_cochain(rng, x, k, ring, density=rng.random())
                    assert d(c) == face_scan_d(c), (x, ring, k)


class TestInvariantChecks:
    def test_corrupted_representative_is_caught(self, rp2):
        solver = CohomologySolver(rp2.pair, 1)
        (p,) = solver.basis
        solver._rep_bits[0] ^= 1
        with pytest.raises(InvariantViolation):
            solver.decompose(p)


def face_scan_cup(u, v, i):
    """cup_i by scanning every (p+q-i)-simplex, with the cut positions
    built here and read by indexing, independent of the coface index."""
    p, q, x = u.degree, v.degree, u.complex
    m = p + q - i
    patterns = []
    for cuts in itertools.combinations(range(m + 1), i + 1):
        even, odd = list(range(0, cuts[0] + 1)), []
        for j in range(1, i + 2):
            seg = range(cuts[j - 1], (cuts[j] if j <= i else m) + 1)
            (even if j % 2 == 0 else odd).extend(seg)
        if len(even) == p + 1 and len(odd) == q + 1:
            patterns.append((even, odd, steenrod_sign_exponent(p, q, i, cuts)))
    vals = {}
    for s in x.simplices(m):
        total = 0
        for even, odd, sign in patterns:
            term = u(tuple(s[t] for t in even)) * v(tuple(s[t] for t in odd))
            total += -term if sign and u.ring == INT else term
        if total:
            vals[s] = total
    return Cochain(x, m, u.ring, vals)


def supports(rng, x, k, ring):
    """Cochains of degree k with empty, single-simplex, full and random support."""
    simplices = x.simplices(k)

    def value():
        return 1 if ring == Z2 else rng.choice((-3, -2, -1, 1, 2, 3))

    out = [Cochain(x, k, ring), random_cochain(rng, x, k, ring, density=rng.random())]
    if simplices:
        out.append(Cochain(x, k, ring, {rng.choice(simplices): value()}))
        out.append(Cochain(x, k, ring, {s: value() for s in simplices}))
    return out


def check_cup_reference(x, rng):
    for ring in (INT, Z2):
        for p in range(x.dim + 1):
            for q in range(x.dim + 1):
                for i in range(max(0, p + q - x.dim), min(p, q) + 1):
                    for u in supports(rng, x, p, ring):
                        for v in supports(rng, x, q, ring):
                            assert cup_i(u, v, i) == face_scan_cup(u, v, i), (ring, p, q, i)


class TestCupReference:
    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_catalog(self, name):
        check_cup_reference(catalog(name).complex, random.Random(name))

    def test_random_complexes(self):
        # some random_complex draws are not pure: a maximal simplex lies
        # below the top dimension
        rng = random.Random(9)
        drawn = [random_complex(rng) for _ in range(30)]
        assert any(len(maximal_simplices(x)) > len(x.simplices(x.dim)) for x in drawn)
        for x in drawn:
            check_cup_reference(x, rng)

    def test_degree_beyond_the_complex_is_zero(self, rp2):
        u = random_cochain(random.Random(2), rp2.complex, 2, Z2)
        assert cup_i(u, u, 0).is_zero() and cup_i(u, u, 0).degree == 4


# every catalog pair, the absolute pair of each one with a boundary, and the
# raw strips
CUP_ROW_PAIRS = CATALOG_NAMES + tuple(
    name + "/absolute" for name in ("disk1", "disk2", "disk3", "mobius", "annulus", "solid_torus")
) + ("raw_mobius", "raw_annulus")


def _cup_row_pair(label):
    if label == "raw_mobius":
        return raw_mobius_pair()
    if label == "raw_annulus":
        return raw_annulus_pair()
    name, _, absolute = label.partition("/")
    m = catalog(name)
    return m.absolute() if absolute else m.pair


class TestCupRows:
    @pytest.mark.parametrize("label", CUP_ROW_PAIRS)
    def test_rows_are_cup_i_of_each_dual(self, label):
        # row j is e_j* u_{n-2} c for the cup rows of each (Sq^2 t*, d t*)
        # generator of the G^pin oracle, c = d t* for a relative
        # (n-2)-simplex t, and e_j* u_i c for a few random relative
        # (n-1)-cochains c and the i on either side of n - 2
        pair = _cup_row_pair(label)
        x = pair.ambient
        rng = random.Random(label)
        for n in range(2, x.dim + 1):
            duals = [dual_cochain(x, e) for e in pair.relative_simplices(n - 1)]
            drawn = [rng.getrandbits(len(duals)) for _ in range(3)]
            cases = [(bits, n - 2) for bits in coboundary_bits(pair, n - 2)] + [
                (bits, i) for bits in drawn for i in (n - 3, n - 2, n - 1)]
            for bits, i in cases:
                c = from_bits(pair, n - 1, bits)
                want = [to_bits(pair, cup_i(e, c, i)) for e in duals]
                assert cochains.cup_rows(pair, n - 1, i, bits) == want, (n, i, bits)

    def test_no_cut_pattern_without_a_simplex_of_the_target_degree(self, rp2, monkeypatch):
        # rp2 has no 3-simplex, so every row e* u_1 c of a 2-cochain c is
        # zero, and no cut pattern of u_1 on 2-cochains is built
        def refuse(*args):
            raise AssertionError("a cut pattern was built")

        monkeypatch.setattr(cochains, "_cut_patterns", refuse)
        width = len(rp2.pair.relative_simplices(2))
        assert cochains.cup_rows(rp2.pair, 2, 1, (1 << width) - 1) == [0] * width


class TestSqByDegree:
    def test_zero_above_degree_plus_one(self, rp2, solid_torus):
        rng = random.Random(5)
        for m in (rp2, solid_torus):
            for k in range(m.n + 1):
                c = random_cochain(rng, m.complex, k, Z2)
                for i in range(k + 2, k + 5):
                    s = sq(i, c)
                    assert s.is_zero() and s.degree == k + i and s.ring == Z2
                    assert s == cup_i(c, c, k - i) + cup_i(c, d(c), k - i + 1)

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_zero_above_the_dimension_without_building_dc(self, name, monkeypatch):
        x = catalog(name).complex
        rng = random.Random(name)
        calls = []

        def counted(c):
            calls.append(c.degree)
            return d(c)

        for k in range(x.dim + 1):
            c = random_cochain(rng, x, k, Z2, density=0.5)
            for i in (0, 1, 2):
                if k + i > x.dim:
                    monkeypatch.setattr(cochains, "d", counted)
                    s = sq(i, c)
                    monkeypatch.undo()
                    assert s.is_zero() and s.degree == k + i and s.ring == Z2
                    assert calls == [], (k, i)
                else:
                    assert sq(i, c) == cup_i(c, c, k - i) + cup_i(c, d(c), k - i + 1)


def assert_valid(c):
    """c stores no zero and is what the checking constructor makes of it."""
    assert all(c.values.values()), c
    assert Cochain(c.complex, c.degree, c.ring, c.values) == c


class TestTrustedProducers:
    def test_every_producer_over_every_ring(self, rp2, torus, solid_torus):
        rng = random.Random(6)
        for m in (rp2, torus, solid_torus):
            x = m.complex
            for ring in (INT, Z2, Z4, QMODZ):
                for k in range(m.n + 1):
                    a = random_cochain(rng, x, k, ring)
                    b = random_cochain(rng, x, k, ring)
                    for c in (d(a), a + b, a - b, -a, a + (-a)):
                        assert_valid(c)
            for k in range(m.n + 1):
                for ring in (INT, Z2):
                    a = random_cochain(rng, x, k, ring)
                    b = random_cochain(rng, x, m.n - k, ring)
                    for i in range(-1, k + 2):
                        assert_valid(cup_i(a, b, i))
                c = random_cochain(rng, x, k, Z2)
                for i in range(-1, k + 3):
                    assert_valid(sq(i, c))
                z4 = random_cochain(rng, x, k, Z4)
                for c in (embed_z2_z4(c), embed_z2_qmodz(c), view_z4_qmodz(z4)):
                    assert_valid(c)
                bits = rng.getrandbits(len(m.pair.relative_simplices(k)))
                assert_valid(from_bits(m.pair, k, bits))
                assert_valid(random_relative_cochain(rng, m, k))

    def test_maps_and_suspensions(self, rp2):
        rng = random.Random(7)
        sd = barycentric_subdivide(rp2.complex)
        sx = suspension(rp2.complex)
        for ring in (INT, Z2, Z4, QMODZ):
            for k in range(3):
                c = random_cochain(rng, rp2.complex, k, ring)
                assert_valid(pullback(sd.to_base, c))
                assert_valid(suspend(sx, c))
                assert_valid(desuspend(sx, suspend(sx, c)))

    def test_push_along_an_injective_map(self, torus):
        from pinquad.quadratic import _push

        z, i1, i2 = disjoint_union(torus.complex, torus.complex)
        rng = random.Random(8)
        for k in range(3):
            c = random_cochain(rng, torus.complex, k, Z2)
            assert_valid(_push(i1, c))
            assert_valid(_push(i2, c))

    def test_checking_constructor_refuses_bad_keys(self):
        x = triangle()
        with pytest.raises(ValueError, match="not a simplex"):
            Cochain(x, 1, Z2, {(0, 3): 1})
        with pytest.raises(ValueError, match="wrong dimension"):
            Cochain(x, 1, Z2, {(0, 1, 2): 1})
        with pytest.raises(RingMismatch):
            Cochain(x, 1, "Z8", {(0, 1): 1})

    def test_checking_constructor_reduces(self):
        x = triangle()
        assert Cochain(x, 0, Z2, {(0,): 3, (1,): 2, (2,): -1}).values == {(0,): 1, (2,): 1}
        assert Cochain(x, 0, Z4, {(0,): 6, (1,): 4, (2,): -1}).values == {(0,): 2, (2,): 3}
        c = Cochain(x, 0, QMODZ, {(0,): Fraction(5, 4), (1,): 2})
        assert c.values == {(0,): Fraction(1, 4)}
        assert Cochain(x, 0, INT, {(0,): 0, (1,): -2}).values == {(1,): -2}
