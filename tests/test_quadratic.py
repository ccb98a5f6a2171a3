import random

import pytest

from pinquad import _gf2
from pinquad import quadratic
from pinquad.cochains import (
    Cochain,
    CohomologySolver,
    Z2,
    coboundary_bits,
    cup_i,
    d,
    dual_cochain,
    from_bits,
    integrate,
    pullback,
    sq,
    to_bits,
    zero_cochain,
)
from pinquad.complexes import (
    SimplicialMap,
    barycentric_subdivide,
    build_complex,
    disjoint_union,
    validate_manifold,
)
from pinquad.errors import (
    BudgetExceeded,
    ComplexMismatch,
    ConstraintViolation,
    DegreeZero,
    EmptyBoundary,
    InvariantViolation,
    NotACocycle,
    NotClosedSurface,
    NotNeatlyEmbedded,
    SpinOnNonorientable,
    WuObstruction,
)
from pinquad.fixtures import CATALOG_NAMES, catalog
from pinquad.quadratic import (
    PIN,
    SPIN,
    _sq2_rows,
    act,
    boundary_manifold,
    boundary_quadratic,
    brown_gauss,
    brown_invariants,
    cylinder_extend,
    cylinder_restrict,
    disjoint_sum,
    enumerate_quadratics,
    eval_quadratic,
    make_quadratic,
    negate,
    pushforward,
    quad_context,
    quadratic_from_prescribed,
    random_relative_cochain,
    random_relative_cocycle,
    restrict_codim0,
    submanifold,
    transfer_subdivision,
    v1_witness,
    verify_axioms,
)


def klein_grid_vertex(r, c):
    if c == 3:
        c = 0
    if r == 3:
        r, c = 0, (-c) % 3
    return 3 * r + c


def klein_band(columns):
    tris = []
    for r in range(3):
        for c in columns:
            a, b = klein_grid_vertex(r, c), klein_grid_vertex(r, c + 1)
            aa, bb = klein_grid_vertex(r + 1, c), klein_grid_vertex(r + 1, c + 1)
            tris.append(tuple(sorted((a, b, bb))))
            tris.append(tuple(sorted((a, aa, bb))))
    return tris


class TestMake:
    def test_rp2_values_forced_odd(self, rp2):
        q = make_quadratic(rp2, PIN, [1])
        assert q.basis_values == (1,)
        with pytest.raises(ConstraintViolation):
            make_quadratic(rp2, PIN, [0])

    def test_torus_zero_values(self, torus):
        q = make_quadratic(torus, PIN, [0, 0])
        assert verify_axioms(q, 50, seed=0).ok

    def test_klein_has_a_forced_odd_generator(self, klein):
        ctx = quad_context(klein)
        assert 1 in ctx.sq1

    def test_spin_needs_orientation(self, rp2, torus):
        with pytest.raises(SpinOnNonorientable):
            make_quadratic(rp2, SPIN, [1])
        q = make_quadratic(torus, SPIN, [0, 2])
        assert q.basis_values == (0, 2)

    def test_unknown_mode_is_refused(self, rp2):
        with pytest.raises(ValueError):
            make_quadratic(rp2, "spinn", [1])

    def test_wu_obstruction_on_cp2(self, cp2):
        with pytest.raises(WuObstruction):
            make_quadratic(cp2, PIN, [])


class TestEnumerate:
    def test_counts_match_betti(self, rp2, torus, klein, mobius, annulus,
                                solid_torus, sphere1, sphere2, disk2):
        for m in (rp2, torus, klein, mobius, annulus, solid_torus,
                  sphere1, sphere2, disk2):
            h = CohomologySolver(m.pair, m.n - 1).dim
            assert len(enumerate_quadratics(m, PIN)) == 2 ** h

    def test_rp2_values(self, rp2):
        assert [q.basis_values for q in enumerate_quadratics(rp2, PIN)] == [(1,), (3,)]

    def test_torus_spin_values_even(self, torus):
        qs = enumerate_quadratics(torus, SPIN)
        assert len(qs) == 4
        assert all(v in (0, 2) for q in qs for v in q.basis_values)

    def test_circle_has_two(self, sphere1):
        assert len(enumerate_quadratics(sphere1, PIN)) == 2

    def test_deterministic_order(self, torus):
        a = [q.basis_values for q in enumerate_quadratics(torus, PIN)]
        b = [q.basis_values for q in enumerate_quadratics(torus, PIN)]
        assert a == b == sorted(a)


class TestEval:
    def test_zero_cocycle(self, rp2):
        q = enumerate_quadratics(rp2, PIN)[0]
        z = zero_cochain(rp2.complex, 1, Z2)
        assert eval_quadratic(q, z).z4 == 0

    def test_coboundary_duals_vanish(self, rp2, torus):
        for m in (rp2, torus):
            q = enumerate_quadratics(m, PIN)[0]
            for s in m.pair.relative_simplices(m.n - 2):
                w = d(dual_cochain(m.complex, s))
                assert eval_quadratic(q, w).z4 == 0

    def test_descends_on_surfaces(self, rp2):
        q = make_quadratic(rp2, PIN, [1])
        solver = q.solver
        (x,) = solver.basis
        rng = random.Random(11)
        for _ in range(40):
            noise = {s: 1 for s in rp2.complex.simplices(0) if rng.random() < 0.5}
            p = x + d(Cochain(rp2.complex, 0, Z2, noise))
            assert eval_quadratic(q, p).z4 == 1

    def test_certificate_independence(self, torus):
        # same class reached through different cocycle representatives
        q = enumerate_quadratics(torus, PIN)[-1]
        rng = random.Random(13)
        for _ in range(25):
            p = random_relative_cocycle(rng, q)
            noise = {s: 1 for s in torus.complex.simplices(0) if rng.random() < 0.5}
            p2 = p + d(Cochain(torus.complex, 0, Z2, noise))
            v1 = eval_quadratic(q, p).z4
            v2 = eval_quadratic(q, p2).z4
            cross = integrate(torus, cup_i(p, p2 - p, torus.n - 2)) % 2
            law = (v1 + eval_quadratic(q, p2 - p).z4 + 2 * cross) % 4
            assert v2 == law

    def test_fold_order_independence(self, klein):
        # Q(p) computed directly equals Q((p+q) - q) via the sum law
        q = enumerate_quadratics(klein, PIN)[2]
        rng = random.Random(17)
        for _ in range(25):
            p1 = random_relative_cocycle(rng, q)
            p2 = random_relative_cocycle(rng, q)
            s = eval_quadratic(q, p1 + p2).z4
            cross = integrate(klein, cup_i(p1, p2, klein.n - 2)) % 2
            assert s == (eval_quadratic(q, p1).z4 + eval_quadratic(q, p2).z4
                         + 2 * cross) % 4

    def test_oriented_values_are_even(self, torus, annulus, solid_torus):
        rng = random.Random(21)
        for m in (torus, annulus, solid_torus):
            for q in enumerate_quadratics(m, PIN):
                for _ in range(15):
                    p = random_relative_cocycle(rng, q)
                    assert eval_quadratic(q, p).z4 % 2 == 0

    def test_two_torsion_relation(self, rp2, klein):
        # 2 Q(p) = 2 int Sq^1 p for every relative cocycle
        rng = random.Random(19)
        for m in (rp2, klein):
            q = enumerate_quadratics(m, PIN)[1]
            for _ in range(20):
                p = random_relative_cocycle(rng, q)
                lhs = (2 * eval_quadratic(q, p).z4) % 4
                rhs = (2 * (integrate(m, sq(1, p)) % 2)) % 4
                assert lhs == rhs


class TestActNegate:
    def test_act_by_zero(self, torus):
        q = enumerate_quadratics(torus, PIN)[0]
        a = zero_cochain(torus.complex, 1, Z2)
        assert act(q, a) == q

    def test_rp2_generator_swaps(self, rp2):
        q0, q1 = enumerate_quadratics(rp2, PIN)
        (x,) = q0.solver.basis
        assert act(q0, x) == q1 and act(q1, x) == q0

    def test_action_free_and_transitive(self, rp2, torus, klein, mobius,
                                        annulus, sphere1):
        for m in (rp2, torus, klein, mobius, annulus, sphere1):
            qs = enumerate_quadratics(m, PIN)
            solver = CohomologySolver(m.pair if m.closed else
                                      __import__("pinquad.complexes",
                                                 fromlist=["absolute_pair"]
                                                 ).absolute_pair(m.complex), 1)
            reps = []
            for bits in range(1 << solver.dim):
                reps.append(solver.reconstruct([(bits >> j) & 1
                                                for j in range(solver.dim)]))
            orbit = {act(qs[0], a) for a in reps}
            assert len(orbit) == len(qs)
            assert set(qs) == orbit

    def test_action_depends_only_on_class(self, klein):
        q = enumerate_quadratics(klein, PIN)[0]
        solver = CohomologySolver(
            __import__("pinquad.complexes", fromlist=["absolute_pair"]
                       ).absolute_pair(klein.complex), 1)
        a = solver.basis[0]
        noise = Cochain(klein.complex, 0, Z2,
                        {(v,): 1 for v in klein.complex.vertices[:4]})
        assert act(q, a) == act(q, a + d(noise))

    def test_cochain_from_another_complex(self, torus, rp2):
        q = enumerate_quadratics(torus, PIN)[0]
        (x,) = quad_context(rp2).solver.basis
        with pytest.raises(ComplexMismatch):
            act(q, x)

    def test_non_cocycle_is_refused(self, torus):
        q = enumerate_quadratics(torus, PIN)[0]
        edge = torus.complex.simplices(1)[0]
        with pytest.raises(NotACocycle):
            act(q, dual_cochain(torus.complex, edge))

    def test_negate_fixes_spin(self, torus):
        for q in enumerate_quadratics(torus, SPIN):
            assert negate(q) == q

    def test_negate_swaps_rp2(self, rp2):
        q0, q1 = enumerate_quadratics(rp2, PIN)
        assert negate(q0) == q1

    def test_negate_is_involution(self, klein):
        for q in enumerate_quadratics(klein, PIN):
            assert negate(negate(q)) == q

    def test_negate_is_action_by_v1(self, rp2, klein, mobius):
        for m in (rp2, klein, mobius):
            a = v1_witness(m)
            assert d(a).is_zero()
            for q in enumerate_quadratics(m, PIN):
                assert negate(q) == act(q, a)

    def test_missing_v1_witness_is_an_invariant_violation(self, rp2, monkeypatch):
        from pinquad import _gf2

        quad_context(rp2)
        monkeypatch.setattr(_gf2, "solve", lambda rows, target: None)
        with pytest.raises(InvariantViolation, match="no v1 witness"):
            v1_witness(rp2)


class TestBoundary:
    def test_disk_boundary_trivial(self, disk2):
        (q,) = enumerate_quadratics(disk2, PIN)
        bq = boundary_quadratic(q)
        assert all(v == 0 for v in bq.basis_values)

    def test_closed_raises(self, rp2):
        with pytest.raises(EmptyBoundary):
            boundary_quadratic(enumerate_quadratics(rp2, PIN)[0])

    def _circle_indicators(self, m):
        bm = boundary_manifold(m)
        comps = []
        verts = set(bm.complex.vertices)
        edges = list(bm.complex.simplices(1))
        while verts:
            seed = min(verts)
            comp = {seed}
            grew = True
            while grew:
                grew = False
                for a, b in edges:
                    if a in comp and b not in comp:
                        comp.add(b)
                        grew = True
                    elif b in comp and a not in comp:
                        comp.add(a)
                        grew = True
            comps.append(sorted(comp))
            verts -= comp
        return bm, [Cochain(bm.complex, 0, Z2, {(v,): 1 for v in comp})
                    for comp in comps]

    def test_annulus_even_nontrivial_circles(self, annulus):
        bm, indicators = self._circle_indicators(annulus)
        assert len(indicators) == 2
        seen = set()
        for q in enumerate_quadratics(annulus, PIN):
            bq = boundary_quadratic(q)
            count = sum(1 for u in indicators if eval_quadratic(bq, u).z4 != 0)
            assert count % 2 == 0
            seen.add(count)
        assert 2 in seen  # some Q is nontrivial on both circles

    def test_boundary_functions_are_quadratic(self, annulus, mobius):
        for m in (annulus, mobius):
            for q in enumerate_quadratics(m, PIN):
                assert verify_axioms(boundary_quadratic(q), 40, seed=5).ok

    def test_solid_torus_lagrangian(self, solid_torus):
        from pinquad.complexes import absolute_pair

        st = solid_torus
        bq_values = []
        extendable = CohomologySolver(absolute_pair(st.complex), 1)
        bc = st.boundary_complex()
        for q in enumerate_quadratics(st, PIN):
            bq = boundary_quadratic(q)
            for z in extendable.basis:
                rest = Cochain(bc, 1, Z2,
                               {s: v for s, v in z.values.items()
                                if bc.has_simplex(s)})
                assert eval_quadratic(bq, rest).z4 == 0
            assert brown_gauss(bq) == 0  # Arf surrogate vanishes
            bq_values.append(bq.basis_values)


class TestRestriction:
    def test_whole_manifold(self, torus):
        q = enumerate_quadratics(torus, PIN)[1]
        assert restrict_codim0(q, torus) == q
        # a rebuilt copy of the full complex restricts to the same values
        v = submanifold(torus, torus.complex.simplices(2))
        qv = restrict_codim0(q, v)
        rng = random.Random(23)
        for _ in range(10):
            p = random_relative_cocycle(rng, q)
            p_on_v = Cochain(v.complex, p.degree, Z2, p.values)
            assert eval_quadratic(q, p).z4 == eval_quadratic(qv, p_on_v).z4

    def test_mobius_inside_klein(self, klein):
        v = submanifold(klein, klein_band([1]))
        assert not v.orientable and v.complex.euler() == 0
        for q in enumerate_quadratics(klein, PIN):
            qv = restrict_codim0(q, v)
            assert verify_axioms(qv, 25, seed=1).ok
            assert all(x % 2 == 1 for x in qv.basis_values)

    def test_annulus_inside_klein(self, klein):
        v = submanifold(klein, klein_band([0]))
        assert v.orientable and v.complex.euler() == 0
        for q in enumerate_quadratics(klein, PIN):
            qv = restrict_codim0(q, v)
            assert all(x % 2 == 0 for x in qv.basis_values)

    def test_torus_minus_star(self, torus):
        piece = [t for t in torus.complex.simplices(2) if 0 not in t]
        v = submanifold(torus, piece)
        for q in enumerate_quadratics(torus, PIN)[:2]:
            assert verify_axioms(restrict_codim0(q, v), 25, seed=2).ok

    def test_foreign_simplices_rejected(self, torus, rp2):
        q = enumerate_quadratics(torus, PIN)[0]
        other = submanifold(rp2, rp2.complex.simplices(2))
        with pytest.raises(NotNeatlyEmbedded):
            restrict_codim0(q, other)


class TestComplementaryRestrictions:
    def _shared_boundary_values(self, q, piece):
        qv = restrict_codim0(q, piece)
        bq = boundary_quadratic(qv)
        bm = boundary_manifold(piece)
        solver = CohomologySolver(bm.pair, bm.n - 1)
        return [(p.values, eval_quadratic(bq, p).z4) for p in solver.basis]

    def test_klein_split_along_the_moebius_band(self, klein):
        # V = the flip-invariant column band, V' = its complement; both see
        # the same circle as boundary and must induce the same function on it
        v = submanifold(klein, klein_band([1]))
        vp = submanifold(klein, klein_band([0, 2]))
        assert set(v.pair.sub) == set(vp.pair.sub)
        for q in enumerate_quadratics(klein, PIN):
            assert (self._shared_boundary_values(q, v)
                    == self._shared_boundary_values(q, vp))

    def test_torus_split_along_a_vertex_link(self, torus):
        star = [t for t in torus.complex.simplices(2) if 0 in t]
        rest = [t for t in torus.complex.simplices(2) if 0 not in t]
        v = submanifold(torus, star)
        vp = submanifold(torus, rest)
        assert set(v.pair.sub) == set(vp.pair.sub)
        for q in enumerate_quadratics(torus, PIN):
            assert (self._shared_boundary_values(q, v)
                    == self._shared_boundary_values(q, vp))


class TestCylinder:
    @pytest.mark.parametrize("name", ["sphere1", "torus", "klein"])
    def test_round_trip_and_stability(self, name):
        m = catalog(name)
        for q0 in enumerate_quadratics(m, PIN):
            ext = cylinder_extend(q0)
            assert cylinder_restrict(ext, 0, m) == q0
            q1 = cylinder_restrict(ext, 1, m)
            ext1 = cylinder_extend(q1)
            assert ext1.function.basis_values == ext.function.basis_values

    def test_cylinder_function_is_quadratic(self, sphere1):
        q0 = enumerate_quadratics(sphere1, PIN)[1]
        ext = cylinder_extend(q0)
        assert verify_axioms(ext.function, 40, seed=3).ok


class TestSubdivisionTransfer:
    @pytest.mark.parametrize("name", ["rp2", "torus"])
    def test_counts_match_and_eval_agrees(self, name):
        m = catalog(name)
        qs = enumerate_quadratics(m, PIN)
        transferred = []
        rng = random.Random(29)
        for q in qs:
            tr = transfer_subdivision(q)
            transferred.append(tr.function)
            for _ in range(20):
                p = random_relative_cocycle(rng, q)
                assert (eval_quadratic(q, p).z4 ==
                        eval_quadratic(tr.function,
                                       pullback(tr.subdivision.to_base, p)).z4)
        assert len({t.basis_values for t in transferred}) == len(qs)

    def test_inverse_via_pushforward(self, klein):
        for q in enumerate_quadratics(klein, PIN):
            tr = transfer_subdivision(q)
            back = pushforward(tr.subdivision.to_base, tr.function, klein)
            assert back == q


class TestPrescribed:
    """Q from its values on cocycles whose classes form a basis."""

    FIXTURES = ("rp2", "torus", "klein", "mobius", "solid_torus", "rp2+rp2")

    @staticmethod
    def _manifold(name):
        if name != "rp2+rp2":
            return catalog(name)
        # two classes with odd Sq^1, so an entry of A v2 can reach 2
        z, _, _ = disjoint_union(catalog("rp2").complex, catalog("rp2").complex)
        return validate_manifold(z, 2)

    @staticmethod
    def _cocycles(rng, m, rows):
        # w_j = sum_l rows[j]_l p_l + dc_j: a recombination of the solver
        # basis plus coboundary noise, so every decomposition has a certificate
        solver = quad_context(m).solver
        return [solver.reconstruct([(r >> l) & 1 for l in range(solver.dim)])
                + d(random_relative_cochain(rng, m, m.n - 2)) for r in rows]

    @pytest.mark.parametrize("name", FIXTURES)
    def test_round_trip_on_an_invertible_recombination(self, name):
        m = self._manifold(name)
        h = quad_context(m).solver.dim
        rng = random.Random(41)
        for mode in (PIN, SPIN) if m.orientable else (PIN,):
            qs = enumerate_quadratics(m, mode)
            for _ in range(6):
                rows = [rng.getrandbits(h) for _ in range(h)]
                while _gf2.rank(rows) < h:
                    rows = [rng.getrandbits(h) for _ in range(h)]
                ws = self._cocycles(rng, m, rows)
                want = rng.choice(qs)
                targets = [eval_quadratic(want, w).z4 for w in ws]
                q = quadratic_from_prescribed(m, mode, ws, targets)
                assert [eval_quadratic(q, w).z4 for w in ws] == targets
                # the unique such Q, found by enumeration
                assert q == want

    @pytest.mark.parametrize("name", FIXTURES)
    def test_dependent_cocycles_are_refused(self, name):
        m = self._manifold(name)
        h = quad_context(m).solver.dim
        rng = random.Random(43)
        # the last cocycle repeats the class of the first (or is exact)
        rows = [1 << j for j in range(h - 1)] + [1 if h > 1 else 0]
        ws = self._cocycles(rng, m, rows)
        with pytest.raises(NotACocycle):
            quadratic_from_prescribed(m, PIN, ws, quad_context(m).sq1)

    @pytest.mark.parametrize("name", FIXTURES)
    def test_wrong_parity_names_the_basis_value(self, name):
        m = self._manifold(name)
        h = quad_context(m).solver.dim
        rng = random.Random(47)
        perm = list(range(h))
        rng.shuffle(perm)
        ws = self._cocycles(rng, m, [1 << perm[j] for j in range(h)])
        q = rng.choice(enumerate_quadratics(m, PIN))
        for k in range(h):
            targets = [eval_quadratic(q, w).z4 for w in ws]
            targets[k] += 1
            with pytest.raises(ConstraintViolation) as info:
                quadratic_from_prescribed(m, PIN, ws, targets)
            # w_k is p_perm[k] up to a coboundary, so that value is the odd one
            assert info.value.index == perm[k]


class TestPushforward:
    def test_identity_map(self, rp2):
        from pinquad.complexes import identity_map

        q = enumerate_quadratics(rp2, PIN)[0]
        assert pushforward(identity_map(rp2.complex), q, rp2) == q

    @staticmethod
    def _circle_cover(sheets):
        # w_i -> i mod 3, ranks grouped by fiber so the map is order
        # preserving; every edge has a nondegenerate image
        n = 3 * sheets
        edges = [(i, (i + 1) % n) for i in range(n)]
        order = sorted(range(n), key=lambda i: (i % 3, i))
        rank = {v: r for r, v in enumerate(order)}
        cover = build_complex(edges, rank=rank)
        vm = {i: i % 3 for i in range(n)}
        return cover, vm

    def test_odd_circle_cover(self, sphere1):
        cover, vm = self._circle_cover(3)
        mc = validate_manifold(cover, 1)
        f = SimplicialMap(cover, sphere1.complex, vm)
        assert all(f.nondegenerate_image(e) for e in cover.simplices(1))
        for qc in enumerate_quadratics(mc, PIN):
            q = pushforward(f, qc, sphere1)
            assert verify_axioms(q, 20, seed=4).ok

    def test_even_circle_cover_rejected(self, sphere1):
        cover, vm = self._circle_cover(2)
        mc = validate_manifold(cover, 1)
        f = SimplicialMap(cover, sphere1.complex, vm)
        assert all(f.nondegenerate_image(e) for e in cover.simplices(1))
        qc = enumerate_quadratics(mc, PIN)[0]
        with pytest.raises(DegreeZero):
            pushforward(f, qc, sphere1)


class TestBrownGauss:
    def test_rp2(self, rp2):
        q0, q1 = enumerate_quadratics(rp2, PIN)
        assert {brown_gauss(q0), brown_gauss(q1)} == {1, 7}

    def test_torus(self, torus):
        betas = sorted(brown_gauss(q) for q in enumerate_quadratics(torus, PIN))
        assert betas == [0, 0, 0, 4]
        arfs = sorted(brown_gauss(q) for q in enumerate_quadratics(torus, SPIN))
        assert arfs == [0, 0, 0, 1]

    def test_klein(self, klein):
        betas = sorted(brown_gauss(q) for q in enumerate_quadratics(klein, PIN))
        assert betas == [0, 0, 2, 6]

    def test_not_closed_surface(self, annulus, solid_torus):
        for m in (annulus, solid_torus):
            q = enumerate_quadratics(m, PIN)[0]
            with pytest.raises(NotClosedSurface):
                brown_gauss(q)

    def test_degenerate_sum_guard(self):
        from pinquad.errors import DegenerateSum
        from pinquad.quadratic import _eighth_root_exponent

        assert _eighth_root_exponent(2, 0, 2) == 0
        assert _eighth_root_exponent(1, 1, 1) == 1
        with pytest.raises(DegenerateSum):
            _eighth_root_exponent(3, 0, 2)

    def test_additivity(self, rp2, torus, klein):
        rng = random.Random(31)
        pool = [rp2, torus, klein]
        for _ in range(8):
            m1, m2 = rng.choice(pool), rng.choice(pool)
            q1 = rng.choice(enumerate_quadratics(m1, PIN))
            q2 = rng.choice(enumerate_quadratics(m2, PIN))
            _, qz = disjoint_sum(q1, q2)
            assert brown_gauss(qz) == (brown_gauss(q1) + brown_gauss(q2)) % 8


class TestBrownInvariants:
    """The Gauss sum of every function, with the refusals that compute
    nothing first and the product budget last, as ``quad brown`` prints."""

    CLOSED_SURFACES = ("sphere2", "rp2", "torus", "klein")

    def test_the_closed_surfaces_of_the_catalog(self):
        closed = [name for name in CATALOG_NAMES
                  if catalog(name).n == 2 and catalog(name).closed]
        assert tuple(closed) == self.CLOSED_SURFACES

    @pytest.mark.parametrize("mode", (PIN, SPIN))
    @pytest.mark.parametrize("name", CLOSED_SURFACES)
    def test_gauss_sum_of_each_function(self, name, mode):
        m = catalog(name)
        if mode == SPIN and not m.orientable:
            with pytest.raises(SpinOnNonorientable):
                brown_invariants(m, mode)
            return
        expected = [brown_gauss(q) for q in enumerate_quadratics(m, mode)]
        assert brown_invariants(m, mode) == expected

    @pytest.mark.parametrize("name, copies, mode, error, message", [
        ("cp2", 1, PIN, WuObstruction, "Sq^2 obstruction is nonzero"),
        ("klein", 6, SPIN, SpinOnNonorientable, "spin mode needs an oriented manifold"),
        ("annulus", 12, PIN, NotClosedSurface, "Gauss sums need a closed surface"),
        ("torus", 6, PIN, BudgetExceeded,
         "2^24 Gauss sum terms exceed the budget 1048576"),
    ])
    def test_refusal_order(self, monkeypatch, name, copies, mode, error, message):
        # dim H^1 = 12 for the copies: each refusal but the last would also
        # meet the product budget, and none may enumerate a function
        x = z = catalog(name).complex
        for _ in range(copies - 1):
            z, _, _ = disjoint_union(z, x)
        m = validate_manifold(z, x.dim, require_full=False, require_ordering=False)
        monkeypatch.setattr(quadratic, "enumerate_quadratics", None)
        with pytest.raises(error) as info:
            brown_invariants(m, mode)
        assert str(info.value) == message


class TestVerify:
    def test_all_enumerated_pass(self, rp2, torus, klein, mobius, annulus):
        for m in (rp2, torus, klein, mobius, annulus):
            for q in enumerate_quadratics(m, PIN):
                assert verify_axioms(q, 60, seed=6).ok

    def test_corrupted_values_rejected_upfront(self, rp2):
        with pytest.raises(ConstraintViolation):
            make_quadratic(rp2, PIN, [2])

    def test_corrupted_eval_detected(self, torus, monkeypatch):
        import pinquad.quadratic as qm

        q = enumerate_quadratics(torus, PIN)[1]
        real_fold = qm._fold

        def broken_fold(ctx, coords, values, pre, dpre):
            val = sum(v for j, v in enumerate(values) if (coords >> j) & 1)
            return val % 4  # drops every cross term and coboundary correction

        monkeypatch.setattr(qm, "_fold", broken_fold)
        report = qm.verify_axioms(q, 60, seed=7)
        monkeypatch.setattr(qm, "_fold", real_fold)
        assert not report.ok

    def test_zeroed_cup_rows_detected_on_a_three_manifold(
            self, rp2, torus, klein, mobius, solid_torus, monkeypatch):
        # the x u_{n-2} dc term vanishes on surfaces (see
        # test_cup_rows_annihilate_d0_on_surfaces), so rows zeroed after the
        # cross table is built can only be caught on the solid torus
        qs = enumerate_quadratics(solid_torus, PIN)
        for q in qs:
            assert verify_axioms(q, 60, seed=6).ok
        for m in (solid_torus, rp2, torus, klein, mobius):
            ctx = quad_context(m)
            monkeypatch.setattr(ctx, "rows", [0] * ctx.solver.dim)
        for q in qs:
            assert not verify_axioms(q, 60, seed=6).ok
        for m in (rp2, torus, klein, mobius):
            for q in enumerate_quadratics(m, PIN):
                assert verify_axioms(q, 60, seed=6).ok

    def test_zeroed_sq2_rows_detected_on_three_and_four_manifolds(
            self, rp2, torus, klein, mobius, solid_torus, monkeypatch):
        # int Sq^2 c is read off sq2_rows from dimension 3 on, and the
        # coboundary law checks it against sq, so zeroed rows are caught
        # there; surfaces never read them
        higher = (solid_torus, catalog("sphere4"))
        surfaces = (rp2, torus, klein, mobius)
        for m in higher:
            for q in enumerate_quadratics(m, PIN):
                assert verify_axioms(q, 60, seed=6).ok
        for m in higher + surfaces:
            zeroed = [0] * len(m.pair.relative_simplices(m.n - 2))
            monkeypatch.setitem(m.cache, "sq2_rows", zeroed)
        for m in higher:
            for q in enumerate_quadratics(m, PIN):
                assert not verify_axioms(q, 60, seed=6).ok
        for m in surfaces:
            for q in enumerate_quadratics(m, PIN):
                assert verify_axioms(q, 60, seed=6).ok

    def test_negative_trials_are_refused(self, rp2):
        q = enumerate_quadratics(rp2, PIN)[0]
        with pytest.raises(ValueError):
            verify_axioms(q, -5)
        assert verify_axioms(q, 0).ok


# every catalog manifold that carries quadratic functions
QUAD_FIXTURES = tuple(name for name in CATALOG_NAMES if name not in ("sphere0", "cp2"))


@pytest.mark.parametrize("name", QUAD_FIXTURES)
def test_v1_pairing_rows_match_cup_products(name):
    m = catalog(name)
    ctx = quad_context(m)
    basis = ctx.solver.basis
    rows = ctx.pairing
    edges = m.complex.simplices(1)
    assert len(rows) == len(edges)
    for e, row in zip(edges, rows):
        want = 0
        for j, p in enumerate(basis):
            if integrate(m, cup_i(dual_cochain(m.complex, e), p, 0)) % 2:
                want |= 1 << j
        assert row == want, e


def _quad_manifold(name):
    """A catalog fixture, or sd(name) for its barycentric subdivision."""
    if name.startswith("sd("):
        m = catalog(name[3:-1])
        return validate_manifold(barycentric_subdivide(m.complex).complex, m.n)
    return catalog(name)


SURFACES = tuple(name for name in QUAD_FIXTURES if catalog(name).n == 2)
SD_SURFACES = tuple(f"sd({name})" for name in ("rp2", "torus", "klein", "mobius", "annulus"))


@pytest.mark.parametrize("name", QUAD_FIXTURES + SD_SURFACES)
def test_cup_rows_match_cup_products(name):
    m = _quad_manifold(name)
    ctx = quad_context(m)
    basis = ctx.solver.basis
    rows = ctx.rows
    assert len(rows) == len(basis)
    for k, e in enumerate(m.pair.relative_simplices(m.n - 1)):
        e_star = dual_cochain(m.complex, e)
        for j, p in enumerate(basis):
            want = integrate(m, cup_i(p, e_star, m.n - 2)) % 2
            assert (rows[j] >> k) & 1 == want, (e, j)
    for l, pl in enumerate(basis):
        for j, pj in enumerate(basis):
            assert ctx.cross[l][j] == integrate(m, cup_i(pl, pj, m.n - 2)) % 2
    for j, p in enumerate(basis):
        assert ctx.sq1[j] == integrate(m, sq(1, p)) % 2


@pytest.mark.parametrize("name", SURFACES + SD_SURFACES)
def test_cup_rows_annihilate_d0_on_surfaces(name):
    # for n = 2 and a cocycle x, x u_0 dc = d(x u_0 c), whose integral is 0
    m = _quad_manifold(name)
    rows = quad_context(m).rows
    for column in coboundary_bits(m.pair, 0):
        for row in rows:
            assert bin(row & column).count("1") % 2 == 0


@pytest.mark.parametrize("name", ("sphere3", "sphere4", "disk3", "solid_torus", "cp2"))
def test_sq2_rows_match_cup_products(name):
    m = catalog(name)
    n = m.n
    rows = _sq2_rows(m)
    lower = m.pair.relative_simplices(n - 2)
    upper = m.pair.relative_simplices(n - 1)
    assert len(rows) == len(lower)
    if len(lower) < 50:  # every entry, against cup_i of the duals
        for k, e in enumerate(lower):
            e_star = dual_cochain(m.complex, e)
            for shift, faces, i in ((0, lower, n - 4), (len(lower), upper, n - 3)):
                for j, f in enumerate(faces):
                    want = integrate(m, cup_i(e_star, dual_cochain(m.complex, f), i))
                    assert (rows[k] >> (shift + j)) & 1 == want, (e, f, i)
    # the form they make is int Sq^2 c
    rng = random.Random(3)
    cob = coboundary_bits(m.pair, n - 2)
    for _ in range(30):
        c = to_bits(m.pair, random_relative_cochain(rng, m, n - 2))
        dc = _gf2.combine(cob, c)
        got = bin(_gf2.combine(rows, c) & (c | dc << len(rows))).count("1") % 2
        assert got == integrate(m, sq(2, from_bits(m.pair, n - 2, c)))


def test_g_pin_then_quad_context_builds_each_degree_once(monkeypatch):
    from pinquad.ggroups import g_pin

    built = []
    init = CohomologySolver.__init__

    def counting_init(self, pair, degree):
        built.append(degree)
        init(self, pair, degree)

    monkeypatch.setattr(CohomologySolver, "__init__", counting_init)
    sphere3 = catalog("sphere3")
    m = validate_manifold(sphere3.complex, sphere3.n)  # a pair nothing has cached
    g_pin(m.pair, m.n)
    quad_context(m)
    # Sq^2 vanishes on H^1, so g_pin at n = 3 builds no degree-1 solver
    assert sorted(built) == [2, 3, 4]


def test_enumeration_budget_refuses_eleven_tori(eleven_tori):
    # 2^22 quadratic functions and Gauss sum terms, past the shared budget
    ctx = quad_context(eleven_tori)
    assert ctx.solver.dim == 22
    with pytest.raises(BudgetExceeded):
        enumerate_quadratics(eleven_tori)
    with pytest.raises(BudgetExceeded):
        brown_gauss(make_quadratic(eleven_tori, PIN, ctx.sq1))


class TestFoldOnAThreeManifold:
    def test_coboundary_law_needs_the_c_cup0_dc_term(self, solid_torus):
        # on a 3-manifold Q(dc) = 2 int (c u_{-1} c + c u_0 dc), and only the
        # second term can be odd; draw until it is, so the term is exercised
        q = enumerate_quadratics(solid_torus, PIN)[0]
        rng = random.Random(11)
        odd = 0
        for _ in range(12):
            c = random_relative_cochain(rng, solid_torus, 1)
            term = integrate(solid_torus, cup_i(c, d(c), 0))
            odd += term
            assert eval_quadratic(q, d(c)).z4 == 2 * term
            assert term == integrate(solid_torus, sq(2, c))
        assert odd


class TestFoldOnAFourManifold:
    def test_coboundary_law_needs_both_sq2_terms(self):
        # on a 4-manifold Q(dc) = 2 int (c u_0 c + c u_1 dc), and sphere4 is
        # the one catalog manifold where the first term is nonzero; draw until
        # each term is odd at least once
        sphere4 = catalog("sphere4")
        q = enumerate_quadratics(sphere4, PIN)[0]
        rng = random.Random(11)
        odd = [0, 0]
        for _ in range(12):
            c = random_relative_cochain(rng, sphere4, 2)
            terms = (integrate(sphere4, cup_i(c, c, 0)), integrate(sphere4, cup_i(c, d(c), 1)))
            odd[0] += terms[0]
            odd[1] += terms[1]
            assert eval_quadratic(q, d(c)).z4 == 2 * sum(terms) % 4
        assert all(odd)
