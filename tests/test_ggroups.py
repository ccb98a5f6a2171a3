import random
import re
import time
from fractions import Fraction

import pytest

from pinquad.cochains import (
    Cochain,
    CohomologySolver,
    QMODZ,
    Z2,
    coboundary_bits,
    cup_i,
    d,
    dual_cochain,
    embed_z2_qmodz,
    from_bits,
    integrate,
    solver,
    sq,
    zero_cochain,
)
from pinquad.complexes import ComplexPair, absolute_pair, build_complex, validate_manifold
from pinquad.cli import main
from pinquad import _gf2, cochains, ggroups
from pinquad.errors import BudgetExceeded, InvariantViolation, NotACocycle, PairMismatch, check_budget
from pinquad.errors import ConstraintViolation
from pinquad.fixtures import CATALOG_NAMES, TORUS_TRIANGLES, catalog, raw_annulus_pair, raw_mobius_pair
from pinquad.ggroups import (
    GPair,
    g_identity,
    g_inverse,
    g_is_trivial,
    g_pair,
    g_pin,
    g_pin_bruteforce,
    g_product,
    g_pullback,
    g_spin_profile,
    linear_to_quad,
    pin_to_spin,
    qh_sh,
    quad_to_linear,
)
from pinquad.quadratic import PIN, SPIN, enumerate_quadratics, eval_quadratic


def g_order(a, limit=8):
    """Order of a pair in the quotient group (small orders only)."""
    acc = a
    for k in range(1, limit + 1):
        if g_is_trivial(acc):
            return k
        acc = g_product(acc, a)
    raise ValueError(f"order exceeds {limit}")


def random_gpair(rng, pair, n, solver_cache={}):
    key = (id(pair), n)
    if key not in solver_cache:
        solver_cache[key] = (CohomologySolver(pair, n - 1),
                             CohomologySolver(pair, n))
    s_p, s_w = solver_cache[key]
    x = pair.ambient
    p = zero_cochain(x, n - 1, Z2)
    for b in s_p.basis:
        if rng.random() < 0.5:
            p = p + b
    noise = {}
    for s in pair.relative_simplices(n - 2):
        if rng.random() < 0.4:
            noise[s] = 1
    p = p + d(Cochain(x, n - 2, Z2, noise))
    w = zero_cochain(x, n, Z2)
    for s in pair.relative_simplices(n):
        if rng.random() < 0.4:
            w = w + dual_cochain(x, s)
    # for n-dimensional pairs every n-cochain is a relative cocycle, so
    # (w, p) is a valid pin pair
    return GPair(pair, n, PIN, w, p)


class TestProduct:
    def test_identity(self, rp2):
        pair = rp2.pair
        e = g_identity(pair, 2)
        a = random_gpair(random.Random(0), pair, 2)
        assert g_product(a, e).w == a.w and g_product(a, e).p == a.p

    def test_rp2_square_of_generator(self, rp2):
        pair = rp2.pair
        (x,) = CohomologySolver(pair, 1).basis
        a = g_pair(pair, 2, zero_cochain(rp2.complex, 2, Z2), x)
        sq_a = g_product(a, a)
        assert sq_a.p.is_zero()
        assert sq_a.w == cup_i(x, x, 0)
        assert not g_is_trivial(sq_a)
        assert g_order(a) == 4

    def test_inverse(self, rp2, klein):
        rng = random.Random(1)
        for m in (rp2, klein):
            for _ in range(10):
                a = random_gpair(rng, m.pair, 2)
                prod = g_product(a, g_inverse(a))
                assert prod.w.is_zero() and prod.p.is_zero()

    def test_commutator_identity(self, rp2, klein):
        # (w,p)(v,q) = (d(p u_{n-1} q), 0) (v,q) (w,p)
        rng = random.Random(2)
        for m in (rp2, klein):
            pair = m.pair
            for _ in range(10):
                a = random_gpair(rng, pair, 2)
                b = random_gpair(rng, pair, 2)
                lhs = g_product(a, b)
                comm = g_pair(pair, 2, d(cup_i(a.p, b.p, 1)),
                              zero_cochain(m.complex, 1, Z2))
                rhs = g_product(comm, g_product(b, a))
                assert lhs.w == rhs.w and lhs.p == rhs.p

    def test_relation_set_closed_under_product(self, rp2):
        # products of relation elements stay relations (identity (1.2))
        pair = rp2.pair
        x = rp2.complex
        rng = random.Random(3)
        for _ in range(15):
            def relation():
                f = Cochain(x, 1, Z2, {s: 1 for s in x.simplices(1)
                                       if rng.random() < 0.4})
                c = Cochain(x, 0, Z2, {s: 1 for s in x.simplices(0)
                                       if rng.random() < 0.4})
                return GPair(pair, 2, PIN, d(f) + sq(2, c), d(c))

            prod = g_product(relation(), relation())
            assert g_is_trivial(prod)

    def test_mismatch(self, rp2, torus):
        a = random_gpair(random.Random(4), rp2.pair, 2)
        b = random_gpair(random.Random(5), torus.pair, 2)
        with pytest.raises(PairMismatch):
            g_product(a, b)

    def test_pair_validation(self, rp2):
        x = rp2.complex
        not_cocycle = dual_cochain(x, x.simplices(1)[0])
        with pytest.raises(NotACocycle):
            g_pair(rp2.pair, 2, zero_cochain(x, 2, Z2), not_cocycle)


class TestSequenceDims:
    def test_rp2(self, rp2):
        assert qh_sh(rp2.pair, 2) == (1, 1, 1)

    def test_annulus(self):
        assert qh_sh(raw_annulus_pair(), 2) == (1, 1, 0)

    def test_sphere2(self, sphere2):
        assert qh_sh(sphere2.pair, 2) == (1, 0, 0)

    def test_mobius(self):
        assert qh_sh(raw_mobius_pair(), 2) == (1, 1, 1)


class TestGPin:
    def test_rp2_is_z4(self, rp2):
        g = g_pin(rp2.pair, 2)
        assert g.summands == (4,) and g.order == 4

    def test_mobius_is_z4(self):
        g = g_pin(raw_mobius_pair(), 2)
        assert g.summands == (4,)

    def test_annulus_is_klein_four(self):
        g = g_pin(raw_annulus_pair(), 2)
        assert g.summands == (2, 2)

    def test_generator_orders_certified(self, rp2, klein):
        for pair in (rp2.pair, klein.pair, raw_annulus_pair(), raw_mobius_pair()):
            g = g_pin(pair, 2)
            for order, cert in zip(g.summands, g.generators):
                assert g_order(cert) == order

    def test_klein_profile(self, klein):
        qh, sh, rphi = qh_sh(klein.pair, 2)
        g = g_pin(klein.pair, 2)
        assert g.order == 2 ** (qh + sh)
        assert g.summands == (4,) * rphi + (2,) * (sh - rphi) + (2,) * (qh - rphi)


RAW_PAIRS = {"raw_mobius": raw_mobius_pair, "raw_annulus": raw_annulus_pair}


class _SquaredP(Exception):
    pass


def _refuse_degree(k):
    """ggroups.sq, refusing every cochain of degree k."""
    def refuse(i, c):
        if c.degree == k:
            raise _SquaredP(f"Sq^{i} of a degree-{k} cochain")
        return sq(i, c)
    return refuse


class TestOracle:
    def test_rp2(self, rp2):
        gb = g_pin_bruteforce(rp2.pair, 2)
        assert gb.summands == (4,)
        assert gb.order == 4

    def test_mobius_and_annulus(self):
        assert g_pin_bruteforce(raw_mobius_pair(), 2).summands == (4,)
        assert g_pin_bruteforce(raw_annulus_pair(), 2).summands == (2, 2)

    def test_sphere2(self, sphere2):
        gb = g_pin_bruteforce(sphere2.pair, 2)
        assert gb.summands == (2,)

    def test_small_disk_pair(self, disk2):
        g = g_pin(disk2.pair, 2)
        gb = g_pin_bruteforce(disk2.pair, 2)
        assert g.same_profile(gb)
        assert gb.order == 2 ** sum(qh_sh(disk2.pair, 2)[:2])

    def test_budget(self, torus):
        # 2^8 pairs of p in Z^1 times 2^1 classes of w modulo B^2
        with pytest.raises(BudgetExceeded, match=r"^2\^9 pairs exceed the budget 256$"):
            g_pin_bruteforce(torus.pair, 2, size_budget=1 << 8)
        assert g_pin_bruteforce(torus.pair, 2, size_budget=1 << 9).order == 8

    def test_closure_budget(self, torus, monkeypatch):
        # at n = 3 the torus has 2^14 pairs, N maps onto B^2 (rank d_1 = 13),
        # and the closure visits |N| = 2^13 elements x 21 generators
        pair = ComplexPair(torus.pair.ambient, torus.pair.sub)
        with pytest.raises(BudgetExceeded,
                           match=r"^2\^13 x 21 relation images exceed the budget 131072$"):
            g_pin_bruteforce(pair, 3, size_budget=1 << 17)
        assert g_pin_bruteforce(pair, 3, size_budget=1 << 18).order == 2
        # with the lower bound undercounted, the closure starts and its
        # running count stops it: 6242 elements x 21 generators > 2^17
        monkeypatch.setattr(ggroups, "rank", lambda rows: _gf2.rank(rows) - 1)
        with pytest.raises(BudgetExceeded,
                           match=r"^over 6241 x 21 relation images exceed the budget 131072$"):
            g_pin_bruteforce(pair, 3, size_budget=1 << 17)

    def test_budget_decision_with_a_factor_builds_no_power(self):
        def refused(log2, times, budget):
            try:
                check_budget(log2, "elements", budget, times)
            except BudgetExceeded:
                return True
            return False

        budgets = {0, 1} | {(1 << k) + e for k in range(1, 40) for e in (-1, 0, 1)}
        for budget in budgets:
            for log2 in range(42):
                for times in (0, 1, 2, 3, 5, 7, 20, 27):
                    assert refused(log2, times, budget) == ((1 << log2) * times > budget), \
                        (log2, times, budget)

    def test_budget_decision_builds_no_power(self):
        # check_budget decides 2^log2 > budget by bit lengths; the decision is
        # the power comparison's on every budget >= 0
        def refused(log2, budget):
            try:
                check_budget(log2, "elements", budget)
            except BudgetExceeded:
                return True
            return False

        budgets = {0, 1} | {(1 << k) + e for k in range(1, 72) for e in (-1, 0, 1)}
        for budget in budgets:
            for log2 in range(71):
                assert refused(log2, budget) == (1 << log2 > budget), (log2, budget)

    @pytest.mark.parametrize("name,n", [
        ("torus", 1), ("torus", 2), ("torus", 3), ("klein", 1), ("klein", 2),
        ("sphere3", 2), ("sphere3", 3), ("sphere3", 4), ("rp2", 3),
        ("disk3", 1), ("disk3", 2), ("disk3", 3), ("disk3", 4),
        ("sphere4", 1), ("sphere4", 2), ("sphere4", 3), ("sphere4", 4), ("sphere4", 5),
        ("mobius", 2), ("annulus", 2), ("disk2", 2), ("sphere2", 2),
    ])
    def test_engines_agree_beyond_rp2(self, name, n, monkeypatch):
        # the oracle reads its dims off its own counts: on a fresh pair it
        # must agree with the closed form without building the sequence
        pair = catalog(name).pair
        g = g_pin(pair, n)

        def refuse(*args):
            raise AssertionError("the oracle built the exact sequence")

        monkeypatch.setattr(ggroups, "_SequenceData", refuse)
        gb = g_pin_bruteforce(ComplexPair(pair.ambient, pair.sub), n)
        assert (gb.summands, gb.order) == (g.summands, g.order)
        assert gb.dims == g.dims

    @pytest.mark.parametrize("name,n", [
        ("rp2", 2), ("torus", 2), ("klein", 1), ("mobius", 2), ("sphere3", 3),
    ])
    def test_oracle_builds_no_solver(self, name, n):
        pair = catalog(name).pair
        fresh = ComplexPair(pair.ambient, pair.sub)
        g_pin_bruteforce(fresh, n)
        assert ("sequence", n) not in fresh.cache
        assert not [key for key in fresh.cache if key[0] == "solver"]

    def test_torus_takes_under_a_second(self):
        # a fresh complex, so no operator is cached from another test
        torus = validate_manifold(build_complex(TORUS_TRIANGLES), 2)
        t0 = time.perf_counter()
        g_pin_bruteforce(torus.pair, 2)
        assert time.perf_counter() - t0 < 1.0

    def test_lost_key_is_an_invariant_violation(self, monkeypatch):
        # cup_i builds the squares p u_{n-2} p: one that is no cocycle sends
        # them out of the enumerated pairs (Z^2 is not all of C^2 on the
        # 3-sphere)
        sphere3 = catalog("sphere3")
        x = sphere3.complex
        garbage = dual_cochain(x, x.simplices(2)[0])
        monkeypatch.setattr(ggroups, "cup_i", lambda a, b, i: garbage)
        with pytest.raises(InvariantViolation, match="missing"):
            g_pin_bruteforce(sphere3.pair, 2)

    def test_lost_cup_row_is_an_invariant_violation(self, monkeypatch):
        # the cross terms of the relation images come from the cup rows, not
        # from cup_i.  A row of the first 1-simplex that
        # gains the first 2-simplex, no cocycle, sends an image of the
        # closure out of the enumerated pairs, while the squares stay right
        sphere3 = catalog("sphere3")

        def corrupt(*args):
            rows = cochains.cup_rows(*args)
            return [rows[0] ^ 1] + rows[1:]

        monkeypatch.setattr(ggroups, "cup_rows", corrupt)
        with pytest.raises(InvariantViolation, match="missing"):
            g_pin_bruteforce(ComplexPair(sphere3.pair.ambient, sphere3.pair.sub), 2)

    @pytest.mark.parametrize("name,n", [
        ("rp2", 2), ("sphere3", 3), ("torus", 3), ("raw_mobius", 2), ("raw_annulus", 2),
    ])
    def test_top_degree_takes_no_square_of_p(self, name, n, monkeypatch):
        # with no (n+1)-simplex, Sq^2 p = 0 and w0 = 0 for every p in
        # Z^{n-1}, so the walk over the p takes no Sq^2 of one
        pair = RAW_PAIRS[name]() if name in RAW_PAIRS else catalog(name).pair
        assert n + 1 not in pair.ambient.simplices_by_dim
        g = g_pin(pair, n)
        monkeypatch.setattr(ggroups, "sq", _refuse_degree(n - 1))
        gb = g_pin_bruteforce(ComplexPair(pair.ambient, pair.sub), n)
        assert (gb.summands, gb.order, gb.dims) == (g.summands, g.order, g.dims)

    def test_below_the_top_degree_squares_each_p(self, monkeypatch):
        # the 3-sphere has 3-simplices, so at n = 2 each Sq^2 p is taken
        pair = catalog("sphere3").pair
        monkeypatch.setattr(ggroups, "sq", _refuse_degree(1))
        with pytest.raises(_SquaredP):
            g_pin_bruteforce(ComplexPair(pair.ambient, pair.sub), 2)

    def test_solvable_p_off_a_subspace_is_an_invariant_violation(self, monkeypatch):
        # every p in Z^1 of the 3-sphere is solvable; a square that is no
        # coboundary for one p leaves 15 of 16, which no subspace holds
        sphere3 = catalog("sphere3")
        pair, x = sphere3.pair, sphere3.complex
        lost = from_bits(pair, 1, _gf2.nullspace(coboundary_bits(pair, 1))[0])
        top = dual_cochain(x, x.simplices(3)[0])  # the generator of H^3
        monkeypatch.setattr(ggroups, "sq", lambda i, c: top if c == lost else sq(i, c))
        with pytest.raises(InvariantViolation, match="^15 solvable p do not form a subspace$"):
            g_pin_bruteforce(pair, 2)

    @pytest.mark.parametrize("off", [1, -1])
    def test_z4_summands_past_sh_or_qh_are_an_invariant_violation(self, rp2, off, monkeypatch):
        # rp2 has one Z/4 summand and dim SH = dim QH = 1; a rank of d_0 off
        # by one in either direction leaves no room for it
        monkeypatch.setattr(ggroups, "rank", lambda rows: _gf2.rank(rows) + off)
        with pytest.raises(InvariantViolation, match=r"^\(Z/4\)\^1 does not fit"):
            g_pin_bruteforce(rp2.pair, 2)

    def test_engines_agree_across_dimensions(self, rp2, sphere1, disk2):
        cases = [
            (rp2.pair, 1),        # pairs (w, p) in degrees (1, 0)
            (sphere1.pair, 1),
            (sphere1.pair, 2),    # H^2 of a circle vanishes
            (disk2.pair, 1),
            (raw_mobius_pair(), 1),
            (raw_annulus_pair(), 3),  # everything above the dimension
        ]
        for pair, n in cases:
            g = g_pin(pair, n)
            gb = g_pin_bruteforce(pair, n)
            assert g.same_profile(gb), (n, g.summands, gb.summands)
            assert g.order == gb.order
            assert g.dims == gb.dims, (n, g.dims, gb.dims)


class TestFunctoriality:
    def test_pullback_is_homomorphism(self, rp2):
        from pinquad.complexes import barycentric_subdivide

        sd = barycentric_subdivide(rp2.complex)
        source = absolute_pair(sd.complex)
        rng = random.Random(6)
        for _ in range(8):
            a = random_gpair(rng, rp2.pair, 2)
            b = random_gpair(rng, rp2.pair, 2)
            fa = g_pullback(sd.to_base, rp2.pair, source, a)
            fb = g_pullback(sd.to_base, rp2.pair, source, b)
            fab = g_pullback(sd.to_base, rp2.pair, source, g_product(a, b))
            prod = g_product(fa, fb)
            assert prod.w == fab.w and prod.p == fab.p

    def test_pullback_descends_to_quotients(self, rp2):
        # pullbacks of relation elements are relation elements
        from pinquad.complexes import barycentric_subdivide

        sd = barycentric_subdivide(rp2.complex)
        source = absolute_pair(sd.complex)
        x = rp2.complex
        rng = random.Random(9)
        for _ in range(8):
            f = Cochain(x, 1, Z2, {s: 1 for s in x.simplices(1)
                                   if rng.random() < 0.4})
            c = Cochain(x, 0, Z2, {s: 1 for s in x.simplices(0)
                                   if rng.random() < 0.4})
            rel = GPair(rp2.pair, 2, PIN, d(f) + sq(2, c), d(c))
            assert g_is_trivial(rel)
            pulled = g_pullback(sd.to_base, rp2.pair, source, rel)
            assert g_is_trivial(pulled)

    def test_pin_to_spin_homomorphism(self, rp2, torus):
        rng = random.Random(7)
        for m in (rp2, torus):
            for _ in range(8):
                a = random_gpair(rng, m.pair, 2)
                b = random_gpair(rng, m.pair, 2)
                lhs = pin_to_spin(g_product(a, b))
                rhs = g_product(pin_to_spin(a), pin_to_spin(b))
                assert lhs.w == rhs.w and lhs.p == rhs.p


class TestBridge:
    def test_identity_maps_to_zero(self, rp2):
        q = enumerate_quadratics(rp2, PIN)[0]
        L = quad_to_linear(q)
        assert L(g_identity(rp2.pair, 2)) == 0

    def test_rp2_normalization(self, rp2):
        q = next(qq for qq in enumerate_quadratics(rp2, PIN)
                 if qq.basis_values == (1,))
        (x,) = q.solver.basis
        a = g_pair(rp2.pair, 2, zero_cochain(rp2.complex, 2, Z2), x)
        assert quad_to_linear(q)(a) == Fraction(1, 4)

    def test_w_normalization(self, rp2, torus):
        for m in (rp2, torus):
            q = enumerate_quadratics(m, PIN)[0]
            L = quad_to_linear(q)
            for s in m.complex.simplices(2)[:5]:
                a = g_pair(m.pair, 2, dual_cochain(m.complex, s),
                           zero_cochain(m.complex, 1, Z2))
                assert L(a) == Fraction(integrate(m, a.w) % 2, 2)

    def test_additive_on_products(self, rp2, klein):
        rng = random.Random(8)
        for m in (rp2, klein):
            for q in enumerate_quadratics(m, PIN):
                L = quad_to_linear(q)
                for _ in range(25):
                    a = random_gpair(rng, m.pair, 2)
                    b = random_gpair(rng, m.pair, 2)
                    assert L(g_product(a, b)) == (L(a) + L(b)) % 1

    def test_injective_and_invertible(self, rp2, torus, klein):
        for m in (rp2, torus, klein):
            qs = enumerate_quadratics(m, PIN)
            functionals = [quad_to_linear(q) for q in qs]
            # distinguish functionals on the (0, p_j) pairs
            probes = [g_pair(m.pair, 2, zero_cochain(m.complex, 2, Z2), p)
                      for p in qs[0].solver.basis]
            seen = {tuple(L(a) for a in probes) for L in functionals}
            assert len(seen) == len(qs)
            for q, L in zip(qs, functionals):
                assert linear_to_quad(m, PIN, L) == q

    def test_spin_bridge(self, torus):
        q = enumerate_quadratics(torus, SPIN)[1]
        L = quad_to_linear(q)
        p = q.solver.basis[0]
        a = GPair(torus.pair, 2, SPIN,
                  zero_cochain(torus.complex, 2, QMODZ), p)
        assert L(a) == Fraction(q.basis_values[0], 4)
        assert linear_to_quad(torus, SPIN, L) == q

    def test_values_are_read_on_the_quarter_lattice(self, rp2, torus):
        # values are read modulo 1, so 5/4 and -3/4 are the quarter 1/4
        for value in (Fraction(5, 4), Fraction(-3, 4)):
            assert linear_to_quad(rp2, PIN, lambda a: value).basis_values == (1,)
        # a value off (1/4)Z/Z was once floored: pin 1/3 on rp2 read as 1
        for m, mode in ((rp2, PIN), (torus, SPIN)):
            with pytest.raises(ValueError, match="1/3 is not a multiple of 1/4"):
                linear_to_quad(m, mode, lambda a: Fraction(1, 3))
        # an odd quarter in spin mode was once read as 0
        with pytest.raises(ConstraintViolation):
            linear_to_quad(torus, SPIN, lambda a: Fraction(1, 4))

    @pytest.mark.parametrize("mode", ["other", ["pin"]], ids=["unknown", "unhashable"])
    def test_an_unknown_mode_is_a_value_error(self, rp2, mode):
        x = rp2.complex
        builds = (
            lambda: g_identity(rp2.pair, 2, mode),
            lambda: GPair(rp2.pair, 2, mode, zero_cochain(x, 2, Z2), zero_cochain(x, 1, Z2)),
            lambda: linear_to_quad(rp2, mode, lambda a: Fraction(1, 4)),
        )
        for build in builds:
            with pytest.raises(ValueError, match=re.escape(f"unknown mode {mode!r}")):
                build()


class TestSpinProfile:
    def test_sphere2_terms(self, sphere2):
        prof = g_spin_profile(sphere2, 2)
        assert prof.sh_dim == 0 and not prof.resolved

    def test_rp2_resolved(self, rp2):
        prof = g_spin_profile(rp2, 2)
        assert prof.resolved and prof.summands == (2,)

    def test_torus_unresolved(self, torus):
        prof = g_spin_profile(torus, 2)
        assert not prof.resolved and prof.sh_dim == 2

    def test_klein_resolved_onto_sh(self, klein):
        prof = g_spin_profile(klein, 2)
        assert prof.resolved and prof.summands == (2,) * prof.sh_dim
        assert prof.note == "QH^n(R/Z) vanishes; group is SH^{n-1}"

    @pytest.mark.parametrize("name", ["torus", "solid_torus"])
    def test_orientable_top_degree_note(self, name):
        m = catalog(name)
        prof = g_spin_profile(m, m.n)
        assert not prof.resolved and prof.summands is None
        assert prof.note == "orientable: H^n(M, bd M; R/Z) has a circle summand; unresolved"

    def test_off_the_top_degree_note(self, annulus):
        prof = g_spin_profile(annulus, 1)
        assert not prof.resolved and prof.summands is None
        assert prof.note.startswith("H^n(X; R/Z) carries a divisible summand")
        # a bare pair is never resolved, at the top degree too
        assert g_spin_profile(catalog("rp2").pair, 2).note == prof.note

    def test_connectedness_is_read_only_where_it_decides(self, annulus):
        # an orientable manifold is unresolved at the top whether connected
        # or not, so no H^0 solver is built for it
        fresh = validate_manifold(annulus.complex, 2)
        g_spin_profile(fresh, 2)
        assert ("solver", 0) not in fresh.absolute().cache

    def test_mixed_disjoint_union_not_resolved(self, rp2, torus):
        # an orientable component smuggles in a circle summand, so the
        # nonorientable shortcut must not fire on disconnected input
        from pinquad.complexes import disjoint_union, validate_manifold

        z, _, _ = disjoint_union(rp2.complex, torus.complex)
        m = validate_manifold(z, 2)
        assert not m.orientable
        assert not g_spin_profile(m, 2).resolved


def test_default_budget_refuses_the_solid_torus(solid_torus, capsys):
    # relative to its boundary, Z^2 alone is far past the budget even after
    # the quotient by B^3; the budget refuses at once instead of enumerating
    with pytest.raises(BudgetExceeded, match=r"^2\^\d+ pairs exceed the budget 1048576$"):
        g_pin_bruteforce(solid_torus.pair, 3)
    assert main(["ggroup", "--fixture", "solid_torus", "--engine", "bruteforce"]) == 2
    assert "BudgetExceeded" in capsys.readouterr().err


def test_default_budget_refuses_the_klein_closure(capsys):
    # 2^18 pairs fit the budget, but N maps onto B^2 (rank d_1 = 17) and
    # each of its elements visits 27 generators
    assert main(["ggroup", "--fixture", "klein", "-n", "3", "--engine", "bruteforce"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: BudgetExceeded: 2^17 x 27 relation images exceed the budget 1048576"]


# the cases of the sweep below that the default budget refuses before
# enumerating, as (name, absolute, n)
REFUSED = {
    ("klein", False, 3), ("mobius", False, 3), ("mobius", True, 2), ("mobius", True, 3),
    ("annulus", False, 3), ("annulus", True, 2), ("annulus", True, 3),
    ("solid_torus", False, 2), ("solid_torus", False, 3), ("solid_torus", False, 4),
    ("solid_torus", True, 2), ("solid_torus", True, 3), ("solid_torus", True, 4),
    ("cp2", False, 3), ("cp2", False, 4), ("cp2", False, 5),
}


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_engines_agree_on_every_catalog_pair_or_the_oracle_refuses_up_front(name, monkeypatch):
    # relative, and absolute where there is a boundary, for n = -1..dim+1 at
    # the default budget; a refusal comes before any cup product is taken
    m = catalog(name)
    taken = []

    def logged(f):
        def call(*args):
            taken.append(f.__name__)
            return f(*args)
        return call

    monkeypatch.setattr(ggroups, "cup_i", logged(cup_i))
    monkeypatch.setattr(ggroups, "cup_rows", logged(cochains.cup_rows))
    for absolute in (False, True) if not m.closed else (False,):
        pair = m.absolute() if absolute else m.pair
        for n in range(-1, m.n + 2):
            g = g_pin(ComplexPair(pair.ambient, pair.sub), n)
            taken.clear()
            try:
                gb = g_pin_bruteforce(ComplexPair(pair.ambient, pair.sub), n)
            except BudgetExceeded as e:
                assert (name, absolute, n) in REFUSED, (absolute, n, str(e))
                assert re.match(r"^2\^\d+( x \d+)? (pairs|relation images) exceed "
                                r"the budget 1048576$", str(e)), str(e)
                assert not taken, (absolute, n)
                continue
            assert (name, absolute, n) not in REFUSED, (absolute, n)
            assert (gb.summands, gb.order, gb.dims) == (g.summands, g.order, g.dims), (absolute, n)


@pytest.mark.parametrize("name,n", [
    ("rp2", 2), ("torus", 2), ("mobius", 2), ("sphere3", 3), ("solid_torus", 3),
    ("raw_mobius", 2), ("raw_annulus", 2),
])
def test_g_pin_at_the_top_degree_reads_no_degree_above_it(name, n, monkeypatch):
    # with no (n+1)-simplex, Sq^2 p = 0: no operator above n is built, and
    # below n = 4 no solver of degree n-2 either; every certificate (0, p)
    # is still built, and checked, as a GPair
    pair = RAW_PAIRS[name]() if name in RAW_PAIRS else catalog(name).pair
    assert n + 1 not in pair.ambient.simplices_by_dim
    built = []

    def checked(*args):
        built.append(GPair(*args))
        return built[-1]

    monkeypatch.setattr(ggroups, "GPair", checked)
    fresh = ComplexPair(pair.ambient, pair.sub)
    g = g_pin(fresh, n)
    assert ("coboundary", n + 1) not in fresh.cache
    assert ("solver", n - 2) not in fresh.cache
    assert built == list(g.generators)


def test_from_degree_4_sq2_of_h_n_minus_2_is_read():
    # sphere4 at n = 4 still builds its degree-2 solver; on cp2, Sq^2 x = x^2
    # kills the one class of H^4, so QH^4 = 0 and the group is trivial
    sphere4 = catalog("sphere4").pair
    fresh = ComplexPair(sphere4.ambient, sphere4.sub)
    g_pin(fresh, 4)
    assert ("solver", 2) in fresh.cache
    cp2 = catalog("cp2").pair
    fresh = ComplexPair(cp2.ambient, cp2.sub)
    assert ggroups._sequence_data(fresh, 4).b_rank == 1
    assert qh_sh(fresh, 4) == (0, 0, 0)
    assert g_pin(fresh, 4).summands == ()


# g_pin summands and qh_sh below degree 2, where H^{n-2} has no classes
LOW_DEGREES = {
    "sphere0": [((2, 2), (2, 0, 0)), ((2, 2), (0, 2, 0))],
    "sphere1": [((2,), (1, 0, 0)), ((2, 2), (1, 1, 0))],
    "sphere2": [((2,), (1, 0, 0)), ((2,), (0, 1, 0))],
    "sphere3": [((2,), (1, 0, 0)), ((2,), (0, 1, 0))],
    "sphere4": [((2,), (1, 0, 0)), ((2,), (0, 1, 0))],
    "disk1": [((), (0, 0, 0)), ((2,), (1, 0, 0))],
    "disk2": [((), (0, 0, 0)), ((), (0, 0, 0))],
    "disk3": [((), (0, 0, 0)), ((), (0, 0, 0))],
    "rp2": [((2,), (1, 0, 0)), ((2, 2), (1, 1, 0))],
    "torus": [((2,), (1, 0, 0)), ((2, 2, 2), (2, 1, 0))],
    "klein": [((2,), (1, 0, 0)), ((2, 2, 2), (2, 1, 0))],
    "mobius": [((), (0, 0, 0)), ((2,), (1, 0, 0))],
    "annulus": [((), (0, 0, 0)), ((2,), (1, 0, 0))],
    "solid_torus": [((), (0, 0, 0)), ((), (0, 0, 0))],
    "cp2": [((2,), (1, 0, 0)), ((2,), (0, 1, 0))],
}


@pytest.mark.parametrize("name", LOW_DEGREES)
def test_low_degrees_read_an_empty_h_n_minus_2(name):
    pair = catalog(name).pair
    for n, (summands, dims) in enumerate(LOW_DEGREES[name]):
        fresh = ComplexPair(pair.ambient, pair.sub)
        assert g_pin(fresh, n).summands == summands
        assert qh_sh(fresh, n) == dims


def test_degrees_far_above_the_dimension_answer_without_recursing():
    # the image of d_k is 0 from the top degree on, so no chain of top bits
    # is walked down from k = 10_000
    pair = catalog("rp2").pair
    fresh = ComplexPair(pair.ambient, pair.sub)
    assert solver(fresh, 10_000).dim == 0
    g = g_pin(fresh, 10_000)
    gb = g_pin_bruteforce(ComplexPair(pair.ambient, pair.sub), 10_000)
    assert (g.profile(), g.order) == ("0", 1)
    assert gb.same_profile(g) and (gb.order, gb.dims) == (g.order, g.dims)
