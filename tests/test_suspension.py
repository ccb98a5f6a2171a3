import random

import pytest

from pinquad.cochains import (
    Cochain,
    CohomologySolver,
    INT,
    Z2,
    d,
    integrate,
    sq,
    zero_cochain,
)
from pinquad.complexes import build_complex, collapse_map, cone, suspension
from pinquad.errors import ComplexMismatch, EmptyBoundary
from pinquad.identities import (
    random_cochain,
    sd_equals_ds_suite,
    suspension_shifts_cup_suite,
    suspension_cup0_suite,
)
from pinquad.quadratic import boundary_manifold
from pinquad.suspension import boundary_transfer, collapse_transfer, desuspend, suspend


class TestSuspend:
    def test_zero(self):
        x = build_complex([(0,), (1,)])
        assert suspend(suspension(x), zero_cochain(x, 0, Z2)).is_zero()

    def test_two_points_indicator(self):
        x = build_complex([(0,), (1,)])
        sx = suspension(x)
        c = Cochain(x, 0, Z2, {(0,): 1})
        sc = suspend(sx, c)
        assert sc.values == {(0, sx.upper): 1}
        assert d(sc) == suspend(sx, d(c))
        assert desuspend(sx, sc) == c

    def test_support_form(self, rp2):
        sx = suspension(rp2.complex)
        rng = random.Random(0)
        c = random_cochain(rng, rp2.complex, 1, INT)
        for s in suspend(sx, c).values:
            assert s[-1] == sx.upper

    def test_injective(self, rp2):
        sx = suspension(rp2.complex)
        rng = random.Random(1)
        a = random_cochain(rng, rp2.complex, 1, INT)
        b = random_cochain(rng, rp2.complex, 1, INT)
        if a != b:
            assert suspend(sx, a) != suspend(sx, b)

    def test_wrong_complex(self, rp2, torus):
        sx = suspension(rp2.complex)
        with pytest.raises(ComplexMismatch):
            suspend(sx, zero_cochain(torus.complex, 1, Z2))

    def test_cone(self, rp2):
        # the upper cone is read like the suspension: base, complex, upper
        c = cone(rp2.complex)
        x = random_cochain(random.Random(3), rp2.complex, 1, INT)
        sc = suspend(c, x)
        assert sc.complex is c.complex and all(s[-1] == c.upper for s in sc.values)
        assert d(sc) == suspend(c, d(x))
        assert desuspend(c, sc) == x
        with pytest.raises(ComplexMismatch):
            desuspend(c, suspend(suspension(rp2.complex), x))


class TestIdentitySuites:
    def test_eq_41_small(self):
        assert suspension_shifts_cup_suite(trials=150, seed=5).ok

    def test_sd_ds_small(self):
        assert sd_equals_ds_suite(trials=150, seed=5).ok

    def test_cup0_vanishes_small(self):
        assert suspension_cup0_suite(trials=150, seed=5).ok

    def test_sq_commutes_with_suspension(self):
        # consequence of (4.1): s(Sq^i c) = Sq^i(s c) on Z2 cochains
        rng = random.Random(2)
        for _ in range(60):
            from pinquad.identities import random_complex

            x = random_complex(rng, 4)
            sx = suspension(x)
            k = rng.randint(0, min(3, x.dim))
            i = rng.randint(0, k + 1)
            c = random_cochain(rng, x, k, Z2)
            assert suspend(sx, sq(i, c)) == sq(i, suspend(sx, c))


class TestBoundaryTransfer:
    def test_zero(self, annulus):
        u = zero_cochain(annulus.boundary_complex(), 0, Z2)
        assert boundary_transfer(annulus, u).is_zero()

    def test_closed_manifold_rejected(self, rp2):
        with pytest.raises(EmptyBoundary):
            boundary_transfer(rp2, zero_cochain(rp2.complex, 0, Z2))

    def test_annulus_circle_indicator_represents_connecting_image(self, annulus):
        bc = annulus.boundary_complex()
        bm = boundary_manifold(annulus)
        comp_solver = CohomologySolver(bm.pair, 0)
        # one boundary circle's indicator cocycle
        u = comp_solver.basis[0]
        u_on_bc = Cochain(bc, 0, Z2, u.values)
        w = boundary_transfer(annulus, u_on_bc)
        solver = CohomologySolver(annulus.pair, 1)
        coords, _ = solver.decompose(w)
        assert any(coords)

    def test_mobius_constant_boundary_cocycle(self, mobius):
        bc = mobius.boundary_complex()
        u = Cochain(bc, 0, Z2, {s: 1 for s in bc.simplices(0)})
        w = boundary_transfer(mobius, u)
        interior = [v for v in mobius.complex.vertices
                    if v not in mobius.pair.sub_vertices]
        hat = Cochain(mobius.complex, 0, Z2, {(v,): 1 for v in interior})
        assert w == d(hat)

    def test_equals_collapse_transfer_on_cocycles(self, mobius, annulus, disk2):
        for m in (mobius, annulus, disk2):
            col = collapse_map(m)
            bm = boundary_manifold(m)
            solver = CohomologySolver(bm.pair, 0)
            for u in solver.basis:
                u_bc = Cochain(m.boundary_complex(), 0, Z2, u.values)
                assert collapse_transfer(col, u_bc) == boundary_transfer(m, u_bc)

    def test_integral_identity_top_degree(self, mobius, annulus, disk2):
        # int_M t*s(u) = int_{bd M} u for (n-1)-cochains u on bd M
        rng = random.Random(8)
        for m in (mobius, annulus, disk2):
            bm = boundary_manifold(m)
            bc = m.boundary_complex()
            for _ in range(10):
                vals = {}
                for s in bc.simplices(m.n - 1):
                    if rng.random() < 0.5:
                        vals[s] = 1
                u = Cochain(bc, m.n - 1, Z2, vals)
                lhs = integrate(m, boundary_transfer(m, u))
                rhs = integrate(bm, Cochain(bm.complex, m.n - 1, Z2, vals))
                assert lhs == rhs

    def test_transfer_of_cocycle_is_relative_cocycle(self, mobius):
        bm = boundary_manifold(mobius)
        solver = CohomologySolver(bm.pair, 0)
        for u in solver.basis:
            u_bc = Cochain(mobius.boundary_complex(), 0, Z2, u.values)
            w = boundary_transfer(mobius, u_bc)
            assert d(w).is_zero()
            assert w.is_relative(mobius.pair)


class TestDesuspendImage:
    def test_the_upper_vertex_alone_is_not_in_the_image(self):
        x = build_complex([(0, 1)])
        sx = suspension(x)
        c = Cochain(sx.complex, 0, Z2, {(sx.upper,): 1})
        with pytest.raises(ValueError, match="image of the suspension"):
            desuspend(sx, c)
