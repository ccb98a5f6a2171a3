"""Seeded randomized suites for the cochain-level identities.

Each suite draws small random ordered complexes (dimension <= 5) and random
cochains, and checks one identity exactly; a trial is one drawn instance.
The suites are shared by the test suite and the command line runner, and a
deliberately wrong sign can be injected as a mutation control.

A suite is declared once: ``@_suite(name, max_dim)`` on its one-trial body
makes the public ``<name>_suite(trials, seed, cup)`` and enters it in
``_SUITES``, the one table of suites, whose keys in declaration order are
``ALL_SUITES`` and where ``run_suites`` looks each suite up.
"""

from __future__ import annotations

import random
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional, Sequence

from .cochains import Cochain, CohomologySolver, INT, QMODZ, Z2, Z4, cup_i, d, sq
from .complexes import OrderedComplex, absolute_pair, build_complex, cached, suspension
from .suspension import suspend


class IdentityReport(SimpleNamespace):
    def __init__(self, name: str, trials: int,
                 failures: Optional[List[str]] = None) -> None:
        super().__init__(name=name, trials=trials,
                         failures=[] if failures is None else failures)

    @property
    def ok(self) -> bool:
        return not self.failures


def _mutant_cup(u: Cochain, v: Cochain, i: int) -> Cochain:
    """cup_i with a wrong extra sign (-1)^i; the mutation control."""
    c = cup_i(u, v, i)
    return -c if i % 2 else c


def random_complex(rng: random.Random, max_dim: int = 5) -> OrderedComplex:
    """A few top-dimensional simplices on a small vertex set, plus noise.

    Keeping the vertex set tight forces the maximal simplices to share
    faces, which is where the cup_i identities have content.
    """
    nv = rng.randint(5, 8)
    dim = rng.randint(2, max_dim)
    top = min(dim + 1, nv)
    maximal = [tuple(sorted(rng.sample(range(nv), top)))
               for _ in range(rng.randint(2, 4))]
    for _ in range(rng.randint(0, 2)):
        k = rng.randint(1, top)
        maximal.append(tuple(sorted(rng.sample(range(nv), k))))
    return build_complex(maximal)


def random_cochain(rng: random.Random, x: OrderedComplex, k: int,
                   ring: str = INT, density: float = 0.6) -> Cochain:
    vals: Dict = {}
    for s in x.simplices(k):
        if rng.random() < density:
            if ring == INT:
                v = rng.randint(-3, 3)
            elif ring == Z2:
                v = rng.randint(0, 1)
            elif ring == Z4:
                v = rng.randint(0, 3)
            else:
                v = Fraction(rng.randint(0, 7), rng.choice((1, 2, 4)))
            if v:
                vals[s] = v
    return Cochain(x, k, ring, vals)


class _Pool:
    """A deterministic pool of complexes plus their suspensions."""

    def __init__(self, rng: random.Random, max_dim: int):
        self.complexes = [random_complex(rng, max_dim) for _ in range(24)]
        self.cache: Dict = {}

    def pick(self, rng: random.Random) -> OrderedComplex:
        return self.complexes[rng.randrange(len(self.complexes))]

    def pick_with_suspension(self, rng: random.Random):
        j = rng.randrange(len(self.complexes))
        x = self.complexes[j]
        return x, cached(self, ("suspension", j), lambda: suspension(x))

    def random_cocycle(self, rng: random.Random, x: OrderedComplex,
                       k: int) -> Cochain:
        """A Z2 cocycle: random class representative plus a coboundary."""
        solver = cached(self, ("solver", id(x), k),
                        lambda: CohomologySolver(absolute_pair(x), k))
        z = solver.reconstruct([rng.randint(0, 1) for _ in range(solver.dim)])
        if k >= 1:
            z = z + d(random_cochain(rng, x, k - 1, Z2))
        return z


_SUITES: Dict[str, Callable[..., IdentityReport]] = {}


def _suite(name: str, max_dim: int):
    """Wrap a one-trial body (rng, pool, report, t, cup) into the suite
    `name` on complexes of dimension <= max_dim, entered in _SUITES."""

    def declare(body: Callable[..., None]) -> Callable[..., IdentityReport]:
        def suite(trials: int = 1000, seed: int = 0,
                  cup: Callable = cup_i) -> IdentityReport:
            rng = random.Random(f"{name}:{seed}")
            pool = _Pool(rng, max_dim=max_dim)
            report = IdentityReport(name, trials)
            for t in range(trials):
                body(rng, pool, report, t, cup)
            return report

        suite.__name__ = suite.__qualname__ = body.__name__
        suite.__doc__ = body.__doc__
        _SUITES[name] = suite
        return suite

    return declare


@_suite("coboundary", 5)
def coboundary_suite(rng, pool, report, t, cup):
    """d(X u_i Y) = (-1)^i (dX u_i Y + (-1)^|X| X u_i dY
                           - X u_{i-1} Y - (-1)^{i+|X||Y|} Y u_{i-1} X)."""
    x = pool.pick(rng)
    p = rng.randint(0, min(4, x.dim))
    q = rng.randint(0, min(4, x.dim))
    i = rng.randint(0, min(p, q))
    X = random_cochain(rng, x, p, INT)
    Y = random_cochain(rng, x, q, INT)
    lhs = d(cup(X, Y, i))
    xdy = cup(X, d(Y), i)
    yx = cup(Y, X, i - 1)
    rhs = (cup(d(X), Y, i) + (-xdy if p % 2 else xdy) - cup(X, Y, i - 1)
           + (yx if (i + p * q) % 2 else -yx))
    if i % 2:
        rhs = -rhs
    if lhs != rhs:
        report.failures.append(f"trial {t}: p={p} q={q} i={i}")


@_suite("sq2_sum_rule", 5)
def sq2_sum_rule_suite(rng, pool, report, t, cup):
    """Sq^2(c'+c) = Sq^2 c' + Sq^2 c + dc' u_k dc + d(c' u_{k-1} c + dc' u_k c)."""
    x = pool.pick(rng)
    k = rng.randint(1, max(1, min(4, x.dim)))
    cp = random_cochain(rng, x, k, Z2)
    c = random_cochain(rng, x, k, Z2)
    lhs = sq(2, cp + c)
    rhs = (sq(2, cp) + sq(2, c) + cup(d(cp), d(c), k)
           + d(cup(cp, c, k - 1) + cup(d(cp), c, k)))
    if lhs != rhs:
        report.failures.append(f"trial {t}: k={k}")


@_suite("sq2_sum_rule_cocycle", 5)
def sq2_sum_rule_cocycle_suite(rng, pool, report, t, cup):
    """For a cocycle c': Sq^2(c'+c) = Sq^2 c' + Sq^2 c + d(c' u_{k-1} c)."""
    x = pool.pick(rng)
    k = rng.randint(1, max(1, min(4, x.dim)))
    c = random_cochain(rng, x, k, Z2)
    cp = pool.random_cocycle(rng, x, k)
    lhs = sq(2, cp + c)
    rhs = sq(2, cp) + sq(2, c) + d(cup(cp, c, k - 1))
    if lhs != rhs:
        report.failures.append(f"trial {t}: k={k}")


@_suite("sq_commutes_d", 5)
def sq_commutes_d_suite(rng, pool, report, t, cup):
    """Sq^i(dc) = d(Sq^i c) for Z2 cochains."""
    x = pool.pick(rng)
    k = rng.randint(0, min(4, x.dim))
    i = rng.randint(0, k + 1)
    c = random_cochain(rng, x, k, Z2)
    dc = d(c)
    lhs = cup(dc, dc, (k + 1) - i) + cup(dc, d(dc), (k + 1) - i + 1)
    rhs = d(cup(c, c, k - i) + cup(c, dc, k - i + 1))
    if lhs != rhs:
        report.failures.append(f"trial {t}: k={k} i={i}")


@_suite("suspension_shifts_cup", 4)
def suspension_shifts_cup_suite(rng, pool, report, t, cup):
    """s(x u_i y) = (-1)^{|x|+i+1} sx u_{i+1} sy over Int and Z2."""
    x, sx = pool.pick_with_suspension(rng)
    ring = INT if t % 2 == 0 else Z2
    p = rng.randint(0, min(3, x.dim))
    q = rng.randint(0, min(3, x.dim))
    i = rng.randint(0, min(p, q))
    X = random_cochain(rng, x, p, ring)
    Y = random_cochain(rng, x, q, ring)
    lhs = suspend(sx, cup(X, Y, i))
    rhs = cup(suspend(sx, X), suspend(sx, Y), i + 1)
    if (p + i + 1) % 2:
        rhs = -rhs
    if lhs != rhs:
        report.failures.append(f"trial {t}: ring={ring} p={p} q={q} i={i}")


@_suite("sd_equals_ds", 4)
def sd_equals_ds_suite(rng, pool, report, t, cup):
    """sd = ds over Int, Z2, Z4 and QmodZ."""
    x, sx = pool.pick_with_suspension(rng)
    ring = (INT, Z2, Z4, QMODZ)[t % 4]
    k = rng.randint(0, min(3, x.dim))
    c = random_cochain(rng, x, k, ring)
    if suspend(sx, d(c)) != d(suspend(sx, c)):
        report.failures.append(f"trial {t}: ring={ring} k={k}")


@_suite("suspension_cup0", 4)
def suspension_cup0_suite(rng, pool, report, t, cup):
    """sx u_0 sy = 0 identically on the suspension."""
    x, sx = pool.pick_with_suspension(rng)
    p = rng.randint(0, min(3, x.dim))
    q = rng.randint(0, min(3, x.dim))
    X = random_cochain(rng, x, p, INT)
    Y = random_cochain(rng, x, q, INT)
    if not cup(suspend(sx, X), suspend(sx, Y), 0).is_zero():
        report.failures.append(f"trial {t}: p={p} q={q}")


@_suite("dd_zero", 5)
def dd_zero_suite(rng, pool, report, t, cup):
    """dd = 0 over every ring."""
    x = pool.pick(rng)
    ring = (INT, Z2, Z4, QMODZ)[t % 4]
    k = rng.randint(0, min(4, x.dim))
    c = random_cochain(rng, x, k, ring)
    if not d(d(c)).is_zero():
        report.failures.append(f"trial {t}: ring={ring} k={k}")


ALL_SUITES = tuple(_SUITES)


def run_suites(trials: int = 1000, seed: int = 0,
               names: Optional[Sequence[str]] = None,
               mutate_signs: bool = False) -> List[IdentityReport]:
    """Run the named suites (all by default); mutate_signs injects the wrong
    cup_i sign as a control and is expected to make the coboundary and
    suspension suites fail."""
    if trials < 0:
        raise ValueError(f"trials must be non-negative, got {trials}")
    names = names or ALL_SUITES
    for name in names:
        if name not in _SUITES:
            raise ValueError(f"unknown suite {name!r}; the suites are {', '.join(ALL_SUITES)}")
    cup = _mutant_cup if mutate_signs else cup_i
    return [_SUITES[name](trials=trials, seed=seed, cup=cup) for name in names]

