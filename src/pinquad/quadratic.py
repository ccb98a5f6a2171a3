"""Z/4-valued quadratic functions on triangulated manifolds.

A quadratic function Q on (M, bd M) is stored by its values on the solver
basis of H^{n-1}(M, bd M; F2); every other value follows from

    Q(x + y) = Q(x) + Q(y) + 2 int x u_{n-2} y
    Q(dc)    = 2 int (c u_{n-4} c  +  c u_{n-3} dc)

via decompose-and-correct: write p = sum a_j p_j + dc, fold the first law
left-to-right over the support, then absorb the coboundary with the second
law.  Well-definedness (certificate and fold-order independence) needs the
degree-2 Wu class of M to vanish, which construction enforces.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from . import _gf2
from .cochains import (
    Cochain,
    CohomologySolver,
    Z2,
    coboundary_bits,
    cup_i,
    d,
    extend_by_zero,
    from_bits,
    integrate,
    pullback,
    solver,
    sq,
    wu_v2_check,
)
from .complexes import (
    Cylinder,
    ManifoldPair,
    SimplicialMap,
    Subdivision,
    barycentric_subdivide,
    build_complex,
    cached,
    cylinder,
    disjoint_union,
    validate_manifold,
)
from .errors import (
    SIZE_BUDGET,
    BudgetExceeded,
    ConstraintViolation,
    DegenerateSum,
    DegreeZero,
    EmptyBoundary,
    NotACocycle,
    NotClosedSurface,
    NotNeatlyEmbedded,
    NotRelative,
    SpinOnNonorientable,
    WuObstruction,
)

PIN = "pin"
SPIN = "spin"


@dataclass(frozen=True)
class QuadValue:
    """A Z/4 value (pin) or a value in 2(Z/2) < Z/4 (spin)."""

    mode: str
    z4: int

    @property
    def z2(self) -> int:
        if self.mode != SPIN:
            raise ValueError("z2 view is for spin mode")
        return (self.z4 // 2) % 2

    @property
    def rmodz(self) -> Fraction:
        return Fraction(self.z4, 4)


class _Context:
    """Per-manifold data shared by every quadratic function on it."""

    def __init__(self, m: ManifoldPair) -> None:
        if m.n < 1:
            raise ValueError("quadratic functions need dimension >= 1")
        witness = wu_v2_check(m)
        if witness is not None:
            raise WuObstruction(witness)
        self.manifold = m
        self.solver = solver(m.pair, m.n - 1)
        basis = self.solver.basis
        n = m.n
        self.sq1 = tuple(integrate(m, sq(1, p)) % 2 for p in basis)
        self.cross = [
            [integrate(m, cup_i(pl, pj, n - 2)) % 2 for pj in basis] for pl in basis
        ]


def quad_context(m: ManifoldPair) -> _Context:
    return cached(m, "quad_context", lambda: _Context(m))


class QuadraticFunction:
    """Immutable: a manifold, a mode, and one Z/4 value per basis cocycle."""

    def __init__(self, ctx: _Context, mode: str, basis_values: Sequence[int]) -> None:
        self.ctx = ctx
        self.manifold = ctx.manifold
        self.mode = mode
        self.basis_values = tuple(v % 4 for v in basis_values)
        if len(self.basis_values) != ctx.solver.dim:
            raise ValueError("one value per basis cocycle required")
        if mode == SPIN:
            if not self.manifold.orientable:
                raise SpinOnNonorientable("spin mode needs an oriented manifold")
            for j, v in enumerate(self.basis_values):
                if v % 2:
                    raise ConstraintViolation(j)
        for j, v in enumerate(self.basis_values):
            if v % 2 != self.ctx.sq1[j]:
                raise ConstraintViolation(j)

    @property
    def solver(self) -> CohomologySolver:
        return self.ctx.solver

    @property
    def n(self) -> int:
        return self.manifold.n

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QuadraticFunction)
            and self.manifold is other.manifold
            and self.mode == other.mode
            and self.basis_values == other.basis_values
        )

    def __hash__(self):
        return hash((id(self.manifold), self.mode, self.basis_values))

    def __repr__(self) -> str:
        return f"QuadraticFunction(mode={self.mode}, values={self.basis_values})"

    def __call__(self, p: Cochain) -> QuadValue:
        return eval_quadratic(self, p)


def make_quadratic(
    m: ManifoldPair, mode: str, basis_values: Sequence[int]
) -> QuadraticFunction:
    """Build Q from basis values q_j, enforcing 2 q_j = 2 int Sq^1 p_j."""
    return QuadraticFunction(quad_context(m), mode, basis_values)


def enumerate_quadratics(m: ManifoldPair, mode: str = PIN) -> List[QuadraticFunction]:
    """All 2^dim quadratic functions, ordered lexicographically by the
    choice bits added on top of the forced parities."""
    ctx = quad_context(m)
    h = ctx.solver.dim
    if mode == SPIN and not m.orientable:
        raise SpinOnNonorientable("spin mode needs an oriented manifold")
    _check_budget(h, "quadratic functions")
    out = []
    for bits in range(1 << h):
        values = [
            (ctx.sq1[j] + 2 * ((bits >> (h - 1 - j)) & 1)) % 4 for j in range(h)
        ]
        out.append(QuadraticFunction(ctx, mode, values))
    return out


def _check_budget(h: int, what: str) -> None:
    if 1 << h > SIZE_BUDGET:
        raise BudgetExceeded(f"2^{h} {what} exceed the budget {SIZE_BUDGET}")


def _fold(ctx: _Context, coords: Sequence[int], values: Sequence[int],
          cert: Optional[Cochain]) -> int:
    m = ctx.manifold
    n = m.n
    val = 0
    support = [j for j, a in enumerate(coords) if a % 2]
    for t, j in enumerate(support):
        val += values[j]
        for l in support[:t]:
            val += 2 * ctx.cross[l][j]
    if cert is not None and not cert.is_zero():
        dc = d(cert)
        if not dc.is_zero():
            x = ctx.solver.reconstruct(coords)
            val += 2 * (integrate(m, sq(2, cert)) % 2)
            val += 2 * (integrate(m, cup_i(x, dc, n - 2)) % 2)
    return val % 4


def eval_quadratic(q: QuadraticFunction, p: Cochain) -> QuadValue:
    """Evaluate on a relative (n-1)-cocycle over Z2."""
    coords, cert = q.solver.decompose(p)
    return QuadValue(q.mode, _fold(q.ctx, coords, q.basis_values, cert))


def act(q: QuadraticFunction, a: Cochain) -> QuadraticFunction:
    """Change of structure by a 1-cocycle: values shift by 2 int(a u_0 p_j)."""
    if a.degree != 1 or a.ring != Z2:
        raise NotACocycle("the action needs a Z2 1-cocycle")
    if not d(a).is_zero():
        raise NotACocycle("da != 0")
    new = [
        (v + 2 * (integrate(q.manifold, cup_i(a, pj, 0)) % 2)) % 4
        for v, pj in zip(q.basis_values, q.solver.basis)
    ]
    return QuadraticFunction(q.ctx, q.mode, new)


def negate(q: QuadraticFunction) -> QuadraticFunction:
    """-Q: values shift by 2 int Sq^1 p_j; the identity in spin mode."""
    new = [(v + 2 * s) % 4 for v, s in zip(q.basis_values, q.ctx.sq1)]
    return QuadraticFunction(q.ctx, q.mode, new)


def v1_witness(m: ManifoldPair) -> Cochain:
    """A 1-cocycle a with int(a u_0 p_j) = int(Sq^1 p_j) for every basis p_j.

    Existence is the degree-1 Wu relation; any representative works since
    the action only sees the class.
    """
    ctx = quad_context(m)
    absolute = m.absolute()
    shift = len(absolute.relative_simplices(2))
    pairing = _pairing_rows(m, ctx.solver.basis)
    rows = [de | (pj << shift) for de, pj in zip(coboundary_bits(absolute, 1), pairing)]
    target = 0
    for j, s in enumerate(ctx.sq1):
        if s:
            target |= 1 << (shift + j)
    sol = _gf2.solve(rows, target)
    if sol is None:
        raise NotACocycle("no v1 witness cocycle exists (should not happen)")
    return from_bits(absolute, 1, sol)


def _pairing_rows(m: ManifoldPair, basis: Sequence[Cochain]) -> List[int]:
    """Row e has bit j set when int(e* u_0 p_j) = 1, for every edge e.

    (e* u_0 p_j)(s) = e*(s[:2]) p_j(s[1:]), so the integral sums p_j over
    the back faces of the top simplices whose front edge is e.
    """
    back = {}
    for j, p in enumerate(basis):
        for s, v in p.values.items():
            if v:
                back[s] = back.get(s, 0) ^ (1 << j)
    front = {}
    for s in m.fundamental:
        bits = back.get(s[1:])
        if bits:
            front[s[:2]] = front.get(s[:2], 0) ^ bits
    return [front.get(e, 0) for e in m.complex.simplices(1)]


# -- prescribing Q on a different basis -----------------------------------


def quadratic_from_prescribed(
    m: ManifoldPair,
    mode: str,
    cocycles: Sequence[Cochain],
    target_values: Sequence[int],
) -> QuadraticFunction:
    """The unique Q on m with Q(w_j) = target_values[j], for cocycles w_j
    whose classes form a basis of H^{n-1}(M, bd M; F2).

    Values on the solver basis enter evaluation linearly mod 4, so they are
    recovered by solving an invertible (mod 2, hence mod 4) linear system.
    """
    ctx = quad_context(m)
    h = ctx.solver.dim
    if len(cocycles) != h or len(target_values) != h:
        raise ValueError("need exactly one cocycle and value per basis class")
    rows = []
    offsets = []
    for w in cocycles:
        coords, cert = ctx.solver.decompose(w)
        rows.append(list(coords))
        offsets.append(_fold(ctx, coords, [0] * h, cert))
    # solve sum_l rows[j][l] * v_l = target_j - offset_j (mod 4)
    aug = [row[:] + [(t - o) % 4] for row, t, o in zip(rows, target_values, offsets)]
    values = _solve_unit_mod4(aug, h)
    if values is None:
        raise NotACocycle("prescribed cocycles do not span the cohomology")
    return QuadraticFunction(ctx, mode, values)


def _solve_unit_mod4(aug: List[List[int]], h: int) -> Optional[List[int]]:
    """Gaussian elimination mod 4 for a matrix with odd (unit) pivots."""
    rows = [r[:] for r in aug]
    perm = list(range(h))
    for col in range(h):
        piv = None
        for r in range(col, len(rows)):
            if rows[r][col] % 2 == 1:
                piv = r
                break
        if piv is None:
            return None
        rows[col], rows[piv] = rows[piv], rows[col]
        inv = {1: 1, 3: 3}[rows[col][col] % 4]
        rows[col] = [(x * inv) % 4 for x in rows[col]]
        for r in range(len(rows)):
            if r != col and rows[r][col] % 4:
                f = rows[r][col] % 4
                rows[r] = [(a - f * b) % 4 for a, b in zip(rows[r], rows[col])]
    return [rows[j][h] % 4 for j in range(h)]


# -- transfers -------------------------------------------------------------


@dataclass
class SubdivisionTransfer:
    subdivision: Subdivision
    manifold: ManifoldPair
    function: QuadraticFunction


def _sd_manifold(m: ManifoldPair) -> Tuple[Subdivision, ManifoldPair]:
    def build():
        sd = barycentric_subdivide(m.complex)
        return sd, validate_manifold(sd.complex, m.n)

    return cached(m, "subdivision", build)


def transfer_subdivision(q: QuadraticFunction) -> SubdivisionTransfer:
    """Q' on the barycentric subdivision with Q = Q' b* on every cocycle."""
    sd, m2 = _sd_manifold(q.manifold)
    pulled = [pullback(sd.to_base, p) for p in q.solver.basis]
    q2 = quadratic_from_prescribed(m2, q.mode, pulled, q.basis_values)
    return SubdivisionTransfer(sd, m2, q2)


def pushforward(f: SimplicialMap, q_source: QuadraticFunction,
                target: ManifoldPair) -> QuadraticFunction:
    """Q = Q' f* for an order preserving f: M' -> M of odd mod-2 degree.

    The degree condition is checked as stated: f* must be onto in the top
    degree, i.e. H^n(M, bd M) -> H^n(M', bd M') has full rank.
    """
    if f.source is not q_source.manifold.complex or f.target is not target.complex:
        raise ValueError("map endpoints do not match the manifolds")
    n = target.n
    top_target = solver(target.pair, n)
    top_source = solver(q_source.manifold.pair, n)
    rows = []
    for w in top_target.basis:
        coords, _ = top_source.decompose(pullback(f, w))
        rows.append(sum(b << j for j, b in enumerate(coords)))
    if _gf2.rank(rows) < top_source.dim:
        raise DegreeZero("pullback is not onto in degree n; even mod-2 degree")
    ctx_t = quad_context(target)
    pulled = [pullback(f, p) for p in ctx_t.solver.basis]
    values = [eval_quadratic(q_source, w).z4 for w in pulled]
    return QuadraticFunction(ctx_t, q_source.mode, values)


def boundary_manifold(m: ManifoldPair) -> ManifoldPair:
    """bd M as a validated closed (n-1)-manifold (cached)."""
    if m.closed:
        raise EmptyBoundary("manifold is closed")
    return cached(m, "boundary_manifold",
                  lambda: validate_manifold(m.boundary_complex(), m.n - 1))


def boundary_quadratic(q: QuadraticFunction) -> QuadraticFunction:
    """bd Q = Q o t* s, evaluated through d(extension by zero)."""
    m = q.manifold
    if m.closed:
        raise EmptyBoundary("boundary quadratic needs a boundary")
    bm = boundary_manifold(m)
    ctx_b = quad_context(bm)
    values = []
    for u in ctx_b.solver.basis:
        w = d(extend_by_zero(m.complex, u))
        values.append(eval_quadratic(q, w).z4)
    return QuadraticFunction(ctx_b, q.mode, values)


def restrict_codim0(q: QuadraticFunction, v: ManifoldPair) -> QuadraticFunction:
    """Q_V(x) = Q(x extended by zero) for a codimension-0 submanifold V.

    Neat embedding is checked operationally: the extension by zero of every
    basis cocycle of V must be a relative cocycle of (M, bd M).
    """
    m = q.manifold
    if v.n != m.n:
        raise NotNeatlyEmbedded("submanifold must have the same dimension")
    for s in v.complex.all_simplices():
        if not m.complex.has_simplex(s):
            raise NotNeatlyEmbedded(f"{s} is not a simplex of the ambient manifold")
    ctx_v = quad_context(v)
    values = []
    for p in ctx_v.solver.basis:
        w = extend_by_zero(m.complex, p)
        try:
            values.append(eval_quadratic(q, w).z4)
        except (NotACocycle, NotRelative) as e:
            raise NotNeatlyEmbedded(str(e))
    return QuadraticFunction(ctx_v, q.mode, values)


def submanifold(m: ManifoldPair, top_simplices: Sequence) -> ManifoldPair:
    """A codimension-0 submanifold spanned by a set of top simplices of m."""
    sub = build_complex(top_simplices,
                        {v: m.complex.rank[v] for v in m.complex.vertices})
    return validate_manifold(sub, m.n, require_full=False, require_ordering=False)


# -- cylinders -------------------------------------------------------------


@dataclass
class CylinderExtension:
    cylinder: Cylinder
    manifold: ManifoldPair
    function: QuadraticFunction


def _cylinder_of(m: ManifoldPair) -> Tuple[Cylinder, ManifoldPair]:
    def build():
        cyl = cylinder(m.complex)
        cm = cyl.manifold
        if cm is None:
            cm = validate_manifold(cyl.complex, m.n + 1,
                                   require_full=False, require_ordering=False)
        return cyl, cm

    return cached(m, "cylinder", build)


def _end_transfer(cyl: Cylinder, cm: ManifoldPair, end: SimplicialMap,
                  u: Cochain) -> Cochain:
    """d of the extension by zero of u pushed onto one end of the cylinder."""
    vals = {}
    for s, v in u.values.items():
        vals[tuple(end.vertex_map[t] for t in s)] = v
    pushed = Cochain(cyl.complex, u.degree, u.ring, vals)
    return d(pushed)


def cylinder_extend(q0: QuadraticFunction) -> CylinderExtension:
    """Extend Q0 on closed M to the prism I x M via the end-0 transfer."""
    m = q0.manifold
    cyl, cm = _cylinder_of(m)
    transfers = [
        _end_transfer(cyl, cm, cyl.end0, p) for p in q0.solver.basis
    ]
    qhat = quadratic_from_prescribed(cm, q0.mode, transfers, q0.basis_values)
    return CylinderExtension(cyl, cm, qhat)


def cylinder_restrict(ext: CylinderExtension, end_index: int,
                      base: ManifoldPair) -> QuadraticFunction:
    """Restrict a cylinder quadratic function to one end, read back on M."""
    cyl = ext.cylinder
    end = cyl.end0 if end_index == 0 else cyl.end1
    ctx = quad_context(base)
    values = []
    for p in ctx.solver.basis:
        w = _end_transfer(cyl, ext.manifold, end, p)
        values.append(eval_quadratic(ext.function, w).z4)
    return QuadraticFunction(ctx, ext.function.mode, values)


# -- invariants ------------------------------------------------------------


def brown_gauss(q: QuadraticFunction):
    """Gauss-sum invariant of Q on a closed surface.

    Returns the Z/8 exponent beta with sum i^{Q(x)} = sqrt(|H^1|) e^{2 pi i
    beta / 8} for pin mode, and the Arf bit for spin mode.  The magnitude
    check is exact over the Gaussian integers.
    """
    m = q.manifold
    if m.n != 2 or not m.closed:
        raise NotClosedSurface("Gauss sums need a closed surface")
    h = q.solver.dim
    _check_budget(h, "Gauss sum terms")
    re, im = 0, 0
    for bits in range(1 << h):
        coords = [(bits >> j) & 1 for j in range(h)]
        val = _fold(q.ctx, coords, q.basis_values, None)
        if val == 0:
            re += 1
        elif val == 1:
            im += 1
        elif val == 2:
            re -= 1
        else:
            im -= 1
    if re * re + im * im != 1 << h:
        raise DegenerateSum(f"|sum|^2 = {re * re + im * im} != 2^{h}")
    beta = _eighth_root_exponent(re, im, h)
    if q.mode == SPIN:
        return 0 if re > 0 else 1
    return beta


def _eighth_root_exponent(re: int, im: int, h: int) -> int:
    if h % 2 == 0:
        mag = 1 << (h // 2)
        table = {(mag, 0): 0, (0, mag): 2, (-mag, 0): 4, (0, -mag): 6}
    else:
        mag = 1 << ((h - 1) // 2)
        table = {
            (mag, mag): 1, (-mag, mag): 3, (-mag, -mag): 5, (mag, -mag): 7,
        }
    key = (re, im)
    if key not in table:
        raise DegenerateSum(f"sum {key} is not sqrt(2^{h}) times an 8th root")
    return table[key]


def disjoint_sum(q1: QuadraticFunction, q2: QuadraticFunction):
    """Quadratic function on the disjoint union restricting to q1 and q2."""
    if q1.mode != q2.mode:
        raise ValueError("modes differ")
    m1, m2 = q1.manifold, q2.manifold
    if m1.n != m2.n:
        raise ValueError("dimensions differ")
    z, i1, i2 = disjoint_union(m1.complex, m2.complex)
    mz = validate_manifold(z, m1.n, require_full=False, require_ordering=False)
    cocycles = []
    values = []
    for q, inc in ((q1, i1), (q2, i2)):
        for p, v in zip(q.solver.basis, q.basis_values):
            vals = {tuple(inc.vertex_map[t] for t in s): 1 for s in p.values}
            cocycles.append(Cochain(z, p.degree, Z2, vals))
            values.append(v)
    qz = quadratic_from_prescribed(mz, q1.mode, cocycles, values)
    return mz, qz


@dataclass
class VerifyReport:
    trials: int
    failures: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def random_relative_cochain(rng: random.Random, m: ManifoldPair, k: int,
                            density: float = 0.5) -> Cochain:
    vals = {}
    for s in m.pair.relative_simplices(k):
        if rng.random() < density:
            vals[s] = 1
    return Cochain(m.complex, k, Z2, vals)


def random_relative_cocycle(rng: random.Random, q: QuadraticFunction) -> Cochain:
    ctx = q.ctx
    m = q.manifold
    coords = [rng.randint(0, 1) for _ in range(ctx.solver.dim)]
    p = ctx.solver.reconstruct(coords)
    if m.n >= 2:
        c = random_relative_cochain(rng, m, m.n - 2)
        p = p + d(c)
    return p


def verify_axioms(q: QuadraticFunction, trials: int = 100,
                  seed: int = 0) -> VerifyReport:
    """Randomized check of both defining conditions."""
    if trials < 0:
        raise ValueError(f"trials must be non-negative, got {trials}")
    rng = random.Random(seed)
    m = q.manifold
    n = m.n
    report = VerifyReport(trials)
    for t in range(trials):
        p1 = random_relative_cocycle(rng, q)
        p2 = random_relative_cocycle(rng, q)
        lhs = eval_quadratic(q, p1 + p2).z4
        cross = integrate(m, cup_i(p1, p2, n - 2)) % 2
        rhs = (eval_quadratic(q, p1).z4 + eval_quadratic(q, p2).z4 + 2 * cross) % 4
        if lhs != rhs:
            report.failures.append(f"trial {t}: sum law fails")
            continue
        if n >= 2:
            c = random_relative_cochain(rng, m, n - 2)
            lhs2 = eval_quadratic(q, d(c)).z4
            rhs2 = (2 * (integrate(m, sq(2, c)) % 2)) % 4
            if lhs2 != rhs2:
                report.failures.append(f"trial {t}: coboundary law fails")
    return report
