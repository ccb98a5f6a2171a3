"""Z/4-valued quadratic functions on triangulated manifolds.

A quadratic function Q on (M, bd M) is stored by its values on the solver
basis of H^{n-1}(M, bd M; F2); every other value follows from

    Q(x + y) = Q(x) + Q(y) + 2 int x u_{n-2} y
    Q(dc)    = 2 int (c u_{n-4} c  +  c u_{n-3} dc)

via decompose-and-correct: write p = sum a_j p_j + dc, fold the first law
left-to-right over the support, then absorb the coboundary with the second
law.  Well-definedness (certificate and fold-order independence) needs the
degree-2 Wu class of M to vanish, which construction enforces.

Every table of a manifold's context (``_Context``) is read off the cup_i
forms of ``cochains.cup_form``: the cup rows, the cross table and the Sq^1
parities off the (n-1, n-2) form, the pairing rows of the H^1 action and
``v1_witness`` off the (1, 0) form, and the Sq^2 rows, built on the first
evaluation that needs them, off the (n-2, n-4) and (n-2, n-3) forms.

Evaluation runs on bits and builds no cochain.
``CohomologySolver._decompose_bits`` returns the coordinates a, the
certificate c and its coboundary dc, which the solver's identity check
computes anyway; ``_decompose_cocycle_bits`` does the same for a cocycle
already in bits.  The correction term int x u_{n-2} dc is linear in
x = sum a_j p_j, so it is the parity of (sum a_j row_j) & dc.  The two
terms quadratic in c, nonzero from dimension 3 on, make int Sq^2 c, the
parity of ``combine(sq2_rows, c) & (c | dc << len(sq2_rows))``.
``verify_axioms`` draws its cocycles as bits, sum a_j p_j plus the
coboundary of a random relative cochain, and evaluates the left-hand sides
on those bits.  It checks the laws with ``cup_i`` and ``sq`` of Cochains on
the right-hand sides, so it does not share the tables it would have to
catch.

Q moves between manifolds through three primitives.  ``_restrict(q,
target, transfer)`` reads Q off the basis of target through a cochain
transfer; pushforward, the boundary, codimension-0 restriction and the
cylinder ends all use it.  ``_push(f, c)`` moves a cochain along an
injective simplicial map.  ``quadratic_from_prescribed`` goes the other
way: it solves for the basis values that give prescribed values on
another basis, through two ``_gf2.solve`` calls.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import reduce
from operator import xor
from types import SimpleNamespace
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

from . import _gf2
from .cochains import (
    Cochain,
    CohomologySolver,
    PIN,
    SPIN,
    Z2,
    coboundary_bits,
    cup_form,
    cup_i,
    d,
    extend_by_zero,
    from_bits,
    integrate,
    pullback,
    solver,
    sq,
    to_bits,
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
    cofaces,
    cylinder,
    disjoint_union,
    validate_manifold,
)
from .errors import (
    ComplexMismatch,
    ConstraintViolation,
    DegenerateSum,
    DegreeZero,
    EmptyBoundary,
    InvariantViolation,
    NotACocycle,
    NotClosedSurface,
    NotNeatlyEmbedded,
    NotRelative,
    SpinOnNonorientable,
    WuObstruction,
    check_budget,
)
from .suspension import boundary_transfer


class QuadValue(NamedTuple):
    """A Z/4 value (pin) or a value in 2(Z/2) < Z/4 (spin)."""

    mode: str
    z4: int

    @property
    def rmodz(self) -> Fraction:
        return Fraction(self.z4, 4)


class _Context:
    """Per-manifold data shared by every quadratic function on it: the
    solver of H^{n-1}(M, bd M) and four tables over its basis p_j.  Two
    ``cochains.cup_form`` walks over the top simplices above the basis give
    them, one on a surface, where both forms are the (1, 0) form.

    - ``rows[j]``: the relative (n-1)-simplices e with int(p_j u_{n-2} e*)
      = 1, as bits in canonical order: the XOR of the (n-1, n-2) form's
      entries over supp(p_j).
    - ``pairing[e]``: for every edge e in canonical order, the bits j with
      int(e* u_0 p_j) = 1: the parities of the (1, 0) form's entry of e
      against each p_j.
    - ``cross[l][j]``: int(p_l u_{n-2} p_j), the parity of row l on p_j.
    - ``sq1[j]``: int(Sq^1 p_j) = cross[j][j], since Sq^1 p = p u_{n-2} p
      + p u_{n-1} dp and dp = 0.

    From dimension 3 on, evaluation also reads the rows of ``_sq2_rows``.
    They do not depend on the basis, cost more than the four tables
    together, and serve only coboundaries, so they are not in the context:
    the first evaluation with dc != 0 builds them into the manifold's cache.
    """

    def __init__(self, m: ManifoldPair) -> None:
        if m.n < 1:
            raise ValueError("quadratic functions need dimension >= 1")
        witness = wu_v2_check(m)
        if witness is not None:
            raise WuObstruction(witness)
        self.manifold = m
        self.solver = solver(m.pair, m.n - 1)
        basis, reps = self.solver.basis, self.solver._rep_bits
        up, top = cofaces(m.complex, m.n - 1), m.complex.simplices(m.n)
        tops = {top[t] for p in basis for s in p.values for t in up[s][1:]}
        below = cup_form(m, m.n - 1, m.n - 2, tops)
        self.rows = [reduce(xor, (below.get(s, 0) for s in p.values), 0) for p in basis]
        # on a surface the (n-1, n-2) form is the (1, 0) form
        pair_form = below if m.n == 2 else cup_form(m, 1, 0, tops)
        pairing = {e: sum(((bits & r).bit_count() & 1) << j for j, r in enumerate(reps))
                   for e, bits in pair_form.items()}
        self.pairing = [pairing.get(e, 0) for e in m.complex.simplices(1)]
        self.cross = [[(row & r).bit_count() % 2 for r in reps] for row in self.rows]
        self.sq1 = tuple(row[j] for j, row in enumerate(self.cross))


def _sq2_rows(m: ManifoldPair) -> List[int]:
    """int Sq^2 c = int (c u_{n-4} c + c u_{n-3} dc) as a form in c and
    (c, dc): row e, one per relative (n-2)-simplex, joins e's entries of the
    (n-2, n-4) and the (n-2, n-3) cup forms, the second shifted by len(rows)."""
    lower = m.pair.relative_simplices(m.n - 2)
    square, mixed = cup_form(m, m.n - 2, m.n - 4), cup_form(m, m.n - 2, m.n - 3)
    return [square.get(e, 0) | mixed.get(e, 0) << len(lower) for e in lower]


def quad_context(m: ManifoldPair) -> _Context:
    return cached(m, "quad_context", lambda: _Context(m))


class QuadraticFunction:
    """Immutable: a manifold, a mode, and one Z/4 value per basis cocycle."""

    def __init__(self, ctx: _Context, mode: str, basis_values: Sequence[int]) -> None:
        if mode not in (PIN, SPIN):
            raise ValueError(f"unknown mode {mode!r}")
        self.ctx = ctx
        self.manifold = ctx.manifold
        self.mode = mode
        self.basis_values = tuple(v % 4 for v in basis_values)
        if len(self.basis_values) != ctx.solver.dim:
            raise ValueError("one value per basis cocycle required")
        _check_spin(self.manifold, mode)
        if mode == SPIN:
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


def _check_spin(m: ManifoldPair, mode: str) -> None:
    if mode == SPIN and not m.orientable:
        raise SpinOnNonorientable("spin mode needs an oriented manifold")


def _check_closed_surface(m: ManifoldPair) -> None:
    if m.n != 2 or not m.closed:
        raise NotClosedSurface("Gauss sums need a closed surface")


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
    _check_spin(m, mode)
    check_budget(h, "quadratic functions")
    out = []
    for bits in range(1 << h):
        values = [
            (ctx.sq1[j] + 2 * ((bits >> (h - 1 - j)) & 1)) % 4 for j in range(h)
        ]
        out.append(QuadraticFunction(ctx, mode, values))
    return out


def _fold(ctx: _Context, coords: int, values: Sequence[int], pre: int, dpre: int) -> int:
    """Q(x + dc) mod 4 for x = sum a_j p_j, from the bits of
    ``CohomologySolver._decompose_bits``: a over the basis, c over the
    relative (n-2)-simplices and dc over the relative (n-1)-simplices.

    Q(x) folds the sum law over the support of a.  The coboundary adds
    2 int (c u_{n-4} c + c u_{n-3} dc + x u_{n-2} dc), nothing when dc = 0.
    The last term is linear in x, so it is read off the context's rows
    as the parity of (sum a_j row_j) & dc.  The two terms quadratic in c
    make int Sq^2 c, zero below dimension 3, read off the manifold's
    cached ``sq2_rows``, the joined (n-2, n-4) and (n-2, n-3) cup forms of
    ``_sq2_rows``.
    """
    val = 0
    support = [j for j in range(len(values)) if (coords >> j) & 1]
    for t, j in enumerate(support):
        val += values[j]
        for l in support[:t]:
            val += 2 * ctx.cross[l][j]
    if dpre:
        val += 2 * (_gf2.combine(ctx.rows, coords) & dpre).bit_count()
        m = ctx.manifold
        if m.n >= 3:
            table = cached(m, "sq2_rows", lambda: _sq2_rows(m))
            val += 2 * (_gf2.combine(table, pre) & (pre | dpre << len(table))).bit_count()
    return val % 4


def eval_quadratic(q: QuadraticFunction, p: Cochain) -> QuadValue:
    """Evaluate on a relative (n-1)-cocycle over Z2."""
    coords, pre, dpre = q.solver._decompose_bits(p)
    return QuadValue(q.mode, _fold(q.ctx, coords, q.basis_values, pre, dpre))


def _eval_bits(q: QuadraticFunction, bits: int) -> int:
    """Q mod 4 of a relative (n-1)-cocycle given as bits over the relative
    (n-1)-simplices."""
    coords, pre, dpre = q.solver._decompose_cocycle_bits(bits)
    return _fold(q.ctx, coords, q.basis_values, pre, dpre)


def act(q: QuadraticFunction, a: Cochain) -> QuadraticFunction:
    """Change of structure by a 1-cocycle: values shift by 2 int(a u_0 p_j)."""
    if a.degree != 1 or a.ring != Z2:
        raise NotACocycle("the action needs a Z2 1-cocycle")
    m = q.manifold
    if a.complex is not m.complex:
        raise ComplexMismatch("the 1-cocycle lives on a different complex")
    bits = to_bits(m.absolute(), a)
    if _gf2.combine(coboundary_bits(m.absolute(), 1), bits):
        raise NotACocycle("da != 0")
    shift = _gf2.combine(q.ctx.pairing, bits)
    new = [(v + 2 * ((shift >> j) & 1)) % 4 for j, v in enumerate(q.basis_values)]
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
    rows = [de | (pj << shift) for de, pj in zip(coboundary_bits(absolute, 1), ctx.pairing)]
    sol = _gf2.solve(rows, sum(s << (shift + j) for j, s in enumerate(ctx.sq1)))
    if sol is None:
        raise InvariantViolation("no v1 witness cocycle solves the degree-1 Wu relation")
    return from_bits(absolute, 1, sol)


# -- prescribing Q on a different basis -----------------------------------


def quadratic_from_prescribed(
    m: ManifoldPair,
    mode: str,
    cocycles: Sequence[Cochain],
    target_values: Sequence[int],
) -> QuadraticFunction:
    """The unique Q on m with Q(w_j) = target_values[j], for cocycles w_j
    whose classes form a basis of H^{n-1}(M, bd M; F2).

    Write w_j = sum_l A_jl p_l + dc_j.  Values on the solver basis enter
    evaluation linearly, Q(w_j) = sum_l A_jl v_l + o_j (mod 4) with o_j the
    fold of w_j at zero basis values, so v solves A v = t - o (mod 4).  A
    is invertible over F2, hence over Z/4, and the solution is unique; it
    is found as v = v2 + 2u by two solves over F2: A v2 = t - o (mod 2),
    then A u = (t - o - A v2) / 2 (mod 2), with A v2 the integer product.
    """
    ctx = quad_context(m)
    h = ctx.solver.dim
    if len(cocycles) != h or len(target_values) != h:
        raise ValueError("need exactly one cocycle and value per basis class")
    rows = []  # row j of A as bits over l
    rhs = []
    for w, t in zip(cocycles, target_values):
        coords, pre, dpre = ctx.solver._decompose_bits(w)
        rows.append(coords)
        rhs.append((t - _fold(ctx, coords, [0] * h, pre, dpre)) % 4)
    cols = [sum(((r >> l) & 1) << j for j, r in enumerate(rows)) for l in range(h)]
    if _gf2.rank(cols) < h:
        raise NotACocycle("prescribed cocycles do not span the cohomology")
    v2 = _gf2.solve(cols, sum((b & 1) << j for j, b in enumerate(rhs)))
    halves = [(b - (r & v2).bit_count()) // 2 for r, b in zip(rows, rhs)]
    u = _gf2.solve(cols, sum((c & 1) << j for j, c in enumerate(halves)))
    values = [((v2 >> l) & 1) + 2 * ((u >> l) & 1) for l in range(h)]
    return QuadraticFunction(ctx, mode, values)


# -- transfers -------------------------------------------------------------


def _restrict(q: QuadraticFunction, target: ManifoldPair,
              transfer: Callable[[Cochain], Cochain]) -> QuadraticFunction:
    """The function on target whose value on each basis cocycle p is
    Q(transfer(p))."""
    ctx = quad_context(target)
    return QuadraticFunction(
        ctx, q.mode, [eval_quadratic(q, transfer(p)).z4 for p in ctx.solver.basis])


def _push(f: SimplicialMap, c: Cochain) -> Cochain:
    """c moved along an injective simplicial map: (f_* c)(f s) = c(s)."""
    vals = {tuple(f.vertex_map[t] for t in s): v for s, v in c.values.items()}
    return Cochain._of(f.target, c.degree, c.ring, vals)


class SubdivisionTransfer(NamedTuple):
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
    rows = [top_source.coords(pullback(f, w)) for w in top_target.basis]
    if _gf2.rank(rows) < top_source.dim:
        raise DegreeZero("pullback is not onto in degree n; even mod-2 degree")
    return _restrict(q_source, target, lambda p: pullback(f, p))


def boundary_manifold(m: ManifoldPair) -> ManifoldPair:
    """bd M as a validated closed (n-1)-manifold (cached)."""
    if m.closed:
        raise EmptyBoundary("manifold is closed")
    return cached(m, "boundary_manifold",
                  lambda: validate_manifold(m.boundary_complex(), m.n - 1))


def boundary_quadratic(q: QuadraticFunction) -> QuadraticFunction:
    """bd Q = Q o t* s, evaluated through ``suspension.boundary_transfer``."""
    m = q.manifold
    if m.closed:
        raise EmptyBoundary("boundary quadratic needs a boundary")
    return _restrict(q, boundary_manifold(m), lambda u: boundary_transfer(m, u))


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
    try:
        return _restrict(q, v, lambda p: extend_by_zero(m.complex, p))
    except (NotACocycle, NotRelative) as e:
        raise NotNeatlyEmbedded(str(e))


def submanifold(m: ManifoldPair, top_simplices: Sequence) -> ManifoldPair:
    """A codimension-0 submanifold spanned by a set of top simplices of m."""
    sub = build_complex(top_simplices,
                        {v: m.complex.rank[v] for v in m.complex.vertices})
    return validate_manifold(sub, m.n, require_full=False, require_ordering=False)


# -- cylinders -------------------------------------------------------------


class CylinderExtension(NamedTuple):
    cylinder: Cylinder
    manifold: ManifoldPair
    function: QuadraticFunction


def _cylinder_of(m: ManifoldPair) -> Tuple[Cylinder, ManifoldPair]:
    """The prism I x M and its manifold pair (cached).  Its boundary, the two
    ends, is not a full subcomplex, so the cylinder operations use the
    extension-by-zero form of the boundary transfer."""
    def build():
        cyl = cylinder(m.complex)
        return cyl, validate_manifold(cyl.complex, m.n + 1,
                                      require_full=False, require_ordering=False)

    return cached(m, "cylinder", build)


def cylinder_extend(q0: QuadraticFunction) -> CylinderExtension:
    """Extend Q0 on closed M to the prism I x M via the end-0 transfer."""
    cyl, cm = _cylinder_of(q0.manifold)
    transfers = [d(_push(cyl.end0, p)) for p in q0.solver.basis]
    qhat = quadratic_from_prescribed(cm, q0.mode, transfers, q0.basis_values)
    return CylinderExtension(cyl, cm, qhat)


def cylinder_restrict(ext: CylinderExtension, end_index: int,
                      base: ManifoldPair) -> QuadraticFunction:
    """Restrict a cylinder quadratic function to one end, read back on M."""
    cyl = ext.cylinder
    end = cyl.end0 if end_index == 0 else cyl.end1
    return _restrict(ext.function, base, lambda p: d(_push(end, p)))


# -- invariants ------------------------------------------------------------


def brown_gauss(q: QuadraticFunction):
    """Gauss-sum invariant of Q on a closed surface.

    Returns the Z/8 exponent beta with sum i^{Q(x)} = sqrt(|H^1|) e^{2 pi i
    beta / 8} for pin mode, and the Arf bit for spin mode.  The magnitude
    check is exact over the Gaussian integers.
    """
    _check_closed_surface(q.manifold)
    h = q.solver.dim
    check_budget(h, "Gauss sum terms")
    re, im = 0, 0
    for bits in range(1 << h):
        val = _fold(q.ctx, bits, q.basis_values, 0, 0)
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


def brown_invariants(m: ManifoldPair, mode: str = PIN) -> List[int]:
    """``brown_gauss`` of every quadratic function on m, in the order of
    ``enumerate_quadratics``.

    The refusals that compute nothing come first: the Wu obstruction, spin
    mode on a nonorientable manifold, a manifold that is not a closed
    surface.  Then 2^h functions of 2^h Gauss sum terms each are refused as
    a product, not each alone.
    """
    h = quad_context(m).solver.dim
    _check_spin(m, mode)
    _check_closed_surface(m)
    check_budget(2 * h, "Gauss sum terms")
    return [brown_gauss(q) for q in enumerate_quadratics(m, mode)]


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
        cocycles += [_push(inc, p) for p in q.solver.basis]
        values += q.basis_values
    qz = quadratic_from_prescribed(mz, q1.mode, cocycles, values)
    return mz, qz


class VerifyReport(SimpleNamespace):
    def __init__(self, trials: int, failures: Optional[List[str]] = None) -> None:
        super().__init__(trials=trials, failures=[] if failures is None else failures)

    @property
    def ok(self) -> bool:
        return not self.failures


def random_relative_cochain(rng: random.Random, m: ManifoldPair, k: int) -> Cochain:
    return Cochain._of(m.complex, k, Z2, {
        s: 1 for s in m.pair.relative_simplices(k) if rng.random() < 0.5})


def _random_cocycle_bits(rng: random.Random, q: QuadraticFunction) -> int:
    """sum a_j p_j + dc for random a and c, as bits over the relative
    (n-1)-simplices."""
    m = q.manifold
    bits = q.solver._cocycle_bits(sum(rng.randint(0, 1) << j for j in range(q.solver.dim)))
    if m.n >= 2:
        c = random_relative_cochain(rng, m, m.n - 2)
        bits ^= _gf2.combine(coboundary_bits(m.pair, m.n - 2), to_bits(m.pair, c))
    return bits


def random_relative_cocycle(rng: random.Random, q: QuadraticFunction) -> Cochain:
    """sum a_j p_j + dc for random a and c."""
    m = q.manifold
    return from_bits(m.pair, m.n - 1, _random_cocycle_bits(rng, q))


def verify_axioms(q: QuadraticFunction, trials: int = 100,
                  seed: int = 0) -> VerifyReport:
    """Randomized check of both defining conditions.

    The left-hand sides are evaluated on the bits the cocycles are drawn
    as; the right-hand sides are ``cup_i`` and ``sq`` of Cochains, so they
    share none of the tables evaluation reads.
    """
    if trials < 0:
        raise ValueError(f"trials must be non-negative, got {trials}")
    rng = random.Random(seed)
    m = q.manifold
    n = m.n
    pair = m.pair
    report = VerifyReport(trials)
    for t in range(trials):
        b1 = _random_cocycle_bits(rng, q)
        b2 = _random_cocycle_bits(rng, q)
        lhs = _eval_bits(q, b1 ^ b2)
        p1, p2 = from_bits(pair, n - 1, b1), from_bits(pair, n - 1, b2)
        cross = integrate(m, cup_i(p1, p2, n - 2)) % 2
        rhs = (_eval_bits(q, b1) + _eval_bits(q, b2) + 2 * cross) % 4
        if lhs != rhs:
            report.failures.append(f"trial {t}: sum law fails")
            continue
        if n >= 2:
            c = random_relative_cochain(rng, m, n - 2)
            lhs2 = _eval_bits(q, _gf2.combine(coboundary_bits(pair, n - 2), to_bits(pair, c)))
            rhs2 = (2 * (integrate(m, sq(2, c)) % 2)) % 4
            if lhs2 != rhs2:
                report.failures.append(f"trial {t}: coboundary law fails")
    return report
