"""The groups G_n^pin(X, Y) and the G_n^spin profile.

Elements are pairs (w, p) of relative cochains with dp = 0 and dw = Sq^2 p
(pin; dw = (1/2) Sq^2 p with R/Z values for spin), multiplied by

    (w, p)(v, q) = (w + v + p u_{n-2} q, p + q),

modulo the subgroup {(df + Sq^2 c, dc)}.  The closed-form engine reads the
abelian quotient off the short exact sequence ends QH^n and SH^{n-1} and
the rank of phi: [p] -> [Sq^1 p].  It reads only the terms that can be
nonzero: an empty degree has no cohomology and its solver no operator,
Sq^2 vanishes on H^{n-2} below n = 4, and with no relative (n+1)-simplex
Sq^2 p is the zero cochain, so SH^{n-1} is all of H^{n-1} and each
certificate is (0, p).  The brute-force oracle finds the group
without that sequence: it enumerates the pairs E with w stored modulo the
central coboundaries (df, 0), in the normal form of the GF(2) layer,
closes (0, 0) under the (Sq^2 c, dc) generators to the relation subgroup
N, and counts: |E| / |N| classes, and the classes whose square (p u_{n-2}
p, 0) lies in N.  Its summands, order and dims all come from those counts:
rank phi is the number of Z/4 summands, dim SH^{n-1} is log2 of the number
of solvable p less rank d_{n-2}, and dim QH^n is the rest of log2 of the
order.  It builds no cohomology solver and no sequence; the mod-2
operators are all it shares with the closed form.  Its size budget caps
the pairs and the closure's relation images alike.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Dict, List, NamedTuple, Optional, Tuple

from ._gf2 import Echelon, combine, eliminate, low_bit, nullspace, rank
from .cochains import (
    Cochain,
    PIN,
    QMODZ,
    SPIN,
    Z2,
    coboundary_bits,
    cup_i,
    cup_rows,
    d,
    dual_cochain,
    embed_z2_qmodz,
    from_bits,
    integrate,
    pullback,
    solver,
    sq,
    sq2_of_basis,
    to_bits,
    zero_cochain,
)
from .complexes import ComplexPair, ManifoldPair, SimplicialMap, cached
from .errors import (
    SIZE_BUDGET,
    BudgetExceeded,
    ComplexMismatch,
    InvariantViolation,
    NotACocycle,
    NotRelative,
    PairMismatch,
    check_budget,
)

if TYPE_CHECKING:
    from .quadratic import QuadraticFunction


class _Mode(NamedTuple):
    """What sets spin pairs apart from pin pairs."""

    ring: str  # the ring of w
    embed: Callable[[Cochain], Cochain]  # Z/2 terms into that ring
    dw: str  # how dw = Sq^2 p reads
    integral: Callable[[ManifoldPair, Cochain], Fraction]  # int w in R/Z


_MODES = {
    PIN: _Mode(Z2, lambda c: c, "Sq^2 p", lambda m, w: Fraction(integrate(m, w) % 2, 2)),
    SPIN: _Mode(QMODZ, embed_z2_qmodz, "(1/2) Sq^2 p", integrate),
}


def _mode(mode: str) -> _Mode:
    """The entry of mode; an unknown mode, hashable or not, is a ValueError."""
    try:
        return _MODES[mode]
    except (KeyError, TypeError):
        raise ValueError(f"unknown mode {mode!r}") from None


class _GPairFields(NamedTuple):
    pair: ComplexPair
    n: int
    mode: str
    w: Cochain
    p: Cochain


class GPair(_GPairFields):
    """A pair (w, p) with dp = 0 and dw = Sq^2 p (scaled by 1/2 for spin),
    checked once, when it is built."""

    __slots__ = ()

    def __new__(cls, pair: ComplexPair, n: int, mode: str, w: Cochain,
                p: Cochain) -> "GPair":
        if w.complex is not pair.ambient or p.complex is not pair.ambient:
            raise ComplexMismatch("w and p must live on the pair's complex")
        if p.degree != n - 1 or p.ring != Z2:
            raise ValueError("p must be a Z2 cochain of degree n-1")
        if not p.is_relative(pair) or not w.is_relative(pair):
            raise NotRelative("G-pairs are relative cochain pairs")
        if not d(p).is_zero():
            raise NotACocycle("dp != 0")
        sq2 = sq(2, p)
        spec = _mode(mode)
        if w.ring != spec.ring or w.degree != n:
            raise ValueError(f"{mode} w must be a {spec.ring} cochain of degree n")
        if d(w) != spec.embed(sq2):
            raise NotACocycle(f"dw != {spec.dw}")
        return super().__new__(cls, pair, n, mode, w, p)

    def _match(self, other: "GPair") -> None:
        if (self.pair is not other.pair or self.n != other.n
                or self.mode != other.mode):
            raise PairMismatch("pairs live on different (X, Y, n, mode)")


def g_pair(pair: ComplexPair, n: int, w: Cochain, p: Cochain,
           mode: str = PIN) -> GPair:
    return GPair(pair, n, mode, w, p)


def g_identity(pair: ComplexPair, n: int, mode: str = PIN) -> GPair:
    x = pair.ambient
    return GPair(pair, n, mode, zero_cochain(x, n, _mode(mode).ring),
                 zero_cochain(x, n - 1, Z2))


def g_product(a: GPair, b: GPair) -> GPair:
    a._match(b)
    cross = _mode(a.mode).embed(cup_i(a.p, b.p, a.n - 2))
    return GPair(a.pair, a.n, a.mode, a.w + b.w + cross, a.p + b.p)


def g_inverse(a: GPair) -> GPair:
    corr = _mode(a.mode).embed(sq(1, a.p))
    return GPair(a.pair, a.n, a.mode, -a.w + corr, a.p)


def g_pullback(f: SimplicialMap, target_pair: ComplexPair,
               source_pair: ComplexPair, a: GPair) -> GPair:
    """Functoriality: pull a pair on the target back along f."""
    if a.pair is not target_pair:
        raise PairMismatch("pair does not live on the map target")
    return GPair(source_pair, a.n, a.mode, pullback(f, a.w), pullback(f, a.p))


def pin_to_spin(a: GPair) -> GPair:
    """(w, p) -> ((1/2) w, p), a homomorphism at the pair level."""
    if a.mode != PIN:
        raise ValueError("expected a pin pair")
    return GPair(a.pair, a.n, SPIN, embed_z2_qmodz(a.w), a.p)


# -- exact sequence data ----------------------------------------------------


class _SequenceData:
    """The terms of the exact sequence at degree n, read only where they can
    be nonzero.

    For n < 4, ``cochains.sq2_of_basis`` gives no Sq^2 of H^{n-2}: b_rows
    is empty and no solver of degree n-2 is built.  With no relative
    (n+1)-simplex, Sq^2 p is the zero cochain: every H^{n-1} class lies in
    SH and its certificate is (0, p) (``top``), with no Sq^2 p taken here.
    Empty degrees cost nothing in the solvers themselves.
    """

    def __init__(self, pair: ComplexPair, n: int) -> None:
        self.s_nm1 = solver(pair, n - 1)
        self.s_n = solver(pair, n)
        self.s_np1 = solver(pair, n + 1)
        self.top = not self.s_np1.simplices

        # image of Sq^2 from H^{n-2} inside H^n
        self.b_rows = [self.s_n._decompose_bits(sq2)[0]
                       for _, sq2 in sq2_of_basis(pair, n - 2)]
        self.b_rank = rank(self.b_rows)

        # Sq^2 out of H^{n-1}, kernel = SH
        sq2_cols = ([0] * self.s_nm1.dim if self.top else
                    [self.s_np1._decompose_bits(sq(2, p))[0] for p in self.s_nm1.basis])
        self.sh_kernel: List[int] = nullspace(sq2_cols)

        # phi on classes: [p] -> [Sq^1 p]
        self.phi_cols = [self.s_n._decompose_bits(sq(1, p))[0] for p in self.s_nm1.basis]

    def phi_of(self, combo_bits: int) -> int:
        return combine(self.phi_cols, combo_bits)

    @property
    def qh_dim(self) -> int:
        return self.s_n.dim - self.b_rank

    @property
    def sh_dim(self) -> int:
        return len(self.sh_kernel)

    @property
    def phi_rank(self) -> int:
        phi_rows = [self.phi_of(kv) for kv in self.sh_kernel]
        return rank(self.b_rows + phi_rows) - self.b_rank


def _sequence_data(pair: ComplexPair, n: int) -> _SequenceData:
    return cached(pair, ("sequence", n), lambda: _SequenceData(pair, n))


def qh_sh(pair: ComplexPair, n: int) -> Tuple[int, int, int]:
    """(dim QH^n, dim SH^{n-1}, rank phi) over F2."""
    data = _sequence_data(pair, n)
    return data.qh_dim, data.sh_dim, data.phi_rank


class GGroupStructure(NamedTuple):
    """Abelian profile (Z/4)^a + (Z/2)^b with generator certificates."""

    n: int
    dims: Tuple[int, int, int]  # (dim QH, dim SH, rank phi)
    summands: Tuple[int, ...]
    order: int
    generators: Tuple[GPair, ...] = ()

    def profile(self) -> str:
        parts = [f"Z/{k}" for k in self.summands]
        return " + ".join(parts) if parts else "0"

    def same_profile(self, other: "GGroupStructure") -> bool:
        return sorted(self.summands) == sorted(other.summands)


def g_pin(pair: ComplexPair, n: int) -> GGroupStructure:
    """(Z/4)^{rank phi} + (Z/2)^{dim SH - rank phi} + (Z/2)^{dim QH - rank phi},
    with one generator certificate per cyclic summand.

    A pair (w, p) squares to (Sq^1 p, 0), so [p] in SH gives a Z/4 summand
    exactly when [Sq^1 p] survives in QH; the remaining SH directions are
    corrected by the chosen Z/4 vectors so their certificates have honest
    order 2.
    """
    data = _sequence_data(pair, n)
    qh, sh, rphi = data.qh_dim, data.sh_dim, data.phi_rank

    # echelon over H^n coords; track records which Z/4 picks were consumed
    ech = Echelon()
    for r in data.b_rows:
        ech.add(r, 0)
    picks4: List[int] = []
    sh2: List[int] = []
    for kv in data.sh_kernel:
        phi_bits = data.phi_of(kv)
        rem, track = ech.reduce(phi_bits, 0)
        if rem:
            ech.add(phi_bits, 1 << len(picks4))
            picks4.append(kv)
        else:
            sh2.append(kv ^ combine(picks4, track))

    def sh_cert(kv: int) -> GPair:
        p = from_bits(pair, n - 1, data.s_nm1._cocycle_bits(kv))
        if data.top:  # Sq^2 p = 0 = d0
            return GPair(pair, n, PIN, zero_cochain(pair.ambient, n, Z2), p)
        _, w = data.s_np1.decompose(sq(2, p))  # Sq^2 p = dw, class 0
        return GPair(pair, n, PIN, w, p)

    gens = [sh_cert(kv) for kv in picks4]
    orders = [4] * len(picks4)
    for kv in sh2:
        gens.append(sh_cert(kv))
        orders.append(2)
    for j in range(data.s_n.dim):
        rem, _ = ech.add(1 << j, 0)
        if rem:
            gens.append(GPair(pair, n, PIN, data.s_n.basis[j],
                              zero_cochain(pair.ambient, n - 1, Z2)))
            orders.append(2)
    summands = tuple(sorted(orders, reverse=True))
    if summands != (4,) * rphi + (2,) * (sh - rphi) + (2,) * (qh - rphi):
        raise InvariantViolation(f"generator orders {summands} disagree with "
                                 f"the exact sequence {(qh, sh, rphi)}")
    return GGroupStructure(
        n=n,
        dims=(qh, sh, rphi),
        summands=summands,
        order=1 << (qh + sh),
        generators=tuple(gens),
    )


def g_is_trivial(a: GPair) -> bool:
    """Whether (w, p) lies in the relation subgroup {(df + Sq^2 c, dc)}.

    Requires p = dc exactly for some relative c; then w + Sq^2 c must be a
    coboundary up to Sq^2 of a cocycle, i.e. its class must lie in the
    Sq^2-image inside H^n.
    """
    if a.mode != PIN:
        raise ValueError("triviality test implemented for pin pairs")
    data = _sequence_data(a.pair, a.n)
    coords, cert = data.s_nm1.decompose(a.p)
    if any(coords):
        return False
    w_corr = a.w + sq(2, cert)
    bits = data.s_n._decompose_bits(w_corr)[0]
    return rank(data.b_rows + [bits]) == data.b_rank


# -- brute-force oracle ------------------------------------------------------


def g_pin_bruteforce(pair: ComplexPair, n: int,
                     size_budget: int = SIZE_BUDGET) -> GGroupStructure:
    """Enumerate the pairs modulo the coboundaries, close the identity under
    the relations, and read the abelian profile off by counting.  Exact, and
    independent of the exact sequence.

    Each w is taken in its normal form modulo B^n (``Echelon.normal``), so
    the central relations (df, 0) hold by construction.  The pairs E are
    w0 + Z^n/B^n for each p in Z^{n-1} with Sq^2 p = dw0: at most
    2^(dim Z^{n-1} + dim Z^n - rank d_{n-1}) elements, which size_budget caps
    before any is built.  The closure visits |N| x #gens images, one
    generator per relative (n-2)-simplex.  N maps onto B^{n-1}, so
    2^(rank d_{n-2}) x #gens images are refused before any pair is built,
    and the closure stops once N alone shows more than size_budget images.
    Modulo B^n, p u_{n-2} q + q u_{n-2} p =
    d(p u_{n-1} q) for cocycles, so E is abelian, the closure N of (0, 0)
    under the (Sq^2 c, dc) generators is the relation subgroup, and the
    group has |E| / |N| classes.  The square (p u_{n-2} p, 0) of (w, p)
    depends on p alone and is additive in p, so the classes of order at
    most 2 number #{p : (p u_{n-2} p, 0) in N} * |Z^n/B^n| / |N|.

    The dims are read off the same counts, not off the exact sequence.  The
    solvable p form a subspace of Z^{n-1} that holds B^{n-1}, and its
    quotient is ker(Sq^2: H^{n-1} -> H^{n+1}) = SH^{n-1}, so dim SH is
    log2 of their number less rank d_{n-2}; rank phi is the number a of
    Z/4 summands, and dim QH is log2 of the order less dim SH.  Counts that
    fit no such dims raise InvariantViolation.

    Everything runs on bits.  The p are walked in Gray-code order, so p and
    its square each change by one XOR per step.  At the top degree (no
    (n+1)-simplex) Sq^2 p = 0, so every p is solvable with w0 = 0 and no
    Sq^2 p is taken; below it, each p is squared as a cochain.  The cup rows
    e* u_{n-2} dc of a generator (Sq^2 c, dc), one per relative
    (n-1)-simplex e, come from one walk over the n-simplices above supp(dc)
    (``cochains.cup_rows``) and are put in normal form once, so a closure
    step is one ``combine``.
    """
    x = pair.ambient

    # the kernel Z^{n-1} holds the p's and the echelon of d_{n-1} spans B^n;
    # wech also solves dw = Sq^2 p deterministically
    d_p, d_w = coboundary_bits(pair, n - 1), coboundary_bits(pair, n)
    bech, z_p = eliminate(d_p), nullspace(d_p)
    wech, z_w = eliminate(d_w), nullspace(d_w)
    check_budget(len(z_p) + len(z_w) - bech.rank, "pairs", size_budget)
    # the closure visits |N| x #gens images, and N maps onto B^{n-1}
    d_c = coboundary_bits(pair, n - 2)
    rank_dc = rank(d_c)
    check_budget(rank_dc, "relation images", size_budget, len(d_c))

    normal = bech.normal
    # an echelon of Z^n/B^n in normal form; sums of normal forms are normal
    quotient = eliminate([normal(z) for z in z_w])

    # one solution w0 per solvable p, and the square of each such p, in
    # Gray-code order: step a flips basis vector low_bit(a) of Z^{n-1}, and
    # the normal form of the square is additive in p
    sq_basis = []
    for z in z_p:
        zc = from_bits(pair, n - 1, z)
        sq_basis.append(normal(to_bits(pair, cup_i(zc, zc, n - 2))))
    top = n + 1 not in x.simplices_by_dim
    w0: Dict[int, int] = {}
    squares: List[int] = []
    pb = square = 0
    for a in range(1 << len(z_p)):
        if a:
            j = low_bit(a)
            pb ^= z_p[j]
            square ^= sq_basis[j]
        if top:
            w = 0
        else:
            rem, w = wech.reduce(to_bits(pair, sq(2, from_bits(pair, n - 1, pb))))
            if rem:
                continue
            w = normal(w)
        w0[pb] = w
        squares.append(square)
    solvable = len(w0).bit_length() - 1
    if 1 << solvable != len(w0):
        raise InvariantViolation(f"{len(w0)} solvable p do not form a subspace")

    def land(w: int, p: int) -> None:
        """Refuse a normal-form pair (w, p) outside E."""
        w0p = w0.get(p)
        if w0p is None or quotient.reduce(w ^ w0p)[0]:
            raise InvariantViolation("a relation image or product is missing "
                                     "from the enumerated quotient")

    # the (Sq^2 c, dc) generators and their cup rows e* u_{n-2} dc, one per
    # relative (n-1)-simplex e, each in normal form: normal is linear, so
    # the cross term p u_{n-2} dc of an image needs no normal of its own
    gens: List[Tuple[int, int, List[int]]] = []  # (w bits, p bits, cup rows)
    for t, rp in zip(pair.relative_simplices(n - 2), d_c):
        gens.append((normal(to_bits(pair, sq(2, dual_cochain(x, t)))), rp,
                     [normal(r) for r in cup_rows(pair, n - 1, n - 2, rp)]))

    # each element of N is popped once and visits every generator
    most = size_budget // max(len(gens), 1)
    relations = {(0, 0)}
    stack = [(0, 0)]
    while stack:
        if len(relations) > most:
            raise BudgetExceeded(f"over {most} x {len(gens)} relation images "
                                 f"exceed the budget {size_budget}")
        wb, pb = stack.pop()
        for rw, rp, rows in gens:
            image = (wb ^ rw ^ combine(rows, pb), pb ^ rp)
            if image not in relations:
                land(*image)
                relations.add(image)
                stack.append(image)

    trivial_squares = 0
    for sqw in squares:
        land(sqw, 0)
        trivial_squares += (sqw, 0) in relations
    size, r1 = divmod(len(w0) << quotient.rank, len(relations))
    involutions, r2 = divmod(trivial_squares << quotient.rank, len(relations))
    if r1 or r2:
        raise InvariantViolation(f"{len(relations)} relations do not divide "
                                 "the pairs and their square roots of 1")
    s = size.bit_length() - 1
    t_log = involutions.bit_length() - 1
    a = s - t_log
    b = 2 * t_log - s
    if not ((1 << s) == size and (1 << t_log) == involutions and a >= 0 and b >= 0):
        raise InvariantViolation(f"{size} classes with {involutions} involutions "
                                 "is not (Z/4)^a + (Z/2)^b")
    sh = solvable - rank_dc
    qh = s - sh
    if a > sh or a > qh:
        raise InvariantViolation(f"(Z/4)^{a} does not fit dim SH = {sh} "
                                 f"and dim QH = {qh}")
    return GGroupStructure(
        n=n,
        dims=(qh, sh, a),
        summands=(4,) * a + (2,) * b,
        order=size,
    )


# -- quadratic functions as linear functionals -----------------------------------------------------


def quad_to_linear(q: QuadraticFunction) -> Callable[[GPair], Fraction]:
    """L_Q(w, p) = Q(p) + (1/2) int w, an R/Z-valued functional on G-pairs."""
    from .quadratic import eval_quadratic

    m = q.manifold

    def functional(a: GPair) -> Fraction:
        if a.pair.ambient is not m.complex:
            raise PairMismatch("pair lives on a different complex")
        return (eval_quadratic(q, a.p).rmodz + _mode(a.mode).integral(m, a.w)) % 1

    return functional


def linear_to_quad(m: ManifoldPair, mode: str,
                   functional: Callable[[GPair], Fraction]) -> QuadraticFunction:
    """Inverse bridge: read Q off the functional via Q(p_j) = L(0, p_j).

    A value off (1/4)Z/Z is refused; in spin mode an odd quarter is a
    ``ConstraintViolation`` of ``make_quadratic``."""
    from .quadratic import make_quadratic, quad_context

    ctx = quad_context(m)
    zero = zero_cochain(m.complex, m.n, _mode(mode).ring)
    values = []
    for j, p in enumerate(ctx.solver.basis):
        quarters = Fraction(functional(GPair(m.pair, m.n, mode, zero, p))) % 1 * 4
        if quarters.denominator != 1:
            raise ValueError(f"L(0, p_{j}) = {quarters / 4} is not a multiple of 1/4")
        values.append(int(quarters))
    return make_quadratic(m, mode, values)


# -- spin profile -------------------------------------------------------------


class SpinProfile(NamedTuple):
    """Structural report for G_n^spin: exact-sequence terms, resolved only
    when no divisible summand can occur."""

    n: int
    sh_dim: int
    hn_f2_dim: int
    sq2_into_hn_rank: int
    resolved: bool
    summands: Optional[Tuple[int, ...]]
    note: str


def g_spin_profile(m, n: int) -> SpinProfile:
    """The G_n^spin sequence terms of a pair or a ManifoldPair, resolved at
    the top degree of a connected nonorientable manifold, where
    H^n(M, bd M; R/Z) = Hom(H_n; R/Z) = 0 leaves SH^{n-1}.  Connectedness
    (dim H^0(M) = 1, from ``m.absolute()``) is read only in that case."""
    pair = m.pair if isinstance(m, ManifoldPair) else m
    data = _sequence_data(pair, n)
    top = isinstance(m, ManifoldPair) and n == m.n
    if top and not m.orientable and solver(m.absolute(), 0).dim == 1:
        resolved, summands = True, (2,) * data.sh_dim
        note = "QH^n(R/Z) vanishes; group is SH^{n-1}"
    else:
        resolved, summands = False, None
        note = ("orientable: H^n(M, bd M; R/Z) has a circle summand; unresolved"
                if top and m.orientable else
                "H^n(X; R/Z) carries a divisible summand or undetermined torsion; "
                "sequence terms reported, extension unresolved")
    return SpinProfile(
        n=n,
        sh_dim=data.sh_dim,
        hn_f2_dim=data.s_n.dim,
        sq2_into_hn_rank=data.b_rank,
        resolved=resolved,
        summands=summands,
        note=note,
    )
