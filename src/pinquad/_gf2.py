"""GF(2) linear algebra on int bitsets: the package's one elimination layer.

Vectors are Python ints; bit j is coordinate j.  Columns are eliminated
left to right in the order given, and no other module knows a pivot rule.
Two rules are used, each where it is cheapest or needed.

Most results do not depend on the pivot rule.  Column j is independent
when it is not in the span of the earlier columns left in; that greedy set
is a property of the columns and their order alone.  Each of these is the
unique combination of independent columns that it is:

- a kernel tracker of ``nullspace``: e_j plus the earlier independent
  columns that sum to the dependent column j;
- the answer of ``solve``: the independent rows that sum to the target;
- the rank, the number of independent columns, and ``top_bits``, the top
  bits of the span, which depend on the span alone.

So these run one pass pivoting on the highest set bit, which
``bit_length`` reads in O(1): tracked for ``nullspace`` and ``solve``,
untracked for ``top_bits`` and ``rank``.  The lowest-bit rule, which
allocates ints as wide as the vector to find each pivot (``low_bit``),
stays where the stored rows themselves are read: the ``Echelon`` of
``eliminate``.  Its rows key ``representatives`` (whose residuals fix the
cohomology bases and with them the golden files), the decompositions of
the cohomology solver, the G^pin engine and the normal form of the
brute-force oracle.  It is also the costliest pass, so the cohomology
solver runs it only when something reads it: in its constructor when
cocycles survive that it must reduce, else on its first decomposition.  A
degree where no class survives runs no lowest-bit pass until then, and
neither does a dual-graph degree (``cochains._dual_graph``): there d_k is 0
and each column of d_{k-1} has at most two bits, so the classes, their
representatives and their coordinates are read off a union-find.
A change of either rule touches this module alone.

Clearing.  When the columns are d_{k-1} of a chain complex, each j in P =
``top_bits(d_{k-1})`` is the top bit of some b with d_k b = 0, so column j
of d_k is the XOR of earlier columns: an elimination would reduce it to
zero and store no row.  That is the clearing lemma (Bauer, Kerber and
Reininghaus, "Clear and compress", 2014).  The cohomology solver passes P
as a ``skip`` three ways: P of d_{k-1} skips columns of d_k in
``nullspace``, and in ``top_bits`` of d_k, whose span it leaves unchanged;
P of d_{k-2} skips columns of d_{k-1} in the boundary echelon of
``representatives``.  In the kernel, tracker k_j lies in B + span(k_i,
i < j) exactly when j is in P, so the kernel holds only the cocycles that
survive as classes; in the boundary echelon, only the discarded kernel
would have seen the skipped columns.  Clearing removes work, never a row,
a tracker or a representative.

Every nonzero vector of an echelon's span has its lowest bit at a pivot,
so ``Echelon.normal`` picks one canonical element of each coset of the
span: the one with no bit at a pivot.  Two vectors are congruent modulo the
span exactly when their normal forms are equal.

``representatives(boundaries, cycles, shift, skip) -> (ech, reps)``:
``reps`` are the cycles, in order, reduced against the boundaries and the
earlier representatives, the nonzero ones kept, then back-substituted so
that none has a bit at another's pivot.  ``ech`` holds the rows of
``eliminate(boundaries, skip)``, tracked by column, and representative i,
tracked as bit ``shift + i``.  With ``shift = len(boundaries)``, a cycle z
in the span reduces to ``(0, t)`` with
``z == combine(reps, t >> shift) ^ combine(boundaries, t & (1 << shift) - 1)``.
"""

from __future__ import annotations

from typing import Container, FrozenSet, List, Optional, Sequence, Tuple


def low_bit(x: int) -> int:
    """Index of the lowest set bit of a nonzero int.

    x ^ (x - 1) sets the bits up to the lowest one; it makes one temporary
    as wide as x fewer than x & -x.
    """
    return (x ^ (x - 1)).bit_length() - 1


class Echelon:
    """Incremental row-echelon form with optional tracking payloads.

    Each stored row is a pair (bits, track); track is an int bitset carrying
    an arbitrary linear bookkeeping that is XOR-combined alongside the row.
    """

    def __init__(self) -> None:
        self.rows: dict[int, Tuple[int, int]] = {}

    def reduce(self, bits: int, track: int = 0) -> Tuple[int, int]:
        """Reduce a vector against the stored rows; return the remainder."""
        rows = self.rows
        while bits:
            row = rows.get((bits ^ (bits - 1)).bit_length() - 1)
            if row is None:
                break
            bits ^= row[0]
            track ^= row[1]
        return bits, track

    def normal(self, bits: int) -> int:
        """The normal form of bits modulo the span of the rows: the one
        element of bits + span with no bit at a pivot.  Linear in bits.

        Walks the set bits from the lowest up, XOR-ing in the row at each
        pivot (which changes only higher bits) and keeping each other bit.
        """
        out = 0
        while bits:
            low = bits & -bits
            row = self.rows.get(low.bit_length() - 1)
            if row is None:
                out |= low
                bits ^= low
            else:
                bits ^= row[0]
        return out

    def add(self, bits: int, track: int = 0) -> Tuple[int, int]:
        """Reduce then insert if independent; return the remainder pair."""
        bits, track = self.reduce(bits, track)
        if bits:
            self.rows[low_bit(bits)] = (bits, track)
        return bits, track

    @property
    def rank(self) -> int:
        return len(self.rows)


def combine(cols: Sequence[int], bits: int) -> int:
    """XOR of cols[j] over the set bits j of bits.

    Walks down from the top bit, whose index ``bit_length`` reads in O(1),
    so the mask narrows as it goes; clearing the lowest bit instead keeps
    it at full width and allocates ``-bits`` as wide at every step.
    """
    out = 0
    while bits:
        j = bits.bit_length() - 1
        out ^= cols[j]
        bits ^= 1 << j
    return out


def eliminate(columns: Sequence[int], skip: Container[int] = ()) -> Echelon:
    """The lowest-bit echelon of the columns, eliminated left to right with
    column j tracked as bit j.  The columns whose index is in skip are left
    out.  For echelons that outlive the call; ``nullspace`` gives kernels.
    """
    ech = Echelon()
    rows = ech.rows
    for j, v in enumerate(columns):
        if j in skip:
            continue
        track = 1 << j
        while v:
            p = (v ^ (v - 1)).bit_length() - 1
            row = rows.get(p)
            if row is None:
                rows[p] = (v, track)
                break
            v ^= row[0]
            track ^= row[1]
    return ech


def _tracked(columns: Sequence[int],
             skip: Container[int] = ()) -> Tuple[dict[int, Tuple[int, int]], List[int]]:
    """The tracked highest-bit pass: rows keyed by their top bit, and the
    kernel trackers, in the order the columns produced them."""
    rows: dict[int, Tuple[int, int]] = {}
    kernel = []
    for j, v in enumerate(columns):
        if j in skip:
            continue
        track = 1 << j
        while v:
            p = v.bit_length() - 1
            row = rows.get(p)
            if row is None:
                rows[p] = (v, track)
                break
            v ^= row[0]
            track ^= row[1]
        else:
            kernel.append(track)
    return rows, kernel


def nullspace(columns: Sequence[int], skip: Container[int] = ()) -> List[int]:
    """Kernel of the linear map sending e_j to columns[j], j not in skip:
    one tracker per dependent column j, e_j plus the earlier independent
    columns that sum to column j."""
    return _tracked(columns, skip)[1]


def nullspace_and_top_bits(columns: Sequence[int],
                           skip: Container[int] = ()) -> Tuple[List[int], FrozenSet[int]]:
    """``nullspace`` and ``top_bits`` of the same columns from one pass:
    its rows are keyed by their top bits, which are those of the span."""
    rows, kernel = _tracked(columns, skip)
    return kernel, frozenset(rows)


def rank(rows: Sequence[int]) -> int:
    return len(top_bits(rows))


def solve(rows: Sequence[int], target: int) -> Optional[int]:
    """Solve sum_j x_j * rows[j] == target over the independent rows;
    returns x bits or None."""
    pivots, _ = _tracked(rows)
    x = 0
    while target:
        row = pivots.get(target.bit_length() - 1)
        if row is None:
            return None
        target ^= row[0]
        x ^= row[1]
    return x


def top_bits(columns: Sequence[int], skip: Container[int] = ()) -> FrozenSet[int]:
    """The top bits of the span of the columns whose index is not in skip:
    one untracked pass pivoting on the highest set bit.  Its size is the
    rank."""
    top: dict[int, int] = {}
    for j, v in enumerate(columns):
        if j in skip:
            continue
        while v:
            p = v.bit_length() - 1
            row = top.get(p)
            if row is None:
                top[p] = v
                break
            v ^= row
    return frozenset(top)


def representatives(boundaries: Sequence[int], cycles: Sequence[int],
                    shift: int, skip: Container[int] = ()) -> Tuple[Echelon, List[int]]:
    """Cycle classes modulo the boundaries, and one echelon onto both.

    The boundary columns in skip must be dependent on earlier ones.
    """
    ech = eliminate(boundaries, skip)
    reps = [r for r in (ech.add(z)[0] for z in cycles) if r]
    pivots = [low_bit(r) for r in reps]
    # distinct pivots, so one pass in descending pivot order reduces fully
    for i in sorted(range(len(reps)), key=pivots.__getitem__, reverse=True):
        for j, r in enumerate(reps):
            if j != i and (r >> pivots[i]) & 1:
                reps[j] = r ^ reps[i]
    for i, (p, r) in enumerate(zip(pivots, reps)):
        ech.rows[p] = (r, 1 << (shift + i))
    return ech, reps
