"""GF(2) linear algebra on int bitsets: the package's one elimination layer.

Vectors are Python ints; bit j is coordinate j.  No other module knows the
pivot rule: a stored row of an ``Echelon`` is keyed by its lowest set bit,
and columns are eliminated left to right in the order given.  Every basis,
kernel and certificate is read off this elimination, so they are
reproducible, and a change of pivot rule touches this module alone.

``top_bits(columns)`` is the one other pass: untracked, pivoting on the
highest set bit, it returns P, the top bits of the span.  When the columns
are d_{k-1} of a chain complex, each j in P is the top bit of some b with
d_k b = 0, so column j of d_k is the XOR of earlier columns: the
elimination would reduce it to zero and store no row and no tracker.  That
is the clearing lemma (Bauer, Kerber and Reininghaus, "Clear and
compress", 2014).  The cohomology solver passes P as the ``skip`` of
``eliminate`` twice: P of d_{k-1} skips columns of d_k, and P of d_{k-2}
skips columns of d_{k-1} in the boundary echelon of ``representatives``.
In the first, kernel vector k_j (the unique cocycle e_j + earlier
independent columns) lies in B + span(k_i, i < j) exactly when j is in P,
so the kernel holds only the cocycles that survive as classes; in the
second, only the discarded kernel would have seen the skipped columns.
Clearing removes work, never a row, a tracker or a representative.

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
    """Index of the lowest set bit of a nonzero int."""
    return (x & -x).bit_length() - 1


class Echelon:
    """Incremental row-echelon form with optional tracking payloads.

    Each stored row is a pair (bits, track); track is an int bitset carrying
    an arbitrary linear bookkeeping that is XOR-combined alongside the row.
    """

    def __init__(self) -> None:
        self.rows: dict[int, Tuple[int, int]] = {}

    def reduce(self, bits: int, track: int = 0) -> Tuple[int, int]:
        """Reduce a vector against the stored rows; return the remainder."""
        while bits:
            p = low_bit(bits)
            row = self.rows.get(p)
            if row is None:
                return bits, track
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
    """XOR of cols[j] over the set bits j of bits."""
    out = 0
    while bits:
        low = bits & -bits
        out ^= cols[low.bit_length() - 1]
        bits ^= low
    return out


def eliminate(columns: Sequence[int],
              skip: Container[int] = ()) -> Tuple[Echelon, List[int]]:
    """Eliminate columns left to right, tracking column j as bit j.

    Returns the echelon of the column space and the kernel: the trackers t
    with XOR_j t_j * columns[j] == 0, in the order the columns produced them.
    The columns whose index is in skip are left out.
    """
    ech = Echelon()
    kernel = []
    for j, col in enumerate(columns):
        if j in skip:
            continue
        bits, track = ech.add(col, 1 << j)
        if bits == 0:
            kernel.append(track)
    return ech, kernel


def rank(rows: Sequence[int]) -> int:
    return eliminate(rows)[0].rank


def nullspace(columns: Sequence[int]) -> List[int]:
    """Kernel of the linear map sending e_j to columns[j]."""
    return eliminate(columns)[1]


def solve(rows: Sequence[int], target: int) -> Optional[int]:
    """Solve sum_j x_j * rows[j] == target; returns x bits or None."""
    bits, track = eliminate(rows)[0].reduce(target)
    return None if bits else track


def top_bits(columns: Sequence[int]) -> FrozenSet[int]:
    """The top bits of the span of columns: one untracked pass pivoting on
    the highest set bit.  Its size is the rank."""
    top: dict[int, int] = {}
    for v in columns:
        while v:
            p = v.bit_length() - 1
            if p not in top:
                top[p] = v
                break
            v ^= top[p]
    return frozenset(top)


def representatives(boundaries: Sequence[int], cycles: Sequence[int],
                    shift: int, skip: Container[int] = ()) -> Tuple[Echelon, List[int]]:
    """Cycle classes modulo the boundaries, and one echelon onto both.

    The boundary columns in skip must be dependent on earlier ones.
    """
    ech, _ = eliminate(boundaries, skip)
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
