"""GF(2) linear algebra on int bitsets: the package's one elimination layer.

Vectors are Python ints; bit j is coordinate j.  No other module knows the
pivot rule: a stored row of an ``Echelon`` is keyed by its lowest set bit,
and columns are eliminated left to right in the order given.  Every basis,
kernel and certificate is read off this elimination, so they are
reproducible, and a change of pivot rule touches this module alone.

The cohomology solver's contract is two calls.
``cleared_kernel(boundaries, columns)`` is the clearing (twist) step: one
untracked pass over the boundaries, pivoting on the highest set bit, gives
P_B, the top bits of the boundary space B (it must lie in the kernel of
columns).  The columns are then eliminated with every index in P_B
skipped, and the ones that still reduce to zero give the kernel vectors
that survive.  Kernel vector k_j, the one with top bit j, is the unique
cocycle e_j + (earlier independent columns); it lies in B + span(k_i, i <
j) exactly when some boundary has top bit j, that is when j is in P_B.  A
skipped column is dependent, so it would have stored no row, and a skipped
k_j would have reduced to zero below and stored nothing: clearing removes
work, never a row, a tracker or a representative.

``representatives(boundaries, cycles, shift) -> (ech, reps)``: ``reps`` are
the cycles, in order, reduced against the boundaries and the earlier
representatives, the nonzero ones kept, then back-substituted so that none
has a bit at another's pivot.  ``ech`` holds the rows of
``eliminate(boundaries)``, tracked by column, and representative i, tracked
as bit ``shift + i``.  With ``shift = len(boundaries)``, a cycle z in the
span reduces to ``(0, t)`` with
``z == combine(reps, t >> shift) ^ combine(boundaries, t & (1 << shift) - 1)``.
"""

from __future__ import annotations

from typing import Container, List, Optional, Sequence, Tuple


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


def cleared_kernel(boundaries: Sequence[int], columns: Sequence[int]) -> List[int]:
    """The kernel vectors of columns that survive modulo the boundaries.

    The boundaries must lie in the kernel.  Kernel vector j (the one with
    top bit j) is dropped when j is the top bit of a boundary, and its
    column is never reduced: it lies in B + span(earlier kernel vectors),
    so ``representatives`` would reduce it to zero and store nothing.
    """
    top: dict[int, int] = {}  # the boundaries, pivoting on the highest bit
    for v in boundaries:
        while v:
            p = v.bit_length() - 1
            if p not in top:
                top[p] = v
                break
            v ^= top[p]
    return eliminate(columns, top)[1]


def representatives(boundaries: Sequence[int], cycles: Sequence[int],
                    shift: int) -> Tuple[Echelon, List[int]]:
    """Cycle classes modulo the boundaries, and one echelon onto both."""
    ech, _ = eliminate(boundaries)
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
