"""GF(2) linear algebra on int bitsets.

Vectors are Python ints; bit j is coordinate j.  All routines are
deterministic: pivots are always the lowest set bit and rows are processed
in the order given.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple


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


def rank(rows: List[int]) -> int:
    ech = Echelon()
    for r in rows:
        ech.add(r)
    return ech.rank


def nullspace(columns: List[int]) -> List[int]:
    """Kernel of the linear map sending e_j to columns[j].

    Returns tracker bitsets t with XOR_j t_j * columns[j] == 0, in the
    deterministic order produced by eliminating columns left to right.
    """
    ech = Echelon()
    kernel = []
    for j, col in enumerate(columns):
        bits, track = ech.add(col, 1 << j)
        if bits == 0:
            kernel.append(track)
    return kernel


def solve(rows: List[int], target: int) -> Optional[int]:
    """Solve sum_j x_j * rows[j] == target; returns x bits or None."""
    ech = Echelon()
    for j, r in enumerate(rows):
        ech.add(r, 1 << j)
    bits, track = ech.reduce(target, 0)
    if bits:
        return None
    return track
