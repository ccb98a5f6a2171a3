"""Correctness checks, computed apart from the program where it matters.

The mod-2 coboundary here is built from faces directly and the mod-2 rank
uses its own elimination (highest-bit pivots), so neither shares code with
pinquad's solver.  Every checker returns a list of problems; an empty list
means the result passed.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from pinquad.cochains import Cochain, Z2
from pinquad.errors import PinquadError

Simplex = Tuple[int, ...]

# Brown invariants in Z/8 of the pin quadratic functions of each surface:
# invariants of the surface, independent of the triangulation.
BROWN = {"rp2": [1, 7], "torus": [0, 0, 0, 4], "klein": [0, 0, 2, 6]}


def faces(s: Simplex) -> List[Simplex]:
    return [s[:j] + s[j + 1:] for j in range(len(s))]


class Coboundary:
    """Relative mod-2 coboundary of one pair, degree by degree."""

    def __init__(self, pair, top: int) -> None:
        self.pair = pair
        self.rel: Dict[int, Tuple[Simplex, ...]] = {
            k: tuple(s for s in pair.ambient.simplices(k) if s not in pair.sub)
            for k in range(top + 2)
        }
        self.cofaces: Dict[int, Dict[Simplex, List[Simplex]]] = {}
        for k in range(top + 1):
            table: Dict[Simplex, List[Simplex]] = {}
            for tau in self.rel[k + 1]:
                for f in faces(tau):
                    table.setdefault(f, []).append(tau)
            self.cofaces[k] = table

    def d(self, support: Iterable[Simplex], k: int) -> Set[Simplex]:
        out: Set[Simplex] = set()
        table = self.cofaces[k]
        for s in support:
            out.symmetric_difference_update(table.get(s, ()))
        return out

    def rank(self, k: int) -> int:
        """Rank of the coboundary from relative k- to (k+1)-cochains."""
        col = {s: j for j, s in enumerate(self.rel[k + 1])}
        rows = []
        for s in self.rel[k]:
            bits = 0
            for tau in self.cofaces[k].get(s, ()):
                bits |= 1 << col[tau]
            rows.append(bits)
        return gf2_rank(rows)

    def betti(self, n: int) -> List[int]:
        ranks = {k: self.rank(k) for k in range(n + 1)}
        return [len(self.rel[k]) - ranks[k] - (ranks[k - 1] if k else 0)
                for k in range(n + 1)]


def gf2_rank(rows: Sequence[int]) -> int:
    pivots: Dict[int, int] = {}
    for v in rows:
        while v:
            top = v.bit_length() - 1
            r = pivots.get(top)
            if r is None:
                pivots[top] = v
                break
            v ^= r
    return len(pivots)


def support(c) -> Set[Simplex]:
    return {s for s, v in c.values.items() if v % 2}


def relative_euler(pair, n: int) -> int:
    return sum((-1) ** k * sum(1 for s in pair.ambient.simplices(k) if s not in pair.sub)
               for k in range(n + 1))


def check_cohomology(label: str, cob: Coboundary, solvers, expected_betti: Sequence[int],
                     rng: random.Random, samples: int = 2) -> List[str]:
    """Betti numbers, Euler characteristic, closed relative bases, and exact
    decomposition certificates p = sum a_j p_j + dc."""
    problems = []
    n = len(solvers) - 1
    dims = [s.dim for s in solvers]
    if dims != list(expected_betti):
        problems.append(f"{label}: Betti numbers {dims}, base has {list(expected_betti)}")
    euler = relative_euler(cob.pair, n)
    if sum((-1) ** k * b for k, b in enumerate(dims)) != euler:
        problems.append(f"{label}: alternating Betti sum differs from chi = {euler}")
    for k, solver in enumerate(solvers):
        bases = [support(p) for p in solver.basis]
        for j, b in enumerate(bases):
            if any(s in cob.pair.sub for s in b):
                problems.append(f"{label}: basis cocycle {k}.{j} is not relative")
            if cob.d(b, k):
                problems.append(f"{label}: basis cocycle {k}.{j} is not closed")
        for _ in range(samples):
            coords = tuple(rng.randint(0, 1) for _ in bases)
            target: Set[Simplex] = set()
            for a, b in zip(coords, bases):
                if a:
                    target ^= b
            if k > 0:
                c0 = {s for s in cob.rel[k - 1] if rng.random() < 0.3}
                target ^= cob.d(c0, k - 1)
            p = Cochain(cob.pair.ambient, k, Z2, {s: 1 for s in target})
            try:
                got, cert = solver.decompose(p)
            except PinquadError as e:
                problems.append(f"{label}: degree {k} decompose failed ({e})")
                continue
            rebuilt: Set[Simplex] = set()
            for a, b in zip(got, bases):
                if a:
                    rebuilt ^= b
            if k > 0:
                rebuilt ^= cob.d(support(cert), k - 1)
            if tuple(got) != coords or rebuilt != target:
                problems.append(f"{label}: degree {k} certificate does not rebuild p")
    return problems


def check_profile(label: str, got, want) -> List[str]:
    """Two G-group structures agree, and the order is 2^(dim QH + dim SH)."""
    problems = []
    if got.profile() != want.profile() or got.order != want.order:
        problems.append(f"{label}: {got.profile()} (order {got.order}) "
                        f"!= {want.profile()} (order {want.order})")
    qh, sh, _ = got.dims
    if got.order != 1 << (qh + sh):
        problems.append(f"{label}: order {got.order} != 2^({qh}+{sh})")
    return problems


def check_brown(label: str, betas: Sequence[int]) -> List[str]:
    want = BROWN.get(label)
    if want is not None and sorted(betas) != want:
        return [f"{label}: Brown invariants {sorted(betas)} != {want}"]
    return []
