"""The GF(2) elimination layer against brute force and an unskipped reference.

Matrices are at most 8 x 8, so most claims are checked over all 2^cols
combinations of the columns.  The highest-bit kernel pass is checked
against a lowest-bit kernel written out here, for arbitrary skip sets:
kernels do not depend on the pivot rule.  The two clearings, which skip
the columns at the top bits of the image of the operator one degree down,
are checked bit for bit against that whole kernel reduced in order onto
the unskipped boundary echelon, on random chain complexes and on
subdivided manifolds that the golden files do not cover.
"""

import random
from functools import reduce
from itertools import combinations
from operator import xor

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pinquad._gf2 import (
    combine, eliminate, nullspace, rank, representatives, solve, top_bits)
from pinquad.cochains import CohomologySolver, coboundary_bits, from_bits, to_bits
from pinquad.complexes import barycentric_subdivide, validate_manifold
from pinquad.fixtures import catalog


def vectors(rows, max_size=8):
    return st.lists(st.integers(0, (1 << rows) - 1), max_size=max_size)


matrices = st.integers(1, 8).flatmap(vectors)


def xor_of(vecs, bits):
    return reduce(xor, (v for j, v in enumerate(vecs) if (bits >> j) & 1), 0)


def span(vecs):
    return {xor_of(vecs, bits) for bits in range(1 << len(vecs))}


def bf_rank(vecs):
    return len(span(vecs)).bit_length() - 1


def independent(vecs):
    return len(span(vecs)) == 1 << len(vecs)


def low(x):
    return (x & -x).bit_length() - 1


def lowest_bit_elimination(columns, skip=()):
    """A lowest-bit elimination written out here: the rows keyed by their
    lowest bit, with their trackers, and the kernel trackers, one per
    column that reduces to zero, in column order."""
    rows = {}
    kernel = []
    for j, v in enumerate(columns):
        if j in skip:
            continue
        t = 1 << j
        while v and low(v) in rows:
            r, rt = rows[low(v)]
            v, t = v ^ r, t ^ rt
        if v:
            rows[low(v)] = (v, t)
        else:
            kernel.append(t)
    return rows, kernel


def lowest_bit_kernel(columns, skip=()):
    return lowest_bit_elimination(columns, skip)[1]


@settings(max_examples=200, deadline=None)
@given(matrices)
def test_kernel_has_the_right_dimension_and_maps_to_zero(cols):
    kernel = nullspace(cols)
    assert eliminate(cols).rank == bf_rank(cols)
    assert len(kernel) == len(cols) - bf_rank(cols)
    assert independent(kernel)
    for t in kernel:
        assert t and t < 1 << len(cols)
        assert xor_of(cols, t) == 0


@settings(max_examples=200, deadline=None)
@given(matrices.flatmap(lambda cols: st.tuples(
    st.just(cols), st.sets(st.integers(0, max(len(cols) - 1, 0))))))
def test_kernel_does_not_depend_on_the_pivot_rule(case):
    cols, skip = case
    kernel = nullspace(cols, skip)
    assert kernel == lowest_bit_kernel(cols, skip)
    kept = [c for j, c in enumerate(cols) if j not in skip]
    assert len(kernel) == len(kept) - bf_rank(kept)
    assert all(xor_of(cols, t) == 0 and not any((t >> j) & 1 for j in skip)
               for t in kernel)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([8, 64, 200]).flatmap(lambda r: vectors(r, 12)).flatmap(
    lambda cols: st.tuples(st.just(cols), st.sets(st.integers(0, 11)))))
def test_eliminate_is_the_written_out_lowest_bit_echelon(case):
    # rows and trackers bit for bit, on columns wider than a machine word
    cols, skip = case
    assert eliminate(cols, skip).rows == lowest_bit_elimination(cols, skip)[0]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8).flatmap(
    lambda r: st.tuples(vectors(r), st.integers(0, (1 << r) - 1))))
def test_solve_finds_a_solution_exactly_when_one_exists(case):
    rows, target = case
    x = solve(rows, target)
    if target in span(rows):
        assert x is not None and xor_of(rows, x) == target
    else:
        assert x is None


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2000).flatmap(lambda w: st.tuples(
    st.just(w), st.integers(0, (1 << w) - 1), st.booleans(), st.integers(0, 2 ** 32 - 1))))
@example((0, 0, False, 0))
@example((2000, 1 << 1999, True, 1))
def test_combine_is_the_xor_over_the_set_bits(case):
    # combine walks down from the top bit; the reference reads the set bits
    # off bin() from the low end
    width, bits, top, seed = case
    if top and width:
        bits |= 1 << (width - 1)
    rng = random.Random(seed)
    cols = [rng.getrandbits(96) for _ in range(width)]
    set_bits = [j for j, digit in enumerate(reversed(bin(bits)[2:])) if digit == "1"]
    assert combine(cols, bits) == reduce(xor, (cols[j] for j in set_bits), 0)


@settings(max_examples=200, deadline=None)
@given(matrices)
def test_rank_matches_brute_force(rows):
    assert rank(rows) == bf_rank(rows)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8).flatmap(
    lambda r: st.tuples(vectors(r, 6), vectors(r, 6))))
def test_representatives_are_a_basis_modulo_the_boundaries(case):
    boundaries, cycles = case
    shift = len(boundaries)
    ech, reps = representatives(boundaries, cycles, shift)
    both = span(boundaries + cycles)
    b_span = span(boundaries)

    # independent modulo the boundaries, and spanning the cycles modulo them
    assert len(reps) == bf_rank(boundaries + cycles) - bf_rank(boundaries)
    assert all(xor_of(reps, bits) not in b_span for bits in range(1, 1 << len(reps)))
    assert all(r in both for r in reps)

    # fully reduced against each other
    for i, ri in enumerate(reps):
        for j, rj in enumerate(reps):
            assert i == j or not (rj >> low(ri)) & 1

    # every cycle reduces onto the representatives and the boundaries
    mask = (1 << shift) - 1
    for z in cycles + boundaries:
        rem, track = ech.reduce(z)
        assert rem == 0
        assert xor_of(reps, track >> shift) ^ xor_of(boundaries, track & mask) == z


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8).flatmap(lambda r: st.tuples(
    vectors(r), st.integers(0, (1 << r) - 1), st.integers(0, 255))))
def test_normal_form_is_canonical_modulo_the_boundaries(case):
    boundaries, w, r = case
    ech = eliminate(boundaries)
    nf = ech.normal(w)
    moved = w ^ combine(boundaries, r & ((1 << len(boundaries)) - 1))
    assert ech.normal(moved) == nf
    assert not any((nf >> p) & 1 for p in ech.rows)
    assert nf ^ w in span(boundaries)
    # the only element of the coset with no bit at a pivot
    assert [v for v in (w ^ b for b in span(boundaries))
            if not any((v >> p) & 1 for p in ech.rows)] == [nf]


def reference_representatives(boundaries, columns, shift):
    """Without clearing: every kernel vector added in order, then reduced
    against each other until no representative has a bit at another's pivot.
    The kernel is the lowest-bit one written out here, not ``nullspace``."""
    ech = eliminate(boundaries)
    reps = [r for r in (ech.add(z)[0] for z in lowest_bit_kernel(columns)) if r]
    changed = True
    while changed:
        changed = False
        for i, ri in enumerate(reps):
            for j, rj in enumerate(reps):
                if i != j and (rj >> low(ri)) & 1:
                    reps[j] = rj ^ ri
                    changed = True
    for i, r in enumerate(reps):
        ech.rows[low(r)] = (r, 1 << (shift + i))
    return ech, reps


@st.composite
def relative_cochain_complexes(draw):
    """(d_{k-2}, d_{k-1}, d_k) over Z2 of a random relative complex (X, A)
    inside the simplex on 7 vertices, with the simplices of each degree
    shuffled."""
    def closure(simplices):
        return {frozenset(f) for s in simplices for r in range(1, len(s) + 1)
                for f in combinations(sorted(s), r)}

    tops = draw(st.lists(st.sets(st.integers(0, 6), min_size=2, max_size=4),
                         min_size=1, max_size=10))
    x = closure(tops)
    a = closure(draw(st.lists(st.sampled_from(sorted(x, key=sorted)), max_size=3)))
    k = draw(st.integers(1, max(map(len, tops)) - 1))
    cells = []
    for dim in (k - 2, k - 1, k, k + 1):
        cell = sorted((s for s in x - a if len(s) == dim + 1), key=sorted)
        cells.append(draw(st.permutations(cell)))

    def coboundary(lo, hi):
        index = {s: i for i, s in enumerate(hi)}
        return [sum(1 << index[t] for t in hi if s < t and len(t) == len(s) + 1)
                for s in lo]

    return (coboundary(cells[0], cells[1]), coboundary(cells[1], cells[2]),
            coboundary(cells[2], cells[3]))


@settings(max_examples=200, deadline=None)
@given(relative_cochain_complexes())
def test_cleared_representatives_match_the_unskipped_reference(case):
    _, boundaries, columns = case
    assert all(xor_of(columns, b) == 0 for b in boundaries)  # d d = 0
    shift = len(boundaries)
    survivors = nullspace(columns, top_bits(boundaries))
    ech, reps = representatives(boundaries, survivors, shift)
    ref_ech, ref_reps = reference_representatives(boundaries, columns, shift)
    assert reps == ref_reps
    assert ech.rows == ref_ech.rows
    # every cocycle the clearing keeps is a class
    assert len(survivors) == len(reps)


@settings(max_examples=200, deadline=None)
@given(relative_cochain_complexes())
def test_cleared_boundary_echelon_matches_the_unskipped_reference(case):
    below, boundaries, columns = case
    assert all(xor_of(boundaries, b) == 0 for b in below)  # d d = 0
    shift = len(boundaries)
    skip = top_bits(below)
    # one skipped boundary column per dimension of the image below
    # (below can have 21 columns, too many to enumerate its span)
    assert len(skip) == rank(below)
    assert all(j < shift for j in skip)
    ech, reps = representatives(boundaries, nullspace(columns), shift, skip)
    ref_ech, ref_reps = reference_representatives(boundaries, columns, shift)
    assert reps == ref_reps
    assert ech.rows == ref_ech.rows  # rows and trackers


@settings(max_examples=200, deadline=None)
@given(relative_cochain_complexes())
def test_skipping_the_top_bits_of_the_image_below_keeps_the_top_bits(case):
    below, boundaries, columns = case
    assert top_bits(boundaries, top_bits(below)) == top_bits(boundaries)
    assert top_bits(columns, top_bits(boundaries)) == top_bits(columns)


def _subdivided(name):
    m = catalog(name)
    return validate_manifold(barycentric_subdivide(m.complex).complex, m.n)


@pytest.mark.parametrize("name", ["rp2", "torus", "klein", "mobius", "sphere3"])
def test_solver_on_subdivisions_matches_the_unskipped_reference(name):
    """Bases and decompositions of seeded random cocycles, every degree."""
    pair = _subdivided(name).pair  # relative to the boundary for the strip
    rng = random.Random(name)
    for k in range(pair.ambient.dim + 1):
        below, columns = coboundary_bits(pair, k - 1), coboundary_bits(pair, k)
        shift = len(below)
        ref_ech, ref_reps = reference_representatives(below, columns, shift)
        solver = CohomologySolver(pair, k)
        assert [to_bits(pair, b) for b in solver.basis] == ref_reps
        for _ in range(5):
            bits = (xor_of(ref_reps, rng.getrandbits(len(ref_reps)))
                    ^ xor_of(below, rng.getrandbits(shift)))
            coords, pre = solver.decompose(from_bits(pair, k, bits))
            rem, track = ref_ech.reduce(bits)
            assert rem == 0
            assert coords == tuple((track >> shift + j) & 1 for j in range(len(ref_reps)))
            assert to_bits(pair, pre) == track & (1 << shift) - 1
