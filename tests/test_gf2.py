"""The GF(2) elimination layer against brute-force enumeration.

Matrices are at most 8 x 8, so every claim is checked over all 2^cols
combinations of the columns.
"""

from functools import reduce
from operator import xor

from hypothesis import given, settings
from hypothesis import strategies as st

from pinquad._gf2 import eliminate, nullspace, rank, representatives, solve


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


@settings(max_examples=200, deadline=None)
@given(matrices)
def test_kernel_has_the_right_dimension_and_maps_to_zero(cols):
    ech, kernel = eliminate(cols)
    assert kernel == nullspace(cols)
    assert ech.rank == bf_rank(cols)
    assert len(kernel) == len(cols) - bf_rank(cols)
    assert independent(kernel)
    for t in kernel:
        assert t and t < 1 << len(cols)
        assert xor_of(cols, t) == 0


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
