"""The dual-graph route of the cohomology solver against the elimination.

At a degree with no relative (k+1)-simplex whose relative (k-1)-simplices
have at most two k-cofaces each, ``CohomologySolver`` reads its basis and
its coordinates off the dual graph.  Here each solver is compared with one
built on the same pair with that route switched off, which eliminates: the
bases, the coordinates of random cocycles, and the boundary echelon built on
the first decomposition (rows and trackers), in both read orders.
"""

import itertools
import random
from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinquad import cochains, errors
from pinquad.cochains import CohomologySolver, coboundary_bits, combine, dual_cochain, from_bits, to_bits
from pinquad.complexes import (
    ComplexPair,
    absolute_pair,
    barycentric_subdivide,
    build_complex,
    cone,
    face_closure,
    suspension,
    validate_manifold,
)
from pinquad.errors import BudgetExceeded, InvariantViolation, NotRelative
from pinquad.fixtures import CATALOG_NAMES, catalog


def eliminating_solver(pair, k):
    """The degree-k solver of a fresh copy of pair, with the dual-graph
    route switched off."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cochains, "_dual_graph", lambda pair, k: None)
        return CohomologySolver(ComplexPair(pair.ambient, pair.sub), k)


def random_cocycles(pair, reference, rng, count=4):
    """Cocycles sum a_j p_j + dc for random a and c: at a dual-graph degree,
    where every relative k-cochain is a cocycle, uniform over all of them."""
    k = reference.degree
    below = coboundary_bits(pair, k - 1)
    return [from_bits(pair, k, reference._cocycle_bits(rng.getrandbits(reference.dim))
                      ^ combine(below, rng.getrandbits(len(below))))
            for _ in range(count)]


def assert_routes_agree(pair, k, seed):
    """The degree-k solvers of fresh copies of pair equal the eliminating
    one, read basis first and decomposition first; returns whether they
    took the dual-graph route."""
    reference = eliminating_solver(pair, k)
    basis = [to_bits(pair, b) for b in reference.basis]
    cocycles = random_cocycles(reference.pair, reference, random.Random(seed))
    routes = set()
    for basis_first in (True, False):
        fresh = ComplexPair(pair.ambient, pair.sub)
        s = CohomologySolver(fresh, k)
        routes.add(s._class_bits is not None)
        if basis_first:
            assert [to_bits(fresh, b) for b in s.basis] == basis
            assert [s.coords(p) for p in cocycles] == [
                reference._decompose_bits(p)[0] for p in cocycles]
        else:
            assert [s._decompose_bits(p) for p in cocycles] == [
                reference._decompose_bits(p) for p in cocycles]
            assert [to_bits(fresh, b) for b in s.basis] == basis
        assert s._ech.rows == reference._ech.rows  # rows and trackers
        assert [s.coords(p) for p in cocycles] == [
            s._decompose_bits(p)[0] for p in cocycles]
    (dual,) = routes
    return dual


@lru_cache(maxsize=None)
def subdivided(name):
    m = catalog(name)
    return validate_manifold(barycentric_subdivide(m.complex).complex, m.n)


def catalog_pair(name, label):
    """A catalog pair, relative or absolute, or one over the subdivision,
    the cone or the suspension of its complex."""
    m = catalog(name)
    if label in ("sd", "sd-abs"):
        m, label = subdivided(name), label[2:]
    if label == "cone":
        return cone(m.complex).pair
    if label == "cone-abs":
        return absolute_pair(cone(m.complex).complex)
    if label == "suspension":
        return absolute_pair(suspension(m.complex).complex)
    return m.absolute() if label == "-abs" else m.pair


@pytest.mark.parametrize("label", ["", "-abs", "sd", "sd-abs", "cone", "cone-abs", "suspension"])
@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_top_degree_of_each_catalog_pair(name, label):
    pair = catalog_pair(name, label)
    assert assert_routes_agree(pair, pair.ambient.dim, f"{name}:{label}")


@st.composite
def two_complexes(draw):
    """A 2-complex with at most two triangles on each edge, a few stray
    edges, and a subcomplex: the closure of a few of its simplices, so it
    may hold triangles too."""
    v = draw(st.integers(3, 7))
    triangles, on_edge = [], Counter()
    for t in draw(st.lists(st.sampled_from(list(itertools.combinations(range(v), 3))),
                           min_size=1, max_size=12, unique=True)):
        edges = list(itertools.combinations(t, 2))
        if all(on_edge[e] < 2 for e in edges):
            on_edge.update(edges)
            triangles.append(t)
    strays = draw(st.lists(st.sampled_from(list(itertools.combinations(range(v), 2))),
                           max_size=3))
    x = build_complex(triangles + strays)
    sub = draw(st.lists(st.sampled_from(list(x.all_simplices())), max_size=5))
    return ComplexPair(x, face_closure(sub))


@settings(max_examples=150, deadline=None)
@given(two_complexes(), st.integers(0, 2 ** 32 - 1))
def test_random_two_complexes(pair, seed):
    for k in range(-1, 4):
        dual = assert_routes_agree(pair, k, seed)
        if k == 2 and pair.relative_simplices(2):
            assert dual
    # a cochain on a triangle of the subcomplex is refused by both routes
    inside = [s for s in pair.ambient.simplices(2) if pair.in_sub(s)]
    if inside and pair.relative_simplices(2):
        p = dual_cochain(pair.ambient, inside[0])
        with pytest.raises(NotRelative):
            CohomologySolver(pair, 2).coords(p)
        with pytest.raises(NotRelative):
            eliminating_solver(pair, 2)._decompose_bits(p)


def test_three_triangles_on_an_edge_eliminate():
    # the three pages on (0, 1), beside a tetrahedron boundary with one class
    x = build_complex([(0, 1, 2), (0, 1, 3), (0, 1, 4),
                       (5, 6, 7), (5, 6, 8), (5, 7, 8), (6, 7, 8)])
    pair = absolute_pair(x)
    assert not assert_routes_agree(pair, 2, 0)
    s = CohomologySolver(ComplexPair(x, ()), 2)
    assert s.dim == 1 and ("coboundary", 1) in s.pair.cache


def test_a_wrong_representative_is_caught_on_the_first_decomposition(monkeypatch):
    m = catalog("rp2")
    graph = cochains._dual_graph

    def shifted(pair, k):
        cocycles, reps, class_bits = graph(pair, k)
        return cocycles, [r >> 1 for r in reps], class_bits

    monkeypatch.setattr(cochains, "_dual_graph", shifted)
    s = CohomologySolver(ComplexPair(m.complex, ()), 2)
    assert s.dim == 1
    # the deferred echelon's check, not only the decomposition identity
    with pytest.raises(InvariantViolation, match="dual-graph representatives"):
        s.decompose(dual_cochain(m.complex, m.complex.simplices(2)[0]))


def test_the_operator_budget_refuses_only_the_decomposition(monkeypatch):
    m = catalog("torus")
    sd = validate_manifold(barycentric_subdivide(m.complex).complex, m.n)
    x = sd.complex
    size = len(x.simplices(1)) * ((len(x.simplices(2)) + 7) // 8)
    monkeypatch.setattr(errors, "OPERATOR_BUDGET", size - 1)
    pair = ComplexPair(x, ())
    s = CohomologySolver(pair, 2)
    assert s.dim == 1 and s.basis[0].values == {x.simplices(2)[-1]: 1}
    p = from_bits(pair, 2, random.Random(2).getrandbits(len(x.simplices(2))))
    assert s.coords(p) == len(p.values) % 2
    with pytest.raises(BudgetExceeded):
        s.decompose(p)
