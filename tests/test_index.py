import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randic import Graph, randic_deviation, randic_direct

from conftest import complete, cycle, naive_graphs, path, star

SQRT2 = math.sqrt(2)
SQRT3 = math.sqrt(3)


@pytest.mark.parametrize("g, expected", [
    (Graph(2, ((0, 1),)), 1.0),
    (star(4), SQRT3),
    (cycle(5), 2.5),
    (path(3), SQRT2),
    (path(4), 2 / SQRT2 + 0.5),
])
def test_randic_direct_values(g, expected):
    assert randic_direct(g).value == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("g, expected", [
    (path(3), 1.5 - (1 - 1 / SQRT2) ** 2),       # = sqrt(2)
    (cycle(5), 2.5),
    (star(4), 2 - 1.5 * (1 - 1 / SQRT3) ** 2),   # = sqrt(3)
])
def test_randic_deviation_values(g, expected):
    assert randic_deviation(g) == pytest.approx(expected, abs=1e-12)
    assert randic_deviation(g) == pytest.approx(randic_direct(g).value, abs=1e-12)


def test_deviation_closed_forms_agree():
    assert 1.5 - (1 - 1 / SQRT2) ** 2 == pytest.approx(SQRT2, abs=1e-12)
    assert 2 - 1.5 * (1 - 1 / SQRT3) ** 2 == pytest.approx(SQRT3, abs=1e-12)


@pytest.mark.parametrize("g", [
    Graph(2, ((0, 1),)),
    star(9),
    complete(6),
    path(7),
])
def test_identity_residual_small(g):
    assert abs(randic_direct(g).value - randic_deviation(g)) <= 1e-12


def test_identity_residual_exhaustive_n4():
    for g in naive_graphs(4, min_degree=1):
        assert abs(randic_direct(g).value - randic_deviation(g)) <= 1e-12


def test_identity_residual_at_format_scale():
    # the contract covers graphs up to 62 vertices and degree 61
    from randic import build_biregular
    for g in (star(62), complete(62), build_biregular(30, 32, scale=2)):
        assert abs(randic_direct(g).value - randic_deviation(g)) <= 1e-12


@pytest.mark.parametrize("g, n", [
    (cycle(5), 5), (cycle(6), 6), (complete(4), 4), (complete(7), 7),
    # 3-regular cube graph
    (Graph(8, ((0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6), (6, 7), (4, 7),
               (0, 4), (1, 5), (2, 6), (3, 7))), 8),
])
def test_regular_graphs_give_half_n(g, n):
    assert randic_direct(g).value == pytest.approx(n / 2, abs=1e-12)
    assert randic_deviation(g) == pytest.approx(n / 2, abs=1e-12)


def test_pair_counts_star():
    rv = randic_direct(star(4))
    assert rv.pair_counts == {(1, 3): 3}
    assert rv.value == pytest.approx(3 / math.sqrt(3), abs=1e-15)


def test_rejects_isolated_and_empty():
    with pytest.raises(ValueError, match="isolated"):
        randic_direct(Graph(3, ((0, 1),)))
    with pytest.raises(ValueError, match="isolated"):
        randic_deviation(Graph(2, ()))
    with pytest.raises(ValueError):
        randic_direct(Graph(0, ()))


def positive_degree_graphs(max_n=7):
    def build(n):
        pairs = list(itertools.combinations(range(n), 2))
        return st.sets(st.sampled_from(pairs), min_size=1).map(
            lambda es: Graph(n, tuple(es)))
    return st.integers(2, max_n).flatmap(build).filter(
        lambda g: min(g.degrees) > 0)


@settings(max_examples=200)
@given(positive_degree_graphs())
def test_pair_counts_total_and_value(g):
    rv = randic_direct(g)
    assert sum(rv.pair_counts.values()) == g.m
    recomputed = math.fsum(c / math.sqrt(i * j)
                           for (i, j), c in rv.pair_counts.items())
    assert rv.value == pytest.approx(recomputed, abs=1e-12)
    assert abs(rv.value - randic_deviation(g)) <= 1e-12


@settings(max_examples=150)
@given(st.data())
def test_relabeling_invariance(data):
    g = data.draw(positive_degree_graphs())
    perm = data.draw(st.permutations(range(g.n)))
    h = g.relabel(perm)
    assert randic_direct(h).value == randic_direct(g).value
    assert randic_direct(h).pair_counts == randic_direct(g).pair_counts
