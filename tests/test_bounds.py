import math
import random
from collections import Counter
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from randic import (Graph, baseline_bound, bounds_report, build_biregular,
                    build_degree_chain, decomposition_residual,
                    enumerate_graphs, is_connected, lower_bound, telescope_gap,
                    upper_bound)
from randic.bounds import _lower_sign, _upper_sign

from conftest import (complete_bipartite, cycle, disjoint_union, exact_sign,
                      lower_slack_terms, path, star, upper_slack_terms)


# ── Bound formulas ────────────────────────────────────────────────────

def test_lower_bound_values():
    assert lower_bound(4, 1, 3) == pytest.approx(math.sqrt(3), abs=1e-15)
    assert lower_bound(5, 2, 3) == pytest.approx(math.sqrt(6), abs=1e-15)


def test_lower_bound_rejects_regular_and_bad_args():
    with pytest.raises(ValueError, match="d < D"):
        lower_bound(4, 3, 3)
    with pytest.raises(ValueError):
        lower_bound(1, 1, 2)
    with pytest.raises(ValueError):
        lower_bound(4, 0, 2)


def test_upper_bound_single_step():
    assert upper_bound(3, 1, 2) == pytest.approx(
        1.5 - 0.5 * (1 - 1 / math.sqrt(2)) ** 2, abs=1e-15)
    assert upper_bound(3, 1, 2) == pytest.approx(1.4571067811865475, abs=1e-12)


def test_upper_bound_two_steps():
    # frozen from the two-term sum evaluated by hand
    assert upper_bound(9, 1, 3) == pytest.approx(4.448688404983744, abs=1e-12)
    expected = 8.5 - 0.5 * ((1 / math.sqrt(3) - 0.5) ** 2
                            + (0.5 - 1 / math.sqrt(5)) ** 2)
    assert upper_bound(17, 3, 5) == pytest.approx(expected, abs=1e-13)


def test_upper_bound_rejects_regular():
    with pytest.raises(ValueError, match="d < D"):
        upper_bound(5, 2, 2)


def test_baseline_values():
    assert baseline_bound(4, 1, 3) == pytest.approx(1.0, abs=1e-15)
    assert baseline_bound(5, 2, 3) == pytest.approx(2.0, abs=1e-15)
    assert baseline_bound(6, 2, 2) == pytest.approx(3.0, abs=1e-15)  # = n/2


def test_lower_dominates_baseline_on_grid():
    for d in range(1, 21):
        for D in range(d + 1, 21):
            for n in (2, 17, 100):
                assert lower_bound(n, d, D) >= baseline_bound(n, d, D)


# ── Telescoping gap ───────────────────────────────────────────────────

def test_telescope_gap_perfect_squares():
    assert telescope_gap(1, 4, 9) == pytest.approx(1 / 6, abs=1e-12)


def test_telescope_gap_frozen_value():
    assert telescope_gap(1, 2, 3) == pytest.approx(0.07600960492156948, abs=1e-15)


def test_telescope_gap_positive_on_fractional_input():
    assert telescope_gap(1, 1.5, 2) > 0


@pytest.mark.parametrize("x, y, z", [(2, 1, 3), (1, 1, 2), (0.5, 1, 2), (1, 2, 2)])
def test_telescope_gap_rejects_bad_ordering(x, y, z):
    with pytest.raises(ValueError):
        telescope_gap(x, y, z)


@settings(max_examples=300)
@given(st.lists(st.floats(1, 100), min_size=3, max_size=3, unique=True))
def test_telescope_gap_matches_product_form(values):
    x, y, z = sorted(values)
    gap = telescope_gap(x, y, z)
    a, b, c = 1 / math.sqrt(x), 1 / math.sqrt(y), 1 / math.sqrt(z)
    assert gap == pytest.approx(2 * (a - b) * (b - c), abs=1e-12)
    assert gap >= 0
    # strictness needs the reciprocal roots to stay distinct in floats;
    # inputs one ulp apart can collapse to a gap of exactly zero
    assume(a > b > c)
    assert gap > 0


# ── Cross-count decomposition ─────────────────────────────────────────

def test_decomposition_residual_star():
    assert decomposition_residual(star(4)) <= 1e-12


def test_decomposition_residual_k23():
    assert decomposition_residual(complete_bipartite(2, 3)) <= 1e-12


def test_decomposition_residual_chain_graph():
    assert decomposition_residual(build_degree_chain(1, 3)) <= 1e-12


def test_decomposition_rejects_regular():
    with pytest.raises(ValueError, match="regular"):
        decomposition_residual(cycle(5))


def test_decomposition_coefficients_positive():
    # the coefficient sign pattern is asserted internally; a clean call on a
    # graph with every class populated exercises all pairs
    g = build_degree_chain(1, 3)   # degrees 1, 2, 3 all present
    assert decomposition_residual(g) <= 1e-12


# ── Bounds report ─────────────────────────────────────────────────────

def test_report_star_lower_equality(star4):
    rep = bounds_report(star4)
    assert (rep.n, rep.d, rep.D) == (4, 1, 3)
    assert rep.lower_slack == pytest.approx(0, abs=1e-9)
    assert (rep.lower_sign, rep.upper_sign) == (0, 1)
    assert rep.lower_equality is not None
    assert rep.upper_equality is None
    assert not rep.regular


def test_report_chain_upper_equality():
    rep = bounds_report(build_degree_chain(1, 3))
    assert rep.upper_slack == pytest.approx(0, abs=1e-9)
    assert (rep.lower_sign, rep.upper_sign) == (1, 0)
    assert rep.upper_equality is not None
    assert rep.lower_equality is None


def test_report_p4_strict():
    rep = bounds_report(path(4))
    assert rep.randic == pytest.approx(1.914213562373095, abs=1e-12)
    assert rep.lower == pytest.approx(1.8856180831641267, abs=1e-12)
    assert rep.lower_slack > 1e-3
    assert rep.upper_slack > 1e-3
    assert rep.lower_equality is None and rep.upper_equality is None


def test_report_regular_collapses(c5):
    rep = bounds_report(c5)
    assert rep.regular
    assert rep.randic == 2.5
    assert rep.lower == rep.upper == 2.5
    assert rep.lower_slack == 0 and rep.upper_slack == 0
    assert rep.lower_sign == rep.upper_sign == 0
    assert rep.lower_equality is None          # C5 is not bipartite
    assert rep.upper_equality is None


def test_report_regular_bipartite_has_lower_certificate():
    rep = bounds_report(cycle(6))
    assert rep.regular
    assert rep.lower_equality is not None
    assert (rep.lower_equality.a, rep.lower_equality.b) == (2, 2)


def test_report_disconnected_omits_upper():
    g = disjoint_union(star(4), cycle(4))      # d=1, D=3, disconnected
    rep = bounds_report(g)
    assert not rep.connected
    assert rep.upper is None and rep.upper_slack is None
    assert rep.upper_sign is None and rep.lower_sign == 1
    assert rep.upper_bound_omitted == "disconnected"
    assert rep.lower is not None


def test_report_rejects_isolated():
    with pytest.raises(ValueError, match="isolated"):
        bounds_report(Graph(3, ((0, 1),)))


def test_report_json_schema(star4):
    doc = bounds_report(star4).to_json_dict()
    assert set(doc) == {"n", "d", "D", "randic", "lowerBound", "upperBound",
                        "baseline", "lowerSlack", "upperSlack", "regular",
                        "connected", "lowerEquality", "upperEquality"}
    assert doc["lowerEquality"] == {"a": 1, "b": 3, "parts": [[1, 2, 3], [0]]}
    assert doc["upperEquality"] is None


def test_report_json_disconnected_flag():
    doc = bounds_report(disjoint_union(star(4), cycle(4))).to_json_dict()
    assert doc["upperBoundOmitted"] == "disconnected"
    assert doc["upperBound"] is None


def test_report_slacks_nonnegative_on_samples(k23):
    for g in (star(4), k23, path(4), path(7), cycle(6), build_degree_chain(3, 5)):
        rep = bounds_report(g)
        assert rep.lower_slack >= -1e-9
        if rep.upper_slack is not None:
            assert rep.upper_slack >= -1e-9
        assert rep.lower >= rep.baseline - 1e-12


# ── Exact signs against the Q(sqrt k) oracle ──────────────────────────

def test_lower_sign_decides_the_float_failing_key_without_a_graph():
    # the (1, 2)-biregular key of ``construct biregular 1 2 --scale
    # 3965070``: its float slack is below -1e-9, its exact sign 0
    pairs, n = {(1, 2): 7_930_140}, 11_895_210
    assert math.fsum([7_930_140 / math.sqrt(2)]) - lower_bound(n, 1, 2) < -1e-9
    assert _lower_sign(pairs, 1, 2) == 0
    assert exact_sign(lower_slack_terms(pairs, 1, 2)) == 0


def _signs(pairs, d, D, connected):
    """(lower, upper) signs from the helpers and from the oracle."""
    ours = (_lower_sign(pairs, d, D),
            _upper_sign(pairs, d, D) if connected else None)
    exact = (exact_sign(lower_slack_terms(pairs, d, D)),
             exact_sign(upper_slack_terms(pairs, d, D)) if connected else None)
    return ours, exact


def test_signs_match_oracle_on_every_small_key():
    keys = {}
    for n in range(2, 7):
        for g in enumerate_graphs(n, min_degree=1):
            d, D = g.degree_range
            if d < D:
                keys[frozenset(g.pair_counts.items()), is_connected(g)] = (d, D)
    seen = Counter()
    for (pairs, connected), (d, D) in keys.items():
        ours, exact = _signs(dict(pairs), d, D, connected)
        assert ours == exact, (dict(pairs), connected)
        seen.update(ours)
    # stars and K_{a,b} reach the lower bound; a chain needs n >= 9
    assert len(keys) == 130 and seen[0] > 0 and seen[1] > 0


def _seeded_graph(rng: random.Random, n: int) -> Graph:
    # a random recursive tree plus up to 2n random chords: connected, with
    # no isolated vertex and degrees spread over many classes
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    for _ in range(rng.randrange(2 * n)):
        edges.add(tuple(sorted(rng.sample(range(n), 2))))
    return Graph(n, tuple(sorted(edges)))


def test_signs_match_oracle_on_seeded_graphs():
    rng = random.Random(2017)
    checked = Counter()
    for _ in range(300):
        n = rng.randint(2, 62)
        g = _seeded_graph(rng, n)
        if n >= 4 and rng.random() < 0.3:
            k = rng.randint(2, n - 2)
            g = disjoint_union(_seeded_graph(rng, k), _seeded_graph(rng, n - k))
        d, D = g.degree_range
        if d < D:
            connected = is_connected(g)
            ours, exact = _signs(g.pair_counts, d, D, connected)
            assert ours == exact, g.edges
            checked[connected] += 1
    assert checked[True] > 100 and checked[False] > 30


def test_signs_match_oracle_on_constructions():
    for d in range(1, 10, 2):
        for D in range(d + 2, 12, 2):
            g = build_degree_chain(d, D)
            assert _signs(g.pair_counts, d, D, True) == ((1, 0), (1, 0))
    for d in range(1, 7):
        for D in range(d + 1, 8):
            for scale in (gcd(d, D), 2 * gcd(d, D)):
                g = build_biregular(d, D, scale)
                connected = is_connected(g)
                ours, exact = _signs(g.pair_counts, d, D, connected)
                assert ours == exact and ours[0] == 0, (d, D, scale)


def test_signs_refuse_what_their_argument_does_not_prove():
    # a degree level no edge crosses: the graph is disconnected
    with pytest.raises(ValueError, match="crossed by no edge"):
        _upper_sign({(1, 2): 1, (3, 3): 6}, 1, 3)
    with pytest.raises(ValueError, match="outside"):
        _lower_sign({(1, 2): 1}, 2, 3)
