"""Acceptance suite: every release criterion, one test each, each printing a
pass line (run with ``pytest -s`` to see them).

The exhaustive sweeps cover all graphs without isolated vertices up to
RANDIC_MAX_N vertices (default 6, the tier-1 budget; CI sets RANDIC_MAX_N=8,
254,438,028 graphs, about 18 s single-threaded on a 2-vCPU Xeon).
"""

from __future__ import annotations

import math
import os
from math import comb, gcd

import pytest

from randic import (IDENTITY_TOLERANCE, Graph, bounds_report, build_biregular,
                    build_degree_chain, baseline_bound, extremal_scan,
                    lower_bound, parse_graph6, randic_direct, to_graph6,
                    upper_bound, verify_theorems)
from randic.cli import main

from conftest import naive_graphs

MAX_N = int(os.environ.get("RANDIC_MAX_N", "6"))
IDENTITY_TOL = 1e-12
SLACK_TOL = 1e-9


def _passed(criterion: str) -> None:
    print(f"[acceptance] {criterion}: PASS")


@pytest.fixture(scope="module")
def sweep():
    """One exhaustive pass over every graph with 2 <= n <= MAX_N and no
    isolated vertices: the bounds decided exactly, the float identities at
    the contract tolerance."""
    assert IDENTITY_TOLERANCE == IDENTITY_TOL
    report = verify_theorems(MAX_N)
    return {c.name: c for c in report.checks}, report


def _expected_graph_count(n_max: int) -> int:
    # inclusion-exclusion over forced-isolated vertex sets
    return sum(
        sum((-1) ** k * comb(n, k) * 2 ** comb(n - k, 2) for k in range(n + 1))
        for n in range(2, n_max + 1))


def test_criterion_1_identity_exhaustive(sweep):
    checks, report = sweep
    assert report.graphs == _expected_graph_count(MAX_N)
    c = checks["identity"]
    assert c.checked == report.graphs
    assert c.failures == 0, f"identity counterexample: {c.counterexample}"
    _passed(f"1 identity of both index forms, exhaustive n<={MAX_N} "
            f"({c.checked} graphs, tol {IDENTITY_TOL:g})")


def test_criterion_2_lower_bound_exhaustive(sweep):
    checks, _ = sweep
    bound = checks["lower-bound"]
    equality = checks["lower-equality"]
    assert bound.failures == 0, f"violation: {bound.counterexample}"
    assert equality.failures == 0, f"mismatch: {equality.counterexample}"
    assert bound.checked == equality.checked > 0
    _passed(f"2 lower bound + biregular equality, exhaustive n<={MAX_N} "
            f"({bound.checked} graphs with d<D)")


def test_criterion_3_decomposition_exhaustive(sweep):
    checks, _ = sweep
    c = checks["decomposition"]
    assert c.failures == 0, f"counterexample: {c.counterexample}"
    assert c.checked == checks["lower-bound"].checked
    _passed(f"3 cross-count decomposition identity and coefficient signs "
            f"({c.checked} graphs, tol {IDENTITY_TOL:g})")


def test_criterion_4_upper_bound_exhaustive(sweep):
    checks, _ = sweep
    bound = checks["upper-bound"]
    equality = checks["upper-equality"]
    assert bound.failures == 0, f"violation: {bound.counterexample}"
    assert equality.failures == 0, f"mismatch: {equality.counterexample}"
    assert bound.checked == equality.checked > 0
    _passed(f"4 upper bound + chain equality, exhaustive connected n<={MAX_N} "
            f"({bound.checked} graphs)")


def test_criterion_5_chain_construction_grid():
    for d in range(1, 10, 2):
        for D in range(d + 2, 10, 2):
            g = build_degree_chain(d, D)
            deg = g.degrees
            closed = upper_bound(g.n, d, D)
            assert abs(randic_direct(g).value - closed) <= IDENTITY_TOL
            cross = [(u, v) for u, v in g.edges if deg[u] != deg[v]]
            assert len(cross) == D - d
            assert all(abs(deg[u] - deg[v]) == 1 for u, v in cross)
    g13 = build_degree_chain(1, 3)
    assert g13.n == 9
    # frozen after recomputing the two-term closed form by hand
    two_term = 4.5 - 0.5 * ((1 - 1 / math.sqrt(2)) ** 2
                            + (1 / math.sqrt(2) - 1 / math.sqrt(3)) ** 2)
    assert abs(two_term - 4.448688404983744) <= 1e-15
    assert abs(randic_direct(g13).value - 4.448688404983744) <= IDENTITY_TOL
    _passed("5 chain construction closed form on the odd grid d<D<=9")


def test_criterion_6_sharpness_witnesses():
    for d in range(1, 9):
        for D in range(d + 1, 9):
            rep = bounds_report(build_biregular(d, D, gcd(d, D)))
            assert rep.lower_equality is not None, (d, D)
            assert rep.lower_sign == 0 and abs(rep.lower_slack) <= SLACK_TOL
    for d in range(1, 10, 2):
        for D in range(d + 2, 10, 2):
            rep = bounds_report(build_degree_chain(d, D))
            assert rep.upper_equality is not None, (d, D)
            assert rep.upper_sign == 0 and abs(rep.upper_slack) <= SLACK_TOL
    _passed("6 constructed witnesses certified tight (biregular d<D<=8, "
            "chains odd d<D<=9)")


def test_criterion_7_baselines(sweep):
    for d in range(1, 21):
        for D in range(d + 1, 21):
            for n in range(2, 101):
                assert lower_bound(n, d, D) >= baseline_bound(n, d, D)
    checks, _ = sweep
    star = checks["star-baseline"]
    assert star.failures == 0, f"counterexample: {star.counterexample}"
    assert star.checked == checks["identity"].checked
    _passed(f"7 bound dominates ratio baseline on the full grid; sqrt(n-1) "
            f"floor with star equality over {star.checked} graphs")


def test_criterion_8_gap_positivity(sweep):
    checks, _ = sweep
    c = checks["gap-positivity"]
    assert c.checked == 10000 and c.failures == 0
    _passed("8 telescoping gap positive and equal to product form "
            "(10000 integer triples on a fixed grid)")


def test_criterion_9a_graph6_roundtrip():
    count = 0
    for n in range(6):
        for g in naive_graphs(n):
            s = to_graph6(g)
            assert parse_graph6(s) == g
            assert to_graph6(parse_graph6(s)) == s
            count += 1
    _passed(f"9a graph6 round-trip identity, exhaustive n<=5 ({count} graphs)")


def test_criterion_9b_pruned_vs_naive():
    # the pruned degree-sorted walk against filter-after-generate: its
    # leaves are the naive graphs with no isolated vertex whose degrees do
    # not increase in label order, and its weights count all naive graphs
    from randic.enumeration import _walk
    for n in range(2, 6):
        for connected in (None, True):
            naive = list(naive_graphs(n, connected=connected, min_degree=1))
            leaves, weights = [], 0
            for edges, _, _, weight in _walk(n, connected, ()):
                leaves.append(to_graph6(Graph(n, edges)))
                weights += weight
            assert sorted(leaves) == sorted(
                to_graph6(g) for g in naive
                if all(a >= b for a, b in zip(g.degrees, g.degrees[1:])))
            assert weights == len(naive)
    _passed("9b pruned degree-sorted walk equals naive filter-after-generate "
            "on its leaves and weights, n<=5")


def test_criterion_9c_worker_invariance(started_pools):
    # started_pools splits n = 7, otherwise walked whole in this process,
    # across a real pool
    assert extremal_scan(7, jobs=1) == extremal_scan(7, jobs=2)
    assert verify_theorems(7, jobs=1) == verify_theorems(7, jobs=2)
    assert started_pools == [2, 2]
    _passed("9c scan and verify results identical for 1 vs 2 workers at n=7")


def test_criterion_9d_cli_verify_exits_zero(capsys):
    code = main(["verify", "--max-n", "6"])
    out = capsys.readouterr().out
    assert code == 0
    assert "all theorems verified" in out
    _passed("9d `randic verify --max-n 6` exits 0")
