import math

import pytest

import randic.enumeration
from randic import (canonical_graph6, chain_grid_check, enumerate_graphs,
                    extremal_scan, gap_positivity_check, to_graph6,
                    verify_theorems)

from conftest import complete_bipartite, naive_graphs, star


# ── Generator counts and oracle equivalence ───────────────────────────

def test_unconstrained_counts_match_closed_form():
    for n in range(1, 6):
        expected = 2 ** (n * (n - 1) // 2)
        assert sum(1 for _ in enumerate_graphs(n)) == expected


def test_connected_counts():
    assert sum(1 for _ in enumerate_graphs(4, connected=True)) == 38
    assert sum(1 for _ in enumerate_graphs(5, connected=True)) == 728


def test_min_degree_counts():
    # inclusion-exclusion over isolated-vertex sets gives 41 and 768
    assert sum(1 for _ in enumerate_graphs(4, min_degree=1)) == 41
    assert sum(1 for _ in enumerate_graphs(5, min_degree=1)) == 768


@pytest.mark.parametrize("constraints", [
    {},
    {"connected": True},
    {"connected": False},
    {"min_degree": 1},
    {"min_degree": 2},
    {"max_degree": 2},
    {"min_degree": 1, "max_degree": 3},
    {"connected": True, "min_degree": 2, "max_degree": 3},
])
def test_pruned_equals_naive_filter(constraints):
    for n in range(1, 6):
        pruned = set(enumerate_graphs(n, **constraints))
        naive = set(naive_graphs(n, **constraints))
        assert pruned == naive


def test_each_graph_yielded_once():
    graphs = list(enumerate_graphs(4))
    assert len(graphs) == len(set(graphs))


def test_deterministic_stream():
    first = [to_graph6(g) for g in enumerate_graphs(5, min_degree=1)]
    second = [to_graph6(g) for g in enumerate_graphs(5, min_degree=1)]
    assert first == second


def test_degrees_cache_consistent():
    for g in enumerate_graphs(4):
        deg = [0] * g.n
        for u, v in g.edges:
            deg[u] += 1
            deg[v] += 1
        assert g.degrees == tuple(deg)


@pytest.mark.parametrize("n", [0, 9, -1])
def test_vertex_cap(n):
    with pytest.raises(ValueError):
        list(enumerate_graphs(n))


def test_prefix_partitions_cover_disjointly():
    full = set(enumerate_graphs(4, min_degree=1))
    parts = []
    for idx in range(8):
        prefix = tuple((idx >> (2 - b)) & 1 for b in range(3))
        parts.append(set(enumerate_graphs(4, min_degree=1, prefix=prefix)))
    union = set()
    for part in parts:
        assert not (union & part)
        union |= part
    assert union == full


def test_prefix_validation():
    with pytest.raises(ValueError):
        list(enumerate_graphs(3, prefix=(0, 1, 0, 1)))
    with pytest.raises(ValueError):
        list(enumerate_graphs(3, prefix=(2,)))


# ── Canonical witness form ────────────────────────────────────────────

def test_canonical_form_identifies_relabeled_stars():
    g = star(4)
    forms = {canonical_graph6(g.relabel(p))
             for p in ([0, 1, 2, 3], [1, 0, 2, 3], [3, 2, 1, 0], [2, 3, 0, 1])}
    assert len(forms) == 1


# ── Extremal scan ─────────────────────────────────────────────────────

@pytest.fixture(scope="module")
def scan5():
    return extremal_scan(5, connected_only=True)


def test_scan_star_class_minimum(scan5):
    cls = next(s for s in scan5 if (s.n, s.d, s.D) == (4, 1, 3))
    assert cls.min_randic == pytest.approx(math.sqrt(3), abs=1e-12)
    assert cls.argmin_graph6 == canonical_graph6(star(4))
    # the four labeled stars are exactly the biregular witnesses
    assert cls.lower_equality_witnesses == 4


def test_scan_k23_class_minimum(scan5):
    cls = next(s for s in scan5 if (s.n, s.d, s.D) == (5, 2, 3))
    assert cls.min_randic == pytest.approx(math.sqrt(6), abs=1e-12)
    assert cls.argmin_graph6 == canonical_graph6(complete_bipartite(2, 3))


def test_scan_no_violations(scan5):
    assert all(s.lower_violations == 0 and s.upper_violations == 0
               for s in scan5)
    assert all(s.d < s.D for s in scan5)
    assert all(s.class_count > 0 for s in scan5)


def test_scan_includes_disconnected_when_not_restricted():
    unrestricted = extremal_scan(4)
    connected = extremal_scan(4, connected_only=True)
    totals_u = {(s.n, s.d, s.D): s.class_count for s in unrestricted}
    totals_c = {(s.n, s.d, s.D): s.class_count for s in connected}
    assert totals_u[(4, 1, 3)] >= totals_c[(4, 1, 3)]
    assert all(totals_u[k] >= totals_c.get(k, 0) for k in totals_u)
    assert sum(s.lower_violations + s.upper_violations for s in unrestricted) == 0


def test_scan_worker_count_invariance():
    for n, connected_only, jobs in ((5, False, 3), (6, True, 2)):
        serial = extremal_scan(n, connected_only=connected_only, jobs=1)
        parallel = extremal_scan(n, connected_only=connected_only, jobs=jobs)
        assert serial == parallel


def test_scan_rejects_large_n():
    with pytest.raises(ValueError):
        extremal_scan(9)


# ── Verification harness ──────────────────────────────────────────────

@pytest.fixture(scope="module")
def verify4():
    return verify_theorems(4)


def test_verify_small_is_clean(verify4):
    assert verify4.ok
    assert verify4.graphs == 1 + 4 + 41          # n = 2, 3, 4
    by_name = {c.name: c for c in verify4.checks}
    assert by_name["identity"].checked == 46
    assert by_name["identity"].failures == 0
    assert by_name["decomposition"].failures == 0
    assert by_name["lower-bound"].failures == 0
    assert by_name["lower-equality"].failures == 0
    assert by_name["upper-bound"].failures == 0
    assert by_name["upper-equality"].failures == 0
    assert by_name["star-baseline"].failures == 0
    assert all(c.counterexample is None for c in verify4.checks)


def test_verify_includes_edge_cases():
    report = verify_theorems(3)
    assert report.ok
    assert report.graphs == 1 + 4                # K2 plus the 4 graphs on 3 vertices


def test_verify_worker_count_invariance():
    assert verify_theorems(4, jobs=1) == verify_theorems(4, jobs=2)
    assert verify_theorems(5, jobs=1) == verify_theorems(5, jobs=3)


def test_pool_never_larger_than_task_list(monkeypatch):
    sizes = []

    class RecordingPool:
        """Stands in for multiprocessing.Pool: records its size, runs inline."""

        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, fn, tasks, chunksize=None):
            return [fn(*task) for task in tasks]

    monkeypatch.setattr(randic.enumeration, "Pool", RecordingPool)
    # n = 2 and n = 3 split into 2 + 8 prefix tasks whatever jobs asks for
    assert verify_theorems(3, jobs=64) == verify_theorems(3)
    assert extremal_scan(3, jobs=64) == extremal_scan(3)
    assert sizes == [10, 10]


def test_verify_json_shape(verify4):
    doc = verify4.to_json_dict()
    assert doc["ok"] is True
    assert doc["maxN"] == 4
    assert {c["name"] for c in doc["checks"]} >= {"identity", "lower-bound",
                                                  "chain-grid", "gap-positivity"}


def test_chain_grid_check_clean():
    result = chain_grid_check()
    assert result.checked == 10 and result.failures == 0


def test_gap_positivity_check_clean():
    result = gap_positivity_check(samples=2000)
    assert result.checked == 2000 and result.failures == 0
