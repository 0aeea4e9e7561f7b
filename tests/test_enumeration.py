import concurrent.futures
import itertools
import math
import subprocess
import sys
from collections import Counter
from types import SimpleNamespace

import pytest

import randic.bounds
import randic.enumeration
from randic import (DegreeChainCertificate, EnumerationSummary,
                    biregular_certificate, build_biregular, build_degree_chain,
                    canonical_graph6, chain_grid_check, degree_chain_certificate,
                    enumerate_graphs, extremal_scan, gap_positivity_check,
                    is_connected, lower_bound, randic_deviation, randic_direct,
                    to_graph6, upper_bound, verify_theorems)
from randic.enumeration import CheckResult, _walk

from conftest import (SRC_ENV, _naive_connected, complete_bipartite,
                      naive_graphs, star)


# ── Generator counts and oracle equivalence ───────────────────────────

def test_unconstrained_counts_match_closed_form():
    for n in range(1, 6):
        expected = 2 ** (n * (n - 1) // 2)
        assert sum(1 for _ in enumerate_graphs(n)) == expected


def test_connected_counts():
    # labeled connected graphs on 1..6 vertices (OEIS A001187)
    assert [sum(1 for _ in enumerate_graphs(n, connected=True))
            for n in range(1, 7)] == [1, 1, 4, 38, 728, 26704]


def test_seeded_connectivity_matches_naive():
    for n in range(1, 7):
        for min_degree in (None, 1):
            for g in enumerate_graphs(n, min_degree=min_degree):
                assert is_connected(g) == _naive_connected(n, g.edges)


def test_walk_key_is_histogram_and_connectivity():
    # the key is one-to-one with (per-edge degree-pair counts, connected)
    for n in range(1, 7):
        for min_degree in (None, 1):
            by_key, by_fact = {}, {}
            for edges, _, key, _ in _walk(n, None, min_degree, ()):
                deg = Counter(v for e in edges for v in e)
                fact = (frozenset(Counter(tuple(sorted((deg[u], deg[v])))
                                          for u, v in edges).items()),
                        _naive_connected(n, edges))
                assert by_key.setdefault(key, fact) == fact
                assert by_fact.setdefault(fact, key) == key


def _non_increasing(degrees):
    return all(a >= b for a, b in zip(degrees, degrees[1:]))


@pytest.mark.parametrize("connected", [None, True])
def test_sorted_walk_is_labeled_walk_with_sorted_degrees(connected):
    # the degree-sorted walk yields, in order, the labeled walk's graphs whose
    # degrees do not increase in label order, and its weights sum per key to
    # the labeled walk's graph counts
    for n in range(1, 7):
        for min_degree in (None, 1):
            labeled, expected = Counter(), []
            for edges, deg, key, weight in _walk(n, connected, min_degree,
                                                 ()):
                assert weight == 1
                labeled[key] += 1
                if _non_increasing(deg):
                    expected.append((sorted(edges), deg, key))
            weighted, leaves = Counter(), []
            for edges, deg, key, weight in _walk(n, connected, min_degree,
                                                 (), ordered=True):
                weighted[key] += weight
                leaves.append((sorted(edges), deg, key))
            assert leaves == expected
            assert weighted == labeled


def test_sorted_walk_weights_count_labeled_graphs():
    # labeled graphs on 2..7 vertices with no isolated vertex (OEIS A006129)
    # and connected (OEIS A001187)
    for connected, counts in (
            (None, [1, 4, 41, 768, 27449, 1887284]),
            (True, [1, 4, 38, 728, 26704, 1866256])):
        assert [sum(weight for *_, weight in _walk(n, connected, 1, (),
                                                   ordered=True))
                for n in range(2, 8)] == counts


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


@pytest.mark.parametrize("n", [0, 10, -1])
def test_vertex_cap(n):
    with pytest.raises(ValueError):
        list(enumerate_graphs(n))


def test_negative_min_degree_refused():
    with pytest.raises(ValueError, match="min_degree must be non-negative"):
        list(enumerate_graphs(3, min_degree=-1))


def _walk_items(n, connected, min_degree, prefix, ordered):
    # the walk's items, each with a copy of its edge list
    return [(tuple(edges), deg, key, weight) for edges, deg, key, weight
            in _walk(n, connected, min_degree, prefix, ordered)]


def test_prefix_partitions_cover_disjointly():
    full = set(_walk_items(4, None, 1, (), False))
    parts = []
    for idx in range(8):
        prefix = tuple((idx >> (2 - b)) & 1 for b in range(3))
        parts.append(set(_walk_items(4, None, 1, prefix, False)))
    union = set()
    for part in parts:
        assert not (union & part)
        union |= part
    assert union == full


@pytest.mark.parametrize("ordered", [False, True], ids=["labeled", "sorted"])
def test_pinned_walk_is_unpinned_walk_with_those_first_bits(ordered):
    # a prefix pins the first bits, in graph6 pair order, and nothing else:
    # the pinned walk yields, in order, the unpinned walk's items whose
    # first bits match, and the connected filter keeps the graphs the
    # naive search calls connected, the key's bit 0
    for n in range(1, 7):
        pairs = [(i, j) for j in range(1, n) for i in range(j)]
        prefixes = [prefix for k in range(1, min(3, len(pairs)) + 1)
                    for prefix in itertools.product((0, 1), repeat=k)]
        for min_degree in (None, 1):
            every = _walk_items(n, None, min_degree, (), ordered)
            linked = [_naive_connected(n, edges) for edges, *_ in every]
            assert [key & 1 for _, _, key, _ in every] == linked
            # each item's first three bits
            heads = [tuple(int(e in edges) for e in pairs[:3])
                     for edges, *_ in every]
            for connected in (None, True, False):
                kept = [i for i, c in enumerate(linked)
                        if connected in (None, c)]
                assert _walk_items(n, connected, min_degree, (), ordered) == [
                    every[i] for i in kept]
                for prefix in prefixes:
                    assert _walk_items(n, connected, min_degree, prefix,
                                       ordered) == [
                        every[i] for i in kept
                        if heads[i][:len(prefix)] == prefix]


def test_prefix_validation():
    with pytest.raises(ValueError):
        list(_walk(3, None, None, (0, 1, 0, 1)))
    with pytest.raises(ValueError):
        list(_walk(3, None, None, (2,)))


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
        extremal_scan(10)


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


@pytest.mark.parametrize("n_max, jobs", [(n, 1) for n in range(2, 7)] + [(7, 2)])
def test_verify_and_scan_count_the_same_graphs(n_max, jobs):
    # the bound checks cover every graph with d < D, the upper one only the
    # connected ones, and so do the scan's classes and its connected classes
    checked = {c.name: c.checked for c in verify_theorems(n_max, jobs=jobs).checks}
    for name, connected_only in (("lower-bound", False), ("upper-bound", True)):
        scan = extremal_scan(n_max, connected_only=connected_only, jobs=jobs)
        assert checked[name] == sum(s.class_count for s in scan)
    if n_max >= 6:
        assert (checked["lower-bound"], checked["upper-bound"]) == {
            6: (28070, 27310), 7: (1914423, 1892740)}[n_max]


def _record_pools(monkeypatch, cpus, unsplit_max_n=6):
    """Let this process run on ``cpus`` CPUs, split every n above
    ``unsplit_max_n`` (6 by default, so that n = 7 exercises the split in
    seconds), and replace ProcessPoolExecutor by a stand-in that runs each
    task inline as it is submitted, so no process is started; returns the
    list the stand-in appends (pool size, task prefixes in the order
    submitted) to."""
    pools = []

    class RecordingExecutor:
        def __init__(self, max_workers):
            self.prefixes = []
            pools.append((max_workers, self.prefixes))

        def submit(self, fn, *task):
            self.prefixes.append(task[-1])
            future = concurrent.futures.Future()
            future.set_result(fn(*task))
            return future

        def shutdown(self, wait=True, *, cancel_futures=False):
            pass

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        RecordingExecutor)
    monkeypatch.setattr(randic.enumeration.os, "sched_getaffinity",
                        lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(randic.enumeration, "_UNSPLIT_MAX_N", unsplit_max_n)
    return pools


def test_pool_never_larger_than_task_list(monkeypatch):
    pools = _record_pools(monkeypatch, cpus=64,
                          unsplit_max_n=randic.enumeration._UNSPLIT_MAX_N)
    # n <= 7 is walked whole in this process whatever jobs asks for
    assert verify_theorems(7, jobs=64) == verify_theorems(7)
    assert extremal_scan(7, jobs=64) == extremal_scan(7)
    assert pools == []
    # split from n = 2 on, n = 2 has two prefix tasks, which bound the
    # pool and go to it last first
    monkeypatch.setattr(randic.enumeration, "_UNSPLIT_MAX_N", 1)
    assert verify_theorems(2, jobs=64) == verify_theorems(2)
    assert pools == [(2, [(1,), (0,)])]


def test_pool_map_keeps_task_order_and_reads_tasks_lazily(monkeypatch):
    pools = _record_pools(monkeypatch, cpus=64)
    tasks = [(7, (0,)), (5, ()), (7, (1,))] * 3
    read = []

    def stream():
        for task in tasks:
            read.append(task)
            yield task

    def echo(*task):
        return task

    # one job runs the tasks here, one at a time as results are taken
    results = randic.enumeration._pool_map(echo, stream(), 1)
    assert next(results) == tasks[0] and len(read) == 1
    assert [tasks[0], *results] == tasks
    assert pools == []
    # a pool of 2 holds at most 4 tasks in flight, handed out one at a time
    # in task order; the results come back in task order
    read.clear()
    results = randic.enumeration._pool_map(echo, stream(), 2)
    assert next(results) == tasks[0] and len(read) == 5
    assert [tasks[0], *results] == tasks
    assert pools == [(2, [task[-1] for task in tasks])]


def test_dead_worker_breaks_the_pool():
    # a worker that exits takes its task's result with it; the runner raises
    # BrokenProcessPool on the next result rather than waiting for it for
    # good, which the timeout would turn into a failure here
    code = ("import os\n"
            "from randic.enumeration import _pool_map\n"
            "list(_pool_map(os._exit, [(1,)] * 3, 2))")
    proc = subprocess.run([sys.executable, "-c", code], env=SRC_ENV,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "BrokenProcessPool" in proc.stderr


@pytest.mark.parametrize("affinity", [True, False], ids=["affinity", "cpu-count"])
def test_jobs_capped_at_usable_cpus(monkeypatch, affinity):
    # uncapped, a million jobs would split n = 7 into 2^21 prefix tasks and
    # ask for a pool of 10^6 processes
    pools = _record_pools(monkeypatch, cpus=3)
    if not affinity:
        monkeypatch.delattr(randic.enumeration.os, "sched_getaffinity",
                            raising=False)
        monkeypatch.setattr(randic.enumeration.os, "cpu_count", lambda: 3)
    assert verify_theorems(7, jobs=10 ** 6) == verify_theorems(7, jobs=3)
    assert extremal_scan(7, jobs=10 ** 6) == extremal_scan(7, jobs=3)
    # 3 jobs split n = 7 into 16 prefix tasks, handed out one at a time from
    # the last, the all-ones prefix, whose partition is the heaviest
    last_first = list(itertools.product((0, 1), repeat=4))[::-1]
    assert last_first[0] == (1, 1, 1, 1)
    assert pools == [(3, last_first)] * 4


def test_pool_matches_one_process(monkeypatch, started_pools):
    # started_pools splits n = 7 into prefix tasks, so at 2 jobs a real pool
    # walks it; the faults hit only graphs with 16 or more edges, all at
    # n = 7, so each first counterexample is a graph some worker walked.
    # The upper-sign fault also reaches the chain grid, whose graphs past
    # (1, 3) have 16 or more edges.
    def dense(pairs):
        return sum(pairs.values()) >= 16

    _inject(monkeypatch, SimpleNamespace(
        offset=lambda pairs: 1e-6 if dense(pairs) else 0.0,
        lower=dense, upper=dense))
    serial = verify_theorems(7, jobs=1)
    assert {c.name for c in serial.checks if c.failures} == {
        "identity", "decomposition", "lower-bound", "upper-bound",
        "chain-grid"}
    assert verify_theorems(7, jobs=2) == serial
    for connected_only in (False, True):
        assert (extremal_scan(7, connected_only=connected_only, jobs=2)
                == extremal_scan(7, connected_only=connected_only, jobs=1))
    assert started_pools == [2, 2, 2]


def test_verify_json_shape(verify4):
    doc = verify4.to_json_dict()
    assert doc["ok"] is True
    assert doc["maxN"] == 4
    assert {c["name"] for c in doc["checks"]} >= {"identity", "lower-bound",
                                                  "chain-grid", "gap-positivity"}


def test_chain_grid_check_clean():
    result = chain_grid_check()
    assert result.checked == 10 and result.failures == 0


def test_chain_grid_check_fails_off_equality(monkeypatch):
    # K_{d,D}: connected, degree range [d, D], but every edge spans D - d
    # levels, so it meets the bound with neither the sign nor the certificate
    monkeypatch.setattr(randic.enumeration, "build_degree_chain",
                        lambda d, D: build_biregular(d, D, math.gcd(d, D)))
    assert chain_grid_check() == CheckResult(
        "chain-grid", 10, 10, to_graph6(build_biregular(1, 3)))


@pytest.mark.parametrize("name, fault", [
    ("degree_chain_certificate", lambda g: None),
    ("_upper_sign", lambda pairs, d, D: 1),
], ids=["no-certificate", "upper-sign"])
def test_chain_grid_check_needs_sign_and_certificate(monkeypatch, name, fault):
    # either decision alone fails every built chain
    monkeypatch.setattr(randic.bounds, name, fault)
    assert chain_grid_check() == CheckResult(
        "chain-grid", 10, 10, to_graph6(build_degree_chain(1, 3)))


def test_gap_positivity_check_clean():
    result = gap_positivity_check()
    assert result.checked == 10000 and result.failures == 0


def test_gap_positivity_check_reads_the_integer_grid(monkeypatch):
    gap = randic.enumeration.telescope_gap
    seen = []

    def record(*triple):
        seen.append(triple)
        return gap(*triple)

    monkeypatch.setattr(randic.enumeration, "telescope_gap", record)
    assert gap_positivity_check().failures == 0
    assert len(seen) == len(set(seen)) == 10000
    assert all(type(v) is int for triple in seen for v in triple)
    assert all(1 <= x < y < z <= 99 for x, y, z in seen)

    def failures_with(wrong):
        # the first triple's gap replaced by wrong(gap), every other kept
        monkeypatch.setattr(
            randic.enumeration, "telescope_gap",
            lambda *t: wrong(gap(*t)) if t == seen[0] else gap(*t))
        return gap_positivity_check().failures

    assert failures_with(lambda g: -1.0) == 1
    # positive, but off its product form by more than the tolerance
    assert failures_with(lambda g: g + 1e-9) == 1
    # zero, with the product-form comparison switched off
    monkeypatch.setattr(randic.enumeration, "IDENTITY_TOLERANCE", math.inf)
    assert failures_with(lambda g: 0.0) == 1


# ── Keyed evaluation against direct per-graph evaluation ──────────────

_CHECKS = ("identity", "decomposition", "lower-bound", "lower-equality",
           "upper-bound", "upper-equality", "star-baseline")


def _enumeration_order(g):
    # the enumerator walks the graph6 adjacency bits depth-first, 0 before 1
    present = set(g.edges)
    return tuple((i, j) in present for j in range(1, g.n) for i in range(j))


@pytest.fixture(scope="module")
def direct_facts():
    """Every graph with 2 <= n <= 6 and no isolated vertex, from the naive
    generator in the enumerator's order, with each quantity that a check
    compares computed on the graph itself."""
    facts = []
    for n in range(2, 7):
        for g in sorted(naive_graphs(n, min_degree=1), key=_enumeration_order):
            d, D = min(g.degrees), max(g.degrees)
            fact = SimpleNamespace(
                g=g, n=n, d=d, D=D, value=randic_direct(g).value,
                deviation=randic_deviation(g),
                connected=_naive_connected(n, g.edges))
            if d < D:
                fact.lb, fact.ub = lower_bound(n, d, D), upper_bound(n, d, D)
                # the decomposition's right-hand side, summed edge by edge
                c = math.sqrt(d * D) / (d + D)
                fact.rhs = c * n + math.fsum(
                    1 / math.sqrt(g.degrees[u] * g.degrees[v])
                    - c * (1 / g.degrees[u] + 1 / g.degrees[v]) for u, v in g.edges)
                fact.biregular = biregular_certificate(g) is not None
                fact.chain = degree_chain_certificate(g) is not None
            facts.append(fact)
    return facts


# Injected faults, each a function of the degree-pair histogram, and so of
# a walk key, through the edge count m: an offset added to the index on
# chosen keys, and sign helpers that report a violation (-1) on chosen keys.
def _faults(offset=0.0, lower=None, upper=None):
    return SimpleNamespace(
        offset=lambda pairs: offset if sum(pairs.values()) % 3 == 0 else 0.0,
        lower=lambda pairs: sum(pairs.values()) % 2 == lower,
        upper=lambda pairs: sum(pairs.values()) % 2 == upper)


_NO_FAULTS = _faults()
_OFFSETS = _faults(offset=1e-6)        # on m = 0 mod 3
_SIGNS = _faults(lower=0, upper=1)     # lower on even m, upper on odd m


def _inject(monkeypatch, faults):
    """Patch the library so that each fault hits the keys it chooses; the
    pool forks, so its workers see the patch too."""
    direct = randic.bounds.randic_direct
    lower, upper = randic.bounds._lower_sign, randic.bounds._upper_sign

    def offset_direct(g):
        rv = direct(g)
        return rv._replace(value=rv.value + faults.offset(g.pair_counts))

    monkeypatch.setattr(randic.bounds, "randic_direct", offset_direct)
    monkeypatch.setattr(randic.bounds, "_lower_sign", lambda pairs, d, D: (
        -1 if faults.lower(pairs) else lower(pairs, d, D)))
    monkeypatch.setattr(randic.bounds, "_upper_sign", lambda pairs, d, D: (
        -1 if faults.upper(pairs) else upper(pairs, d, D)))


def _direct_verify(facts, faults=_NO_FAULTS):
    """Every verify check run on every graph, counted the way
    verify_theorems reports them, with float comparisons at 1e-12 for the
    identities and 1e-9 for the bounds as the independent reference.  A
    check's counterexample is its first failing graph, in enumeration order,
    among the graphs whose degrees do not increase in label order."""
    counts = {name: [0, 0, None] for name in _CHECKS}

    def check(name, f, failed):
        entry = counts[name]
        entry[0] += 1
        if failed:
            entry[1] += 1
            if entry[2] is None and _non_increasing(f.g.degrees):
                entry[2] = to_graph6(f.g)

    for f in facts:
        pairs = f.g.pair_counts
        value = f.value + faults.offset(pairs)
        check("identity", f, abs(value - f.deviation) > 1e-12)
        root = math.sqrt(f.n - 1)
        is_star = f.g.m == f.n - 1 and f.D == f.n - 1
        check("star-baseline", f, value < root - 1e-9
              or (abs(value - root) <= 1e-9) != is_star)
        if f.d == f.D:
            continue
        check("decomposition", f, abs(value - f.rhs) > 1e-12)
        lower = faults.lower(pairs)
        check("lower-bound", f, f.value < f.lb - 1e-9 or lower)
        check("lower-equality", f,
              (abs(f.value - f.lb) <= 1e-9 and not lower) != f.biregular)
        if f.connected:
            upper = faults.upper(pairs)
            check("upper-bound", f, f.value > f.ub + 1e-9 or upper)
            check("upper-equality", f,
                  (abs(f.value - f.ub) <= 1e-9 and not upper) != f.chain)
    return [CheckResult(name, *counts[name]) for name in _CHECKS]


# The injected faults make checks fail, so failure counts and first
# counterexamples are compared too: the index offset fails identity,
# star-baseline and decomposition on every third edge count, and the sign
# flags fail both bounds, and lower-equality wherever a certificate holds,
# at n >= 4, where a partition holds several failing keys.
@pytest.mark.parametrize("faults, failing", [
    (_NO_FAULTS, set()),
    (_OFFSETS, {"identity", "star-baseline", "decomposition"}),
    (_SIGNS, {"lower-bound", "lower-equality", "upper-bound"}),
], ids=["clean", "index-offset", "sign-flags"])
def test_verify_matches_direct_evaluation(direct_facts, monkeypatch, faults,
                                          failing):
    _inject(monkeypatch, faults)
    expected = _direct_verify(direct_facts, faults)
    assert {c.name for c in expected if c.failures} == failing
    for jobs in (1, 2):
        report = verify_theorems(6, jobs=jobs)
        assert report.graphs == len(direct_facts)
        assert list(report.checks[:len(_CHECKS)]) == expected


def test_verify_keeps_each_n_apart(direct_facts, monkeypatch):
    # a walk key is one-to-one only within one n: renumber each n's keys
    # from 0, so that every n reuses the same keys (jobs=1, one process)
    walk = randic.enumeration._walk
    ranks = {}

    def renumbered(n, *args, **kwargs):
        rank = ranks.setdefault(n, {})
        for edges, deg, key, weight in walk(n, *args, **kwargs):
            yield edges, deg, rank.setdefault(key, len(rank)), weight

    monkeypatch.setattr(randic.enumeration, "_walk", renumbered)
    faults = _faults(offset=1e-6, lower=0, upper=1)
    _inject(monkeypatch, faults)
    report = verify_theorems(6)
    assert report.graphs == len(direct_facts)
    assert list(report.checks[:len(_CHECKS)]) == _direct_verify(
        direct_facts, faults)
    assert extremal_scan(6) == _direct_scan(direct_facts, False, faults)


def _direct_scan(facts, connected_only, faults=_NO_FAULTS):
    """extremal_scan's records, computed graph by graph."""
    classes = {}
    for f in facts:
        if f.d < f.D and (f.connected or not connected_only):
            classes.setdefault((f.n, f.d, f.D), []).append(f)
    summaries = []
    for (n, d, D), members in sorted(classes.items()):
        low = min(f.value for f in members)
        high = max(f.value for f in members)
        summaries.append(EnumerationSummary(
            n=n, d=d, D=D, class_count=len(members),
            min_randic=low, max_randic=high,
            argmin_graph6=min(canonical_graph6(f.g) for f in members
                              if f.value == low),
            argmax_graph6=min(canonical_graph6(f.g) for f in members
                              if f.value == high),
            lower_violations=sum(f.value < f.lb - 1e-9
                                 or faults.lower(f.g.pair_counts)
                                 for f in members),
            upper_violations=sum(f.connected and (
                f.value > f.ub + 1e-9 or faults.upper(f.g.pair_counts))
                for f in members),
            lower_equality_witnesses=sum(f.biregular for f in members),
            upper_equality_witnesses=sum(f.connected and f.chain
                                         for f in members)))
    return summaries


@pytest.mark.parametrize("connected_only", [False, True])
def test_scan_matches_direct_evaluation(direct_facts, monkeypatch,
                                        connected_only):
    # the sign flags report violations on chosen keys, so both counters are
    # compared at distinct nonzero values
    for faults in (_NO_FAULTS, _SIGNS):
        with monkeypatch.context() as patch:
            _inject(patch, faults)
            expected = _direct_scan(direct_facts, connected_only, faults)
            lower = sum(s.lower_violations for s in expected)
            upper = sum(s.upper_violations for s in expected)
            if faults is _NO_FAULTS:
                assert (lower, upper) == (0, 0)
            else:
                assert 0 < lower != upper > 0
            for jobs in (1, 2):
                assert extremal_scan(6, connected_only=connected_only,
                                     jobs=jobs) == expected


def test_upper_equality_counted_per_graph(direct_facts, monkeypatch):
    # no graph with n <= 6 carries a chain certificate, so grant one to
    # every graph: each connected graph with d < D is then a witness, and
    # upper-equality fails wherever the upper slack is not zero; the pool
    # forks, so its workers see the patch too
    monkeypatch.setattr(randic.bounds, "degree_chain_certificate",
                        lambda g: DegreeChainCertificate(*g.degree_range, ()))
    chained = [SimpleNamespace(**{**vars(f), "chain": True}) if f.d < f.D
               else f for f in direct_facts]
    connected = Counter((f.n, f.d, f.D) for f in direct_facts
                        if f.d < f.D and f.connected)
    expected = _direct_verify(chained)
    assert expected[_CHECKS.index("upper-equality")].failures > 0
    for jobs in (1, 2):
        scan = extremal_scan(6, jobs=jobs)
        assert [s.upper_equality_witnesses for s in scan] == [
            connected[(s.n, s.d, s.D)] for s in scan]
        assert sum(s.upper_equality_witnesses for s in scan) > 0
        report = verify_theorems(6, jobs=jobs)
        assert list(report.checks[:len(_CHECKS)]) == expected
