"""Exhaustive enumeration of small graphs, extremal scans, and the batch
verification harness.

``enumerate_graphs`` filters all 2^(n(n-1)/2) labeled graphs (no
isomorphism reduction) in graph6 bit order and shares no code with the walk
below, which the tests compare against it.  A best-effort canonical
relabeling is applied only to reported witness graphs.

Every per-graph check of the verification, and every scan statistic but the
extremal witnesses, is a function of n, the degree-pair histogram and
connectivity.  Relabeling a graph keeps these and permutes its degree
vector, and it maps the graphs with degree vector s one to one onto those
with any permutation of s.  So verify and the scan walk the upper-triangle
adjacency bits in graph6 order over only the graphs with no isolated vertex
whose degrees do not increase in label order, pruning a branch once some
vertex can no longer reach its successor's degree (the last vertex's
successor, a sentinel, has degree 1), and weight each by n!/prod(mult!),
the number of distinct permutations of its degree vector, where mult runs
over the multiplicities of its degree values.  At
each leaf the walk decides connectivity with the union-find of
``is_connected`` and computes one integer key that encodes the histogram
and connectivity.
A key's weights sum to its labeled graph count: n = 8 has 252,522,481
graphs with no isolated vertex, 585,786 degree-sorted ones and 4,860 keys.

Verify and the scan share one partition walk, ``_partition``, and one
driver, ``_fold``.  A partition builds a ``Graph`` only for a key's first
degree-sorted graph in enumeration order (and, for the scan, for a graph
that reaches or ties its class's running extreme); the driver merges the
partitions' keys by (n, key), and the caller evaluates each key once for the
whole run, weighting each outcome by the key's labeled graph count.  Both
read a key's index, bounds, their exact signs and equality certificates off
one ``bounds_report`` of its first graph, which is also a failing check's
counterexample.  The scan's witnesses are each class's least (R, graph6) and
(-R, graph6) pairs over its degree-sorted graphs.

The walk can be partitioned by fixing the first k edge bits; partitions are
processed independently, their key counts summed and their witness pairs
merged by min, so results do not depend on the worker count.  An n whose
whole walk costs less than starting a pool (n <= 7) is not partitioned,
and a run with no partitioned n starts no pool; otherwise every task, the
small n's whole walks too, goes to the workers, heaviest first, through
``_pool_map``, the one pool runner, which the CLI's graph6 reader shares.
It yields results in task order, and a worker that dies ends the run with
BrokenProcessPool rather than leaving it waiting for good.
"""

from __future__ import annotations

import math
import os
from collections import Counter, deque
from functools import lru_cache
from itertools import compress, islice, product, starmap
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from .bounds import bounds_report, decomposition_residual, telescope_gap
from .constructions import build_degree_chain
from .graphs import Graph, _columns, _graph_unchecked, _unite, is_connected, to_graph6
from .index import IDENTITY_TOLERANCE, randic_deviation, randic_direct

#: Hard cap on the vertex count.  n = 9 works but adds about 66.4 billion
#: labeled graphs (37,091,190 degree-sorted ones): ``verify --max-n 9`` on
#: 2 workers took 11.5 minutes wall (19 CPU-minutes) on a 2-vCPU Xeon, and
#: ``enumerate --max-n 9`` 13.8 minutes (23), against 4.1-4.5 s wall (7.6-8.1
#: CPU-s) for ``verify --max-n 8``.
MAX_VERTICES = 9

#: The largest n whose degree-sorted walk is never split, so that a run up
#: to it starts no pool: on n = 7 (15,822 leaves, about 0.17 s CPU) a
#: 2-worker pool spent 17-31% more CPU than one process for at most 12% less
#: wall, and one worker per CPU would cost more; n = 8 (585,786 leaves) is
#: the first worth splitting.
_UNSPLIT_MAX_N = 7


def enumerate_graphs(n: int, *, connected: Optional[bool] = None,
                     min_degree: Optional[int] = None) -> Iterator[Graph]:
    """Yield every labeled simple graph on n vertices, exactly once, in
    graph6 bit order: only the connected ones if ``connected`` is True, only
    the disconnected ones if False, and only those with every degree at
    least ``min_degree`` when it is given.  Requires 1 <= n <= MAX_VERTICES.
    """
    if not 1 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count must be in [1, {MAX_VERTICES}], got {n}")
    if min_degree is not None and min_degree < 0:
        raise ValueError(f"min_degree must be non-negative, got {min_degree}")
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    for bits in product((0, 1), repeat=len(pairs)):
        g = _graph_unchecked(n, *_columns(sorted(compress(pairs, bits))))
        if ((min_degree is None or min(g.degrees) >= min_degree)
                and (connected is None or is_connected(g) == connected)):
            yield g


@lru_cache(maxsize=None)
def _relabelings(degrees: tuple[int, ...]) -> int:
    """n!/∏ mult! over the repeated values of a degree vector: how many
    vectors its permutations give, and so how many labeled graphs share the
    key of a graph with these degrees in non-increasing order.  The cache
    holds at most one entry per non-increasing degree vector with
    n <= MAX_VERTICES."""
    return math.factorial(len(degrees)) // math.prod(
        math.factorial(c) for c in Counter(degrees).values())


def _walk(n: int, prefix: tuple[int, ...]) -> Iterator[tuple]:
    """The walk behind verify and the scan: (edges, degrees, key, weight)
    per graph on n >= 2 vertices with no isolated vertex whose degrees do
    not increase in label order.  ``prefix`` pins the first len(prefix)
    adjacency bits, in graph6 order: only the graphs with those bits are
    walked.

    ``edges`` is the walk's own unsorted list, valid until the next item,
    and ``degrees`` a tuple.  ``key`` is one-to-one, for this n, with the
    degree-pair histogram and connectivity: bit 0 is set iff the graph is
    connected, and above it each degree pair i <= j has one base-(n(n-1)/2
    + 1) digit counting its edges, which never carries.  ``weight`` is
    ``_relabelings`` of the degrees, so that the weights of a key sum to its
    labeled graph count.
    """
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    total = len(pairs)
    if len(prefix) > total or any(b not in (0, 1) for b in prefix):
        raise ValueError(f"prefix must be at most {total} bits of 0/1")
    digit = [[0] * n for _ in range(n)]  # digit[i][j]: one unit of pair (i, j)
    unit = 2
    for i in range(1, n):
        for j in range(i, n):
            digit[i][j] = digit[j][i] = unit
            unit *= total + 1
    # slot n is a sentinel, read as vertex n by v + 1 (degree 1, which
    # vertex n - 1 must reach) and as vertex -1 by u - 1 (n slots to go)
    deg = [0] * n + [1]
    rem = [n - 1] * n + [n]
    pin = [*prefix] + [None] * (total - len(prefix))  # None: both branches
    edges: list[tuple[int, int]] = []

    def rec(t: int) -> Iterator[tuple]:
        if t == total:
            # bit 0: is_connected's union-find and its refusal of m < n - 1
            key = int(len(edges) >= n - 1
                      and _unite(list(range(n)), edges, n - 1) == n - 1)
            for u, v in edges:
                key += digit[deg[u]][deg[v]]
            degrees = tuple(deg[:n])
            yield edges, degrees, key, _relabelings(degrees)
            return
        u, v = pairs[t]
        ru = rem[u] = rem[u] - 1
        rv = rem[v] = rem[v] - 1
        du, dv = deg[u], deg[v]
        bit = pin[t]
        # deg[a] + rem[a] >= deg[a + 1] holds for every a on entry: leaving
        # (u, v) out lowers deg + rem at u and v only; putting it in keeps
        # deg + rem but raises deg at u and v, which u - 1 and v - 1 read.
        # At a leaf, where rem is 0, it says that the degrees do not
        # increase and, through the sentinel, that no vertex is isolated.
        if bit != 1 and du + ru >= deg[u + 1] and dv + rv >= deg[v + 1]:
            yield from rec(t + 1)
        if bit != 0:
            deg[u] = du + 1
            deg[v] = dv + 1
            if deg[u - 1] + rem[u - 1] > du and deg[v - 1] + rem[v - 1] > dv:
                edges.append((u, v))
                yield from rec(t + 1)
                edges.pop()
            deg[u] = du
            deg[v] = dv
        rem[u] += 1
        rem[v] += 1

    yield from rec(0)


def canonical_graph6(g: Graph) -> str:
    """graph6 of the graph relabeled by (degree, sorted neighbor degrees).

    Best effort only: vertices still tied after the two-level key keep their
    relative order, so distinct labelings of highly symmetric graphs can map
    to different strings.  Good enough to deduplicate reported witnesses.
    """
    deg = g.degrees
    nbr_degs = [[] for _ in range(g.n)]
    for u, v in zip(g._us, g._vs):
        nbr_degs[u].append(deg[v])
        nbr_degs[v].append(deg[u])
    key = [(deg[v], sorted(ds)) for v, ds in enumerate(nbr_degs)]
    order = sorted(range(g.n), key=key.__getitem__)
    perm = [0] * g.n
    for new, old in enumerate(order):
        perm[old] = new
    return to_graph6(g.relabel(perm))


#: EnumerationSummary's JSON keys and CSV header, one per field in order.
CSV_COLUMNS = ("n", "d", "D", "classCount", "minR", "maxR", "argmin", "argmax",
               "lowerViolations", "upperViolations",
               "lowerEqualityWitnesses", "upperEqualityWitnesses")


class EnumerationSummary(NamedTuple):
    """Extremal statistics for one (n, d, D) class of enumerated graphs."""

    n: int
    d: int
    D: int
    class_count: int
    min_randic: float
    max_randic: float
    argmin_graph6: str
    argmax_graph6: str
    lower_violations: int
    upper_violations: int
    lower_equality_witnesses: int
    upper_equality_witnesses: int

    def to_json_dict(self) -> dict:
        return dict(zip(CSV_COLUMNS, self))


def _partition(n: int, connected: bool, witnesses: bool,
               prefix: tuple[int, ...]) -> tuple[dict, dict]:
    """({walk key: [first graph, graph count]}, {(d, D): [least (R, graph6),
    least (-R, graph6)]}) over the partition's degree-sorted graphs with no
    isolated vertex, connected if ``connected``; the second holds each class
    with d < D, and only when ``witnesses`` is true."""
    # walk key -> [first graph, graph count, R, its class's extremes], where
    # R and the extremes are None for a regular key, which belongs to no
    # class, and for every key when no witnesses are wanted
    keyed: dict[int, list] = {}
    extremes: dict[tuple[int, int], list] = {}
    for edges, deg, key, weight in _walk(n, prefix):
        if connected and not key & 1:
            continue
        g = None
        entry = keyed.get(key)
        if entry is None:
            g = _graph_unchecked(n, *_columns(sorted(edges)), deg)
            entry = keyed[key] = [g, 0, None, None]
            d, D = g.degree_range
            if witnesses and d < D:
                entry[2:] = (randic_direct(g).value,
                             extremes.setdefault((d, D), [(math.inf, "")] * 2))
        entry[1] += weight
        _, _, value, ext = entry
        # a graph is built and canonical_graph6 run only on a new or tied extreme
        if ext is not None and (value <= ext[0][0] or -value <= ext[1][0]):
            c6 = canonical_graph6(
                g or _graph_unchecked(n, *_columns(sorted(edges)), deg))
            ext[0] = min(ext[0], (value, c6))
            ext[1] = min(ext[1], (-value, c6))
    return {key: entry[:2] for key, entry in keyed.items()}, extremes


def _cap_jobs(jobs: int) -> int:
    """jobs, at most the CPUs this process may run on, which the CLI asks
    for unless ``--jobs`` says fewer; more would only add idle processes and
    prefix tasks.  Fewer than one job is refused."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    try:
        return min(jobs, len(os.sched_getaffinity(0)))
    except AttributeError:  # not on every platform
        return min(jobs, os.cpu_count() or 1)


def _pool_map(fn: Callable, tasks: Iterable[tuple], jobs: int) -> Iterator:
    """fn(*task) for every task, in task order: lazily in this process for
    at most one job, else on a pool of ``jobs`` worker processes, each task
    on its own, with at most 2 * jobs tasks in flight, so that tasks are
    read only as results are taken.  A worker that dies breaks the pool:
    the next result raises BrokenProcessPool instead of waiting for good.
    Closing the generator cancels the tasks no worker has started."""
    if jobs <= 1:
        yield from starmap(fn, tasks)
        return
    from concurrent.futures import ProcessPoolExecutor  # 20-35 ms to import
    tasks = iter(tasks)
    pool = ProcessPoolExecutor(jobs)
    try:
        pending = deque(pool.submit(fn, *task)
                        for task in islice(tasks, 2 * jobs))
        while pending:
            result = pending.popleft().result()
            pending.extend(pool.submit(fn, *task) for task in islice(tasks, 1))
            yield result
    finally:
        pool.shutdown(cancel_futures=True)


def _prefix_tasks(n: int, jobs: int) -> list[tuple[int, ...]]:
    """The prefixes that split n's walk for ``jobs`` workers: [()] (one
    unsplit walk) for one job or n <= _UNSPLIT_MAX_N, else every k-bit
    prefix, at least 4 per job."""
    if jobs <= 1 or n <= _UNSPLIT_MAX_N:
        return [()]
    k = min(n * (n - 1) // 2, (4 * jobs - 1).bit_length())
    return [tuple((idx >> (k - 1 - b)) & 1 for b in range(k))
            for idx in range(2 ** k)]


def _fold(n_max: int, jobs: int, connected: bool,
          witnesses: bool) -> tuple[dict, dict]:
    """Walk every n in [2, n_max], split for up to ``jobs`` workers, and
    merge the partitions: (n, walk key) -> [first graph, graph count], and
    (n, d, D) -> [least (R, graph6), least (-R, graph6)] for each class with
    d < D when ``witnesses`` is true.  Partitions merge in enumeration
    order, so each key keeps its first graph and the keys stay in order of
    first appearance."""
    if not 1 <= n_max <= MAX_VERTICES:
        raise ValueError(f"n_max must be in [1, {MAX_VERTICES}], got {n_max}")
    jobs = _cap_jobs(jobs)
    tasks = [(n, connected, witnesses, prefix) for n in range(2, n_max + 1)
             for prefix in _prefix_tasks(n, jobs)]
    # every task goes to _pool_map last first: a larger n is heavier, and
    # the degree-sorted walk puts the largest degrees on the lowest labels,
    # so an n's heaviest partitions come last in prefix order.  A pool
    # starts only when some n was split (n > _UNSPLIT_MAX_N).
    jobs = min(jobs, len(tasks)) if any(task[-1] for task in tasks) else 1
    results = reversed(list(_pool_map(_partition, tasks[::-1], jobs)))
    keyed: dict[tuple[int, int], list] = {}
    extremes: dict[tuple[int, int, int], list] = {}
    for (n, *_), (keys, part) in zip(tasks, results):
        for key, (g, graphs) in keys.items():
            keyed.setdefault((n, key), [g, 0])[1] += graphs
        for (d, D), (low, high) in part.items():
            ext = extremes.setdefault((n, d, D), [low, high])
            ext[0], ext[1] = min(ext[0], low), min(ext[1], high)
    return keyed, extremes


def extremal_scan(n_max: int, connected_only: bool = False,
                  jobs: int = 1) -> list[EnumerationSummary]:
    """Scan all classes (n, d, D) with d < D for n <= n_max and report
    per-class extremal statistics.  Violation counts must come back zero."""
    keyed, extremes = _fold(n_max, jobs, connected_only, True)
    # (n, d, D) -> [graphs, lower and upper violations, lower and upper
    # equality witnesses], from one report per key for the whole run
    counts = {cls: [0] * 5 for cls in extremes}
    for (n, _), (g, graphs) in keyed.items():
        d, D = g.degree_range
        if d == D:
            continue
        r = bounds_report(g)
        c = counts[n, d, D]
        c[0] += graphs
        if r.lower_sign < 0:
            c[1] += graphs
        if r.lower_equality is not None:
            c[3] += graphs
        if r.connected:
            if r.upper_sign < 0:
                c[2] += graphs
            if r.upper_equality is not None:
                c[4] += graphs
    summaries = []
    for (n, d, D), ((low, argmin), (high, argmax)) in sorted(extremes.items()):
        graphs, *tallies = counts[n, d, D]
        summaries.append(EnumerationSummary(n, d, D, graphs, low, -high,
                                            argmin, argmax, *tallies))
    return summaries


class CheckResult(NamedTuple):
    name: str
    checked: int
    failures: int
    counterexample: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.failures == 0


class VerificationReport(NamedTuple):
    max_n: int
    graphs: int
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "maxN": self.max_n,
            "graphs": self.graphs,
            "ok": self.ok,
            "checks": [c._asdict() for c in self.checks],
        }


_CHECK_NAMES = ("identity", "decomposition", "lower-bound", "lower-equality",
                "upper-bound", "upper-equality", "star-baseline")


def _graph_checks(g: Graph) -> Iterator[tuple[str, bool]]:
    """(check name, failed) for every per-graph check that applies to g.
    The bounds are decided by the report's exact signs; only the float
    identities and the star baseline compare floats."""
    r = bounds_report(g)
    value = r.randic
    yield "identity", abs(value - randic_deviation(g)) > IDENTITY_TOLERANCE

    root = math.sqrt(r.n - 1)
    is_star = g.m == r.n - 1 and r.D == r.n - 1
    star_equal = abs(value - root) <= IDENTITY_TOLERANCE
    yield "star-baseline", value < root - IDENTITY_TOLERANCE or star_equal != is_star

    if r.regular:
        return
    yield "decomposition", decomposition_residual(g) > IDENTITY_TOLERANCE
    yield "lower-bound", r.lower_sign < 0
    yield "lower-equality", (r.lower_sign == 0) != (r.lower_equality is not None)
    if r.connected:
        yield "upper-bound", r.upper_sign < 0
        yield "upper-equality", (r.upper_sign == 0) != (r.upper_equality is not None)


def chain_grid_check() -> CheckResult:
    """Verify the chain construction on every odd pair d < D <= 9: the
    built graph is connected, has degree range exactly [d, D], meets the
    upper bound by bounds_report's exact sign, and carries a chain
    certificate, which places its D - d unequal-degree edges one on each
    level.  No float decides it."""
    checked = 0
    failures = 0
    example = None
    for d in range(1, 10, 2):
        for D in range(d + 2, 10, 2):
            checked += 1
            g = build_degree_chain(d, D)
            r = bounds_report(g)
            if not ((r.d, r.D) == (d, D) and r.connected and r.upper_sign == 0
                    and r.upper_equality is not None):
                failures += 1
                if example is None:
                    example = to_graph6(g)
    return CheckResult("chain-grid", checked, failures, example)


def gap_positivity_check() -> CheckResult:
    """Confirm the telescoping gap is strictly positive and matches its
    product form within IDENTITY_TOLERANCE on a fixed grid of 10,000
    integer triples x < y < z: (i, i + j, i + j + k) for i, j in 1..20 and
    k in 1..25, which spans [1, 65]."""
    checked = 0
    failures = 0
    for x in range(1, 21):
        for y in range(x + 1, x + 21):
            for z in range(y + 1, y + 26):
                checked += 1
                gap = telescope_gap(x, y, z)
                a, b, c = 1 / math.sqrt(x), 1 / math.sqrt(y), 1 / math.sqrt(z)
                product = 2 * (a - b) * (b - c)
                if gap <= 0 or abs(gap - product) > IDENTITY_TOLERANCE:
                    failures += 1
    return CheckResult("gap-positivity", checked, failures)


def verify_theorems(n_max: int, jobs: int = 1) -> VerificationReport:
    """Run every per-graph check over all enumerated graphs with no isolated
    vertices and 2 <= n <= n_max, plus the chain-grid and gap-positivity
    batches.  A clean run reports zero failures everywhere."""
    keyed, _ = _fold(n_max, jobs, False, False)
    counts = {name: [0, 0, None] for name in _CHECK_NAMES}
    # the first failing key's first graph is the first failing degree-sorted graph
    for g, graphs in keyed.values():
        for name, failed in _graph_checks(g):
            entry = counts[name]
            entry[0] += graphs
            if failed:
                entry[1] += graphs
                if entry[2] is None:
                    entry[2] = to_graph6(g)
    checks = [CheckResult(name, *counts[name]) for name in _CHECK_NAMES]
    checks.append(chain_grid_check())
    checks.append(gap_positivity_check())
    return VerificationReport(
        max_n=n_max, graphs=sum(graphs for _, graphs in keyed.values()),
        checks=tuple(checks))
