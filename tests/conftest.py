"""Shared fixtures and independent oracles for the test suite.

naive_graphs re-enumerates small graphs by brute force over all edge
subsets, with filter-after-generate constraint handling; it shares no code
with the pruned generator under test.  exact_sign decides the sign of a sum
of rational multiples of square roots exactly, the oracle of the bounds'
integer sign tests.
"""

from __future__ import annotations

import collections
import concurrent.futures
import itertools
import math
import os
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Iterator, Optional

import pytest

import randic.enumeration
from randic import Graph

#: The environment of a subprocess that imports randic from this checkout.
SRC_ENV = {**os.environ,
           "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}


def naive_graphs(n: int, connected: Optional[bool] = None,
                 min_degree: Optional[int] = None) -> Iterator[Graph]:
    """Every labeled simple graph on n vertices, filtering after generation."""
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(2 ** len(pairs)):
        edges = tuple(pairs[i] for i in range(len(pairs)) if mask >> i & 1)
        deg = [0] * n
        for u, v in edges:
            deg[u] += 1
            deg[v] += 1
        if min_degree is not None and n and min(deg) < min_degree:
            continue
        if connected is not None and _naive_connected(n, edges) != connected:
            continue
        yield Graph(n, edges)


def _naive_connected(n: int, edges) -> bool:
    if n <= 1:
        return True
    reach = {0}
    frontier = {0}
    while frontier:
        nxt = set()
        for u, v in edges:
            if u in reach and v not in reach:
                nxt.add(v)
            elif v in reach and u not in reach:
                nxt.add(u)
        reach |= nxt
        frontier = nxt
    return len(reach) == n


def bfs_two_coloring(g: Graph) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The two parts of a proper 2-coloring with each component's
    lowest-labeled vertex in the first part, or None when g has an odd
    cycle; a breadth-first search over adjacency lists."""
    adj = [[] for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    side: list[Optional[bool]] = [None] * g.n
    for start in range(g.n):
        if side[start] is not None:
            continue
        side[start] = False
        queue = collections.deque([start])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if side[w] is None:
                    side[w] = not side[u]
                    queue.append(w)
                elif side[w] == side[u]:
                    return None
    return (tuple(v for v in range(g.n) if not side[v]),
            tuple(v for v in range(g.n) if side[v]))


def _squarefree_split(k: int) -> tuple[int, int]:
    """(s, r) with k = s*s*r and r squarefree, by trial division."""
    s, r, p = 1, k, 2
    while p * p <= r:
        while r % (p * p) == 0:
            r //= p * p
            s *= p
        p += 1
    return s, r


def exact_sign(terms: Iterable[tuple[Fraction, int]]) -> int:
    """Sign (-1, 0 or 1) of sum(q * sqrt(k)) over (q, k) terms, with q
    rational and k a positive integer, decided exactly.

    Terms are grouped by the squarefree part r of k, whose roots are
    linearly independent over the rationals (Besicovitch 1940): the sum is
    0 iff every group's coefficient is.  Otherwise it is bracketed by
    floor(sqrt(r) * 2**p) = isqrt(r << 2p) bounds at doubling precision p,
    which exclude 0 once the bracket is narrower than the sum.
    """
    coeff: dict[int, Fraction] = collections.defaultdict(Fraction)
    for q, k in terms:
        s, r = _squarefree_split(k)
        coeff[r] += Fraction(q) * s
    coeff = {r: q for r, q in coeff.items() if q}
    if not coeff:
        return 0
    bits = 16
    while True:
        lo = hi = Fraction(0)
        for r, q in coeff.items():
            root = math.isqrt(r << (2 * bits))  # root <= sqrt(r) * 2**bits < root + 1
            below, above = Fraction(root, 1 << bits), Fraction(root + 1, 1 << bits)
            lo += q * (below if q > 0 else above)
            hi += q * (above if q > 0 else below)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        bits *= 2


def lower_slack_terms(pairs: dict, d: int, D: int):
    """R - sqrt(dD) n/(d+D) as (q, k) terms, with n = sum m_ij (1/i + 1/j)."""
    n = sum(m * Fraction(i + j, i * j) for (i, j), m in pairs.items())
    return ([(Fraction(m, i * j), i * j) for (i, j), m in pairs.items()]
            + [(-n / (d + D), d * D)])


def upper_slack_terms(pairs: dict, d: int, D: int):
    """n/2 - sum_{t=d}^{D-1} (1/sqrt(t) - 1/sqrt(t+1))^2 / 2 - R as (q, k)
    terms, with (1/sqrt(t) - 1/sqrt(t+1))^2 = 1/t + 1/(t+1) - 2/sqrt(t(t+1))."""
    n = sum(m * Fraction(i + j, i * j) for (i, j), m in pairs.items())
    terms = [(n / 2, 1)]
    for t in range(d, D):
        terms += [(-(Fraction(1, t) + Fraction(1, t + 1)) / 2, 1),
                  (Fraction(1, t * (t + 1)), t * (t + 1))]
    return terms + [(-Fraction(m, i * j), i * j) for (i, j), m in pairs.items()]


def star(n: int) -> Graph:
    return Graph(n, tuple((0, i) for i in range(1, n)))


def path(n: int) -> Graph:
    return Graph(n, tuple((i, i + 1) for i in range(n - 1)))


def cycle(n: int) -> Graph:
    return Graph(n, tuple((i, (i + 1) % n) for i in range(n)))


def complete(n: int) -> Graph:
    return Graph(n, tuple(itertools.combinations(range(n), 2)))


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph(a + b, tuple((i, a + j) for i in range(a) for j in range(b)))


def disjoint_union(g: Graph, h: Graph) -> Graph:
    shifted = tuple((u + g.n, v + g.n) for u, v in h.edges)
    return Graph(g.n + h.n, g.edges + shifted)


@pytest.fixture
def star4() -> Graph:
    return star(4)


@pytest.fixture
def c5() -> Graph:
    return cycle(5)


@pytest.fixture
def k23() -> Graph:
    return complete_bipartite(2, 3)


@pytest.fixture
def started_pools(monkeypatch) -> list[int]:
    """Let this process run on 2 CPUs, split n = 7 as the first n worth a
    pool, so that a real pool is tested in seconds rather than on n = 8,
    and record the size of every pool that ``enumeration._pool_map``
    starts, each a real ProcessPoolExecutor; returns that list."""
    started = []
    executor = concurrent.futures.ProcessPoolExecutor

    def spy(max_workers):
        started.append(max_workers)
        return executor(max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", spy)
    monkeypatch.setattr(randic.enumeration.os, "sched_getaffinity",
                        lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(randic.enumeration, "_UNSPLIT_MAX_N", 6)
    return started
