"""Reference computations the benchmark checks randic's output against.

Nothing here imports randic or copies its code.  The index is an fsum over
edges, the bounds are the closed forms, and the equality flags follow their
definitions:

* lower equality: the graph is (a, b)-biregular -- every component has a
  two-colouring whose sides are each degree-uniform, with one pair {a, b}
  shared by all components;
* upper equality (d < D only): every edge joining unequal degrees joins
  consecutive ones, exactly one edge joins class i to class i + 1 for each
  i in [d, D - 1], and every class in [d, D] is non-empty.

Graphs are ``(n, edges)`` with edges a sequence of vertex pairs.
"""

from __future__ import annotations

import math
from collections import Counter

GRAPH6_MAX_N = 62


def encode_graph6(n: int, edges) -> str:
    """graph6 text of a graph with n <= 62 (one size byte)."""
    if not 0 <= n <= GRAPH6_MAX_N:
        raise ValueError(f"graph6 needs 0 <= n <= {GRAPH6_MAX_N}, got {n}")
    bits = 0
    for u, v in edges:
        if u > v:
            u, v = v, u
        # bit index of pair (u, v), column-major over the upper triangle
        bits |= 1 << (v * (v - 1) // 2 + u)
    nbits = n * (n - 1) // 2
    out = [chr(63 + n)]
    for start in range(0, nbits, 6):
        group = 0
        for k in range(6):
            group = (group << 1) | (bits >> (start + k) & 1 if start + k < nbits else 0)
        out.append(chr(63 + group))
    return "".join(out)


def decode_graph6(text: str) -> tuple[int, list[tuple[int, int]]]:
    """Inverse of encode_graph6."""
    n = ord(text[0]) - 63
    if not 0 <= n <= GRAPH6_MAX_N:
        raise ValueError(f"bad graph6 size byte in {text!r}")
    nbits = n * (n - 1) // 2
    if len(text) != 1 + (nbits + 5) // 6:
        raise ValueError(f"bad graph6 length for n={n}: {text!r}")
    edges = []
    t = 0
    for v in range(1, n):
        for u in range(v):
            if (ord(text[1 + t // 6]) - 63) >> (5 - t % 6) & 1:
                edges.append((u, v))
            t += 1
    return n, edges


def degrees(n: int, edges) -> list[int]:
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def randic(deg, edges) -> float:
    """R = sum over edges uv of 1/sqrt(d(u) d(v)), exactly rounded."""
    return math.fsum(1 / math.sqrt(deg[u] * deg[v]) for u, v in edges)


def lower_bound(n: int, d: int, D: int) -> float:
    return math.sqrt(d * D) * n / (d + D)


def upper_bound(n: int, d: int, D: int) -> float:
    return n / 2 - math.fsum(
        (1 / math.sqrt(i) - 1 / math.sqrt(i + 1)) ** 2 / 2 for i in range(d, D))


def baseline_bound(n: int, d: int, D: int) -> float:
    return d * n / (d + D)


def is_connected(n: int, edges) -> bool:
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    parts = n
    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            parts -= 1
    return parts <= 1


def pair_histogram(deg, edges) -> Counter:
    """(min degree, max degree) of each edge's endpoints -> edge count."""
    return Counter((deg[u], deg[v]) if deg[u] <= deg[v] else (deg[v], deg[u])
                   for u, v in edges)


def is_bipartite(n: int, edges) -> bool:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    colour = [-1] * n
    for s in range(n):
        if colour[s] != -1:
            continue
        colour[s] = 0
        stack = [s]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if colour[w] == -1:
                    colour[w] = 1 - colour[u]
                    stack.append(w)
                elif colour[w] == colour[u]:
                    return False
    return True


def is_biregular(n: int, edges, deg, pairs) -> bool:
    """Lower-equality definition, decided through the degree pairs.

    When a < b, every edge of an (a, b)-biregular graph joins the two
    sides, so (a, b) is its only degree pair; conversely, if one pair
    (a, b) with a < b covers every edge, the two degree classes are the
    sides.  When a = b the graph is regular and the definition asks only
    for bipartiteness.  test_bench checks this against the two-colouring
    definition directly.
    """
    if not edges or min(deg) == 0 or len(pairs) != 1:
        return False
    (a, b), = pairs
    return a < b or is_bipartite(n, edges)


def is_degree_chain(deg, pairs) -> bool:
    """Upper-equality definition (d < D is checked by the caller)."""
    d, D = min(deg), max(deg)
    for (a, b), count in pairs.items():
        if a != b and (b - a != 1 or count != 1):
            return False
    present = set(deg)
    return all(pairs.get((i, i + 1)) == 1 and i in present
               for i in range(d, D)) and D in present


def bounds_record(n: int, edges, connected=None) -> dict:
    """What ``randic bounds --json`` should report, certificates as flags.

    ``connected`` may be passed when the generator knows it by
    construction; otherwise it is computed.
    """
    deg = degrees(n, edges)
    d, D = min(deg), max(deg)
    pairs = pair_histogram(deg, edges)
    value = randic(deg, edges)
    if connected is None:
        connected = is_connected(n, edges)
    if d == D:
        lower = upper = n / 2
    else:
        lower = lower_bound(n, d, D)
        upper = upper_bound(n, d, D) if connected else None
    return {
        "n": n, "d": d, "D": D, "randic": value,
        "lowerBound": lower, "upperBound": upper,
        "baseline": baseline_bound(n, d, D),
        "regular": d == D, "connected": connected,
        "lowerEquality": is_biregular(n, edges, deg, pairs),
        "upperEquality": d < D and is_degree_chain(deg, pairs),
    }


def census(max_n: int) -> dict:
    """Brute-force counts over every labeled graph with 2 <= n <= max_n.

    Returns the facts the enumeration workloads are checked against:
    graphs without isolated vertices (``verify``) and the per-class
    extremes of the connected ones (``scan``).  Slow: one pass over all
    2^(n(n-1)/2) edge subsets per n.
    """
    verify = {"graphs": 0, "edges": 0, "nonregular": 0, "connectedNonregular": 0}
    scan = {"graphs": 0, "edges": 0, "classes": {}}
    for n in range(2, max_n + 1):
        all_pairs = [(u, v) for v in range(1, n) for u in range(v)]
        for mask in range(1 << len(all_pairs)):
            edges = [p for k, p in enumerate(all_pairs) if mask >> k & 1]
            deg = degrees(n, edges)
            if min(deg) == 0:
                continue
            d, D = min(deg), max(deg)
            connected = is_connected(n, edges)
            verify["graphs"] += 1
            verify["edges"] += len(edges)
            if d < D:
                verify["nonregular"] += 1
                verify["connectedNonregular"] += connected
            if not connected:
                continue
            scan["graphs"] += 1
            scan["edges"] += len(edges)
            if d == D:
                continue
            pairs = pair_histogram(deg, edges)
            value = randic(deg, edges)
            rec = scan["classes"].setdefault(f"{n},{d},{D}", {
                "classCount": 0, "minR": math.inf, "maxR": -math.inf,
                "lowerEqualityWitnesses": 0, "upperEqualityWitnesses": 0})
            rec["classCount"] += 1
            rec["minR"] = min(rec["minR"], value)
            rec["maxR"] = max(rec["maxR"], value)
            rec["lowerEqualityWitnesses"] += is_biregular(n, edges, deg, pairs)
            rec["upperEqualityWitnesses"] += is_degree_chain(deg, pairs)
    return {"maxN": max_n, "verify": verify, "scan": scan}
