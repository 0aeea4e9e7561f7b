"""The four workloads: seeded inputs, the CLI command each pass runs, and
the check of each pass's output against the oracle.

Why each workload exists, and what it leaves out:

* verify-exhaustive -- the headline command: enumerator, every per-graph
  check and the Pool do the work; codecs and CLI input do almost none.
* scan-connected -- the same enumerator with a connectivity filter at the
  leaves and the canonical_graph6/to_graph6 mix, no deviation or
  decomposition; a speed-up of verify that slows this shows here.
* bounds-corpus -- ~5,000 graph6 graphs (n in [20, 62]): decoder,
  bounds_report, certificates and JSON output; no enumerator, no Pool.
* bounds-large -- one connected 10^6-vertex edge list: whole-stdin read,
  parse_edge_list, Graph sorting and BFS at a working set far beyond the
  caches; no enumerator, no Pool, no graph6.

The two enumeration workloads have no input files; their output is checked
against golden.json, which test_bench recomputes by brute force.
"""

from __future__ import annotations

import hashlib
import json
import random
from array import array
from dataclasses import dataclass, field
from math import gcd
from pathlib import Path
from typing import Callable, Optional

import oracle

GOLDEN = json.loads((Path(__file__).with_name("golden.json")).read_text())

#: Relative tolerance for reals; the CLI prints 15 significant digits.
REL_TOL = 1e-12


@dataclass
class Prepared:
    """One workload's inputs and how to run and check a pass over them."""

    argv: list[str]              # arguments after `python -m randic.cli`
    traced_argv: list[str]       # the same work in one process
    jobs: int
    graphs: int                  # input graphs per pass
    edges: int                   # input edges per pass
    check: Callable[[str], int]  # pass stdout -> graphs that failed
    stdin: Optional[Path] = None
    inputs: list[dict] = field(default_factory=list)


def _close(got, want: float) -> bool:
    return (isinstance(got, (int, float)) and not isinstance(got, bool)
            and abs(got - want) <= REL_TOL * max(1.0, abs(want)))


def _describe(path: Path, graphs: int, edges: int) -> dict:
    data = path.read_bytes()
    return {"file": path.name, "bytes": len(data), "graphs": graphs,
            "edges": edges, "sha256": hashlib.sha256(data).hexdigest()}


# -- verify-exhaustive ------------------------------------------------------

def prepare_verify(seed: int, workdir: Path) -> Prepared:
    census = GOLDEN["census"]["verify"]
    graphs = census["graphs"]
    expected = {name: (count, 0) for name, count in GOLDEN["verifyChecks"].items()}

    def check(out: str) -> int:
        try:
            doc = json.loads(out)
            got = {c["name"]: (c["checked"], c["failures"]) for c in doc["checks"]}
        except (ValueError, KeyError, TypeError):
            return graphs
        ok = (doc.get("ok") is True and doc.get("graphs") == graphs
              and doc.get("maxN") == GOLDEN["census"]["maxN"] and got == expected)
        return 0 if ok else graphs

    args = ["verify", "--max-n", str(GOLDEN["census"]["maxN"])]
    return Prepared(argv=args + ["--jobs", "2", "--json"],
                    traced_argv=args + ["--jobs", "1", "--json"],
                    jobs=2, graphs=graphs, edges=census["edges"], check=check)


# -- scan-connected ---------------------------------------------------------

def _scan_class_ok(rec: dict, want: dict, key: str) -> bool:
    if any(rec.get(f) != want[f] for f in
           ("classCount", "lowerEqualityWitnesses", "upperEqualityWitnesses")):
        return False
    if rec.get("lowerViolations") != 0 or rec.get("upperViolations") != 0:
        return False
    for value_key, graph_key in (("minR", "argmin"), ("maxR", "argmax")):
        if not _close(rec.get(value_key), want[value_key]):
            return False
        n, edges = oracle.decode_graph6(rec[graph_key])
        deg = oracle.degrees(n, edges)
        if (f"{n},{min(deg)},{max(deg)}" != key
                or not oracle.is_connected(n, edges)
                or not _close(rec[value_key], oracle.randic(deg, edges))):
            return False
    return True


def prepare_scan(seed: int, workdir: Path) -> Prepared:
    census = GOLDEN["census"]["scan"]
    classes = census["classes"]

    def check(out: str) -> int:
        failed = 0
        seen = set()
        for line in out.splitlines():
            try:
                rec = json.loads(line)
                key = f"{rec['n']},{rec['d']},{rec['D']}"
                ok = key in classes and key not in seen and _scan_class_ok(
                    rec, classes[key], key)
            except (ValueError, KeyError, TypeError):
                return census["graphs"]
            if not ok:
                failed += classes.get(key, {}).get("classCount", 1)
            seen.add(key)
        failed += sum(c["classCount"] for k, c in classes.items() if k not in seen)
        return min(failed, census["graphs"])

    args = ["enumerate", "--max-n", str(GOLDEN["census"]["maxN"]), "--connected"]
    return Prepared(argv=args + ["--jobs", "2", "--json"],
                    traced_argv=args + ["--jobs", "1", "--json"],
                    jobs=2, graphs=census["graphs"], edges=census["edges"],
                    check=check)


# -- bounds-corpus ----------------------------------------------------------

def _relabel(rng: random.Random, n: int, edges) -> list[tuple[int, int]]:
    perm = list(range(n))
    rng.shuffle(perm)
    return [(perm[u], perm[v]) for u, v in edges]


def _gnp(rng: random.Random, n: int, p: float) -> list[tuple[int, int]]:
    """G(n, p) with each isolated vertex then joined to a random vertex."""
    edges = [(u, v) for v in range(1, n) for u in range(v) if rng.random() < p]
    deg = oracle.degrees(n, edges)
    for v in range(n):
        if deg[v] == 0:
            u = rng.choice([w for w in range(n) if w != v])
            edges.append((u, v))
            deg[u] += 1
            deg[v] += 1
    return edges


def _switch(rng: random.Random, edges: list) -> list:
    """Randomise a graph by degree-preserving edge switches.  An edge's
    first endpoint stays first, so a bipartite graph listed side by side
    stays bipartite with the same sides."""
    present = {frozenset(e) for e in edges}
    for _ in range(2 * len(edges)):
        i, j = rng.randrange(len(edges)), rng.randrange(len(edges))
        (a, b), (c, d) = edges[i], edges[j]
        if len({a, b, c, d}) < 4:
            continue
        e1, e2 = frozenset((a, d)), frozenset((c, b))
        if e1 in present or e2 in present:
            continue
        present -= {frozenset((a, b)), frozenset((c, d))}
        present |= {e1, e2}
        edges[i], edges[j] = (a, d), (c, b)
    return edges


def _biregular(rng: random.Random, a: int, b: int, k: int) -> tuple[int, list]:
    """Random (a, b)-biregular graph: k*a/g vertices of degree b on the
    left, k*b/g of degree a on the right (g = gcd(a, b), k >= g)."""
    g = gcd(a, b)
    p, q = k * a // g, k * b // g
    edges = [(t // b, p + t % q) for t in range(p * b)]
    return p + q, _switch(rng, edges)


def _regular(rng: random.Random, n: int, r: int) -> list:
    """Random r-regular graph on n vertices (n*r even, r < n)."""
    edges = [(i, (i + s) % n) for i in range(n) for s in range(1, r // 2 + 1)]
    if r % 2:
        edges += [(i, i + n // 2) for i in range(n // 2)]
    return _switch(rng, edges)


def _end_block(i: int) -> tuple[int, list, list]:
    """Complement of P_3 plus a perfect matching on i + 2 vertices (odd i):
    the path's middle vertex has degree i - 1, the rest degree i."""
    n = i + 2
    missing = {(0, 1), (1, 2)} | {(k, k + 1) for k in range(3, n, 2)}
    edges = [(u, v) for v in range(n) for u in range(v) if (u, v) not in missing]
    return n, edges, [1]


def _mid_block(i: int) -> tuple[int, list, list]:
    """K_{i+1} without the edge 01: vertices 0 and 1 have degree i - 1."""
    n = i + 1
    return n, [(u, v) for v in range(n) for u in range(v) if (u, v) != (0, 1)], [0, 1]


def _degree_chain(d: int, D: int) -> tuple[int, list]:
    """Connected graph with one block per degree in [d, D] (d, D odd), the
    blocks' deficient vertices linked in a path, one edge per block pair."""
    n, edges, prev = 0, [], None
    for i in range(d, D + 1):
        if i == 1:
            size, block, deficient = 1, [], [0]
        elif i in (d, D):
            size, block, deficient = _end_block(i)
        else:
            size, block, deficient = _mid_block(i)
        edges += [(n + u, n + v) for u, v in block]
        if prev is not None:
            edges.append((prev, n + deficient[0]))
        prev = n + deficient[-1]
        n += size
    return n, edges


CORPUS_N = range(20, 63)
CHAIN_PAIRS = [(d, D) for d in range(1, 20, 2) for D in range(d + 2, 20, 2)
               if _degree_chain(d, D)[0] in CORPUS_N]
BIREGULAR = [(a, b, k) for a in range(1, 8) for b in range(a, 12)
             for k in range(gcd(a, b), 63)
             if (k * (a + b) // gcd(a, b)) in CORPUS_N]
#: Share of each kind, in a fixed cycle so every seed does the same mix.
KIND_CYCLE = (["sparse"] * 4 + ["tree", "bipartite", "bipartite"] + ["medium"] * 3
              + ["dense"] * 3 + ["disconnected"] * 3 + ["biregular"] * 2
              + ["chain", "regular"])


def corpus_graph(rng: random.Random, kind: str, n: int) -> tuple[int, list]:
    if kind == "sparse":
        return n, _gnp(rng, n, 3 / (n - 1))
    if kind == "tree":
        return n, [(v, rng.randrange(v)) for v in range(1, n)]
    if kind == "bipartite":
        # bipartite but not biregular: random, or degree-uniform on the left
        # so that only the right side breaks the definition
        left = n // 2
        if rng.random() < 0.5:
            k = rng.randint(2, 5)
            edges = [(u, v) for u in range(left) for v in rng.sample(range(left, n), k)]
        else:
            edges = [(u, v) for u in range(left) for v in range(left, n)
                     if rng.random() < 0.3]
        deg = oracle.degrees(n, edges)
        edges += [(v, rng.randrange(left, n)) if v < left else (rng.randrange(left), v)
                  for v in range(n) if deg[v] == 0]
        return n, edges
    if kind == "medium":
        return n, _gnp(rng, n, 0.3)
    if kind == "dense":
        return n, _gnp(rng, n, 0.75)
    if kind == "disconnected":
        n1 = n // 3
        return n, _gnp(rng, n1, 4 / (n1 - 1)) + [
            (n1 + u, n1 + v) for u, v in _gnp(rng, n - n1, 4 / (n - n1 - 1))]
    if kind == "biregular":
        a, b, k = rng.choice(BIREGULAR)
        half = k // 2
        if k % 2 or half < gcd(a, b) or rng.random() < 0.5:
            return _biregular(rng, a, b, k)
        # two components with the same degree pair
        size, edges = _biregular(rng, a, b, half)
        size2, edges2 = _biregular(rng, a, b, half)
        return size + size2, edges + [(size + u, size + v) for u, v in edges2]
    if kind == "chain":
        return _degree_chain(*rng.choice(CHAIN_PAIRS))
    if kind == "regular":
        r = 2 + n % 7
        n += n * r % 2
        return n, _regular(rng, n, r)
    raise ValueError(f"unknown corpus kind {kind!r}")


def corpus(seed: int, count: int) -> list[tuple[int, list]]:
    rng = random.Random(seed)
    graphs = []
    for k in range(count):
        kind = KIND_CYCLE[k % len(KIND_CYCLE)]
        n, edges = corpus_graph(rng, kind, CORPUS_N[k * 7 % len(CORPUS_N)])
        graphs.append((n, _relabel(rng, n, edges)))
    return graphs


def _same_report(got: dict, want: dict) -> bool:
    if any(got.get(k) != want[k] for k in ("n", "d", "D", "regular", "connected")):
        return False
    if not all(_close(got.get(k), want[k]) for k in ("randic", "lowerBound", "baseline")):
        return False
    if want["upperBound"] is None:
        if got.get("upperBound") is not None or got.get("upperSlack") is not None:
            return False
    elif not (_close(got.get("upperBound"), want["upperBound"])
              and _close(got.get("upperSlack"), want["upperBound"] - want["randic"])):
        return False
    return (_close(got.get("lowerSlack"), want["randic"] - want["lowerBound"])
            and (got.get("lowerEquality") is not None) == want["lowerEquality"]
            and (got.get("upperEquality") is not None) == want["upperEquality"])


def _check_reports(expected: list[dict]) -> Callable[[str], int]:
    def check(out: str) -> int:
        lines = out.splitlines()
        failed = max(0, len(lines) - len(expected))
        for k, want in enumerate(expected):
            try:
                ok = k < len(lines) and _same_report(json.loads(lines[k]), want)
            except ValueError:
                ok = False
            failed += not ok
        return min(failed, len(expected))
    return check


def prepare_corpus(seed: int, workdir: Path, size=5000) -> Prepared:
    graphs = corpus(seed, size)
    path = workdir / "corpus.g6"
    path.write_text("".join(oracle.encode_graph6(n, e) + "\n" for n, e in graphs))
    expected = [oracle.bounds_record(n, e) for n, e in graphs]
    edges = sum(len(e) for _, e in graphs)
    return Prepared(argv=["bounds", "--format", "graph6", "--json"],
                    traced_argv=["bounds", "--format", "graph6", "--json"],
                    jobs=1, graphs=len(graphs), edges=edges,
                    check=_check_reports(expected), stdin=path,
                    inputs=[_describe(path, len(graphs), edges)])


# -- bounds-large -----------------------------------------------------------

class EdgeArrays:
    """Edges held as two int arrays, iterable as pairs (compact at 10^6)."""

    def __init__(self):
        self.u, self.v = array("i"), array("i")

    def append(self, u: int, v: int) -> None:
        self.u.append(u)
        self.v.append(v)

    def __len__(self) -> int:
        return len(self.u)

    def __iter__(self):
        return zip(self.u, self.v)


def large_graph(seed: int, n: int, m: int) -> EdgeArrays:
    """Connected graph with n vertices and m edges: a random recursive tree
    (degrees spread over many classes) plus chords i -- i + n//2 + 1 (mod n),
    all under a random labeling.  Chords never repeat each other; one that
    would repeat a tree edge is skipped."""
    if not n - 1 <= m <= 2 * n - 1:
        raise ValueError(f"need n - 1 <= m <= 2n - 1, got n={n}, m={m}")
    rng = random.Random(seed)
    label = list(range(n))
    rng.shuffle(label)
    parent = [0] * n
    edges = EdgeArrays()
    for i in range(1, n):
        parent[i] = j = rng.randrange(i)
        edges.append(label[i], label[j])
    order = list(range(n))
    rng.shuffle(order)
    shift = n // 2 + 1
    for i in order:
        if len(edges) == m:
            break
        j = (i + shift) % n
        if parent[max(i, j)] != min(i, j):
            edges.append(label[i], label[j])
    if len(edges) != m:
        raise ValueError(f"could not place {m} edges on {n} vertices")
    return edges


def write_edge_list(path: Path, seed: int, n: int, edges: EdgeArrays) -> None:
    """Edge-list text with edges in random order and orientation."""
    rng = random.Random(seed + 1)
    order = list(range(len(edges)))
    rng.shuffle(order)
    us, vs = edges.u, edges.v
    with path.open("w", encoding="ascii") as fh:
        fh.write(f"{n}\n")
        for start in range(0, len(order), 1 << 16):
            fh.write("".join(
                f"{us[k]} {vs[k]}\n" if rng.random() < 0.5 else f"{vs[k]} {us[k]}\n"
                for k in order[start:start + (1 << 16)]))


def prepare_large(seed: int, workdir: Path, size=(1_000_000, 1_500_000)) -> Prepared:
    n, m = size
    edges = large_graph(seed, n, m)
    path = workdir / "large.edges"
    write_edge_list(path, seed, n, edges)
    # connected by construction: the tree spans every vertex
    expected = [oracle.bounds_record(n, edges, connected=True)]
    return Prepared(argv=["bounds", "--json"], traced_argv=["bounds", "--json"],
                    jobs=1, graphs=1, edges=m, check=_check_reports(expected),
                    stdin=path, inputs=[_describe(path, 1, m)])


WORKLOADS = {
    "verify-exhaustive": prepare_verify,
    "scan-connected": prepare_scan,
    "bounds-corpus": prepare_corpus,
    "bounds-large": prepare_large,
}
