"""Tests of the benchmark itself: seeded inputs, the oracle, the tracer's
wrappers, and a smoke pass of every workload.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import argparse
import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from randic import Graph, parse_graph6, randic_direct, to_graph6  # noqa: E402


def _two_colouring_biregular(n, edges) -> bool:
    """The lower-equality definition taken literally: every component
    two-coloured, each side degree-uniform, one pair {a, b} throughout."""
    deg = oracle.degrees(n, edges)
    if not edges or min(deg) == 0:
        return False
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    colour = [-1] * n
    pairs = set()
    for s in range(n):
        if colour[s] != -1:
            continue
        colour[s] = 0
        sides = ([s], [])
        queue = [s]
        for u in queue:
            for w in adj[u]:
                if colour[w] == -1:
                    colour[w] = 1 - colour[u]
                    sides[colour[w]].append(w)
                    queue.append(w)
                elif colour[w] == colour[u]:
                    return False
        side_degrees = [{deg[v] for v in side} for side in sides]
        if any(len(d) != 1 for d in side_degrees):
            return False
        pairs.add(tuple(sorted(d.pop() for d in side_degrees)))
    return len(pairs) == 1


def test_corpus_and_large_inputs_are_deterministic_per_seed(tmp_path):
    assert workloads.corpus(7, 40) == workloads.corpus(7, 40)
    assert workloads.corpus(7, 40) != workloads.corpus(8, 40)
    digests = []
    for seed in (3, 3, 4):
        workdir = tmp_path / f"run{len(digests)}"
        workdir.mkdir()
        prep = workloads.prepare_large(seed, workdir, size=(500, 700))
        digests.append(prep.inputs[0]["sha256"])
    assert digests[0] == digests[1] != digests[2]


def test_large_graph_has_the_requested_size_and_is_connected():
    edges = workloads.large_graph(5, 3000, 4500)
    pairs = list(edges)
    assert len(pairs) == 4500
    assert len({frozenset(e) for e in pairs}) == 4500
    assert all(u != v for u, v in pairs)
    assert oracle.is_connected(3000, pairs)
    assert len(set(oracle.degrees(3000, pairs))) >= 5


@pytest.mark.parametrize("n, edges, value", [
    (4, [(0, 1), (0, 2), (0, 3)], math.sqrt(3)),                 # K_{1,3}
    (5, [(i, (i + 1) % 5) for i in range(5)], 2.5),              # C_5
    (5, [(u, v) for u in (0, 1) for v in (2, 3, 4)], math.sqrt(6)),  # K_{2,3}
])
def test_oracle_agrees_with_randic_on_hand_values(n, edges, value):
    deg = oracle.degrees(n, edges)
    assert oracle.randic(deg, edges) == pytest.approx(value, abs=1e-14)
    assert randic_direct(Graph(n, tuple(edges))).value == pytest.approx(value, abs=1e-14)


def test_graph6_codec_agrees_with_randic():
    for n, edges in workloads.corpus(11, 60):
        text = oracle.encode_graph6(n, edges)
        g = Graph(n, tuple(edges))
        assert text == to_graph6(g)
        assert parse_graph6(text) == g
        assert oracle.decode_graph6(text) == (n, sorted(g.edges, key=lambda e: (e[1], e[0])))


def test_biregular_shortcut_matches_the_definition():
    rng = random.Random(2)
    graphs = workloads.corpus(5, 200)
    for _ in range(300):
        n = rng.randint(2, 9)
        graphs.append((n, [(u, v) for v in range(n) for u in range(v)
                           if rng.random() < 0.4]))
    hits = 0
    for n, edges in graphs:
        deg = oracle.degrees(n, edges)
        want = _two_colouring_biregular(n, edges)
        assert oracle.is_biregular(n, edges, deg, oracle.pair_histogram(deg, edges)) == want
        hits += want
    assert hits > 20


def test_corpus_has_every_kind_of_graph():
    graphs = workloads.corpus(9, 200)
    records = [oracle.bounds_record(n, e) for n, e in graphs]
    assert all(20 <= r["n"] <= 62 for r in records)
    assert any(not r["connected"] for r in records)
    assert any(r["regular"] for r in records)
    assert any(r["lowerEquality"] and not r["regular"] for r in records)
    assert any(r["upperEquality"] for r in records)
    assert any(oracle.is_bipartite(n, e) and not r["lowerEquality"]
               for (n, e), r in zip(graphs, records))


def test_golden_values_match_a_brute_force_census():
    census = json.loads(json.dumps(oracle.census(6)))
    assert census == workloads.GOLDEN["census"]
    verify = census["verify"]
    checks = workloads.GOLDEN["verifyChecks"]
    assert verify["graphs"] == 28263 and census["scan"]["graphs"] == 27475
    assert checks["identity"] == checks["star-baseline"] == verify["graphs"]
    assert checks["decomposition"] == checks["lower-bound"] == verify["nonregular"]
    assert checks["upper-bound"] == checks["upper-equality"] == verify["connectedNonregular"]


def test_checks_reject_wrong_output(tmp_path):
    prep = workloads.prepare_corpus(1, tmp_path, size=20)
    lines = [json.dumps({**r, "lowerSlack": r["randic"] - r["lowerBound"],
                         "upperSlack": (None if r["upperBound"] is None
                                        else r["upperBound"] - r["randic"]),
                         "lowerEquality": {} if r["lowerEquality"] else None,
                         "upperEquality": {} if r["upperEquality"] else None})
             for r in (oracle.bounds_record(n, e) for n, e in workloads.corpus(1, 20))]
    assert prep.check("\n".join(lines)) == 0
    wrong = json.loads(lines[3])
    wrong["randic"] += 1e-6
    assert prep.check("\n".join(lines[:3] + [json.dumps(wrong)] + lines[4:])) == 1
    assert prep.check("\n".join(lines[:-2])) == 2
    verify = workloads.prepare_verify(1, tmp_path)
    assert verify.check("not json") == verify.graphs


def test_tracer_self_time_excludes_child_spans():
    ticks = iter([0.0, 1.0, 3.0, 10.0])
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    tracer.enter("outer")
    tracer.enter("inner")
    tracer.exit()
    tracer.exit()
    recs = {r["span"]: r for r in tracer.records()}
    assert recs["inner"]["self_s"] == 2.0 and recs["inner"]["parent"] == "outer"
    assert recs["outer"]["self_s"] == 8.0 and recs["outer"]["total_s"] == 10.0


def test_wrappers_rebind_and_restore_every_attribute():
    import randic.bounds
    import randic.cli
    import randic.enumeration
    import randic.graphs
    watched = [(randic.enumeration, "randic_direct"), (randic.bounds, "degree_profile"),
               (randic.cli, "bounds_report"), (randic.graphs.Graph, "__post_init__"),
               (randic.enumeration, "enumerate_graphs"), (randic.cli, "main")]
    before = [vars(owner)[name] for owner, name in watched]
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracing.traced(tracer):
            assert all(vars(o)[n] is not b for (o, n), b in zip(watched, before))
            g = randic.cli.parse_edge_list("3\n0 1\n1 2\n")
            randic.cli.bounds_report(g)
            assert sum(1 for _ in randic.enumeration.enumerate_graphs(3)) == 8
            raise RuntimeError("restore even when the traced code raises")
    assert [vars(owner)[name] for owner, name in watched] == before
    calls = {}
    for rec in tracer.records():
        calls[rec["span"]] = calls.get(rec["span"], 0) + rec["calls"]
    assert calls["bounds.bounds_report"] == 1
    assert calls["graphs.parse_edge_list"] == 1
    assert calls["graphs.Graph.__post_init__"] == 1
    assert calls["enumeration.enumerate_graphs"] == 9  # 8 graphs + exhaustion


SMOKE_SIZES = {"bounds-corpus": 40, "bounds-large": (2000, 3000)}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_pass_of_every_workload_has_no_failures(workload, trace):
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = argparse.Namespace(workload=workload, seed=1, seconds=0, trace=trace)
    record = run.run_workload(args, benchmark, size=SMOKE_SIZES.get(workload))
    result = record["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = benchmark["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    if trace:
        spans_used = {name for name in tracing.SPAN_NAMES
                      if result["metrics"][f"{name}.calls"]["value"]}
        assert {"cli.main", "index.randic_direct", "graphs.biregular_certificate"} <= spans_used
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "bounds-large",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
