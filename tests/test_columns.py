"""A parsed graph keeps its edges as two sorted columns and builds no pair
per edge; these tests hold it to a graph built from edge tuples."""

import random
import tracemalloc

from randic import (Graph, biregular_certificate, bounds_report,
                    degree_chain_certificate, is_connected, parse_edge_list,
                    randic_deviation, randic_direct)


def _tree(rng, n):
    return [(rng.randrange(i), i) for i in range(1, n)]


def _gnp(rng, n):
    p = rng.uniform(0.5, 4.0) / n
    return [(u, v) for v in range(n) for u in range(v) if rng.random() < p]


def _circulant(rng, n):
    # a regular circulant: each vertex joined to its neighbours at the offsets
    steps = rng.sample(range(1, (n + 1) // 2), min(3, (n - 1) // 2))
    return list({tuple(sorted((i, (i + s) % n))) for i in range(n) for s in steps})


def _random_graph(rng):
    """Edges of a relabeled disjoint union of 1-3 trees, G(n, p) graphs and
    regular circulants, n up to about 3,000."""
    edges, n = [], 0
    for _ in range(rng.randint(1, 3)):
        size = int(rng.choice([rng.randint(3, 30), rng.randint(30, 1000)]))
        kind = rng.choice([_tree, _gnp, _circulant])
        edges += [(u + n, v + n) for u, v in kind(rng, size)]
        n += size
    label = rng.sample(range(n), n)
    return n, [(label[u], label[v]) for u, v in edges]


def _edge_list_text(rng, n, edges):
    # the edges in random order, each in a random orientation
    lines = [f"{v} {u}" if rng.random() < 0.5 else f"{u} {v}" for u, v in edges]
    rng.shuffle(lines)
    return "\n".join([str(n)] + lines) + "\n"


def _outcome(f, g):
    try:
        return f(g)
    except ValueError as exc:
        return str(exc)


def test_parsed_columns_match_tuple_edges():
    rng = random.Random(1492)
    readers = (is_connected, biregular_certificate, degree_chain_certificate,
               bounds_report)
    unbuilt = 0
    for _ in range(60):
        n, edges = _random_graph(rng)
        text = _edge_list_text(rng, n, edges)
        parsed, built = parse_edge_list(text), Graph(n, tuple(edges))
        # the bulk parser took the text: no edge tuple yet
        assert "edges" not in vars(parsed)
        for f in readers:
            assert _outcome(f, parsed) == _outcome(f, built)
        assert list(parsed.pair_counts.items()) == list(built.pair_counts.items())
        assert parsed.degrees == built.degrees and parsed.m == built.m
        assert parsed == built and hash(parsed) == hash(built)
        assert repr(parsed) == repr(built) and parsed.edges == built.edges

        g = parse_edge_list(text)
        if g.n > 2 * g.m or g.degree_range[0] in (0, g.degree_range[1]):
            continue
        if degree_chain_certificate(g) is not None:
            continue
        bounds_report(g), randic_direct(g), randic_deviation(g)
        assert "edges" not in vars(g)
        unbuilt += 1
    assert unbuilt >= 10


def test_parse_and_bounds_hold_little_memory_per_edge():
    # a connected 100,000-vertex graph with 150,000 edges: a random
    # recursive tree plus 50,001 chords
    rng = random.Random(2024)
    n, m = 100_000, 150_000
    edges = set(map(tuple, map(sorted, _tree(rng, n))))
    while len(edges) < m:
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    text = _edge_list_text(rng, n, sorted(edges))
    del edges
    tracemalloc.start()
    try:
        g = parse_edge_list(text)
        report = bounds_report(g)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.connected and report.n == n
    # a Graph built on edge tuples peaks at 189 B/edge and holds 132 B/edge
    assert peak / m < 120, peak / m
    assert held / m < 40, held / m
