import itertools
import math
import random
import re

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randic import (Graph, GraphFormatError, biregular_certificate,
                    bounds_report, degree_chain_certificate, degree_multiset,
                    degree_profile, format_edge_list, is_connected,
                    parse_edge_list, parse_graph6, randic_deviation,
                    randic_direct, to_graph6)
from randic.graphs import _EDGE_LIST_CHUNK, _parse_edge_list_bulk

from conftest import (_naive_connected, bfs_two_coloring, complete,
                      complete_bipartite, cycle, disjoint_union, naive_graphs,
                      path, star)


def graph_strategy(max_n=7, min_n=0):
    def build(n):
        pairs = list(itertools.combinations(range(n), 2))
        if not pairs:
            return st.just(Graph(n, ()))
        return st.sets(st.sampled_from(pairs)).map(lambda es: Graph(n, tuple(es)))
    return st.integers(min_n, max_n).flatmap(build)


# ── Graph construction ────────────────────────────────────────────────

def test_graph_normalizes_edges():
    g = Graph(3, ((2, 0), (1, 0)))
    assert g.edges == ((0, 1), (0, 2))
    assert g.degrees == (2, 1, 1)
    assert g.degree_range == (1, 2)
    assert g.m == 2


@pytest.mark.parametrize("n, edges, message", [
    (3, ((1, 1),), "self-loop"),
    (3, ((0, 3),), "out of range"),
    (3, ((0, 1), (1, 0)), "duplicate"),
    (-1, (), "non-negative"),
    (3, ((0.5, 1.5),), "vertex label 0.5 is a float, not an int"),
    (3, ((0, 1.0), (1, 2)), "vertex label 1.0 is a float, not an int"),
    (2, ((False, True),), "vertex label False is a bool, not an int"),
    (3.0, (), "vertex count 3.0 is a float, not an int"),
    (True, (), "vertex count True is a bool, not an int"),
])
def test_graph_rejects_invalid(n, edges, message):
    with pytest.raises(ValueError, match=message):
        Graph(n, edges)


def oracle_graph_edges(n, edges):
    """The edges Graph's per-edge loop makes of its input, or the type and
    message of what it raises; kept as the oracle of Graph's check of the
    pairs it is given."""
    try:
        if type(n) is not int:
            raise ValueError(f"vertex count {n!r} is a {type(n).__name__}, "
                             "not an int")
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        norm = []
        for e in edges:
            u, v = e
            for x in (u, v):
                if type(x) is not int:
                    raise ValueError(f"vertex label {x!r} is a "
                                     f"{type(x).__name__}, not an int")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if u > v:
                u, v = v, u
            if u < 0 or v >= n:
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            norm.append((u, v))
        norm.sort()
        for a, b in zip(norm, norm[1:]):
            if a == b:
                raise ValueError(f"duplicate edge ({a[0]}, {a[1]})")
        return tuple(norm)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


def _graph_edges(n, edges):
    try:
        return Graph(n, edges).edges
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


def _perturb(rng, n, edges):
    """One change that may take canonical edges out of canonical form."""
    edges = list(edges)
    k = rng.randrange(len(edges))
    u, v = edges[k][:2]
    kind = rng.choice(["swap", "flip", "repeat", "loop", "range", "negative",
                       "list", "triple", "bool", "float", "str"])
    if kind == "swap":
        j = rng.randrange(len(edges))
        edges[k], edges[j] = edges[j], edges[k]
    elif kind == "flip":
        edges[k] = (v, u)
    elif kind == "repeat":
        edges.insert(k, (u, v))
    elif kind == "loop":
        edges[k] = (u, u)
    elif kind == "range":
        edges[k] = (u, n + rng.randrange(2))
    elif kind == "negative":
        edges[k] = (-1, v)
    elif kind == "list":
        edges[k] = [u, v]
    elif kind == "triple":
        edges[k] = (u, v, v)
    elif kind == "bool":
        # a bool in either place, equal to the label it replaces or not
        edges[k] = rng.choice([(bool(u), v), (u, bool(v)), (u, True)])
    elif kind == "float":
        # integral or not, a float is refused
        edges[k] = rng.choice([(float(u), v), (u, float(v) + 0.5)])
    else:
        edges[k] = (str(u), str(v))
    return tuple(edges)


def test_graph_takes_canonical_edges_as_the_per_edge_loop_does():
    rng = random.Random(1644)
    for _ in range(600):
        n = rng.randint(2, 9)
        pairs = list(itertools.combinations(range(n), 2))
        edges = tuple(sorted(rng.sample(pairs, rng.randint(1, len(pairs)))))
        assert Graph(n, edges).edges == edges
        for _ in range(rng.randint(1, 2)):
            edges = _perturb(rng, n, edges)
        got = _graph_edges(n, edges)
        assert got == oracle_graph_edges(n, edges)
        if not isinstance(got[0], type):
            assert [tuple(map(type, e)) for e in got] == [
                tuple(map(type, e)) for e in oracle_graph_edges(n, edges)]
    assert _graph_edges(3, iter([(0, 1), (1, 2)])) == ((0, 1), (1, 2))
    assert _graph_edges(3, [[0, 1], (1, 2)]) == ((0, 1), (1, 2))
    assert _graph_edges(0, ()) == ()


def test_relabel_roundtrip():
    g = star(4)
    h = g.relabel([3, 0, 1, 2])
    assert sorted(h.degrees) == sorted(g.degrees)
    assert h.relabel([1, 2, 3, 0]) == g
    with pytest.raises(ValueError):
        g.relabel([0, 0, 1, 2])


def test_relabel_matches_the_checked_constructor():
    # relabel skips Graph's per-edge check; the checked constructor on the
    # renamed pairs is its oracle, for tuple and int64-array columns alike
    rng = random.Random(1645)
    for trial in range(300):
        n = rng.randint(0, 40)
        pairs = list(itertools.combinations(range(n), 2))
        g = Graph(n, rng.sample(pairs, rng.randint(0, min(len(pairs), 3 * n))))
        if trial % 2 and g.m:
            g = parse_edge_list(format_edge_list(g))
        p = list(range(n))
        rng.shuffle(p)
        h = g.relabel(p)
        want = Graph(n, [(p[u], p[v]) for u, v in g.edges])
        assert h == want and hash(h) == hash(want) and repr(h) == repr(want)
        assert h.degrees == want.degrees
        assert (h._us, h._vs) == (want._us, want._vs)
        assert type(h._us) is type(h._vs) is tuple
        assert list(zip(h._us, h._vs)) == sorted(zip(h._us, h._vs))
    g = Graph(2, ((0, 1),))
    for perm in ([0], [0, 2], [1, 1], [0, 1, 2], [True, False], [1.0, 0]):
        with pytest.raises(ValueError, match="perm must be a permutation"):
            g.relabel(perm)


# ── Edge-list format ──────────────────────────────────────────────────

def test_parse_edge_list_star():
    g = parse_edge_list("4\n0 1\n0 2\n0 3\n")
    assert g == star(4)


def test_parse_edge_list_k2():
    assert parse_edge_list("2\n0 1\n") == Graph(2, ((0, 1),))


@pytest.mark.parametrize("text, message", [
    ("3\n0 1\n1 1\n", "line 3: self-loop"),
    ("3\n0 5\n", "line 2: label out of range"),
    ("3\n0 1\n1 0\n", "line 3: duplicate edge"),
    ("3\n0 1 2\n", "line 2: expected 'u v'"),
    ("x\n", "line 1"),
    ("", "empty input"),
])
def test_parse_edge_list_errors(text, message):
    with pytest.raises(GraphFormatError, match=message):
        parse_edge_list(text)


def test_parse_edge_list_skips_blank_lines_but_counts_them():
    g = parse_edge_list("3\n\n0 1\n\n1 2\n")
    assert g == path(3)
    with pytest.raises(GraphFormatError, match="line 5"):
        parse_edge_list("3\n\n0 1\n\n1 1\n")


def test_format_edge_list_roundtrip():
    for g in (star(4), cycle(5), complete(4), Graph(3, ())):
        assert parse_edge_list(format_edge_list(g)) == g


def oracle_parse_edge_list(text: str) -> Graph:
    """The per-line edge-list parser the bulk parse_edge_list replaced, kept
    as its oracle: one split, int() and set lookup per line, then a
    validated Graph."""
    if "\r" in text:
        text = text.replace("\r\n", "\n")
    stray = "_\r\x0b\x0c\x1c\x1d\x1e\x1f"
    if not text.isascii() or any(c in text for c in stray):
        lineno, raw = next((k, raw) for k, raw in enumerate(text.split("\n"), 1)
                           if not raw.isascii() or any(c in raw for c in stray))
        raise GraphFormatError(
            f"line {lineno}: expected ASCII decimal integers, got {raw!a}")
    n = None
    edges = []
    seen = set()
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line:
            continue
        tokens = line.split()
        if n is None:
            if len(tokens) != 1:
                raise GraphFormatError(
                    f"line {lineno}: expected the vertex count alone, got {line!r}")
            try:
                n = int(tokens[0])
            except ValueError:
                raise GraphFormatError(
                    f"line {lineno}: vertex count is not an integer: {line!r}") from None
            if n < 0:
                raise GraphFormatError(f"line {lineno}: negative vertex count {n}")
            continue
        if len(tokens) != 2:
            raise GraphFormatError(
                f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise GraphFormatError(
                f"line {lineno}: endpoints are not integers: {line!r}") from None
        if u == v:
            raise GraphFormatError(f"line {lineno}: self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(
                f"line {lineno}: label out of range [0, {n}): {line!r}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise GraphFormatError(
                f"line {lineno}: duplicate edge {key[0]} {key[1]}")
        seen.add(key)
        edges.append(key)
    if n is None:
        raise GraphFormatError("empty input: missing vertex count line")
    return Graph(n, tuple(edges))


def _label(rng, x, signs):
    return ("+" if signs and rng.random() < 0.2 else "") + "0" * rng.choice(
        [0, 0, 0, 1, 2]) + str(x)


def _edge_list_lines(rng, n, signs):
    """A random edge list on n vertices, as the header line and the edge
    lines in random orientation, spacing and label padding."""
    pairs = list(itertools.combinations(range(n), 2))
    edges = rng.sample(pairs, rng.randint(0, len(pairs)))
    lines = []
    for u, v in edges:
        if rng.random() < 0.5:
            u, v = v, u
        lines.append(rng.choice(["", " ", "\t"]) + _label(rng, u, signs)
                     + rng.choice([" ", "\t", "  ", " \t "]) + _label(rng, v, signs)
                     + rng.choice(["", "", " ", "\t", " \t"]))
    return [rng.choice(["", " "]) + _label(rng, n, signs)] + lines


def _edge_list_text(rng, lines):
    """The lines joined with blank lines between some, in LF or CRLF, with
    or without a final line feed."""
    out = []
    for line in lines:
        while rng.random() < 0.15:
            out.append(rng.choice(["", " ", "\t", " \t "]))
        out.append(line)
    text = "\n".join(out) + rng.choice(["", "\n", "\n\n"])
    return text.replace("\n", "\r\n") if rng.random() < 0.2 else text


def _outcome(parse, text):
    try:
        return parse(text)
    except GraphFormatError as exc:
        return str(exc)


def _fault(rng, n, lines):
    """Insert one faulty line among the edge lines."""
    pairs = [k for k in range(1, len(lines)) if len(lines[k].split()) == 2]
    u = rng.randrange(max(n, 1))
    kinds = ["self-loop", "range", "one", "three", "word"]
    if pairs:
        kinds.append("duplicate")
    kind = rng.choice(kinds)
    at = rng.randint(1, len(lines))
    if kind == "self-loop":
        line = f"{u} {u}"
    elif kind == "duplicate":
        # after the line it repeats, in either orientation
        k = rng.choice(pairs)
        a, b = lines[k].split()
        line = rng.choice([f"{a} {b}", f"{b} {a}"])
        at = rng.randint(k + 1, len(lines))
    elif kind == "range":
        line = rng.choice([f"{u} {n + rng.randrange(3)}", f"{n} {u}",
                           f"{u} {2 ** 64 + n}", f"-{u + 1} {u}"])
    elif kind == "one":
        line = f"{u}"
    elif kind == "three":
        line = f"{u} {u + 1} {u + 2}"
    else:
        line = rng.choice([f"{u} x", f"a{u} 1", f"{u}.0 1", f"{u} 0x1"])
    return lines[:at] + [line] + lines[at:]


@pytest.mark.parametrize("signs", [False, True])
def test_parse_edge_list_matches_oracle_random(signs):
    rng = random.Random(1642 + signs)
    for _ in range(400):
        n = rng.randint(0, 12)
        lines = _edge_list_lines(rng, n, signs)
        text = _edge_list_text(rng, lines)
        g = parse_edge_list(text)
        assert g == oracle_parse_edge_list(text)
        assert g.edges == tuple(sorted(g.edges))
        if not signs and g.n <= 2 * g.m:
            # the bulk pass took the text and seeded the degrees
            assert "degrees" in vars(g)
            assert g.degrees == Graph(g.n, g.edges).degrees


@pytest.mark.parametrize("faults", [1, 2])
def test_parse_edge_list_errors_match_oracle_random(faults):
    rng = random.Random(1643 + faults)
    for _ in range(400):
        n = rng.randint(1, 12)
        lines = _edge_list_lines(rng, n, signs=False)
        for _ in range(faults):
            lines = _fault(rng, n, lines)
        text = _edge_list_text(rng, lines)
        message = _outcome(oracle_parse_edge_list, text)
        assert isinstance(message, str)
        assert _outcome(parse_edge_list, text) == message


@pytest.mark.parametrize("text", [
    "3\n0 1\n1 99999999999999999999\n",     # beyond a machine integer
    "3\n0 1\n1 +2\n1 0\n",                   # "+2" is refused by the bulk pass
    "+3\n0 1\n1 2\n",
    "3\n0 1\n-0 2\n",
    "1000000000000\n0 1\n",
    "100000000000000000000\n0 99999999999999999999\n",
    "0\n",
    "2\n0 1",
    " \n\t\n 03 \n0 1",
    "3 4\n0 1\n",
    "\n \n",
    # beyond int()'s default limit of 4300 digits
    pytest.param("1" * 4301 + "\n0 1\n", id="count-of-4301-digits"),
    pytest.param("3\n0 1\n1 " + "2" * 4301 + "\n", id="label-of-4301-digits"),
])
def test_parse_edge_list_edge_cases_match_oracle(text):
    assert _outcome(parse_edge_list, text) == _outcome(oracle_parse_edge_list, text)


def test_bulk_parse_refuses_faults_past_the_first_chunk():
    # a 150,000-edge path, about 2 MB: the labels are read in 1 MiB chunks,
    # and a fault in a later chunk must still send the text line by line
    m = 150_000
    lines = ["%d" % (m + 1)] + [f"{k} {k + 1}" for k in range(m)]
    text = "\n".join(lines) + "\n"
    g = parse_edge_list(text)
    assert g == Graph(m + 1, [(k, k + 1) for k in range(m)])
    assert "degrees" in vars(g)  # the bulk pass took the clean text
    at = 120_000
    assert len("\n".join(lines[:at])) > _EDGE_LIST_CHUNK
    for fault in ("7 7", lines[5], "6 5"):  # self-loop, duplicate, reversed
        bad = "\n".join(lines[:at] + [fault] + lines[at:]) + "\n"
        assert _parse_edge_list_bulk(bad) is None
        message = _outcome(parse_edge_list, bad)
        assert message.startswith(f"line {at + 1}: ")
        assert message == _outcome(oracle_parse_edge_list, bad)


def test_parse_edge_list_seeds_no_degrees_with_an_isolated_vertex():
    # n > 2m: the parser builds no n-sized degree array
    g = parse_edge_list("1000000000000\n0 1\n")
    assert g == Graph(10 ** 12, ((0, 1),)) and "degrees" not in vars(g)


# ── graph6 format ─────────────────────────────────────────────────────

def test_parse_graph6_k4():
    assert parse_graph6("C~") == complete(4)


def test_parse_graph6_k2():
    assert parse_graph6("A_") == Graph(2, ((0, 1),))


def test_to_graph6_k2_roundtrip():
    assert to_graph6(Graph(2, ((0, 1),))) == "A_"


def test_parse_graph6_strips_header():
    assert parse_graph6(">>graph6<<C~\n") == complete(4)


def oracle_parse_graph6(text: str) -> Graph:
    """The per-bit graph6 decoder parse_graph6 replaced, kept as its oracle:
    one step of a colex pair generator per upper-triangle bit."""
    s = text.strip(" \t\r\n")
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):].strip(" \t\r\n")
    if not s:
        raise GraphFormatError("empty graph6 string")
    for pos, ch in enumerate(s):
        b = ord(ch)
        if not 63 <= b <= 126:
            raise GraphFormatError(
                f"invalid graph6 byte {b} at position {pos} (must be 63..126)")
    if s[0] == "~":
        raise GraphFormatError("multi-byte graph6 sizes (n > 62) not supported")
    n = ord(s[0]) - 63
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(s) != 1 + nbytes:
        raise GraphFormatError(
            f"graph6 for n={n} needs {1 + nbytes} bytes, got {len(s)}")
    edges = []
    t = 0
    pairs = ((i, j) for j in range(1, n) for i in range(j))
    for ch in s[1:]:
        group = ord(ch) - 63
        for shift in range(5, -1, -1):
            bit = (group >> shift) & 1
            if t < nbits:
                if bit:
                    edges.append(next(pairs))
                else:
                    next(pairs)
            elif bit:
                raise GraphFormatError("non-zero padding bits in graph6 string")
            t += 1
    return Graph(n, tuple(edges))


def pack_graph6(n: int, bits: list[int]) -> str:
    """graph6 text of n and its upper-triangle bits, zero-padded to 6."""
    bits = bits + [0] * (-len(bits) % 6)
    return chr(63 + n) + "".join(
        chr(63 + int("".join(map(str, bits[t:t + 6])), 2))
        for t in range(0, len(bits), 6))


N62_ZERO_BYTES = "}" + "?" * 315  # n = 62: 1,891 bits in 316 bytes


@pytest.mark.parametrize("text, message", [
    ("C=", "invalid graph6 byte"),
    ("~??", "multi-byte"),
    ("C~~", "needs 2 bytes"),
    ("C", "needs 2 bytes"),
    ("A`", "non-zero padding"),
    ("", "empty"),
    ("Dh\x7fc", "invalid graph6 byte 127 at position 2 (must be 63..126)"),
    (">Dhc", "invalid graph6 byte 62 at position 0 (must be 63..126)"),
    ("A@", "non-zero padding bits in graph6 string"),
    pytest.param(N62_ZERO_BYTES + "@", "non-zero padding bits in graph6 string",
                 id="n62-padding"),
    pytest.param(N62_ZERO_BYTES, "graph6 for n=62 needs 317 bytes, got 316",
                 id="n62-short"),
    pytest.param(N62_ZERO_BYTES + "??", "graph6 for n=62 needs 317 bytes, got 318",
                 id="n62-long"),
])
def test_parse_graph6_errors(text, message):
    with pytest.raises(GraphFormatError, match=re.escape(message)) as ours:
        parse_graph6(text)
    # the whole message is the oracle's
    with pytest.raises(GraphFormatError) as theirs:
        oracle_parse_graph6(text)
    assert str(ours.value) == str(theirs.value)


@pytest.mark.parametrize("density", [0.1, 0.5, 0.9])
def test_parse_graph6_matches_oracle_random(density):
    rng = random.Random(6062)
    for n in range(63):
        bits = [int(rng.random() < density) for _ in range(n * (n - 1) // 2)]
        s = pack_graph6(n, bits)
        g = parse_graph6(s)
        # equality with a validated Graph checks the edge order too
        assert g == oracle_parse_graph6(s)
        assert g.edges == tuple(sorted(g.edges))
        assert g.m == sum(bits)
        assert to_graph6(g) == s


def test_graph6_roundtrip_exhaustive_small():
    for n in range(6):
        for g in naive_graphs(n):
            s = to_graph6(g)
            assert parse_graph6(s) == g
            assert parse_graph6(s) == oracle_parse_graph6(s)
            assert to_graph6(parse_graph6(s)) == s


@settings(max_examples=200)
@given(graph_strategy(max_n=8))
def test_graph6_matches_networkx(g):
    s = to_graph6(g)
    ref = nx.from_graph6_bytes(s.encode("ascii"))
    assert ref.number_of_nodes() == g.n
    assert tuple(sorted(tuple(sorted(e)) for e in ref.edges())) == g.edges
    # encode with networkx, decode with ours
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    theirs = nx.to_graph6_bytes(h, header=False).decode("ascii").strip()
    assert parse_graph6(theirs) == g


def test_graph6_rejects_large_n():
    with pytest.raises(ValueError, match="62"):
        to_graph6(Graph(63, ()))


# ── Degree profile ────────────────────────────────────────────────────

def test_degree_profile_star():
    p = degree_profile(star(4))
    assert (p.d, p.D) == (1, 3)
    assert p.class_sizes == {1: 3, 2: 0, 3: 1}
    assert p.cross_counts[(1, 3)] == 3
    assert sum(p.cross_counts.values()) == 3


def test_degree_profile_c5():
    p = degree_profile(cycle(5))
    assert (p.d, p.D) == (2, 2)
    assert p.class_sizes == {2: 5}
    assert p.cross_counts == {(2, 2): 5}


def test_degree_profile_k23():
    p = degree_profile(complete_bipartite(2, 3))
    assert (p.d, p.D) == (2, 3)
    assert p.class_sizes == {2: 3, 3: 2}
    assert p.cross_counts[(2, 3)] == 6
    assert p.cross_counts[(2, 2)] == 0 and p.cross_counts[(3, 3)] == 0


def test_degree_profile_rejects_isolated():
    with pytest.raises(ValueError, match="isolated"):
        degree_profile(Graph(3, ((0, 1),)))
    with pytest.raises(ValueError):
        degree_profile(Graph(0, ()))


@settings(max_examples=200)
@given(graph_strategy(max_n=7, min_n=1))
def test_degree_profile_invariants(g):
    if min(g.degrees) == 0:
        with pytest.raises(ValueError):
            degree_profile(g)
        return
    p = degree_profile(g)
    assert sum(p.class_sizes.values()) == g.n
    for i in range(p.d, p.D + 1):
        # degree sum over a class counts internal edges twice
        total = 2 * p.cross_counts[(i, i)]
        total += sum(p.cross_counts[(min(i, j), max(i, j))]
                     for j in range(p.d, p.D + 1) if j != i)
        assert total == i * p.class_sizes[i]


def test_pair_histogram_consumers_match_edge_definitions():
    # Every graph with no isolated vertex and n <= 6, recomputed edge by edge
    # from the definitions: the pair histogram behind randic_direct, the
    # zero-filled cross counts of degree_profile, and degree-chain membership.
    for n in range(2, 7):
        for g in naive_graphs(n, min_degree=1):
            deg = g.degrees
            d, D = min(deg), max(deg)
            hist = {}
            for u, v in g.edges:
                key = tuple(sorted((deg[u], deg[v])))
                hist[key] = hist.get(key, 0) + 1
            assert randic_direct(g).pair_counts == hist

            prof = degree_profile(g)
            assert prof.cross_counts == {
                (i, j): hist.get((i, j), 0)
                for i in range(d, D + 1) for j in range(i, D + 1)}

            if d == D:
                with pytest.raises(ValueError):
                    degree_chain_certificate(g)
                continue
            cross = [(u, v) for u, v in g.edges if deg[u] != deg[v]]
            by_low = {i: [(u, v) for u, v in cross
                          if min(deg[u], deg[v]) == i] for i in range(d, D)}
            member = (all(abs(deg[u] - deg[v]) == 1 for u, v in cross)
                      and all(len(es) == 1 for es in by_low.values()))
            cert = degree_chain_certificate(g)
            if member:
                assert cert is not None
                assert (cert.d, cert.D) == (d, D)
                assert cert.cross_edges == tuple(by_low[i][0] for i in range(d, D))
            else:
                assert cert is None


def test_returned_pair_counts_are_a_copy():
    g = star(4)
    first = randic_direct(g)
    first.pair_counts[(1, 3)] = 99
    first.pair_counts[(2, 2)] = 1
    assert randic_direct(g).pair_counts == {(1, 3): 3}
    assert degree_profile(g).cross_counts[(1, 3)] == 3


# ── Connectivity ──────────────────────────────────────────────────────

def test_is_connected_examples():
    assert is_connected(Graph(2, ((0, 1),)))
    assert not is_connected(disjoint_union(Graph(2, ((0, 1),)), Graph(2, ((0, 1),))))
    assert is_connected(cycle(5))
    assert is_connected(Graph(1, ()))
    assert not is_connected(Graph(2, ()))
    with pytest.raises(ValueError):
        is_connected(Graph(0, ()))


def _random_component(rng, n):
    """Edges on 0..n-1 of a tree, path, cycle or sparse G(n, p), the last
    possibly disconnected itself."""
    kind = rng.choice(("tree", "path", "cycle", "gnp"))
    if kind == "tree":
        return [(rng.randrange(i), i) for i in range(1, n)]
    if kind == "path" or (kind == "cycle" and n < 3):
        return [(i, i + 1) for i in range(n - 1)]
    if kind == "cycle":
        return [(i, (i + 1) % n) for i in range(n)]
    # G(n, p) with n * p in [0.5, 4): below, near and above the threshold
    # at which it becomes connected; the gaps between the chosen pairs, in
    # the order (0, 1), (0, 2), (1, 2), (0, 3), ..., are geometric
    p = min(rng.uniform(0.5, 4.0) / n, 0.9)
    edges, u, v = [], -1, 1
    while v < n:
        u += 1 + int(math.log(1.0 - rng.random()) / math.log(1.0 - p))
        while u >= v and v < n:
            u, v = u - v, v + 1
        if v < n:
            edges.append((u, v))
    return edges


def _random_union(rng):
    """A relabeled disjoint union of 1-3 random components, n up to ~3,000."""
    edges, n = [], 0
    for _ in range(rng.randint(1, 3)):
        size = int(round(math.exp(rng.uniform(0, math.log(1000)))))
        edges += [(u + n, v + n) for u, v in _random_component(rng, size)]
        n += size
    return Graph(n, tuple(edges)).relabel(rng.sample(range(n), n))


def test_is_connected_matches_naive_on_random_graphs():
    rng = random.Random(20260)
    seen = {True: 0, False: 0}
    spanning = 0  # disconnected yet with at least n - 1 edges
    for _ in range(300):
        g = _random_union(rng)
        want = _naive_connected(g.n, g.edges)
        assert is_connected(g) == want, (g.n, g.edges)
        seen[want] += 1
        spanning += not want and g.m >= g.n - 1
    assert min(seen.values()) >= 50 and spanning >= 20


def test_bounds_report_on_a_non_regular_graph_builds_no_adjacency():
    rng = random.Random(7)
    checked = 0
    while checked < 40:
        g = _random_union(rng)
        if g.n > 2 * g.m or g.degree_range[0] in (0, g.degree_range[1]):
            continue
        assert bounds_report(g).connected == _naive_connected(g.n, g.edges)
        checked += 1
    assert not hasattr(Graph, "adjacency")


@pytest.mark.parametrize("g", [Graph(10 ** 12, ((0, 1),)), Graph(10 ** 20, ())],
                         ids=["1e12-one-edge", "1e20-no-edge"])
def test_more_vertices_than_twice_the_edges_allocate_nothing_n_sized(g):
    # every reader below refuses the graph before building an n-sized array,
    # which these vertex counts could not hold
    assert not is_connected(g)
    assert biregular_certificate(g) is None
    for refuse in (degree_profile, degree_chain_certificate, randic_direct,
                   randic_deviation):
        with pytest.raises(ValueError, match="isolated vertex present "
                                             r"\(all degrees must be positive\)"):
            refuse(g)
    assert "degrees" not in g.__dict__


# ── Biregular certificates ────────────────────────────────────────────

def test_biregular_star():
    cert = biregular_certificate(star(4))
    assert (cert.a, cert.b) == (1, 3)
    assert cert.parts == ((1, 2, 3), (0,))


def test_biregular_k23():
    cert = biregular_certificate(complete_bipartite(2, 3))
    assert (cert.a, cert.b) == (2, 3)
    assert len(cert.parts[0]) == 3 and len(cert.parts[1]) == 2


def test_biregular_absent():
    assert biregular_certificate(cycle(5)) is None          # odd cycle
    assert biregular_certificate(path(4)) is None           # sides not uniform
    assert biregular_certificate(Graph(3, ((0, 1),))) is None  # isolated vertex
    assert biregular_certificate(Graph(2, ())) is None      # no edges


def test_biregular_regular_bipartite():
    cert = biregular_certificate(cycle(6))
    assert (cert.a, cert.b) == (2, 2)


def test_biregular_disconnected():
    two_k2 = disjoint_union(Graph(2, ((0, 1),)), Graph(2, ((0, 1),)))
    cert = biregular_certificate(two_k2)
    assert (cert.a, cert.b) == (1, 1)
    two_stars = disjoint_union(star(4), star(4))
    cert = biregular_certificate(two_stars)
    assert (cert.a, cert.b) == (1, 3)
    assert set(cert.parts[1]) == {0, 4}
    cert = biregular_certificate(disjoint_union(path(3), path(3)))
    assert (cert.a, cert.b, cert.parts) == (1, 2, ((0, 2, 3, 5), (1, 4)))
    # two interleaved C4s, 0-3-4-7 and 1-2-6-5: each is oriented on its own
    two_c4 = Graph(8, ((0, 3), (3, 4), (4, 7), (0, 7),
                       (1, 2), (2, 6), (5, 6), (1, 5)))
    cert = biregular_certificate(two_c4)
    assert (cert.a, cert.b, cert.parts) == (2, 2, ((0, 1, 4, 6), (2, 3, 5, 7)))
    # mixed degree pairs across components do not qualify
    assert biregular_certificate(disjoint_union(star(4), cycle(4))) is None
    assert biregular_certificate(disjoint_union(star(4), Graph(2, ((0, 1),)))) is None
    assert biregular_certificate(disjoint_union(star(4), star(3))) is None


def _brute_force_degree_pairs(g):
    """Every (a, b) with 1 <= a <= b such that some proper two-coloring of g
    puts only degree-a vertices on side 0 and only degree-b ones on side 1,
    found by trying all 2^n colorings."""
    deg = g.degrees
    found = set()
    for mask in range(2 ** g.n):
        if any((mask >> u & 1) == (mask >> v & 1) for u, v in g.edges):
            continue
        side0 = {deg[v] for v in range(g.n) if not mask >> v & 1}
        side1 = {deg[v] for v in range(g.n) if mask >> v & 1}
        if len(side0) == len(side1) == 1 and 1 <= min(side0) <= min(side1):
            found.add((min(side0), min(side1)))
    return found


def _components(g):
    root = list(range(g.n))

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for u, v in g.edges:
        root[find(u)] = find(v)
    comps = {}
    for v in range(g.n):
        comps.setdefault(find(v), []).append(v)
    return list(comps.values())


def test_biregular_matches_brute_force_colorings():
    for n in range(6):
        for g in naive_graphs(n):
            cert = biregular_certificate(g)
            found = _brute_force_degree_pairs(g)
            assert bool(found) == (cert is not None), g
            if cert is None:
                continue
            assert found == {(cert.a, cert.b)}, g
            deg = g.degrees
            first, second = cert.parts
            if cert.a < cert.b:
                # the parts are the two degree classes
                assert first == tuple(v for v in range(n) if deg[v] == cert.a)
                assert second == tuple(v for v in range(n) if deg[v] == cert.b)
            else:
                # a proper coloring with each component's lowest vertex first
                assert sorted(first + second) == list(range(n))
                assert all((u in first) != (v in first) for u, v in g.edges)
                assert all(min(c) in first for c in _components(g))


def _circulant(rng, r, k, bipartite):
    """Edges of an r-regular circulant on 0..k-1: r // 2 jumps below k / 2,
    plus the jump k / 2 when r is odd (k even).  Bipartite asks for k even,
    odd jumps and, for odd r, k / 2 odd; otherwise jump 1 closes an odd
    cycle, the whole k-cycle for odd k or 1, 2, ..., k / 2 + 1 for even k."""
    pool = [j for j in range(2, (k + 1) // 2) if not bipartite or j % 2]
    jumps = [1] + rng.sample(pool, r // 2 - 1) if r > 1 else []
    edges = [(i, (i + j) % k) for i in range(k) for j in jumps]
    if r % 2:
        edges += [(i, i + k // 2) for i in range(k // 2)]
    return edges


def _random_regular_union(rng):
    """A relabeled disjoint union of 1-3 r-regular circulants, each bipartite
    or not at random, n up to ~3,000; the union is bipartite iff each
    component is."""
    r = rng.choice((1, 2, 2, 3, 4))
    edges, n, kinds = [], 0, set()
    for _ in range(rng.randint(1, 3)):
        bipartite = r == 1 or rng.random() < 0.5
        k = rng.randrange(max(2 * r, 4), 1000)
        if r % 2:
            # k / 2 odd for a bipartite circulant, even for an odd cycle
            k += (2 if bipartite else 0) - k % 4
        else:
            k += (k % 2) ^ (not bipartite)
        edges += [(u + n, v + n) for u, v in _circulant(rng, r, k, bipartite)]
        n += k
        kinds.add(bipartite)
    return Graph(n, tuple(edges)).relabel(rng.sample(range(n), n)), kinds


def test_regular_two_coloring_matches_bfs_oracle():
    rng = random.Random(4242)
    cycles = [cycle(k).relabel(rng.sample(range(k), k))
              for k in (3, 4, 5, 6, 2999, 3000)]
    outcomes = {True: 0, False: 0}
    mixed = 0  # unions of bipartite and non-bipartite components
    for g in cycles:
        want = bfs_two_coloring(g)
        cert = biregular_certificate(g)
        assert (cert is None) == (want is None) == (g.n % 2 == 1)
        assert cert is None or cert.parts == want
    for _ in range(150):
        g, kinds = _random_regular_union(rng)
        d, D = g.degree_range
        assert d == D
        want = bfs_two_coloring(g)
        assert (want is not None) == (kinds == {True})
        cert = biregular_certificate(g)
        if want is None:
            assert cert is None, g.n
        else:
            assert cert is not None and (cert.a, cert.b) == (d, d)
            assert cert.parts == want, g.n
        outcomes[want is None] += 1
        mixed += kinds == {True, False}
    assert min(outcomes.values()) >= 40 and mixed >= 20


@settings(max_examples=200)
@given(graph_strategy(max_n=7, min_n=1))
def test_biregular_agrees_with_degree_extremes(g):
    cert = biregular_certificate(g)
    if cert is None:
        return
    deg = g.degrees
    assert {cert.a, cert.b} == {min(deg), max(deg)}
    left, right = map(set, cert.parts)
    assert left | right == set(range(g.n)) and not (left & right)
    assert all(deg[v] == cert.a for v in left)
    assert all(deg[v] == cert.b for v in right)
    for u, v in g.edges:
        assert (u in left) != (v in left)


def test_degree_multiset():
    assert degree_multiset(star(4)) == {1: 3, 3: 1}
