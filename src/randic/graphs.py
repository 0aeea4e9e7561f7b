"""Simple undirected graphs: representation, serialization, degree bookkeeping.

Vertices are dense integers 0..n-1.  Two text formats are supported:

* edge list -- first line ``n``, then one ``u v`` pair per line;
* graph6    -- compact ASCII packing of the upper-triangle adjacency bits,
  restricted to n <= 62 (single size byte).
"""

from __future__ import annotations

import re
from array import array
from collections import Counter
from functools import cached_property
from itertools import chain, compress, islice, repeat
from operator import (add, and_, eq, floordiv, gt, itemgetter, lshift, mod,
                      mul, or_, rshift)
from typing import Iterable, NamedTuple, Optional


class GraphFormatError(ValueError):
    """Raised when a graph file or string cannot be parsed."""


class _Columns(NamedTuple):
    """Edges handed to Graph as two columns, edge k being (us[k], vs[k]):
    how the edge-list parsers pass the edges they checked as they read them,
    0 <= u < v < n and sorted with no duplicate, which Graph keeps as given."""

    us: array | tuple
    vs: array | tuple


class Graph:
    """Immutable simple graph: vertex count plus its edges as two columns.

    Edge k is (``_us[k]``, ``_vs[k]``) with u < v, sorted by (u, v).  The
    bulk edge-list parser hands over int64 arrays, 8 bytes a label and no
    int object each; other columns are tuples, which share the int objects
    of the pairs or tables they were read from.  Any iterable of vertex
    pairs is accepted; edges are normalized to ``(min, max)`` and sorted.
    Self-loops, duplicates, out-of-range labels and an ``n`` or label that
    is not an ``int`` are rejected, a ``bool`` too: ``format_edge_list``
    would write it as "True" or "False".  ``_Columns``, which only the
    edge-list parsers pass, were checked where they were read and are kept
    as given.

    ``edges``, the sorted tuple of pairs, is built on first use: the columns
    are the one copy of the edges, and the readers in this package read
    them.  ``degrees``, ``degree_range`` and the degree-pair histogram
    ``pair_counts`` are computed on first use and cached.

    ``Graph`` is a plain class, not a dataclass: its attributes are written
    once, through ``vars(self)``, and assigning or deleting one raises
    ``AttributeError``.
    """

    n: int

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        vars(self)["n"] = n
        self.__post_init__(edges)

    def __post_init__(self, edges) -> None:
        # the check of n and the edges; Graph is no longer a dataclass, but
        # the hook keeps its name, the one bench/tracing.py times it under
        n = self.n
        if type(n) is not int:
            raise ValueError(f"vertex count {n!r} is a {type(n).__name__}, not an int")
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        if not isinstance(edges, _Columns):
            edges = _columns(_normalized(n, edges))
        vars(self).update(_us=edges[0], _vs=edges[1])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to Graph attribute {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete Graph attribute {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        # label by label, so a tuple column equals an array one
        return ((self.n, self.m) == (other.n, other.m)
                and all(map(eq, chain(self._us, self._vs),
                            chain(other._us, other._vs))))

    def __hash__(self):
        return hash((self.n, tuple(self._us), tuple(self._vs)))

    def __repr__(self):
        return f"Graph(n={self.n!r}, edges={self.edges!r})"

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self._us, self._vs))

    @property
    def m(self) -> int:
        return len(self._us)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        deg = [0] * self.n
        for u in self._us:
            deg[u] += 1
        for v in self._vs:
            deg[v] += 1
        return tuple(deg)

    @cached_property
    def degree_range(self) -> tuple[int, int]:
        """(minimum degree, maximum degree); requires n >= 1."""
        deg = self.degrees
        return min(deg), max(deg)

    @cached_property
    def pair_counts(self) -> dict[tuple[int, int], int]:
        """Sparse degree-pair histogram: (i, j) with i <= j maps to the number
        of edges whose endpoint degrees are {i, j}, in order of each key's
        first edge.  Shared by every caller, so treat it as read-only."""
        # ordered pairs counted in C, then folded to i <= j; a folded key
        # first appears with whichever of its two orders comes first.  A
        # list's __getitem__ is a plain C method, a tuple's a slower wrapper.
        deg = list(self.degrees).__getitem__
        counts: dict[tuple[int, int], int] = {}
        for (a, b), c in Counter(zip(map(deg, self._us),
                                     map(deg, self._vs))).items():
            key = (a, b) if a <= b else (b, a)
            counts[key] = counts.get(key, 0) + c
        return counts

    def relabel(self, perm: Iterable[int]) -> "Graph":
        """Return the graph with vertex v renamed to perm[v]."""
        p = list(perm)
        # a bool or float equal to its label would pass the sort test
        if sorted(p) != list(range(self.n)) or {*map(type, p)} - {int}:
            raise ValueError("perm must be a permutation of 0..n-1")
        # renaming the labels of a valid graph leaves no self-loop,
        # duplicate or label out of range, so only the pairs' order and
        # orientation are redone
        at = p.__getitem__
        return _graph_unchecked(self.n, *_columns(sorted(
            [(u, v) if u < v else (v, u)
             for u, v in zip(map(at, self._us), map(at, self._vs))])))


def _columns(pairs) -> tuple[tuple, tuple]:
    # the first and the second label of every pair, as two tuples
    return tuple(map(itemgetter(0), pairs)), tuple(map(itemgetter(1), pairs))


def _normalized(n: int, pairs: Iterable) -> tuple[tuple[int, int], ...]:
    # the per-edge check of the pairs Graph is given: each type-checked,
    # normalized to (min, max) and range-checked in order, then sorted and
    # searched for duplicates
    norm = []
    for e in pairs:
        u, v = e
        if type(u) is not int or type(v) is not int:
            x = v if type(u) is int else u
            raise ValueError(f"vertex label {x!r} is a {type(x).__name__}, not an int")
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


def _graph_unchecked(n: int, us: tuple, vs: tuple,
                     degrees: Optional[tuple[int, ...]] = None) -> Graph:
    # Fast path for the enumerator, parse_graph6 and relabel, whose columns
    # are sorted and valid by construction; the degrees the enumerator
    # already knows are seeded into their cache.
    g = object.__new__(Graph)
    vars(g).update(n=n, _us=us, _vs=vs)
    if degrees is not None:
        vars(g)["degrees"] = degrees
    return g


class DegreeProfile(NamedTuple):
    """Degree-class decomposition of a graph.

    d, D are the minimum and maximum degree.  class_sizes[i] counts the
    vertices of degree i for every i in [d, D] (zeros included), and
    cross_counts[(i, j)] with i <= j counts the edges joining a degree-i
    vertex to a degree-j vertex (every pair in range present, zeros
    included).
    """

    d: int
    D: int
    class_sizes: dict[int, int]
    cross_counts: dict[tuple[int, int], int]


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list format: first line n, then one "u v" per line.

    Only a line feed ends a line, optionally after a carriage return, and
    blank lines are skipped.  Self-loops, duplicate edges, malformed lines
    and out-of-range labels are rejected with a line-numbered message, and
    so is the first line holding a non-ASCII character, "_", a carriage
    return that does not end the line, or a control byte that str.split()
    takes for a space (\\x0b, \\x0c, \\x1c-\\x1f), before any line is parsed.

    The text is parsed in bulk into a Graph's two sorted columns, with no
    pair built per edge, and the Graph has its degrees filled in (none when
    n > 2m, so no n-sized array is built for a graph that must have an
    isolated vertex).  Input the bulk pass refuses, a fault or a form such
    as "+3" that int() reads, is parsed line by line, which reports the
    first fault in file order.
    """
    # int() would read "1_1" and non-ASCII digits, and split() would split
    # at a non-ASCII space or at these control bytes; the whole-text test
    # keeps clean input fast, and only input holding "\r" is copied
    if "\r" in text:
        text = text.replace("\r\n", "\n")
    stray = "_\r\x0b\x0c\x1c\x1d\x1e\x1f"
    if not text.isascii() or any(c in text for c in stray):
        lineno, raw = next((k, raw) for k, raw in enumerate(text.split("\n"), 1)
                           if not raw.isascii() or any(c in raw for c in stray))
        raise GraphFormatError(
            f"line {lineno}: expected ASCII decimal integers, got {raw!a}")
    g = _parse_edge_list_bulk(text)
    return g if g is not None else _parse_edge_list_lines(text)


# the first non-blank line holding one decimal count, up to its line feed
_EDGE_LIST_HEAD = re.compile(r"[ \t\n]*(\d+)[ \t]*(?=\n|\Z)")
# the line feed before the first line neither blank nor two decimal labels
_EDGE_LIST_BAD_LINE = re.compile(r"\n(?![ \t]*(?:\d+[ \t]+\d+[ \t]*)?$)", re.M)
_EDGE_LIST_CHUNK = 1 << 20


def _parse_edge_list_bulk(text: str) -> Optional[Graph]:
    # None refuses the text: a malformed line, a label int() or the int64
    # buffer cannot hold, an out-of-range label, a self-loop or a duplicate
    # edge; the checks here are the only ones, and Graph keeps the columns
    head = _EDGE_LIST_HEAD.match(text)
    if head is None or _EDGE_LIST_BAD_LINE.search(text, head.end()):
        return None
    # labels u0 v0 u1 v1 ..., split ~1 MB at a time, each part ending at a
    # line feed, so no list of every token is built
    labels = array("q")
    start = head.end()
    try:
        n = int(head.group(1))
        while start < len(text):
            end = text.find("\n", start + _EDGE_LIST_CHUNK)
            end = len(text) if end < 0 else end
            labels.extend(map(int, text[start:end].split()))
            start = end
    except (OverflowError, ValueError):
        return None
    if labels and max(labels) >= n:
        return None
    # edge (u, v), u < v, as u*n + v: sorting the keys sorts the edges, and
    # labels below n decode back into the two columns
    us, vs = labels[::2], labels[1::2]
    del labels
    if any(map(eq, us, vs)):
        return None
    keys = sorted(map(add, map(mul, map(min, us, vs), repeat(n)), map(max, us, vs)))
    del us, vs
    # a duplicate, in either orientation, is two equal neighbours
    if any(map(eq, keys, islice(keys, 1, None))):
        return None
    g = Graph(n, _Columns(array("q", map(floordiv, keys, repeat(n))),
                          array("q", map(mod, keys, repeat(n)))))
    del keys
    if n <= 2 * g.m:
        g.degrees  # counted here, so that a parsed graph has its degrees
    return g


def _parse_edge_list_lines(text: str) -> Graph:
    # line by line, raising at the first fault; text is ASCII and holds no
    # stray byte
    n: Optional[int] = None
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
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
    edges.sort()
    return Graph(n, _Columns(*_columns(edges)))


def format_edge_list(g: Graph) -> str:
    """Serialize a graph in the edge-list format (inverse of parse_edge_list)."""
    lines = [str(g.n)]
    lines.extend(map("{} {}".format, g._us, g._vs))
    return "\n".join(lines) + "\n"


_G6_HEADER = ">>graph6<<"
_G6_BAD_BYTE = re.compile(r"[^?-~]")
# graph6 bit order: the pairs (i, j), i < j, for j = 1, 2, ... and i = 0..j-1,
# up to n = 62, as keys i * 64 + j, which sort as the pairs do; the pairs of
# a smaller n are a prefix
_G6_KEYS = tuple(i << 6 | j for j in range(1, 62) for i in range(j))
# each graph6 byte's six bits, most significant first, as code points 0 and 1
_G6_BITS = {b: "".join(chr((b - 63) >> s & 1) for s in range(5, -1, -1))
            for b in range(63, 127)}
_G6_BYTE = {bits: chr(b) for b, bits in _G6_BITS.items()}


def parse_graph6(text: str) -> Graph:
    """Decode a graph6 string (single-byte size, n <= 62).

    Bit order: pairs (i, j) for j = 1..n-1, i = 0..j-1, packed big-endian
    into 6-bit groups, each offset by 63 into printable bytes.  Only spaces,
    tabs, carriage returns and line feeds are stripped from the ends; other
    bytes outside 63..126, a multi-byte size prefix, a wrong byte count, and
    non-zero padding bits are all rejected.
    """
    s = text.strip(" \t\r\n")
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER):].strip(" \t\r\n")
    if not s:
        raise GraphFormatError("empty graph6 string")
    bad = _G6_BAD_BYTE.search(s)
    if bad:
        raise GraphFormatError(f"invalid graph6 byte {ord(bad.group())} at "
                               f"position {bad.start()} (must be 63..126)")
    if s[0] == "~":
        raise GraphFormatError("multi-byte graph6 sizes (n > 62) not supported")
    n = ord(s[0]) - 63
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(s) != 1 + nbytes:
        raise GraphFormatError(
            f"graph6 for n={n} needs {1 + nbytes} bytes, got {len(s)}")
    bits = s[1:].translate(_G6_BITS).encode("latin-1")
    if any(bits[nbits:]):
        raise GraphFormatError("non-zero padding bits in graph6 string")
    # the pairs come in colex order, which is not sorted lexicographically
    keys = sorted(compress(_G6_KEYS, bits))
    return _graph_unchecked(n, tuple(map(rshift, keys, repeat(6))),
                            tuple(map(and_, keys, repeat(63))))


def to_graph6(g: Graph) -> str:
    """Encode a graph as graph6 (inverse of parse_graph6); requires n <= 62."""
    if g.n > 62:
        raise ValueError(f"graph6 encoding supports n <= 62, got {g.n}")
    nbits = g.n * (g.n - 1) // 2
    present = set(map(or_, map(lshift, g._us, repeat(6)), g._vs))
    bits = "".join(["\x01" if k in present else "\x00"
                    for k in _G6_KEYS[:nbits]])
    bits += "\x00" * (-nbits % 6)
    return chr(63 + g.n) + "".join(
        [_G6_BYTE[bits[t:t + 6]] for t in range(0, len(bits), 6)])


def _positive_degrees(g: Graph, what: str) -> tuple[int, ...]:
    """Return g's degrees, refusing the empty graph, for which ``what`` is
    undefined, and a graph with an isolated vertex: the paper's bounds hold
    for minimum degree at least 1, and their readers divide by degrees."""
    if g.n == 0:
        raise ValueError(f"{what} undefined for the empty graph")
    # more than 2m vertices cannot all meet an edge: refused before any
    # n-sized array is built, which a count such as 10**12 could not hold
    if g.n > 2 * g.m or g.degree_range[0] == 0:
        raise ValueError("isolated vertex present (all degrees must be positive)")
    return g.degrees


def degree_profile(g: Graph) -> DegreeProfile:
    """Compute the degree-class decomposition (class sizes and cross counts).

    Rejects graphs with an isolated vertex: every quantity downstream
    divides by a degree.
    """
    deg = _positive_degrees(g, "degree profile")
    d, D = g.degree_range
    sizes = {i: 0 for i in range(d, D + 1)}
    for x in deg:
        sizes[x] += 1
    cross = {(i, j): 0 for i in range(d, D + 1) for j in range(i, D + 1)}
    cross.update(g.pair_counts)
    return DegreeProfile(d=d, D=D, class_sizes=sizes, cross_counts=cross)


def is_connected(g: Graph) -> bool:
    """True iff every vertex is reachable from vertex 0 (requires n >= 1).

    A union-find over the edges (``_unite``) stops once n - 1 merges leave
    one set.  A graph with fewer than n - 1 edges has no spanning tree, so
    it is refused before anything n-sized is allocated.
    """
    n = g.n
    if n < 1:
        raise ValueError("connectivity undefined for n = 0")
    if g.m < n - 1:
        return False
    return _unite(array("q", range(n)), zip(g._us, g._vs), n - 1) == n - 1


def _unite(parent: list[int] | array, pairs: Iterable[tuple[int, int]],
           merges: int) -> int:
    """Union-find: join each pair's sets in the forest ``parent``, stopping
    after ``merges`` merges, and return the merges made.  Paths are halved
    and the larger root goes under the smaller, so a parent's label never
    exceeds its child's and each root is its set's least label."""
    made = 0
    for u, v in pairs:
        while (p := parent[u]) != u:
            parent[u] = u = parent[p]
        while (p := parent[v]) != v:
            parent[v] = v = parent[p]
        if u != v:
            if u < v:
                parent[v] = u
            else:
                parent[u] = v
            made += 1
            if made == merges:
                break
    return made


class BiregularCertificate(NamedTuple):
    """Witness that a graph is (a, b)-biregular: a two-coloring whose first
    part is uniformly degree a and second uniformly degree b, a <= b."""

    a: int
    b: int
    parts: tuple[tuple[int, ...], tuple[int, ...]]


def biregular_certificate(g: Graph) -> Optional[BiregularCertificate]:
    """Return a biregular certificate, or None when the graph has none.

    With d < D the minimum and maximum degree, the graph is biregular iff
    every edge joins a degree-d vertex to a degree-D vertex, which the
    degree-pair histogram records: the parts are the two degree classes
    and no traversal is needed.  A regular graph qualifies iff it is
    bipartite: in its double cover, where edge (u, v) joins u to v + n and
    u + n to v, v meets its copy v + n iff v's component has an odd cycle;
    otherwise v goes second iff its root is above its copy's, so each
    component's lowest-labeled vertex goes first.  Graphs with a degree-0
    vertex never qualify (the degenerate (0, b) reading is not useful
    here), and more than 2m vertices mean one is there, so such a graph is
    refused before any n-sized array is built.
    """
    if not g.m or g.n > 2 * g.m:
        return None
    n = g.n
    d, D = g.degree_range
    if d < D:
        # a degree-0 vertex has no edge, so its degree never shows as a key
        if g.pair_counts.keys() != {(d, D)}:
            return None
        side = [x == D for x in g.degrees]
    else:
        parent = array("q", range(2 * n))
        us, vs = g._us, g._vs
        _unite(parent, chain(zip(us, map(add, vs, repeat(n))),
                             zip(map(add, us, repeat(n)), vs)), 2 * n - 1)
        # parents precede children, so one pass in label order finds roots
        for v in range(2 * n):
            parent[v] = parent[parent[v]]
        roots, copies = parent[:n], parent[n:]
        if any(map(eq, roots, copies)):
            return None  # odd cycle
        side = list(map(gt, roots, copies))
    return BiregularCertificate(
        a=d, b=D,
        parts=(tuple(v for v in range(n) if not side[v]),
               tuple(v for v in range(n) if side[v])))


def degree_multiset(g: Graph) -> dict[int, int]:
    """Map degree -> number of vertices with that degree."""
    return dict(sorted(Counter(g.degrees).items()))
