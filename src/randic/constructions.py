"""Extremal witnesses for the two degree-based bounds.

* ``build_biregular`` produces (d, D)-biregular graphs, the equality class
  of the lower bound, via a deterministic round-robin bipartite layout.
* ``build_degree_chain`` produces the block-chain graphs attaining the
  upper bound: one block per degree value in [d, D], consecutive blocks
  joined by a single edge.
* ``degree_chain_certificate`` decides membership in the upper-bound
  equality family: every unequal-degree edge joins consecutive degree
  classes and each consecutive class pair is joined by exactly one edge.
"""

from __future__ import annotations

from itertools import compress
from math import gcd
from operator import ne
from typing import NamedTuple, Optional

from .graphs import Graph


class DegreeChainCertificate(NamedTuple):
    """Witness of upper-bound equality structure.

    cross_edges lists, for each i in [d, D-1] in order, the unique edge
    joining the degree-i class to the degree-(i+1) class; no other
    unequal-degree edge exists.
    """

    d: int
    D: int
    cross_edges: tuple[tuple[int, int], ...]


def build_biregular(d: int, D: int, scale: int = 1) -> Graph:
    """Build a (d, D)-biregular graph with part sizes scale*d/g and scale*D/g.

    g = gcd(d, D).  The left part (scale*d/g vertices) has uniform degree D,
    the right part (scale*D/g vertices) uniform degree d.  Edge slot t for
    t = 0..D*p-1 joins left vertex t // D to right vertex t % q, which is
    simple exactly when q >= D, i.e. scale >= g.
    """
    if not (1 <= d < D):
        raise ValueError(f"need 1 <= d < D, got d={d}, D={D}")
    if scale < 1:
        raise ValueError(f"scale must be positive, got {scale}")
    g = gcd(d, D)
    p = scale * d // g
    q = scale * D // g
    if q < D:
        raise ValueError(
            f"scale {scale} too small for a simple graph: right part has "
            f"{q} < {D} vertices; minimal feasible scale is {g}")
    edges = [(t // D, p + t % q) for t in range(D * p)]
    return Graph(p + q, tuple(edges))


def build_end_block(i: int) -> Graph:
    """Block for the extreme degree values: complement of P_3 + (i-1)/2 copies
    of K_2 on i+2 vertices.  Exactly one vertex has degree i-1, the rest i.

    Requires odd i >= 3; the degree-1 end of a chain uses a single vertex
    instead (see build_degree_chain).
    """
    if i < 3 or i % 2 == 0:
        raise ValueError(f"end block needs an odd degree >= 3, got {i}")
    n = i + 2
    # Complemented graph: path 0-1-2 plus the matching (3,4), (5,6), ...
    removed = {(0, 1), (1, 2)}
    for k in range(3, n, 2):
        removed.add((k, k + 1))
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if (u, v) not in removed]
    return Graph(n, tuple(edges))


def build_mid_block(i: int) -> Graph:
    """Block for intermediate degrees: K_{i+1} minus the edge (0, 1).
    Vertices 0 and 1 have degree i-1, the rest degree i.  Requires i >= 2."""
    if i < 2:
        raise ValueError(f"mid block needs degree >= 2, got {i}")
    n = i + 1
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) != (0, 1)]
    return Graph(n, tuple(edges))


def build_degree_chain(d: int, D: int) -> Graph:
    """Assemble the block-chain graph with minimum degree d, maximum D.

    One block per degree value i in [d, D]: a single vertex for i = d = 1,
    end blocks at i = d and i = D, mid blocks in between.  The blocks'
    degree-deficient vertices are chained left to right by single edges
    (lowest-label deficient vertex receives, the next one forwards), after
    which every vertex in block i has degree exactly i.  Requires odd
    d < D.
    """
    if d % 2 == 0 or D % 2 == 0:
        raise ValueError(f"chain construction needs odd degrees, got d={d}, D={D}")
    if not (1 <= d < D):
        raise ValueError(f"need 1 <= d < D, got d={d}, D={D}")
    edges: list[tuple[int, int]] = []
    offset = 0
    prev_out: Optional[int] = None
    for i in range(d, D + 1):
        if i == d and d == 1:
            blk, deficient = Graph(1, ()), [0]
        elif i == d or i == D:
            blk, deficient = _end_with_deficient(i)
        else:
            blk = build_mid_block(i)
            deficient = [0, 1]
        edges.extend((offset + u, offset + v) for u, v in blk.edges)
        if prev_out is not None:
            edges.append((prev_out, offset + deficient[0]))
        # the last deficient vertex forwards to the next block; the final
        # block consumes its only deficient vertex as the receiver
        prev_out = offset + deficient[-1]
        offset += blk.n
    return Graph(offset, tuple(edges))


def _end_with_deficient(i: int) -> tuple[Graph, list[int]]:
    blk = build_end_block(i)
    deg = blk.degrees
    return blk, [v for v in range(blk.n) if deg[v] == i - 1]


def degree_chain_certificate(g: Graph) -> Optional[DegreeChainCertificate]:
    """Decide upper-bound equality membership; None when the graph fails.

    Requires no isolated vertices and d < D (the family is defined only for
    graphs that are not regular).  The certificate holds iff every edge
    with unequal endpoint degrees has degree difference exactly 1 and, for
    each i in [d, D-1], exactly one edge joins the degree-i class to the
    degree-(i+1) class.
    """
    if g.n == 0:
        raise ValueError("membership undefined for the empty graph")
    # n > 2m leaves a vertex with no edge: refused before anything n-sized
    if g.n > 2 * g.m or g.degree_range[0] == 0:
        raise ValueError("isolated vertex present (all degrees must be positive)")
    d, D = g.degree_range
    if d == D:
        raise ValueError("membership defined only for d < D (graph is regular)")
    # Unequal keys are distinct pairs inside [d, D]; D - d of them, all of
    # the form (i, i + 1), cover every i in [d, D - 1] once, which also makes
    # every degree class in [d, D] nonempty.
    pairs = g.pair_counts
    cross = [(i, j) for i, j in pairs if i != j]
    if len(cross) != D - d or any(j != i + 1 or pairs[(i, j)] != 1
                                  for i, j in cross):
        return None
    deg = g.degrees.__getitem__
    us, vs = g._us, g._vs
    consecutive = {min(deg(u), deg(v)): (u, v) for u, v in compress(
        zip(us, vs), map(ne, map(deg, us), map(deg, vs)))}
    return DegreeChainCertificate(
        d=d, D=D, cross_edges=tuple(consecutive[i] for i in range(d, D)))
