"""Randic index: direct edge sum and the deviation-from-regular form.

Both evaluations use math.fsum (exactly rounded summation) with square
roots taken on integer degree products, which keeps the residual between
the two forms at a few ulp of values up to n/2 -- far below the 1e-12
contract for any graph with n <= 62.  The bounds are not decided here, nor
by any float: bounds_report reads their signs off the degree-pair
histogram.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .graphs import Graph

#: Tolerance for the float-vs-float checks of identities that hold exactly in
#: real arithmetic (both index forms, the decomposition, the chain closed
#: form, the telescoping gap, the star baseline), all at n <= 62.
IDENTITY_TOLERANCE = 1e-12


@dataclass(frozen=True)
class RandicValue:
    """Computed index plus the exact degree-pair multiset behind it.

    pair_counts maps (i, j) with i <= j to the number of edges whose
    endpoint degrees are {i, j}; the counts sum to |E| and the value equals
    sum(count / sqrt(i*j)).
    """

    value: float
    pair_counts: dict[tuple[int, int], int]


def _checked_degrees(g: Graph) -> tuple[int, ...]:
    if g.n == 0:
        raise ValueError("Randic index undefined for the empty graph")
    # the m edges reach at most 2m vertices; this test needs no n-sized
    # degree array, which a vertex count such as 10**12 could not hold
    if g.n > 2 * g.m or g.degree_range[0] == 0:
        raise ValueError("isolated vertex present (all degrees must be positive)")
    return g.degrees


def randic_direct(g: Graph) -> RandicValue:
    """Sum 1/sqrt(d(u)*d(v)) over all edges uv."""
    _checked_degrees(g)
    counts = g.pair_counts
    value = math.fsum(c / math.sqrt(i * j) for (i, j), c in counts.items())
    return RandicValue(value=value, pair_counts=dict(counts))


def randic_deviation(g: Graph) -> float:
    """Evaluate the index as n/2 minus half the summed squared differences
    of reciprocal root degrees over edges (zero exactly on regular graphs)."""
    deg = _checked_degrees(g)
    inv = {x: 1.0 / math.sqrt(x) for x in set(deg)}
    dev = math.fsum(0.5 * (inv[deg[u]] - inv[deg[v]]) ** 2 for u, v in g.edges)
    return g.n / 2 - dev


def identity_residual(g: Graph) -> float:
    """|randic_direct - randic_deviation|; the two forms agree algebraically."""
    return abs(randic_direct(g).value - randic_deviation(g))
