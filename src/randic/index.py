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
from itertools import chain, repeat
from typing import NamedTuple

from .graphs import Graph, _positive_degrees

#: Tolerance for the float-vs-float checks of identities that hold exactly in
#: real arithmetic (both index forms, the decomposition, the telescoping gap,
#: the star baseline), all at n <= 62.
IDENTITY_TOLERANCE = 1e-12


class RandicValue(NamedTuple):
    """Computed index plus the exact degree-pair multiset behind it.

    pair_counts maps (i, j) with i <= j to the number of edges whose
    endpoint degrees are {i, j}; the counts sum to |E| and the value equals
    sum(count / sqrt(i*j)).
    """

    value: float
    pair_counts: dict[tuple[int, int], int]


def randic_direct(g: Graph) -> RandicValue:
    """Sum 1/sqrt(d(u)*d(v)) over all edges uv."""
    _positive_degrees(g, "Randic index")
    counts = g.pair_counts
    value = math.fsum(c / math.sqrt(i * j) for (i, j), c in counts.items())
    return RandicValue(value=value, pair_counts=dict(counts))


def randic_deviation(g: Graph) -> float:
    """Evaluate the index as n/2 minus half the summed squared differences
    of reciprocal root degrees over edges (zero exactly on regular graphs)."""
    _positive_degrees(g, "Randic index")
    # an edge's term depends only on its endpoint degrees {i, j}, so each
    # degree pair adds its term once per edge; fsum rounds the exact sum,
    # whatever the order of its terms
    dev = math.fsum(chain.from_iterable(
        repeat(0.5 * (1.0 / math.sqrt(i) - 1.0 / math.sqrt(j)) ** 2, c)
        for (i, j), c in g.pair_counts.items()))
    return g.n / 2 - dev
