"""Sharp lower and upper bounds for the Randic index of graphs with given
minimum degree d and maximum degree D, with combinatorial equality
certificates.

Both bounds, and their equality cases, are decided exactly: the sign of
each slack is an integer fact about the degree-pair histogram
(``_lower_sign``, ``_upper_sign``), and the equality certificates are
structural.  The float slacks carried by the report are diagnostics only.
"""

from __future__ import annotations

import math
from itertools import accumulate
from typing import NamedTuple, Optional

from .constructions import DegreeChainCertificate, degree_chain_certificate
from .graphs import (BiregularCertificate, Graph, biregular_certificate,
                     degree_profile, is_connected)
from .index import randic_direct


def lower_bound(n: int, d: int, D: int) -> float:
    """sqrt(d*D) * n / (d + D), the sharp lower bound for d < D.

    The regular case d = D is rejected here (the index is then exactly n/2;
    bounds_report handles it).
    """
    _check_args(n, d, D, strict=True)
    return math.sqrt(d * D) * n / (d + D)


def upper_bound(n: int, d: int, D: int) -> float:
    """n/2 - sum_{i=d}^{D-1} (1/sqrt(i) - 1/sqrt(i+1))^2 / 2, the sharp upper
    bound for connected graphs with d < D."""
    _check_args(n, d, D, strict=True)
    step = math.fsum(
        0.5 * (1 / math.sqrt(i) - 1 / math.sqrt(i + 1)) ** 2 for i in range(d, D))
    return n / 2 - step


def baseline_bound(n: int, d: int, D: int) -> float:
    """d * n / (d + D), the weaker ratio baseline that lower_bound improves on."""
    _check_args(n, d, D, strict=False)
    return d * n / (d + D)


def _check_args(n: int, d: int, D: int, strict: bool) -> None:
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    if strict and d >= D:
        raise ValueError(f"need d < D, got d={d}, D={D}")
    if not strict and d > D:
        raise ValueError(f"need d <= D, got d={d}, D={D}")


def telescope_gap(x: float, y: float, z: float) -> float:
    """(1/sqrt(x)-1/sqrt(z))^2 - (1/sqrt(x)-1/sqrt(y))^2 - (1/sqrt(y)-1/sqrt(z))^2
    for 1 <= x < y < z.

    Algebraically equal to 2*(1/sqrt(x)-1/sqrt(y))*(1/sqrt(y)-1/sqrt(z)) and
    therefore strictly positive: splitting a squared step at an intermediate
    point always loses.
    """
    if not (1 <= x < y < z):
        raise ValueError(f"need 1 <= x < y < z, got {x}, {y}, {z}")
    a, b, c = 1 / math.sqrt(x), 1 / math.sqrt(y), 1 / math.sqrt(z)
    return (a - c) ** 2 - (a - b) ** 2 - (b - c) ** 2


def decomposition_residual(g: Graph) -> float:
    """Residual of the cross-count decomposition of the index.

    With c = sqrt(d*D)/(d+D), the identity
        R(G) = c*n + sum_{d<=i<=j<=D} [1/sqrt(i*j) - c*(1/i + 1/j)] * m_ij
    holds exactly, every coefficient with (i, j) != (d, D) is strictly
    positive, and the (d, D) coefficient vanishes -- which is the whole
    lower-bound argument.  Returns |LHS - RHS| and raises if the coefficient
    sign pattern fails (it cannot, for d < D).
    """
    prof = degree_profile(g)
    d, D = prof.d, prof.D
    if d == D:
        raise ValueError("decomposition needs d < D (graph is regular)")
    c = math.sqrt(d * D) / (d + D)
    terms = []
    for (i, j), m in prof.cross_counts.items():
        # the coefficient's sign is _lower_sign's on the pair alone
        if _lower_sign({(i, j): 1}, d, D) != ((i, j) != (d, D)):
            raise ValueError(f"coefficient sign wrong at ({i}, {j})")
        if m:
            terms.append((1 / math.sqrt(i * j) - c * (1 / i + 1 / j)) * m)
    rhs = c * g.n + math.fsum(terms)
    return abs(randic_direct(g).value - rhs)


def _lower_sign(pairs: dict[tuple[int, int], int], d: int, D: int) -> int:
    """Sign of R - sqrt(d*D)*n/(d+D), d < D, from the degree-pair histogram.

    As n = sum m_ij (1/i + 1/j), the slack is sum m_ij w_ij, and each w_ij
    has the sign of the integer (iD - jd)(jD - id): positive for
    d <= i <= j <= D except at (d, D), where it is 0.
    """
    products = [(i * D - j * d) * (j * D - i * d)
                for (i, j), m in pairs.items() if m]
    if min(products) < 0:
        raise ValueError(f"degree pair outside [{d}, {D}]")
    return int(max(products) > 0)


def _upper_sign(pairs: dict[tuple[int, int], int], d: int, D: int) -> int:
    """Sign of upper_bound - R, d < D, from a connected graph's histogram.

    With s_t = 1/sqrt(t) - 1/sqrt(t+1) > 0, an (a, b) edge's term
    (1/sqrt(a) - 1/sqrt(b))^2 is (s_a + ... + s_{b-1})^2, so the slack is
    sum_t (c_t - 1) s_t^2 / 2 plus the cross terms s_t s_u of every edge
    spanning two or more levels, where c_t counts the edges with
    a <= t < b.  A connected graph crosses every level (c_t >= 1), so the
    slack is 0 iff every c_t = 1 and no edge spans two levels.
    """
    diff = [0] * (D - d + 1)
    spans = False
    for (a, b), m in pairs.items():
        if m and a < b:
            diff[a - d] += m
            diff[b - d] -= m
            spans = spans or b - a > 1
    cover = list(accumulate(diff[:-1]))
    if min(cover) == 0:
        raise ValueError("a degree level is crossed by no edge (graph disconnected)")
    return int(spans or max(cover) > 1)


class BoundsReport(NamedTuple):
    """Both bounds, the baseline, slacks, and equality certificates.

    For a regular graph (d = D) the index is exactly n/2 and both bounds
    collapse to n/2.  The upper bound applies only to connected graphs;
    for a disconnected graph with d < D it is omitted and
    upper_bound_omitted says why.  Slacks are value-minus-bound (lower)
    and bound-minus-value (upper), float diagnostics; lower_sign and
    upper_sign are their exact signs, decided on the degree-pair
    histogram: 0 at equality, 1 strictly inside the bound, and None where
    the bound is omitted.
    """

    n: int
    d: int
    D: int
    randic: float
    lower: float
    upper: Optional[float]
    baseline: float
    lower_slack: float
    upper_slack: Optional[float]
    lower_sign: int
    upper_sign: Optional[int]
    lower_equality: Optional[BiregularCertificate]
    upper_equality: Optional[DegreeChainCertificate]
    regular: bool
    connected: bool
    upper_bound_omitted: Optional[str] = None

    def to_json_dict(self) -> dict:
        """Stable JSON object; bounds serializer formats reals at 15
        significant digits."""
        doc: dict = {
            "n": self.n,
            "d": self.d,
            "D": self.D,
            "randic": self.randic,
            "lowerBound": self.lower,
            "upperBound": self.upper,
            "baseline": self.baseline,
            "lowerSlack": self.lower_slack,
            "upperSlack": self.upper_slack,
            "regular": self.regular,
            "connected": self.connected,
        }
        if self.upper_bound_omitted is not None:
            doc["upperBoundOmitted"] = self.upper_bound_omitted
        doc["lowerEquality"] = (
            None if self.lower_equality is None else {
                "a": self.lower_equality.a,
                "b": self.lower_equality.b,
                "parts": [list(p) for p in self.lower_equality.parts],
            })
        doc["upperEquality"] = (
            None if self.upper_equality is None else {
                "d": self.upper_equality.d,
                "D": self.upper_equality.D,
                "crossEdges": [list(e) for e in self.upper_equality.cross_edges],
            })
        return doc


def bounds_report(g: Graph) -> BoundsReport:
    """Evaluate both bounds on a graph, decide them exactly on its
    degree-pair histogram (``_lower_sign``, ``_upper_sign``) and attach
    equality certificates, on purely structural grounds: the lower one
    whenever the graph is biregular (its degree pair necessarily equals
    (d, D)), the upper one whenever the degree-chain membership predicate
    holds.  Verify checks that each is present exactly where its sign is 0.
    """
    value = randic_direct(g).value
    n = g.n
    d, D = g.degree_range
    connected = is_connected(g)
    # a regular graph's index is exactly n/2, the value of both its bounds
    lower = upper = n / 2
    lower_sign = upper_sign = 0
    chain = omitted = None
    if d < D:
        lower, lower_sign = lower_bound(n, d, D), _lower_sign(g.pair_counts, d, D)
        chain = degree_chain_certificate(g)
        if connected:
            upper, upper_sign = upper_bound(n, d, D), _upper_sign(g.pair_counts, d, D)
        else:
            upper = upper_sign = None
            omitted = "disconnected"
    return BoundsReport(
        n=n, d=d, D=D, randic=value, lower=lower, upper=upper,
        baseline=baseline_bound(n, d, D), lower_slack=value - lower,
        upper_slack=None if upper is None else upper - value,
        lower_sign=lower_sign, upper_sign=upper_sign,
        lower_equality=biregular_certificate(g), upper_equality=chain,
        regular=(d == D), connected=connected, upper_bound_omitted=omitted)
