"""Sharp lower and upper bounds for the Randic index of graphs with given
minimum degree d and maximum degree D, with combinatorial equality
certificates.

Equality detection is structural (biregular / degree-chain certificates),
never a float comparison; the numeric slacks carried by the report are
diagnostics only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .constructions import DegreeChainCertificate, degree_chain_certificate
from .graphs import (BiregularCertificate, Graph, biregular_certificate,
                     degree_profile, is_connected)
from .index import IDENTITY_TOLERANCE, randic_direct

#: Tolerance for inequality slacks; looser than IDENTITY_TOLERANCE to absorb
#: accumulated summation error on dense graphs.
SLACK_TOLERANCE = 1e-9


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


def decomposition_residual(g: Graph, tolerance: float = IDENTITY_TOLERANCE) -> float:
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
        w = 1 / math.sqrt(i * j) - c * (1 / i + 1 / j)
        if (i, j) == (d, D):
            if abs(w) > tolerance:
                raise ValueError(
                    f"extreme-pair coefficient not zero: {w!r} at ({i}, {j})")
        elif w <= 0:
            raise ValueError(f"coefficient not positive: {w!r} at ({i}, {j})")
        if m:
            terms.append(w * m)
    rhs = c * g.n + math.fsum(terms)
    return abs(randic_direct(g).value - rhs)


@dataclass(frozen=True)
class BoundsReport:
    """Both bounds, the baseline, slacks, and equality certificates.

    For a regular graph (d = D) the index is exactly n/2 and both bounds
    collapse to n/2.  The upper bound applies only to connected graphs;
    for a disconnected graph with d < D it is omitted and
    upper_bound_omitted says why.  Slacks are value-minus-bound (lower)
    and bound-minus-value (upper): both are >= -SLACK_TOLERANCE whenever
    the bounds hold.
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
    """Evaluate both bounds on a graph and attach equality certificates.

    Certificates are attached on purely structural grounds: the lower one
    whenever the graph is biregular (its degree pair necessarily equals
    (d, D)), the upper one whenever the degree-chain membership predicate
    holds; either may appear alongside a strictly positive slack only up
    to float noise, never the other way around.
    """
    value = randic_direct(g).value
    n = g.n
    d, D = g.degree_range
    connected = is_connected(g)
    bireg = biregular_certificate(g)
    if d == D:
        lower = upper = n / 2
        chain = None
        omitted = None
    else:
        lower = lower_bound(n, d, D)
        chain = degree_chain_certificate(g)
        if connected:
            upper = upper_bound(n, d, D)
            omitted = None
        else:
            upper = None
            omitted = "disconnected"
    return BoundsReport(
        n=n, d=d, D=D,
        randic=value,
        lower=lower,
        upper=upper,
        baseline=baseline_bound(n, d, D),
        lower_slack=value - lower,
        upper_slack=None if upper is None else upper - value,
        lower_equality=bireg,
        upper_equality=chain,
        regular=(d == D),
        connected=connected,
        upper_bound_omitted=omitted,
    )
