"""Closed-form asymptotic evaluators and convergence diagnostics.

The fixed-endpoint formula is

    |M| * S(1)^n * (2/pi)^(k/2) * (n*Lam)^-(k^2+k/2)
        * prod_{j<m} (u_m^2-u_j^2)(v_m^2-v_j^2) * prod_j u_j v_j
        / prod_j (2j-1)!

and the free-endpoint formula is

    S(1)^n * (2/pi)^(k/2) * (n*Lam)^-(k^2/2)
        * prod_j u_j (j-1)!/(2j-1)! * prod_{j<m} (u_m^2-u_j^2),

with Lam = S''(1,...,1)/S(1,...,1).  Everything is evaluated in log space;
S(1)^n overflows any fixed-width float already for modest n.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from chamberwalk import exact
from chamberwalk.stepmodel import (CompositeSpec, check_chamber_point, check_walk_length,
                                   curvature, maximal_point_count, s_one)


class DiagnosticError(ValueError):
    """Raised when a convergence diagnostic cannot be computed."""


@dataclass(frozen=True)
class AsymptoticEstimate:
    log_value: float            # natural log; NaN when unsupported
    supported: bool

    def __post_init__(self) -> None:
        if self.supported and not math.isfinite(self.log_value):
            raise ValueError("the estimate's log value is past a float's range")

    @property
    def log10_value(self) -> float:
        return self.log_value / math.log(10)

    @property
    def value(self) -> Optional[float]:
        """Direct float value when representable, else None."""
        if not self.supported or self.log_value > 690.0:
            return None
        return math.exp(self.log_value)


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    exact_log: float
    asym_log: float
    ratio: float        # exact / asym
    delta: float        # exact / asym - 1


@dataclass(frozen=True)
class ConvergenceReport:
    rows: tuple[ConvergenceRow, ...]
    fitted_slope: float
    fitted_intercept: float


# ---------------------------------------------------------------------------
# log-space helpers


def log_exact(x) -> float:
    """Natural log of a positive int or Fraction of any size.

    Uses a bit-length shift so that numbers of thousands of digits convert
    without intermediate overflow.
    """
    if isinstance(x, Fraction):
        return log_exact(x.numerator) - log_exact(x.denominator)
    if x <= 0:
        raise ValueError("log_exact requires a positive value")
    shift = max(x.bit_length() - 64, 0)
    return math.log(x >> shift) + shift * math.log(2)


def _log_factorial_odd(k: int) -> float:
    # log prod_{j=1}^{k} (2j-1)!
    return sum(math.lgamma(2 * j) for j in range(1, k + 1))


def _squared_difference_product(u: Sequence[int]) -> int:
    """prod_{j<m} (u_m^2 - u_j^2) by a balanced tree of its C(k, 2) factors, priced 2 units each
    and two products of half its C(k, 2)*2*bitlen(max u) bits; a running product is quadratic."""
    half = (pairs := len(u) * (len(u) - 1) // 2) * max(u).bit_length()
    exact._check_work("end-point factor", 2 * pairs + exact._product_work(False, 2, half, half))
    factors = [um * um - uj * uj for m, um in enumerate(u) for uj in u[:m]]
    while len(factors) > 1:
        factors = [math.prod(factors[i:i + 2]) for i in range(0, len(factors), 2)]
    return math.prod(factors)


# ---------------------------------------------------------------------------
# evaluators


def leading_order(spec: CompositeSpec, u: Sequence[int], v: Optional[Sequence[int]],
                  n: int) -> AsymptoticEstimate:
    """Leading-order estimate of the count of n steps from u: the formula of the module
    docstring with the end point v, or a free end for ``v=None``; none at n = 0 or where the
    step parity rules it out."""
    if check_walk_length(n) > sys.float_info.max:  # the estimate scales n's float
        raise ValueError("walk length n is past a float's range")
    points = [check_chamber_point(spec, p) for p in (u, v) if p is not None]
    k, free = spec.k, v is None
    lam = curvature(spec)
    n_power = -Fraction(k * k, 2) if free else -Fraction(2 * k * k + k, 2)
    base_log = n * log_exact(s_one(spec))
    endpoint = math.prod(_squared_difference_product(p) * math.prod(p) for p in points)
    # the terms of one end condition only: adding 0.0 keeps every float as summed alone
    constant_log = (
        (0.0 if free else math.log(maximal_point_count(spec)))
        + (k / 2) * math.log(2 / math.pi)
        + float(n_power) * log_exact(lam)
        + log_exact(endpoint)
        + (sum(math.lgamma(j) for j in range(1, k + 1)) if free else 0.0)
        - _log_factorial_odd(k)
    )
    supported = n > 0 and (free or spec.parity_allows(*points, n))
    log_value = base_log + float(n_power) * math.log(n) + constant_log if supported else math.nan
    return AsymptoticEstimate(log_value=log_value, supported=supported)


# ---------------------------------------------------------------------------
# exact-vs-asymptotic comparison


def compare_series(spec: CompositeSpec, u: Sequence[int], v: Optional[Sequence[int]],
                   n_grid: Sequence[int]) -> ConvergenceReport:
    """Exact counts against the asymptotic estimate over a grid of lengths.

    ``v=None`` selects the free-endpoint comparison.  Grid points with no
    estimate (n = 0, or ruled out by the step parity) are dropped before
    they are counted, and so are zero exact counts; the decay of the residual
    delta_n = exact/asym - 1 is fitted as log|delta| ~ slope * log n.  An
    increasing ``range`` grid is walked as it is, without being expanded.
    Each point costs at least one unit of work, so a grid of more points than
    the budget is refused before any is counted.
    """
    rows = []
    walk = isinstance(n_grid, range) and n_grid.step > 0
    grid = n_grid if walk else sorted(set(n_grid))
    # len() of a range overflows past sys.maxsize; its ceiling quotient does not
    points = max(0, -((grid.start - grid.stop) // grid.step)) if walk else len(grid)
    exact._check_work("comparison grid points", points)
    for n in grid:
        est = leading_order(spec, u, v, n)
        if not est.supported:
            continue
        cnt = exact.count_reflection_free(spec, u, n) if v is None \
            else exact.count_reflection(spec, u, v, n)
        if cnt <= 0:
            continue
        exact_log = log_exact(cnt)
        ratio = math.exp(exact_log - est.log_value)
        rows.append(ConvergenceRow(n=n, exact_log=exact_log, asym_log=est.log_value,
                                   ratio=ratio, delta=ratio - 1.0))
    if len(rows) < 3:
        raise DiagnosticError("need at least 3 supported grid points")
    slope, intercept = _fit_loglog(rows)
    return ConvergenceReport(rows=tuple(rows), fitted_slope=slope,
                             fitted_intercept=intercept)


def _fit_loglog(rows: Sequence[ConvergenceRow]) -> tuple[float, float]:
    """Least-squares line through (log n, log|delta|); three or more distinct n keep it defined."""
    pts = [(math.log(r.n), math.log(abs(r.delta))) for r in rows if r.delta != 0.0]
    if len(pts) < 3:
        raise DiagnosticError("need at least 3 nonzero residuals for the decay fit")
    n = len(pts)
    mx = sum(p[0] for p in pts) / n
    my = sum(p[1] for p in pts) / n
    sxx = sum((p[0] - mx) ** 2 for p in pts)
    sxy = sum((p[0] - mx) * (p[1] - my) for p in pts)
    slope = sxy / sxx
    return slope, my - slope * mx
