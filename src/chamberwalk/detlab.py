"""Exact and numeric verification of the supporting determinant identities.

Exact identities (type-C determinant evaluation, the Schur / odd-orthogonal
character summation, the symplectic quotient) are checked in rational
arithmetic with residual exactly zero; half-integer powers are handled by
the substitution z = t^2 so no real square root ever enters an exact path.
So are the Selberg integrals and Aomoto ratios, by the exact moments of
their polynomial integrands.  Only the determinant asymptotics (sin kernel,
Gaussian kernel) are checked numerically, in double precision.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np


@dataclass(frozen=True)
class IdentityReport:
    identity: str
    params: dict
    passed: bool
    residual: object            # exact Fraction/int or float
    sign_observed: Optional[int] = None

    def to_json(self) -> dict:
        res = self.residual
        if isinstance(res, Fraction):
            res = str(res)
        obj = {"identity": self.identity, "params": self.params,
               "pass": self.passed, "residual": res}
        if self.sign_observed is not None:
            obj["sign"] = self.sign_observed
        return obj


# ---------------------------------------------------------------------------
# exact determinants


def det_exact(matrix: Sequence[Sequence]) -> Fraction:
    """Exact determinant by fraction elimination with pivoting."""
    k = len(matrix)
    if any(len(row) != k for row in matrix):
        raise ValueError("matrix must be square")
    m = [[Fraction(x) for x in row] for row in matrix]
    det = Fraction(1)
    for col in range(k):
        pivot = next((r for r in range(col, k) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, k):
            factor = m[r][col] * inv
            if factor == 0:
                continue
            for c in range(col, k):
                m[r][c] -= factor * m[col][c]
    return det


def det_cofactor(matrix: Sequence[Sequence]) -> Fraction:
    """Cofactor-expansion oracle; only sensible for small matrices."""
    k = len(matrix)
    if k == 1:
        return Fraction(matrix[0][0])
    total = Fraction(0)
    for col in range(k):
        if matrix[0][col] == 0:
            continue
        minor = [[row[c] for c in range(k) if c != col] for row in matrix[1:]]
        total += (-1) ** col * Fraction(matrix[0][col]) * det_cofactor(minor)
    return total


# ---------------------------------------------------------------------------
# exact identity checks


def _pairs(k: int):
    return [(j, m) for j in range(k) for m in range(j + 1, k)]


def check_typeC_det_identity(z: Sequence[Fraction], half_integer: bool = False) -> IdentityReport:
    """det(z_j^m - z_j^-m) against its product evaluation.

    For ``half_integer`` the inputs are the t_j with z_j = t_j^2, so the
    exponents m - 1/2 become the odd integers 2m - 1 in t.
    """
    t = [Fraction(x) for x in z]
    k = len(t)
    if any(x == 0 for x in t):
        raise ValueError("coordinates must be nonzero")
    name = "typeC-det-half" if half_integer else "typeC-det"
    params = {"z": [str(x) for x in z], "k": k}
    if len(set(t)) < k:
        # both sides vanish identically
        return IdentityReport(name, params, True, Fraction(0))

    if half_integer:
        zz = [x * x for x in t]
        lhs = det_exact([[x ** (2 * m - 1) - x ** -(2 * m - 1) for m in range(1, k + 1)]
                         for x in t])
        rhs = Fraction(1)
        for x in t:
            rhs *= x ** (1 - 2 * k)
        for j, m in _pairs(k):
            rhs *= (zz[j] - zz[m]) * (1 - zz[j] * zz[m])
        for x in zz:
            rhs *= x - 1
    else:
        lhs = det_exact([[x ** m - x ** -m for m in range(1, k + 1)] for x in t])
        rhs = Fraction(1)
        for x in t:
            rhs *= x ** -k
        for j, m in _pairs(k):
            rhs *= (t[j] - t[m]) * (1 - t[j] * t[m])
        for x in t:
            rhs *= x * x - 1
    residual = lhs - rhs
    return IdentityReport(name, params, residual == 0, residual)


def schur_orthogonal_identity_check(t: Sequence[Fraction], c: int) -> IdentityReport:
    """Brute-force box-bounded Schur sum against the character determinant ratio.

    LHS: sum over weakly increasing lambda in [0, 2c]^k of the bialternant
    det(z_j^(lambda_m + m - 1)) / det(z_j^(m-1)) with z_j = t_j^2.
    RHS: det(z^(2c+m-1/2) - z^-(m-1/2)) / det(z^(m-1/2) - z^-(m-1/2)),
    rational through the t-substitution.
    """
    t = [Fraction(x) for x in t]
    k = len(t)
    zz = [x * x for x in t]
    if len(set(zz)) < k or any(x == 0 for x in zz):
        raise ValueError("z_j = t_j^2 must be distinct and nonzero")
    vandermonde = det_exact([[x ** (m - 1) for m in range(1, k + 1)] for x in zz])
    lhs = Fraction(0)
    for lam in itertools.combinations_with_replacement(range(2 * c + 1), k):
        num = det_exact([[x ** (lam[m - 1] + m - 1) for m in range(1, k + 1)] for x in zz])
        lhs += num / vandermonde
    rhs_num = det_exact([[x ** (4 * c + 2 * m - 1) - x ** -(2 * m - 1)
                          for m in range(1, k + 1)] for x in t])
    rhs_den = det_exact([[x ** (2 * m - 1) - x ** -(2 * m - 1)
                          for m in range(1, k + 1)] for x in t])
    rhs = rhs_num / rhs_den
    residual = lhs - rhs
    return IdentityReport("schur-orthogonal", {"t": [str(x) for x in t], "c": c, "k": k},
                          residual == 0, residual)


def quotient_identity_check(z: Sequence[Fraction]) -> IdentityReport:
    """det(z^m) det(z^-m) / det(z^m - z^-m) against its product form."""
    z = [Fraction(x) for x in z]
    k = len(z)
    if any(x in (0, 1, -1) for x in z):
        raise ValueError("coordinates must avoid 0 and +-1")
    if len(set(z)) < k or any(z[j] * z[m] == 1 for j, m in _pairs(k)):
        raise ValueError("pole configuration: coordinates must be distinct with z_j z_m != 1")
    num = det_exact([[x ** m for m in range(1, k + 1)] for x in z])
    num *= det_exact([[x ** -m for m in range(1, k + 1)] for x in z])
    den = det_exact([[x ** m - x ** -m for m in range(1, k + 1)] for x in z])
    lhs = num / den
    rhs = Fraction(1)
    for x in z:
        rhs /= x - 1 / x
    for j, m in _pairs(k):
        rhs *= (2 - z[m] / z[j] - z[j] / z[m])
        rhs /= (z[m] + 1 / z[m] - z[j] - 1 / z[j])
    residual = lhs - rhs
    return IdentityReport("symplectic-quotient", {"z": [str(x) for x in z], "k": k},
                          residual == 0, residual)


def mixed_vandermonde_det(u: Sequence[Fraction], a: int) -> Fraction:
    """Determinant with alternating-sign top block; nonzero for increasing u.

    Rows j <= a carry entries (-1)^m u_m^(j-1), rows j > a carry
    u_m^(j-a-1).  A zero value raises ``ArithmeticError``.
    """
    u = [Fraction(x) for x in u]
    k = len(u)
    if not 0 <= a <= k:
        raise ValueError("need 0 <= a <= k")
    if any(u[j] <= 0 for j in range(k)) or any(u[j] >= u[j + 1] for j in range(k - 1)):
        raise ValueError("u must be strictly increasing and positive")
    rows = []
    for j in range(1, k + 1):
        if j <= a:
            rows.append([(-1) ** m * u[m - 1] ** (j - 1) for m in range(1, k + 1)])
        else:
            rows.append([u[m - 1] ** (j - a - 1) for m in range(1, k + 1)])
    value = det_exact(rows)
    if value == 0:
        raise ArithmeticError("mixed Vandermonde determinant vanished")
    return value


# ---------------------------------------------------------------------------
# determinant asymptotics (numeric)

_LEADING_GATE = 0.5  # largest |residual| of a ratio to its leading form that passes


def _odd_factorial_prod(k: int) -> int:
    return math.prod(math.factorial(2 * j - 1) for j in range(1, k + 1))


def dsin_leading_ratio(u: Sequence[int], phi_direction: Sequence[float],
                       eps: float) -> IdentityReport:
    """Ratio of det(sin(u_m phi_j)) to its leading form at phi = eps * direction.

    The leading form uses the sign (-1)^C(k,2); the observed sign is
    recorded in the report.  The residual |ratio| - 1 is O(eps^2).
    """
    if not 0 < eps <= 0.3:
        raise ValueError("eps must lie in (0, 0.3]")
    u = list(u)
    k = len(u)
    phi = [eps * d for d in phi_direction]
    if len(phi) != k or len(set(phi)) < k or any(p == 0 for p in phi):
        raise ValueError("direction coordinates must be distinct and nonzero")
    num = float(np.linalg.det(np.sin(np.outer(phi, u))))
    leading = math.prod(phi)
    for j, m in _pairs(k):
        leading *= phi[m] ** 2 - phi[j] ** 2
    leading *= (-1) ** (k * (k - 1) // 2)
    for j in range(1, k + 1):
        leading *= u[j - 1] / math.factorial(2 * j - 1)
    for j, m in _pairs(k):
        leading *= u[m] ** 2 - u[j] ** 2
    ratio = num / leading
    residual = abs(ratio) - 1.0
    return IdentityReport("dsin-leading", {"u": u, "eps": eps},
                          abs(residual) <= _LEADING_GATE, residual,
                          sign_observed=1 if ratio > 0 else -1)


def gaussian_kernel_det_ratio(k: int, eps: float) -> IdentityReport:
    """det(exp(-(x-y)^2) - exp(-(x+y)^2)) against its leading form at x=y=eps*(1..k)."""
    if not 0 < eps <= 0.3:
        raise ValueError("eps must lie in (0, 0.3]")
    x = eps * np.arange(1, k + 1, dtype=float)
    y = x.copy()
    diff = x[:, None] - y[None, :]
    total = x[:, None] + y[None, :]
    num = float(np.linalg.det(np.exp(-diff ** 2) - np.exp(-total ** 2)))
    leading = math.prod(float(a * b) for a, b in zip(x, y))
    for j, m in _pairs(k):
        leading *= (x[m] ** 2 - x[j] ** 2) * (y[m] ** 2 - y[j] ** 2)
    leading *= 2 ** (k * k + k) / _odd_factorial_prod(k)
    ratio = num / leading
    residual = ratio - 1.0
    return IdentityReport("gaussian-kernel", {"k": k, "eps": eps},
                          abs(residual) <= _LEADING_GATE, residual,
                          sign_observed=1 if ratio > 0 else -1)


def sin_det_shift_residual(u: Sequence[int], signs: Sequence[int],
                           phi: Sequence[float]) -> float:
    """Residual of the maximal-point shift identity for det(sin(u_m phi_j)).

    ``signs`` encodes the shift angles: +1 for 0, -1 for pi.  Returns the
    normalized difference between the shifted determinant and
    (-1)^(sum of shifted u_j) times the unshifted one.
    """
    u = np.asarray(u, dtype=float)
    phi = np.asarray(phi, dtype=float)
    phihat = np.array([0.0 if s > 0 else math.pi for s in signs])
    lhs = float(np.linalg.det(np.sin(np.outer(phihat + phi, u))))
    parity = sum(int(uj) for uj, s in zip(u, signs) if s < 0)
    rhs = (-1) ** parity * float(np.linalg.det(np.sin(np.outer(phi, u))))
    return abs(lhs - rhs) / max(1.0, abs(rhs))


# ---------------------------------------------------------------------------
# Selberg integrals by exact moments: each is a rational times unit^k, with
# unit sqrt(2 pi) for the Hermite weight exp(-x^2/2) on the line and sqrt(pi)
# for the Laguerre weight x^(1/2) exp(-x) on x > 0.

_UNIT_SQUARED = {"hermite": 2 * math.pi, "laguerre": math.pi}


def _selberg_rational(k: int, weight: str) -> Fraction:
    """The closed form over unit^k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if weight == "laguerre":
        return Fraction(_odd_factorial_prod(k), 2 ** (k * k))
    if weight == "hermite":
        return Fraction(math.prod(math.factorial(j) for j in range(1, k + 1)))
    raise ValueError(f"unknown weight {weight!r}")


def selberg_closed_form(k: int, weight: str) -> float:
    """Closed forms of the Laguerre and Hermite Selberg integrals."""
    return float(_selberg_rational(k, weight)) * _UNIT_SQUARED[weight] ** (k / 2)


def _moment(weight: str, p: int) -> Fraction:
    """Integral of x^p against the weight, over its unit."""
    if weight == "hermite":  # (p - 1)!! for even p
        return Fraction(0 if p % 2 else math.prod(range(p - 1, 0, -2)))
    return Fraction(math.prod(range(2 * p + 1, 0, -2)), 2 ** (p + 1))  # Gamma(p + 3/2)


def _poly_mul(a: dict, b: dict) -> dict:
    """Product of polynomials held as {exponent tuple: integer coefficient}."""
    out: dict = {}
    for (ea, ca), (eb, cb) in itertools.product(a.items(), b.items()):
        e = tuple(x + y for x, y in zip(ea, eb))
        out[e] = out.get(e, 0) + ca * cb
    return out


def selberg_check(k: int, weight: str, which: str) -> IdentityReport:
    """Exact check of the Selberg closed forms and Aomoto ratios by moments.

    prod_{j<m} (x_m - x_j)^2, times sum x_j (Laguerre) or sum x_j^2 (Hermite)
    for Aomoto, is integrated monomial by monomial.  The Laguerre closed form
    is over the ordered sector, k! times smaller than the orthant.  Pass iff
    the rationals are equal; the residual is their exact difference.
    """
    if which not in ("one", "aomoto"):
        raise ValueError(f"unknown check {which!r}")
    target = _selberg_rational(k, weight)
    unit = [tuple(int(i == m) for m in range(k)) for i in range(k)]
    poly = {(0,) * k: 1}
    for j, m in _pairs(k):
        diff = {unit[m]: 1, unit[j]: -1}
        poly = _poly_mul(_poly_mul(poly, diff), diff)
    if which == "aomoto":
        degree = 1 if weight == "laguerre" else 2
        poly = _poly_mul(poly, {tuple(degree * a for a in e): 1 for e in unit})
        target *= Fraction(2 * k * k + k, 2) if weight == "laguerre" else k * k
    moments = [_moment(weight, p) for p in range(2 * k + 1)]
    value = sum(c * math.prod(moments[p] for p in e) for e, c in poly.items())
    if weight == "laguerre":
        value /= math.factorial(k)
    scale = _UNIT_SQUARED[weight] ** (k / 2)
    return IdentityReport(f"selberg-{weight}-{which}",
                          {"k": k, "estimate": float(value) * scale,
                           "target": float(target) * scale},
                          value == target, value - target)
