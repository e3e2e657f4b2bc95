"""Exact verification of the supporting determinant identities.

Exact identities (type-C determinant evaluation, the Schur / odd-orthogonal
character summation, the symplectic quotient) are checked in rational
arithmetic with residual exactly zero; half-integer powers are handled by
the substitution z = t^2 so no real square root ever enters an exact path.
So are the Selberg integrals and Aomoto ratios, as Hankel determinants of
the weight's exact moments, and the determinant asymptotics (sin kernel,
Gaussian kernel), by their exact power series in eps^2.  Every exact
determinant is one Leibniz sum over ``Fraction``s, ``_series_det``; a
scalar determinant is its constant term.  Only the maximal-point shift
identity of the sin determinant is checked numerically, in double precision.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class IdentityReport:
    identity: str
    params: dict
    residual: Fraction

    @property
    def passed(self) -> bool:
        """Every check is an exact equality: it passes iff its residual is 0."""
        return self.residual == 0

    def to_json(self) -> dict:
        return {"identity": self.identity, "params": self.params,
                "pass": self.passed, "residual": str(self.residual)}


# ---------------------------------------------------------------------------
# exact determinants


def det_exact(matrix: Sequence[Sequence]) -> Fraction:
    """Exact determinant: the constant term of ``_series_det``, k! terms for k <= 4 here."""
    if any(len(row) != len(matrix) for row in matrix):
        raise ValueError("matrix must be square")
    return _series_det([[[Fraction(x)] for x in row] for row in matrix], 0)[0]


def _series_det(entries: Sequence[Sequence[Sequence[Fraction]]], top: int) -> list[Fraction]:
    """Determinant, through q^top, of a matrix whose entries are coefficient lists in q.

    The Leibniz sum over permutations, each term a product of series truncated after q^top;
    every entry must list its coefficients through q^top.
    """
    total = [Fraction(0)] * (top + 1)
    for perm in itertools.permutations(range(len(entries))):
        term = [Fraction(1)] + [Fraction(0)] * top
        for row, col in enumerate(perm):
            entry = entries[row][col]
            term = [functools.reduce(operator.add, map(operator.mul, term[:p + 1], entry[p::-1]))
                    for p in range(top + 1)]
        odd = sum(a > b for a, b in itertools.combinations(perm, 2)) % 2
        total = list(map(operator.sub if odd else operator.add, total, term))
    return total


# ---------------------------------------------------------------------------
# exact identity checks


def check_typeC_det_identity(z: Sequence[Fraction], half_integer: bool = False) -> IdentityReport:
    """det(t_j^e_m - t_j^-e_m) against its product evaluation.

    The exponents are e_m = m, or e_m = 2m - 1 for ``half_integer``: the
    inputs are then the t_j with z_j = t_j^2, and z^(m - 1/2) = t^(2m - 1).
    With s_j = t_j, or t_j^2, the product is
    prod_j t_j^(-e_k) (t_j^2 - 1) * prod_{j<m} (s_j - s_m)(1 - s_j s_m);
    both sides are 0 on repeated points.
    """
    t = [Fraction(x) for x in z]
    k = len(t)
    if any(x == 0 for x in t):
        raise ValueError("coordinates must be nonzero")
    exponents = [2 * m - 1 if half_integer else m for m in range(1, k + 1)]
    s = [x * x for x in t] if half_integer else t
    lhs = det_exact([[x ** e - x ** -e for e in exponents] for x in t])
    rhs = math.prod(x ** -exponents[-1] * (x * x - 1) for x in t) \
        * math.prod((s[j] - s[m]) * (1 - s[j] * s[m])
                    for j, m in itertools.combinations(range(k), 2))
    return IdentityReport("typeC-det-half" if half_integer else "typeC-det",
                          {"z": [str(x) for x in z], "k": k}, lhs - rhs)


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
    return IdentityReport("schur-orthogonal", {"t": [str(x) for x in t], "c": c, "k": k},
                          lhs - rhs)


def quotient_identity_check(z: Sequence[Fraction]) -> IdentityReport:
    """det(z^m) det(z^-m) / det(z^m - z^-m) against its product form."""
    z = [Fraction(x) for x in z]
    k = len(z)
    if any(x in (0, 1, -1) for x in z):
        raise ValueError("coordinates must avoid 0 and +-1")
    if len(set(z)) < k or any(z[j] * z[m] == 1 for j, m in itertools.combinations(range(k), 2)):
        raise ValueError("pole configuration: coordinates must be distinct with z_j z_m != 1")
    num = det_exact([[x ** m for m in range(1, k + 1)] for x in z])
    num *= det_exact([[x ** -m for m in range(1, k + 1)] for x in z])
    den = det_exact([[x ** m - x ** -m for m in range(1, k + 1)] for x in z])
    lhs = num / den
    rhs = Fraction(1)
    for x in z:
        rhs /= x - 1 / x
    for j, m in itertools.combinations(range(k), 2):
        rhs *= (2 - z[m] / z[j] - z[j] / z[m])
        rhs /= (z[m] + 1 / z[m] - z[j] - 1 / z[j])
    return IdentityReport("symplectic-quotient", {"z": [str(x) for x in z], "k": k}, lhs - rhs)


def mixed_vandermonde_det(u: Sequence[Fraction], a: int) -> Fraction:
    """Determinant with alternating-sign top block; nonzero for increasing u.

    Rows j <= a carry entries (-1)^m u_m^(j-1), rows j > a carry
    u_m^(j-a-1).
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
    return det_exact(rows)


# ---------------------------------------------------------------------------
# determinant asymptotics, as exact power series in q = eps^2


def _odd_factorial_prod(k: int) -> int:
    return math.prod(math.factorial(2 * j - 1) for j in range(1, k + 1))


def _series_residual(entries: Sequence[Sequence[Sequence[Fraction]]], low: int,
                     leading: Fraction, c1: Fraction) -> Fraction:
    """The series checks' pass rule, det(entries) = leading q^low (1 + c1 q) + O(q^(low+2)):
    the residual is the lowest mismatching coefficient divided by ``leading``, 0 iff it holds."""
    expected = [0] * low + [leading, leading * c1]
    return next((c - e for c, e in zip(_series_det(entries, low + 1), expected) if c != e),
                Fraction(0)) / leading


def dsin_leading_ratio(u: Sequence[int], phi_direction: Sequence[Fraction]) -> IdentityReport:
    """det(sin(u_m phi_j)) at phi = eps * direction, as an exact series in q = eps^2.

    With one eps factored out of each row, entry (j, m) is
    u_m d_j sum_r (-(u_m d_j)^2 q)^r / (2r+1)!.  Pass iff ``_series_residual``
    holds with low = C(k,2), leading carrying the sign (-1)^C(k,2), and
    c1 = -(sum d_j^2)(sum u_m^2) / (2k(2k+1)).
    """
    u = list(u)
    d = [Fraction(x) for x in phi_direction]
    k = len(u)
    if len(d) != k or any(len({x * x for x in v} - {0}) < k for v in (u, d)):
        raise ValueError("u and the direction must each have k distinct nonzero squares")
    low = k * (k - 1) // 2
    leading = Fraction((-1) ** low * math.prod(u), _odd_factorial_prod(k)) * math.prod(d)
    for j, m in itertools.combinations(range(k), 2):
        leading *= (d[m] ** 2 - d[j] ** 2) * (u[m] ** 2 - u[j] ** 2)
    entries = [[[x * (-x * x) ** r / math.factorial(2 * r + 1) for r in range(low + 2)]
                for x in (um * dj for um in u)] for dj in d]
    c1 = -sum(x * x for x in d) * sum(x * x for x in u) / (2 * k * (2 * k + 1))
    return IdentityReport("dsin-leading", {"u": u, "direction": [str(x) for x in d]},
                          _series_residual(entries, low, leading, c1))


def gaussian_kernel_det_ratio(k: int) -> IdentityReport:
    """det(exp(-(x-y)^2) - exp(-(x+y)^2)) at x = y = eps*(1..k), as an exact series in q = eps^2.

    Entry (i, j) is sum_r ((-(i-j)^2)^r - (-(i+j)^2)^r) q^r / r!.  Pass iff
    ``_series_residual`` holds with low = k^2, leading
    2^(k^2+k) / prod_j (2j-1)! * (k! prod_{i<j} (j^2 - i^2))^2 and
    c1 = -k(k+1)(2k+1)/3.
    """
    x = range(1, k + 1)
    low = k * k
    leading = Fraction(2 ** (low + k), _odd_factorial_prod(k)) \
        * (math.factorial(k) * math.prod(x[m] ** 2 - x[j] ** 2
                                         for j, m in itertools.combinations(range(k), 2))) ** 2
    entries = [[[Fraction((-(i - j) ** 2) ** r - (-(i + j) ** 2) ** r, math.factorial(r))
                 for r in range(low + 2)] for j in x] for i in x]
    c1 = Fraction(-k * (k + 1) * (2 * k + 1), 3)
    return IdentityReport("gaussian-kernel", {"k": k}, _series_residual(entries, low, leading, c1))


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
# Selberg integrals by Hankel determinants of exact moments: each is a rational times unit^k,
# with unit sqrt(2 pi) for the Hermite weight exp(-x^2/2) on the line and sqrt(pi) for the
# Laguerre weight x^(1/2) exp(-x) on x > 0.

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


def _moment(weight: str, p: int) -> Fraction:
    """Integral of x^p against the weight, over its unit."""
    if weight == "hermite":  # (p - 1)!! for even p
        return Fraction(0 if p % 2 else math.prod(range(p - 1, 0, -2)))
    return Fraction(math.prod(range(2 * p + 1, 0, -2)), 2 ** (p + 1))  # Gamma(p + 3/2)


def selberg_check(k: int, weight: str, which: str) -> IdentityReport:
    """Exact check of the Selberg closed forms and Aomoto ratios by Heine's identity.

    prod_{j<m} (x_m - x_j)^2 integrates against k copies of the weight over the orthant to
    k! det[mu_(i+j)], mu_p the moments (Szego, Orthogonal Polynomials, 2.1); the Aomoto factor
    sum x_j^p, p = 1 (Laguerre) or 2 (Hermite), adds by Jacobi's formula the k determinants with
    row r shifted by p.  The Laguerre closed form is over the ordered sector, k! times smaller
    than the orthant.  Pass iff the rationals are equal; the residual is their exact difference.
    """
    if which not in ("one", "aomoto"):
        raise ValueError(f"unknown check {which!r}")
    target = _selberg_rational(k, weight)
    shifts = [(0,) * k]
    if which == "aomoto":
        power = 1 if weight == "laguerre" else 2
        shifts = [tuple(power * (i == r) for i in range(k)) for r in range(k)]
        target *= Fraction(2 * k * k + k, 2) if weight == "laguerre" else k * k
    moments = [_moment(weight, p) for p in range(2 * k + 1)]
    value = sum(det_exact([[moments[i + j + s] for j in range(k)] for i, s in enumerate(shift)])
                for shift in shifts)
    if weight == "hermite":
        value *= math.factorial(k)
    scale = _UNIT_SQUARED[weight] ** (k / 2)
    return IdentityReport(f"selberg-{weight}-{which}",
                          {"k": k, "estimate": float(value) * scale,
                           "target": float(target) * scale},
                          value - target)
