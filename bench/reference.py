"""Reference counts computed inside the benchmark, independent of the program.

Two closed forms, both from the reflection principle for walks in the
chamber 0 < x_1 < ... < x_k:

* lock-step walkers (diagonal atomic steps, weights 0,1) factorise, so the
  signed sum collapses to the type-B determinant
  det[b(n, v_j - u_i) - b(n, v_j + u_i)] with b(n, d) = C(n, (n + d) / 2);
* every other model uses the signed sum over signed permutations with the
  unconstrained count [z^d] S(z)^n = sum_M [x^M] P(x)^n * [z^d] A(z)^M,
  where S = P(A) is the composite step generating function.  [z^d] A^M is
  a binomial product for diagonal steps and a binomial convolution of the
  one-dimensional walks for axis steps.

This is deliberately a different implementation from the program's routes
(dict convolution, signed sum over a displacement table, confined DP), so a
benchmark check never uses the route it times.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Sequence


def _b(n: int, d: int) -> int:
    if abs(d) > n or (n + d) % 2:
        return 0
    return math.comb(n, (n + d) // 2)


def _det(matrix: list[list[int]]) -> int:
    """Integer determinant by fraction-free (Bareiss) elimination."""
    a = [row[:] for row in matrix]
    k = len(a)
    sign, prev = 1, 1
    for i in range(k - 1):
        if a[i][i] == 0:
            swap = next((r for r in range(i + 1, k) if a[r][i] != 0), None)
            if swap is None:
                return 0
            a[i], a[swap] = a[swap], a[i]
            sign = -sign
        for r in range(i + 1, k):
            for c in range(i + 1, k):
                a[r][c] = (a[r][c] * a[i][i] - a[r][i] * a[i][c]) // prev
        prev = a[i][i]
    return sign * a[k - 1][k - 1]


def lockstep_count(u: Sequence[int], v: Sequence[int], n: int) -> int:
    """Confined lock-step count from u to v in n steps."""
    return _det([[_b(n, vj - ui) - _b(n, vj + ui) for vj in v] for ui in u])


def lockstep_free_count(u: Sequence[int], n: int) -> int:
    """Confined lock-step count from u over every end point."""
    first = 2 - (u[0] + n) % 2
    values = range(first, max(u) + n + 1, 2)
    return sum(lockstep_count(u, v, n) for v in itertools.combinations(values, len(u)))


def _poly_power(weights: Sequence[Fraction], n: int) -> list:
    coeffs = [int(w) if w.denominator == 1 else w for w in weights]
    out = [1]
    for _ in range(n):
        nxt = [0] * (len(out) + len(coeffs) - 1)
        for i, a in enumerate(out):
            for j, c in enumerate(coeffs):
                nxt[i + j] += a * c
        out = nxt
    return out


def _atomic_counts(kind: str, delta: Sequence[int], top: int) -> list[int]:
    """[z^delta] A(z)^M for M = 0..top."""
    if kind == "diagonal":
        return [math.prod(_b(m, d) for d in delta) for m in range(top + 1)]
    acc = [_b(m, delta[0]) for m in range(top + 1)]
    for d in delta[1:]:
        one = [_b(m, d) for m in range(top + 1)]
        acc = [sum(math.comb(total, m) * one[m] * acc[total - m] for m in range(total + 1))
               for total in range(top + 1)]
    return acc


def _sign(perm: Sequence[int]) -> int:
    inversions = sum(1 for i, j in itertools.combinations(range(len(perm)), 2)
                     if perm[i] > perm[j])
    return -1 if inversions % 2 else 1


def reflection_count(kind: str, weights: Sequence[Fraction], u: Sequence[int],
                     v: Sequence[int], n: int):
    """Confined count from u to v in n composite steps (small k only: k! 2^k terms)."""
    k = len(u)
    power = _poly_power(weights, n)
    total = 0
    for perm in itertools.permutations(range(k)):
        for eps in itertools.product((1, -1), repeat=k):
            delta = [v[i] - eps[i] * u[perm[i]] for i in range(k)]
            atomic = _atomic_counts(kind, delta, len(power) - 1)
            term = sum(c * a for c, a in zip(power, atomic))
            total += _sign(perm) * math.prod(eps) * term
    return total
