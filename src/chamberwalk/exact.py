"""Exact walk counting.

Three independent exact routes are provided:

* ``count_confined``       -- wall-confined dynamic programming over chamber
                              lattice points (the oracle),
* ``count_reflection``     -- signed sum of unconstrained counts over the
                              group of signed permutations,
* ``count_unconstrained``  -- plain coefficient extraction from S(z)^n.

Every count uses S = P(A): sum_m [x^m]P(x)^n times the count of atomic
walks of length m, with [x^m]P(x)^n from one expansion.  For the diagonal
kind [z^d]A^m = prod_j C(m, (m + d_j)/2) is a closed form; the axis table
and the confined DP (which keeps only chamber points) walk the atomic
layers once by sparse convolution and add each one weighted.  Free-endpoint
sums by reflection visit only the end points an unconstrained walk can reach.

All arithmetic is exact: Python ints when every weight is an integer,
``Fraction`` otherwise.  Confinement is atomic-strict: every intermediate
atomic position inside a composite step must stay strictly inside the
chamber.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from decimal import Decimal
from fractions import Fraction
from typing import Callable, Iterator, Sequence

from chamberwalk.stepmodel import (
    AtomicKind,
    CompositeSpec,
    check_chamber_point,
    in_chamber,
    lattice_contains,
)

DEFAULT_STATE_BUDGET = 10 ** 7


class ResourceBudgetError(RuntimeError):
    """The estimated work of an exact route exceeds the budget."""


def _check_budget(cost: int, what: str) -> None:
    if cost > DEFAULT_STATE_BUDGET:
        raise ResourceBudgetError(
            f"{what}: estimate {cost} exceeds budget of {DEFAULT_STATE_BUDGET}")


# ---------------------------------------------------------------------------
# step distributions


def atomic_displacements(spec: CompositeSpec) -> list[tuple[int, ...]]:
    if spec.kind is AtomicKind.AXIS:
        steps = []
        for j in range(spec.k):
            for sign in (1, -1):
                step = [0] * spec.k
                step[j] = sign
                steps.append(tuple(step))
        return steps
    return [eps for eps in itertools.product((1, -1), repeat=spec.k)]


def _convolve(dist: dict, steps: Sequence[tuple[int, ...]]) -> dict:
    out: dict = {}
    for point, mass in dist.items():
        for step in steps:
            key = tuple(p + s for p, s in zip(point, step))
            if key in out:
                out[key] += mass
            else:
                out[key] = mass
    return out


@functools.lru_cache(maxsize=16)
def _weight_power(weights: tuple[Fraction, ...], n: int) -> tuple[tuple[int, ...], tuple]:
    """The atomic lengths m with [x^m]P(x)^n != 0, and those coefficients.

    Writes P(x) = x^a Q(x) with Q(0) != 0 and expands Q(x)^n by Miller's
    recurrence i q_0 c_i = sum_j ((n + 1) j - i) q_j c_(i-j).
    """
    a = next(m for m, w in enumerate(weights) if w)
    q = weights[a:]
    if all(w.denominator == 1 for w in q):
        # every coefficient of an integer polynomial's power is an integer
        q, divide = [int(w) for w in q], operator.floordiv
    else:
        divide = operator.truediv
    e = len(q) - 1
    coeffs = [q[0] ** n]
    for i in range(1, n * e + 1):
        acc = sum(((n + 1) * j - i) * q[j] * coeffs[i - j] for j in range(1, min(i, e) + 1))
        coeffs.append(divide(acc, i * q[0]))
    support = [(n * a + i, c) for i, c in enumerate(coeffs) if c]
    return tuple(m for m, _ in support), tuple(c for _, c in support)


def _weighted_layers(spec: CompositeSpec, n: int, start: tuple[int, ...],
                     step: Callable[[dict, Sequence[tuple[int, ...]]], dict]) -> dict:
    """sum_m [x^m]P(x)^n * layer_m, as a dict from point to mass.

    layer_0 is {start: 1} and layer_(m+1) = step(layer_m, atomic steps).
    The layers hold plain ints; each weighted length adds its layer once,
    scaled by its coefficient of P(x)^n.
    """
    lengths, coeffs = _weight_power(spec.weights, n)
    steps = atomic_displacements(spec)
    layer = {start: 1}
    total: dict = {}
    m = 0
    for length, c in zip(lengths, coeffs):
        while m < length:
            layer = step(layer, steps)
            m += 1
        for point, mass in layer.items():
            total[point] = total.get(point, 0) + c * mass
    return total


@functools.lru_cache(maxsize=16)
def _displacement_table(spec: CompositeSpec, n: int) -> dict:
    """[z^d]S^n for every displacement d: sum_m [x^m]P(x)^n * [z^d]A^m."""
    # A^m has at most sum_i 2^i C(k, i) C(m, i) points (those with |d|_1 <= m);
    # over m <= N = n*degree that sums to sum_i 2^i C(k, i) C(N + 1, i + 1),
    # and every point is moved by 2k steps
    top = n * spec.degree
    _check_budget(2 * spec.k * sum(2 ** i * math.comb(spec.k, i) * math.comb(top + 1, i + 1)
                                   for i in range(spec.k + 1)),
                  "displacement table updates")
    return _weighted_layers(spec, n, (0,) * spec.k, _convolve)


def _binomial_row(lengths: Sequence[int], d: int) -> tuple[int, ...]:
    """[z^d](z + 1/z)^m for each m in ``lengths``."""
    return tuple(math.comb(m, (m + d) // 2) if abs(d) <= m and (m + d) % 2 == 0 else 0
                 for m in lengths)


def _check_length(n: int) -> None:
    if n < 0:
        raise ValueError(f"walk length n must be >= 0, got {n}")


# ---------------------------------------------------------------------------
# counting


def count_unconstrained(spec: CompositeSpec, u: Sequence[int], v: Sequence[int], n: int):
    """Coefficient of z^(v-u) in S(z)^n."""
    u, v = tuple(u), tuple(v)
    if len(u) != spec.k or len(v) != spec.k:
        raise ValueError("endpoint dimension mismatch")
    for p in (u, v):
        if not lattice_contains(spec, p):
            raise ValueError(f"{p} is not on the walk lattice")
    _check_length(n)
    delta = tuple(b - a for a, b in zip(u, v))
    if spec.kind is AtomicKind.AXIS:
        return _displacement_table(spec, n).get(delta, 0)
    _check_budget(_kernel_words(spec, n), "diagonal kernel words")
    lengths, coeffs = _weight_power(spec.weights, n)
    rows = [_binomial_row(lengths, d) for d in delta]
    return sum(map(math.prod, zip(coeffs, *rows)))


def signed_permutations(k: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """Yields (image map, sign) over all signed permutations of {1..k}.

    The image map sends position j to (source index, sign); the yielded
    sign is sgn(sigma) * prod_j eps_j.
    """
    eps_signs = [math.prod(eps) for eps in itertools.product((1, -1), repeat=k)]
    for perm in itertools.permutations(range(k)):
        sgn = _perm_sign(perm)
        # product() walks the sign vectors in the order eps_signs lists them
        images = itertools.product(*[((src, 1), (src, -1)) for src in perm])
        yield from zip(images, [sgn * s for s in eps_signs])


def _perm_sign(perm: Sequence[int]) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def count_reflection(spec: CompositeSpec, u: Sequence[int], v: Sequence[int], n: int):
    """Signed sum over signed permutations of unconstrained counts.

    Both kinds take [x^m]P(x)^n from ``_weight_power``.  The diagonal kind
    multiplies per-call rows of the 2k^2 one-dimensional displacements
    v_j - eps*u_i; the axis kind reads one displacement table.
    """
    u = check_chamber_point(spec, u)
    v = check_chamber_point(spec, v)
    _check_length(n)
    _check_budget(_signed_sum_cost(spec, n), "signed sum work")
    if spec.kind is AtomicKind.AXIS:
        table = _displacement_table(spec, n)

        def term(image):
            return table.get(tuple(b - eps * u[src] for b, (src, eps) in zip(v, image)), 0)
    else:
        lengths, coeffs = _weight_power(spec.weights, n)
        # rows[j][(i, eps)] holds [z^(v_j - eps*u_i)](z + 1/z)^m over the lengths m
        rows = [{(i, eps): _binomial_row(lengths, vj - eps * ui)
                 for i, ui in enumerate(u) for eps in (1, -1)} for vj in v]

        def term(image):
            return sum(map(math.prod, zip(coeffs, *map(dict.__getitem__, rows, image))))
    total = 0
    for image, sign in signed_permutations(spec.k):
        total += sign * term(image)
    return total


def _signed_sum_cost(spec: CompositeSpec, n: int) -> int:
    # k!*2^k terms: a diagonal term sums a product over the atomic lengths
    # of P(x)^n, an axis term is one table lookup.  The diagonal kernel also
    # pays for the memory its integers take.
    terms = math.factorial(spec.k) * 2 ** spec.k
    if spec.kind is AtomicKind.AXIS:
        return terms
    return terms * _length_bound(spec, n) + _kernel_words(spec, n)


def _length_bound(spec: CompositeSpec, n: int) -> int:
    # weights are >= 0, so the atomic lengths of P(x)^n are the n-fold sums
    # of the weighted lengths: they lie in n*a + g*N up to n*degree, with a
    # the least weighted length and g the gcd of the differences.  Counting
    # them so never expands P(x)^n.
    lengths = [m for m, w in enumerate(spec.weights) if w]
    g = math.gcd(*(m - lengths[0] for m in lengths))
    return n * (spec.degree - lengths[0]) // g + 1 if g else 1


def _kernel_words(spec: CompositeSpec, n: int) -> int:
    """64-bit words of the L coefficients and 2k^2 binomial rows of the diagonal kernel.

    With D the lcm of the weight denominators, D^n [x^m]P(x)^n <= (D*P(1))^n and
    C(m, j) <= 2^(n*degree), so a coefficient times k binomials has at most
    n*log2(D*P(1)) + k*n*degree bits.
    """
    d = math.lcm(*(w.denominator for w in spec.weights))
    bits = math.ceil(n * math.log2(d * sum(spec.weights)) + spec.k * n * spec.degree)
    return (2 * spec.k ** 2 + 1) * _length_bound(spec, n) * (bits // 64 + 1)


def _chamber_state_bound(spec: CompositeSpec, u: Sequence[int], n: int) -> int:
    # reachable chamber states sit inside x_k <= u_k + n*d
    box = max(u) + n * spec.degree
    return math.comb(box, spec.k)


def _confined_step(layer: dict, steps: Sequence[tuple[int, ...]]) -> dict:
    return {point: mass for point, mass in _convolve(layer, steps).items() if in_chamber(point)}


def _confined_frontier(spec: CompositeSpec, u: Sequence[int], n: int) -> dict:
    """Confined counts of n composite steps from u, by end point.

    Confinement is atomic-strict: these are the confined atomic walks of each
    length m, cut into n groups that weigh [x^m]P(x)^n in all.
    """
    u = check_chamber_point(spec, u)
    _check_length(n)
    _check_budget(_chamber_state_bound(spec, u, n), "reachable chamber states")
    return _weighted_layers(spec, n, u, _confined_step)


def count_confined(spec: CompositeSpec, u: Sequence[int], v: Sequence[int], n: int):
    """Dynamic-programming oracle for confined walk counts.

    Every intermediate atomic position within each composite step is kept
    strictly inside the chamber.
    """
    v = check_chamber_point(spec, v)
    return _confined_frontier(spec, u, n).get(v, 0)


def count_confined_free(spec: CompositeSpec, u: Sequence[int], n: int):
    """Total confined count over all endpoints: the DP frontier mass after n steps."""
    return sum(_confined_frontier(spec, u, n).values())


def count_reflection_free(spec: CompositeSpec, u: Sequence[int], n: int):
    """Free-endpoint total via the signed sum, over the end points a walk can reach.

    Weights are nonnegative, so a confined count is at most the
    unconstrained count; an end point that no unconstrained walk reaches
    contributes 0 and is skipped.
    """
    u = check_chamber_point(spec, u)
    _check_length(n)
    box = max(u) + n * spec.degree
    # lattice points below the box: every chamber point for axis steps, the
    # odd and the even ones for diagonal steps
    points = math.comb(box, spec.k) if spec.kind is AtomicKind.AXIS \
        else math.comb((box + 1) // 2, spec.k) + math.comb(box // 2, spec.k)
    _check_budget(points * _signed_sum_cost(spec, n), "free-endpoint signed sum work")
    total = 0
    for v in _chamber_points_upto(spec, box):
        if _reachable(spec, u, v, n):
            total += count_reflection(spec, u, v, n)
    return total


def _reachable(spec: CompositeSpec, u: Sequence[int], v: Sequence[int], n: int) -> bool:
    """False only when no unconstrained walk of n composite steps joins u to v.

    One atomic step moves every coordinate by 1 (diagonal) or one coordinate
    by 1 (axis), and a walk makes at most n*degree atomic steps; the step
    parity is ``CompositeSpec.parity_allows``.
    """
    gaps = [abs(b - a) for a, b in zip(u, v)]
    span = max(gaps) if spec.kind is AtomicKind.DIAGONAL else sum(gaps)
    return span <= n * spec.degree and spec.parity_allows(u, v, n)


def _chamber_points_upto(spec: CompositeSpec, bound: int) -> Iterator[tuple[int, ...]]:
    for v in itertools.combinations(range(1, bound + 1), spec.k):
        if lattice_contains(spec, v):
            yield v


def format_count(value) -> str:
    """Serialize an exact count: decimal string, or 'p/q' for non-integers.

    ``Decimal`` prints the digits: it has no int-to-str length limit.
    """
    num, den = Fraction(value).as_integer_ratio()
    return str(Decimal(num)) + (f"/{Decimal(den)}" if den != 1 else "")
