"""Exact walk counting.

Two independent exact routes: ``count_confined``, dynamic programming over the chamber's
lattice points (the oracle), and reflection: ``count_reflection``, a signed sum over the signed
permutations, and ``count_reflection_free``, one Pfaffian.  ``count_unconstrained``, plain
coefficient extraction from S(z)^n, is the signed sum's identity term.

Every count uses S = P(A): sum_m [x^m]P(x)^n times the count of atomic walks of length m, with
[x^m]P(x)^n from one expansion.  Both reflection routes count in one ring (``_ring``): rows
b(m, d) = [z^d](z + 1/z)^m multiplied pointwise for the diagonal kind and by the binomial
convolution of ``_ring_product`` for the axis kind, and dotted with [x^m]P(x)^n.  A signed-sum
term is a product of k rows, a Pfaffian entry a finite window of such products.  Both count
axis steps at k <= 2 as diagonal steps (``_as_diagonal``).  The DP packs each point into one
int and moves one coordinate at a time, keeping only chamber points, and for one end point
only those in its reach.  A count whose end point is out of reach or ruled out by the step
parity is 0, never refused (``_reachable``).

Every route estimates its work before it runs and raises ``ResourceBudgetError`` over
``DEFAULT_STATE_BUDGET`` (``_check_work``), by one price list: the DP's dict updates, each
ring product (``_product_work``), each integer held (``_held_work``), each ``math.comb`` row
(``_comb_work``) and the one-length stream's products of ints.  Every route counts in Python
ints: the one entry ``_exact_count`` scales rational weights by the lcm D of their
denominators and divides the count by D^n once.  Confinement is atomic-strict: every
intermediate atomic position inside a composite step must stay strictly inside the chamber.
"""

from __future__ import annotations

import bisect
import collections
import decimal
import functools
import itertools
import math
import operator
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

from chamberwalk.stepmodel import (AtomicKind, CompositeSpec, check_chamber_point,
                                   check_walk_length, lattice_contains)

DEFAULT_STATE_BUDGET = 10 ** 7
# a one-length signed-sum term takes 0.5-1.3 us per ab/2^20 of its products of a- by b-bit ints
# (lock-step k = 4 to 7, N = 200 to 20000, in process on a 2-core machine), about 3.5 times the
# 0.3 us of the other routes' units: lock-step k = 7 at its edge, n = 462, takes 4.3-4.7 s
_STREAM_SCALE = Fraction(7, 2)


class ResourceBudgetError(RuntimeError):
    """The work ``what``, estimated at ``estimate``, exceeds ``budget``.  The message is made
    only when printed, by ``_digits``."""

    def __init__(self, what: str, estimate: int, budget: int):
        super().__init__(what)
        self.what, self.estimate, self.budget = what, estimate, budget

    def __str__(self) -> str:
        return f"{self.what}: estimate {_digits(self.estimate)} exceeds budget of {self.budget}"


def _check_work(what: str, work: int) -> None:
    """Refuses an exact route whose ``work``, estimated by one price list, is over the budget."""
    if work > DEFAULT_STATE_BUDGET:
        raise ResourceBudgetError(what, work, DEFAULT_STATE_BUDGET)


# ---------------------------------------------------------------------------
# step distributions


def _weight_power(weights: tuple, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The atomic lengths m with [x^m]P(x)^n != 0, and those coefficients, for integer weights:
    P(x) = x^a Q(x), Q(0) != 0, and Q(x)^n by Miller's recurrence, in ints,
    i q_0 c_i = sum_j ((n + 1) j - i) q_j c_(i-j)."""
    a = next(m for m, w in enumerate(weights) if w)
    q = [int(w) for w in weights[a:]]
    e = len(q) - 1
    coeffs = [q[0] ** n]
    for i in range(1, n * e + 1):
        acc = sum(((n + 1) * j - i) * q[j] * coeffs[i - j] for j in range(1, min(i, e) + 1))
        coeffs.append(acc // (i * q[0]))
    support = [(n * a + i, c) for i, c in enumerate(coeffs) if c]
    return tuple(m for m, _ in support), tuple(c for _, c in support)


def _weighted_layers(spec: CompositeSpec, n: int, start: tuple[int, ...],
                     point: tuple[int, ...] | None = None) -> int:
    """The confined DP: sum_m [x^m]P(x)^n * layer_m at ``point``, in reach, or in total.

    layer_0 is {start: 1}, layer_(m+1) the atomic steps from layer_m inside the chamber.  A
    point x is the int sum_i (x_i + N) << (w*i), N = n*degree, each coordinate within N steps
    of ``start`` a digit in [0, 2^w).  A step moves one coordinate at a time (``_moves``): an
    axis step is the sum of its k moves, a diagonal step their product, x_1 first, so that x_i
    moves against the new x_(i-1).  Read at ``point``, layer m keeps only the points within
    L - m steps of it, L the last length read: each coordinate as it moves, and for axis steps
    the l1 distance once it can exceed L - m."""
    _check_work("confined DP updates", _layer_work(spec, n, start))
    lengths, coeffs = _weight_power(spec.weights, n)
    k, top, axis = spec.k, n * spec.degree, spec.kind is AtomicKind.AXIS
    width = (max(start) + 2 * top + 1).bit_length()
    shifts, mask = range(0, width * k, width), (1 << width) - 1
    # a move checks x_(i-1) below (x_1 the wall, in its low bound) and, axis only, x_(i+1) above
    below, above = [None, *shifts[:-1]], [*shifts[1:], None] if axis else [None] * k
    # with no point read, the reach never binds: L - m > 2^w, past every digit
    last, aim = (lengths[-1], [x + top for x in point]) if point else (2 << width, [0] * k)
    # an axis point is within l1 distance L - m of ``point`` while 2m <= L - |point - start|_1
    spread = last - sum(map(abs, map(operator.sub, start, point))) if point and axis else 2 * last

    def near(key, left):  # the aim within left axis steps, in l1
        for s, t in zip(shifts, aim):
            if (left := left - abs((key >> s & mask) - t)) < 0:
                return False
        return True

    layer, m, total = {sum((x + top) << s for x, s in zip(start, shifts)): 1}, 0, 0
    for length, c in zip(lengths, coeffs):
        while m < length:
            m += 1
            left, source, layer = last - m, layer, {}
            for i, s, t in zip(range(k), shifts, aim):
                low = max(t - left, top + 1) if i == 0 else t - left
                # an axis step adds its k moves of one layer, a diagonal step chains them
                layer = _moves(source, layer if axis else {}, s, mask, low, t + left, below[i],
                               above[i])
                source = source if axis else layer
            if 2 * m > spread:
                layer = {key: mass for key, mass in layer.items() if near(key, left)}
        total += c * (sum(layer.values()) if point is None else layer.get(
            sum(t << s for t, s in zip(aim, shifts)), 0))
    return total


def _moves(layer: dict, out: dict, shift: int, mask: int, low: int, high: int,
           below: int | None, above: int | None) -> dict:
    """``out`` plus every point of ``layer`` with its digit at ``shift`` moved by +-1 to a digit
    in [low, high], under the digit at ``above`` and over the one at ``below``, if given."""
    one = 1 << shift
    for key, mass in layer.items():
        digit = key >> shift & mask
        if digit < high and (above is None or digit + 1 < key >> above & mask):
            out[t] = out.get(t := key + one, 0) + mass
        if digit > low and (below is None or digit - 1 > key >> below & mask):
            out[t] = out.get(t := key - one, 0) + mass
    return out


def _layer_work(spec: CompositeSpec, n: int, start: Sequence[int]) -> int:
    """Dict updates of ``_weighted_layers``: each atomic step moves each point of layers m < N.

    N = n*degree.  Layer m holds at most the points within m steps, the l1 ball sum_(i<=m) 2^i
    C(k, i) C(m, i) for axis steps or the box (m+1)^k for diagonal ones, and the chamber points
    with x_k <= b + m, b = max(start): C(b + m, k), or C((b + m + 1)//2, k) for diagonal steps,
    which keep one parity.  The smaller sum over m <= N is taken in closed form, times 2k:
    ``_moves`` tries 2 moves a point in each of k passes, of about as many points as the layer.
    """
    k, top, axis = spec.k, n * spec.degree, spec.kind is AtomicKind.AXIS
    if top == 0:
        return 0
    # the diagonal sum takes each value of (b + m + 1)//2 at most twice
    b = max(start)
    work = min(sum(2 ** i * math.comb(k, i) * math.comb(top + 1, i + 1)
                   for i in range(min(k, top) + 1)),
               math.comb(b + top + 1, k + 1)) if axis \
        else min((top + 1) ** (k + 1), 2 * math.comb((b + top + 3) // 2, k + 1))
    return 2 * k * work


def _binomial_row(lengths: Sequence[int], d: int) -> tuple[int, ...]:
    """[z^d](z + 1/z)^m = C(m, j), j = (m + d)/2, for each m in the increasing ``lengths``: one
    ``math.comb`` at the first m >= |d| of the parity of d, then, exactly,
    C(m + 2, j + 1) = C(m, j)(m + 1)(m + 2) / ((j + 1)(m - j + 1))."""
    # with no such m, the seed C(|d|, .) = 1 sits at a length the row does not read
    live = [m for m in lengths if m >= abs(d) and (m + d) % 2 == 0] or [abs(d)]
    row = itertools.accumulate(
        range(live[0], live[-1], 2), initial=math.comb(live[0], (live[0] + d) // 2),
        func=lambda b, m: b * (m + 1) * (m + 2) // ((m + d + 2) // 2 * ((m - d + 2) // 2)))
    values = dict(zip(range(live[0], live[-1] + 1, 2), row))
    return tuple(values.get(m, 0) for m in lengths)


def _pascal_rows(lengths: Iterable[int]) -> dict:
    """C(m, .) for each m of ``lengths``, each row by C(m, j + 1) = C(m, j)(m - j)/(j + 1)."""
    return {m: list(itertools.accumulate(range(m), lambda c, j: c * (m - j) // (j + 1), initial=1))
            for m in lengths}


def _ring(spec: CompositeSpec, n: int, shifts: Iterable[int]) -> tuple[list, dict, Callable]:
    """([x^m]P(x)^n, {d: b(m, d) for d in ``shifts``}, their product) over a grid of lengths m:
    those of P(x)^n for diagonal rows, which multiply pointwise, and every m <= n*degree for
    axis rows, whose convolution (the EGF product of Grabiner-Magyar 1993) mixes the lengths."""
    lengths, coeffs = _weight_power(spec.weights, n)
    axis = spec.kind is AtomicKind.AXIS
    grid = range(n * spec.degree + 1) if axis else lengths
    weights = list(map(dict(zip(lengths, coeffs)).get, grid, itertools.repeat(0)))
    product = functools.partial(_ring_product, _pascal_rows(grid) if axis and spec.k > 1 else None)
    return weights, {d: _binomial_row(grid, d) for d in shifts}, product


def _product_work(convolved: bool, size: int, a: int, b: int) -> int:
    """The work of one ``_ring_product`` of a- by b-bit entries, ``size`` long past the leading
    zeros: 2 to call, then 1 + ab/2^20 a product pointwise, or 1/2 + (a + b)/4096 for each of
    the size(size + 1)/2 pairs of a convolution (a pair of lengths j, m - j holds less)."""
    return 2 + (size * (size + 1) // 2 * (a + b + 2048) // 4096 if convolved
                else size * (a * b // 2 ** 20 + 1))


def _held_work(entries: int, bits: int) -> int:
    """The work of holding ``entries`` integers of up to ``bits`` bits: one a 4096 bits each."""
    return entries * (bits // 4096 + 1)


def _comb_work(rows: int, top: int) -> int:
    """``rows`` rows of one ``math.comb(N, .)``, N = ``top``: (N/64 + 1)^2/8 each, about N^1.8."""
    return rows * (top // 64 + 1) ** 2 // 8


def _signed_sum(spec: CompositeSpec, u: tuple[int, ...], v: tuple[int, ...], n: int,
                signed: Iterable[tuple[tuple, int]]) -> int:
    """sum of sign * [z^(v - image(u))]S^n over the (image map, sign) pairs of ``signed``.

    Every pair is drawn once.  A term, 0 unless v - image(u) is within n*degree steps in
    ``_reachable``'s metric, is the ring product (``_ring``) of its k rows dotted with the
    weights; with one length, P(x)^n = c*x^m, one product of ints streamed by C iterators."""
    # shifts[j][(i, eps)] = v_j - eps*u_i: coordinate j of v - image(u)
    shifts = [{(i, eps): vj - eps * ui for i, ui in enumerate(u) for eps in (1, -1)} for vj in v]
    weights, ring, product = _ring(spec, n, {d for row in shifts for d in row.values()})
    # rows[j][(i, eps)] holds b(m, v_j - eps*u_i) over the ring's lengths m
    rows = [{key: ring[d] for key, d in row.items()} for row in shifts]
    if len(weights) > 1:
        far = sum if spec.kind is AtomicKind.AXIS else max
        return sum(sign * sum(map(operator.mul, weights, functools.reduce(
            product, map(dict.__getitem__, rows, image)))) for image, sign in signed
            if far(map(abs, map(dict.__getitem__, shifts, image))) <= n * spec.degree)
    # one length: each row entry is one int
    rows = [{key: entry for key, (entry,) in row.items()} for row in rows]
    images, signs = itertools.tee(signed)
    terms = map(math.prod, map(map, itertools.repeat(dict.__getitem__), itertools.repeat(rows),
                               map(operator.itemgetter(0), images)))
    return weights[0] * sum(map(operator.mul, map(operator.itemgetter(1), signs), terms))


def _reachable(spec: CompositeSpec, u: tuple[int, ...], v: tuple[int, ...], n: int) -> bool:
    """v within n*degree steps of u (l1 if axis, l-infinity if diagonal), parity allowing."""
    far = (sum if spec.kind is AtomicKind.AXIS else max)(map(abs, map(operator.sub, v, u)))
    return far <= n * spec.degree and spec.parity_allows(u, v, n)


def _as_diagonal(spec: CompositeSpec, *points: tuple[int, ...]) -> tuple:
    """(spec, *points), axis steps at k <= 2 made diagonal by (x_1, x_2) -> (x_2 - x_1, x_1 + x_2).

    An axis step moves x_1 or x_2 by 1, so the image takes one diagonal step; 0 < x_1 < x_2
    iff 0 < x_2 - x_1 < x_1 + x_2, so confinement, reach (l1 as l-infinity) and parity are
    kept.  At k = 1 the two step sets are one."""
    if spec.kind is not AtomicKind.AXIS or spec.k > 2:
        return (spec, *points)
    return (CompositeSpec(AtomicKind.DIAGONAL, spec.k, spec.weights),
            *(p if spec.k == 1 else (p[1] - p[0], p[0] + p[1]) for p in points))


def _exact_count(route: Callable) -> Callable:
    """The entry to a route (spec, *points, n), by position: checks n >= 0, counts with the
    weights D*w_m, D the lcm of their denominators, and divides by D^n (a count is of degree n)."""
    @functools.wraps(route)
    def count(spec: CompositeSpec, *points_and_n):
        n = check_walk_length(points_and_n[-1])
        d = math.lcm(*(w.denominator for w in spec.weights))
        total = route(CompositeSpec(spec.kind, spec.k, [d * w for w in spec.weights]),
                      *points_and_n)
        return total if d == 1 else Fraction(total, d ** n)
    return count


# ---------------------------------------------------------------------------
# counting


@_exact_count
def count_unconstrained(spec: CompositeSpec, u: Sequence[int], v: Sequence[int], n: int):
    """Coefficient of z^(v-u) in S(z)^n: the identity term of the signed sum."""
    u, v = tuple(u), tuple(v)
    for p in (u, v):
        if not lattice_contains(spec, p):
            raise ValueError(f"{p} is not on the walk lattice")
    if not _reachable(spec, u, v, n):
        return 0
    _check_work(f"{spec.kind.value} kernel work", _term_size(spec, u, v, n, 1))
    return _signed_sum(spec, u, v, n, [(tuple((j, 1) for j in range(spec.k)), 1)])


def signed_permutations(k: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """Yields (image map, sign) over all signed permutations of {1..k}: the image map sends
    position j to (source index, sign), and sign is sgn(sigma) * prod_j eps_j."""
    eps_signs = [math.prod(eps) for eps in itertools.product((1, -1), repeat=k)]
    for perm in itertools.permutations(range(k)):
        sgn = (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))
        # product() walks the sign vectors in the order eps_signs lists them
        images = itertools.product(*[((src, 1), (src, -1)) for src in perm])
        yield from zip(images, [sgn * s for s in eps_signs])


@_exact_count
def count_reflection(spec: CompositeSpec, u: Sequence[int], v: Sequence[int], n: int):
    """``_signed_sum`` over all k!*2^k signed permutations within the budget (the traced
    benchmark's ``exact.signed_sum_terms``), axis steps at k <= 2 as ``_as_diagonal`` makes
    them diagonal; a count ``_reachable`` rules out is 0, never refused."""
    spec, u, v = _as_diagonal(spec, check_chamber_point(spec, u), check_chamber_point(spec, v))
    try:
        _check_work("signed sum work",
                    _term_size(spec, u, v, n, math.factorial(spec.k) * 2 ** spec.k))
        return _signed_sum(spec, u, v, n, signed_permutations(spec.k))
    except ResourceBudgetError:
        if _reachable(spec, u, v, n):
            raise
        return 0


def _length_count(spec: CompositeSpec, n: int) -> int:
    """A bound on the lengths of P(x)^n, unexpanded: the n-fold sums of the weighted lengths lie
    in n*a + g*N up to n*degree, a the least weighted length, g the gcd of the differences."""
    weighted = [m for m, w in enumerate(spec.weights) if w]
    g = math.gcd(*(m - weighted[0] for m in weighted))
    return n * (spec.degree - weighted[0]) // g + 1 if g else 1


def _term_size(spec: CompositeSpec, u: tuple[int, ...], v: tuple[int, ...], n: int,
               terms: int) -> int:
    """The work of ``terms`` signed-sum terms from images of u to v, for ``_check_work``.

    The ring (``_ring``) holds 2k^2 rows and, for axis steps, the Pascal rows of at most N bits
    (N = n*degree, C(m, j) <= 2^m) and weights of n*log2(P(1)) bits over L = ``_length_count``
    lengths, or N + 1 for axis steps (``_held_work``).  With one length each row is one
    ``math.comb`` (``_comb_work``), and a term is one unit and its k - 1 products of ints, the
    p-th of p*N by N bits, at ``_STREAM_SCALE`` times ``_product_work``'s rate.  Otherwise a
    term sums its k shifts and, in reach (``_reachable_images``), makes k ring products: the
    p-th of p*N- by N-bit rows, past the leading zeros of its p + 1 rows for axis steps, and
    one by the weights, pointwise."""
    k, top, axis = spec.k, n * spec.degree, spec.kind is AtomicKind.AXIS
    size = top + 1 if axis else _length_count(spec, n)
    try:  # the weights are ints here: log2 of an int takes any size
        weight_bits = math.ceil(n * math.log2(int(sum(spec.weights))))
    except OverflowError:  # n*log2(P(1)) past a float's range: n, under the work, is over budget
        return n
    held = _held_work(2 * k * k * size + axis * (k > 1) * size * (size + 1) // 2, top) \
        + _held_work(size, weight_bits)
    if size == 1:
        return held + _comb_work(2 * k * k, top) \
            + terms * (1 + _STREAM_SCALE * (k * (k - 1) // 2 * top * top) // 2 ** 20)
    # one term is in reach (``_reachable``); a count already over the budget counts none
    reachable = min(terms, _reachable_images(u, v, top, operator.add if axis else max)) \
        if 1 < terms and terms * k <= DEFAULT_STATE_BUDGET else terms
    # leading zeros a convolution skips, v_j's distance to the nearest eps*u_i; a pointwise none
    images = sorted(eps * ui for ui in u for eps in (1, -1))
    near = map(functools.partial(bisect.bisect, images), v)
    lows = list(itertools.accumulate(
        axis * min(abs(vj - x) for x in images[max(0, i - 1):i + 1]) for vj, i in zip(v, near)))
    products = _product_work(False, size, k * top, weight_bits) + sum(
        _product_work(axis, max(0, size - low), p * top, top) for p, low in enumerate(lows[1:], 1))
    return held + terms * k + reachable * products


def _reachable_images(u: tuple[int, ...], v: tuple[int, ...], top: int, far: Callable) -> int:
    """The signed permutations with v - image(u) within ``top`` in the metric ``far`` extends by
    a coordinate (``operator.add`` for l1, ``max`` for l-infinity): every one if the farthest
    image is, v_j + max(u) from v a coordinate (points above 0), else by sources placed."""
    if functools.reduce(far, (vj + max(u) for vj in v)) <= top:
        return math.factorial(len(u)) * 2 ** len(u)
    ways = collections.Counter({(0, 0): 1})
    for vj in v:
        placed = collections.Counter()
        for ((sources, spent), count), (i, ui), eps in itertools.product(
                ways.items(), enumerate(u), (1, -1)):
            if not sources >> i & 1 and (cost := far(spent, abs(vj - eps * ui))) <= top:
                placed[sources | 1 << i, cost] += count
        ways = placed
    return sum(ways.values())


@_exact_count
def count_confined(spec: CompositeSpec, u: Sequence[int], v: Sequence[int], n: int):
    """Dynamic-programming oracle for confined walk counts; confinement is atomic-strict."""
    u, v = check_chamber_point(spec, u), check_chamber_point(spec, v)
    return _weighted_layers(spec, n, u, v) if _reachable(spec, u, v, n) else 0


@_exact_count
def count_confined_free(spec: CompositeSpec, u: Sequence[int], n: int):
    """Total confined count over all endpoints: the DP frontier mass after n steps."""
    return _weighted_layers(spec, n, check_chamber_point(spec, u))


@_exact_count
def count_reflection_free(spec: CompositeSpec, u: Sequence[int], n: int):
    """Free-endpoint total: de Bruijn's Pfaffian of the reflected one-dimensional counts.

    f_i(x) = r(x - u_i) - r(x + u_i), r(d)[m] = [z^d](z + 1/z)^m, counts the walks of m atomic
    steps from u_i to x above 0; det[f_i(v_j)], its products pointwise for diagonal steps and
    binomial convolutions for axis steps, those to v.  Summed over the chamber it is the
    Pfaffian of a_ij = sum_(x>0) f_i(x) t_j(x) - f_j(x) t_i(x), t_j(x) = sum_(y>x) f_j(y),
    bordered by t_i(0) for odd k (de Bruijn 1955; Stembridge 1990).  As f is odd, r even and
    the product commutative, 2a_ij = S_ij - S_ji, S_ij = sum_x sgn(x) r(x - u_i) (t_j(x) +
    t_j(-x)), and each of its products r(x - u_i) r(x +- e), -u_j < e <= u_j, is symmetric
    about x = (u_i -+ e)/2: its signed sum is its sum over 0 < x <= u_i -+ e, or minus that
    over u_i -+ e <= x < 0.  So S_ij is a window, min(0, u_i - u_j) <= x <= u_i + u_j and
    |x - u_i| <= N = n*degree, of products with prefix sums of rows on x's side of u_i, and
    reads no row past |d| = min(N, max(u)).
    """
    spec, u = _as_diagonal(spec, check_chamber_point(spec, u))
    k, top, axis = spec.k, n * spec.degree, spec.kind is AtomicKind.AXIS
    # a convolution mixes the lengths, so axis vectors take every m <= N
    reach, order, size = min(top, max(u)), k + k % 2, top + 1 if axis else _length_count(spec, n)
    # work: the windows' products of N-bit rows, ``points`` (c = min(u, N): u_i's window by a
    # larger u_j holds 2c_j + 1, by a smaller c_i + c_j + 1, less x = 0 if u_i <= N); the
    # Pfaffian's, one an entry of its C(K - d, d) minors of order K - 2d > 2, 2N- by (K - 2)N-bit;
    # entries held per 4096 bits; math.combs
    points = sum(min(ui, top) * (k - 1 + 2 * i) + (k - 1) * (ui > top) for i, ui in enumerate(u))
    # C(K - d - 1, d + 1) = C(K - d, d) (K - 2d)(K - 2d - 1) / ((d + 1)(K - d)), one from the last
    minors = itertools.accumulate(itertools.count(), lambda c, d: c * (order - 2 * d)
                                  * (order - 2 * d - 1) // ((d + 1) * (order - d)), initial=1)
    pfaffian = sum(c * (order - 2 * d - 1) for d, c in zip(range(order // 2 - 1), minors))
    _check_work("free-endpoint Pfaffian work", points * _product_work(axis, size, top, top)
                + pfaffian * _product_work(axis, size, 2 * top, max(2, order - 2) * top)
                + _held_work((5 * reach + 7) * size + axis * size * (size + 1) // 2, top)
                + (size == 1) * _comb_work(reach + 1, top))
    weights, ring, product = _ring(spec, n, range(reach + 1))
    rows = [*ring.values(), [0] * len(weights)]
    # prefix[d + reach + 1] sums r(d') over d' <= d, rows[reach + 1] = 0; doubled adds the one below
    prefix = list(itertools.accumulate((rows[abs(d)] for d in range(-reach, reach + 2)),
                                       lambda s, r: [a + b for a, b in zip(s, r)],
                                       initial=rows[-1]))
    doubled = [[a + b for a, b in zip(s, r)] for s, r in zip(prefix, [rows[-1]] + prefix)]

    def at(table, d):  # no row past |d| = reach is read, or it is 0
        return table[min(max(d, -reach - 1), reach + 1) + reach + 1]

    def signed(ui, uj):  # S_ij: r(x - u_i) by its rows r(d), d <= u_i for x > 0, minus d >= u_i
        wall, below = ([2 * c for c in at(prefix, d)] for d in (ui, ui - 1))
        window = range(max(min(0, ui - uj), ui - top), min(ui + uj, ui + top) + 1)
        return map(sum, zip(*[product(rows[abs(x - ui)], list(map(operator.sub, *(
            (at(doubled, x + uj) if x + uj <= ui else wall, at(doubled, x - uj)) if x > 0
            else (below, at(doubled, x + uj)))))) for x in window if x]))

    entries = {(i, j): [(s - t) // 2 for s, t in zip(signed(u[i], u[j]), signed(u[j], u[i]))]
               for i in range(k) for j in range(i + 1, k)}
    entries.update({(i, k): list(map(operator.sub, at(prefix, ui), at(prefix, -ui)))
                    for i, ui in enumerate(u) if k % 2})
    return sum(map(operator.mul, weights, _pfaffian(order, entries, product)))


def _ring_product(binomials: dict | None, a: Sequence[int], b: Sequence[int]) -> list:
    """a*b pointwise, or sum_j C(m, j) a_j b_(m-j) over the leading nonzeros with ``binomials``:
    C(m, j) interleaves j steps of some coordinates with m - j steps of the others."""
    if binomials is None:
        return list(map(operator.mul, a, b))
    lo_a, lo_b = (next((j for j, c in enumerate(v) if c), len(v)) for v in (a, b))
    return [sum(map(operator.mul, map(operator.mul, binomials[m][lo_a:m - lo_b + 1],
                                      a[lo_a:m - lo_b + 1]), b[lo_b:m - lo_a + 1][::-1]))
            for m in range(len(a))]


def _pfaffian(order: int, entries: dict, product: Callable) -> list:
    """Pfaffian of the antisymmetric ``entries[i, j]``, i < j < order, along the first row,
    each minor expanded once: C(order - d, d) minors of order - 2d rows are reached."""
    @functools.cache
    def minor(rows: tuple[int, ...]) -> list:
        if len(rows) == 2:
            return entries[rows]
        terms = [product(entries[rows[0], j], minor(rows[1:p] + rows[p + 1:]))
                 for p, j in enumerate(rows[1:], 1)]
        return [sum(t[::2]) - sum(t[1::2]) for t in zip(*terms)]
    return minor(tuple(range(order)))


def _digits(n: int) -> str:
    """str(n) past the int-to-str length limit, by halves: n = hi*2^s + lo, each half converted
    alike and joined exactly in ``decimal``.  ``Decimal(n)`` alone is quadratic in the digits,
    so it takes only pieces of 4096 bits or fewer."""
    context = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, traps=[decimal.Inexact])
    powers: dict[int, decimal.Decimal] = {}

    def convert(m: int) -> decimal.Decimal:
        if m.bit_length() <= 4096:
            return decimal.Decimal(m)
        s = 1 << (m.bit_length() - 1).bit_length() - 1  # the largest power of 2 below its length
        if s not in powers:
            powers[s] = context.power(2, s)
        return context.add(context.multiply(convert(m >> s), powers[s]), convert(m & (1 << s) - 1))
    return ("-" if n < 0 else "") + str(convert(abs(n)))


def format_count(value) -> str:
    """Serialize an exact count: decimal string, or 'p/q' for non-integers, by ``_digits``."""
    num, den = Fraction(value).as_integer_ratio()
    return _digits(num) + (f"/{_digits(den)}" if den != 1 else "")
