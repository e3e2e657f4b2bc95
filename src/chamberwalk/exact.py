"""Exact walk counting.

Two independent exact routes: ``count_confined``, dynamic programming over the chamber's
lattice points (the oracle), and reflection: ``count_reflection``, a signed sum over the signed
permutations, and ``count_reflection_free``, one Pfaffian.  ``count_unconstrained``, plain
coefficient extraction from S(z)^n, is the signed sum's identity term.

Every count uses S = P(A): sum_m [x^m]P(x)^n times the count of atomic walks of length m, with
[x^m]P(x)^n from one expansion.  A signed-sum term multiplies one-dimensional rows b(m, d) =
[z^d](z + 1/z)^m, pointwise for the diagonal kind and by the binomial convolution of
``_ring_product`` for the axis kind.  Both reflection routes count axis steps at k <= 2 as
diagonal steps (``_as_diagonal``).  The DP keeps only chamber points, and for one end point
only those in its reach, each packed into one int.  A count whose end point is out of reach
or ruled out by the step parity is 0, never refused (``_reachable``).

Every route estimates its work before it runs and raises ``ResourceBudgetError`` over
``DEFAULT_STATE_BUDGET`` (``_check_work``).  Every route counts in Python ints: the one entry
``_exact_count`` scales rational weights by the lcm D of their denominators and divides the
count by D^n once.  Confinement is atomic-strict: every intermediate atomic position inside a
composite step must stay strictly inside the chamber.
"""

from __future__ import annotations

import collections
import functools
import inspect
import itertools
import math
import operator
from decimal import Decimal
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

from chamberwalk.stepmodel import (
    AtomicKind,
    CompositeSpec,
    check_chamber_point,
    lattice_contains,
)

DEFAULT_STATE_BUDGET = 10 ** 7


class ResourceBudgetError(RuntimeError):
    """The work ``what`` of an exact route, estimated at ``estimate``, exceeds ``budget``."""

    def __init__(self, what: str, estimate: int, budget: int):
        super().__init__(f"{what}: estimate {estimate} exceeds budget of {budget}")
        self.what, self.estimate, self.budget = what, estimate, budget


def _check_work(what: str, ops: int, integers: int = 0, bits: int = 0) -> None:
    """Refuses an exact route whose estimated work is over the budget.

    The work is ``ops`` operations, each of about the same time at any
    integer size, plus the 64-bit words of ``integers`` integers of up to
    ``bits`` bits, for a route whose integers are long enough to matter.
    """
    work = ops + integers * (bits // 64 + 1)
    if work > DEFAULT_STATE_BUDGET:
        raise ResourceBudgetError(what, work, DEFAULT_STATE_BUDGET)


# ---------------------------------------------------------------------------
# step distributions


def atomic_displacements(spec: CompositeSpec) -> list[tuple[int, ...]]:
    if spec.kind is AtomicKind.AXIS:
        return [tuple(sign * (i == j) for i in range(spec.k))
                for j in range(spec.k) for sign in (1, -1)]
    return list(itertools.product((1, -1), repeat=spec.k))


def _convolve(layer: dict, offsets: Sequence[int]) -> dict:
    out: dict = {}
    for key, mass in layer.items():
        for offset in offsets:
            out[t] = out.get(t := key + offset, 0) + mass
    return out


def _weight_power(weights: tuple, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The atomic lengths m with [x^m]P(x)^n != 0, and those coefficients, for integer weights.

    Writes P(x) = x^a Q(x) with Q(0) != 0 and expands Q(x)^n by Miller's
    recurrence i q_0 c_i = sum_j ((n + 1) j - i) q_j c_(i-j), in ints.
    """
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
    of ``start`` a digit in [0, 2^w): a step adds one int, and no digit carries.  Read at
    ``point``, layer m keeps only the points within L - m steps of it, L the last length read
    (l1 for axis steps, l-infinity for diagonal ones)."""
    _check_work("confined DP updates", _layer_work(spec, n, start))
    lengths, coeffs = _weight_power(spec.weights, n)
    top, axis = n * spec.degree, spec.kind is AtomicKind.AXIS
    width = (max(start) + 2 * top + 1).bit_length()
    shifts, mask = range(0, width * spec.k, width), (1 << width) - 1

    def pack(point, base=top):
        return sum((x + base) << s for x, s in zip(point, shifts))

    def chamber(key, left):  # top < x_1 + N < ... < x_k + N, any left
        low = top
        for s in shifts:
            if (digit := key >> s & mask) <= low:
                return False
            low = digit
        return True

    def near(key, left):  # in the chamber, and the aim within left steps
        low = top
        for s, t in zip(shifts, aim):
            if (digit := key >> s & mask) <= low or (gap := abs(digit - t)) > left:
                return False
            low, left = digit, left - gap if axis else left
        return True

    # at n = 0 no step is taken: the 2^k diagonal offsets are not built
    offsets = [pack(d, 0) for d in atomic_displacements(spec)] if lengths[-1] else []
    # with no point read, the chamber test alone keeps the free DP fast
    inside, last = chamber, 0
    if point is not None:
        inside, last, aim, end = near, lengths[-1], [x + top for x in point], pack(point)
    layer, m, total = {pack(start): 1}, 0, 0
    for length, c in zip(lengths, coeffs):
        while m < length:
            layer = _convolve(layer, offsets)
            m += 1
            layer = {key: mass for key, mass in layer.items() if inside(key, last - m)}
        total += c * (sum(layer.values()) if point is None else layer.get(end, 0))
    return total


def _layer_work(spec: CompositeSpec, n: int, start: Sequence[int]) -> int:
    """Dict updates of ``_weighted_layers``: each atomic step moves each point of layers m < N.

    N = n*degree.  Layer m holds at most the points within m steps, the l1 ball sum_i 2^i
    C(k, i) C(m, i) for axis steps or the box (m+1)^k for diagonal ones, and the chamber points
    with x_k <= b + m, b = max(start): C(b + m, k), or C((b + m + 1)//2, k) for diagonal steps,
    which keep one parity.  The smaller sum over m <= N is taken in closed form.
    """
    k, top, axis = spec.k, n * spec.degree, spec.kind is AtomicKind.AXIS
    if top == 0:
        return 0
    # the diagonal sum takes each value of (b + m + 1)//2 at most twice
    b = max(start)
    work = min(sum(2 ** i * math.comb(k, i) * math.comb(top + 1, i + 1) for i in range(k + 1)),
               math.comb(b + top + 1, k + 1)) if axis \
        else min((top + 1) ** (k + 1), 2 * math.comb((b + top + 3) // 2, k + 1))
    return (2 * k if axis else 2 ** k) * work


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


def _signed_sum(spec: CompositeSpec, u: tuple[int, ...], v: tuple[int, ...], n: int,
                signed: Iterable[tuple[tuple, int]]) -> int:
    """sum of sign * [z^(v - image(u))]S^n over the (image map, sign) pairs of ``signed``.

    Every pair is drawn once.  A diagonal term is the product of its k rows at each length of
    P(x)^n; with one length, P(x)^n = c*x^m, one product of ints, streamed through C-level
    iterators with no Python frame.  An axis term, 0 unless v - image(u) is within N = n*degree
    l1 steps, convolves its k rows over m <= N (``_ring_product``, the EGF product of
    Grabiner-Magyar 1993)."""
    lengths, coeffs = _weight_power(spec.weights, n)
    axis, top = spec.kind is AtomicKind.AXIS, n * spec.degree
    # shifts[j][(i, eps)] = v_j - eps*u_i: coordinate j of v - image(u)
    shifts = [{(i, eps): vj - eps * ui for i, ui in enumerate(u) for eps in (1, -1)} for vj in v]
    # a convolution mixes the lengths, so axis rows take every m <= N
    grid = range(top + 1) if axis else lengths
    # rows[j][(i, eps)] holds [z^(v_j - eps*u_i)](z + 1/z)^m over the grid's lengths m
    rows = [{key: _binomial_row(grid, d) for key, d in row.items()} for row in shifts]
    if axis:
        # at k = 1 a term is its one row: no product, so no Pascal rows
        product = functools.partial(_ring_product, _pascal_rows(grid) if spec.k > 1 else None)
        # [x^m]P(x)^n at every m of the grid, 0 off the lengths
        dense = list(map(dict(zip(lengths, coeffs)).get, grid, itertools.repeat(0)))
        return sum(sign * sum(map(operator.mul, dense, functools.reduce(
            product, map(dict.__getitem__, rows, image)))) for image, sign in signed
            if sum(map(abs, map(dict.__getitem__, shifts, image))) <= top)
    if len(lengths) > 1:
        return sum(sign * sum(map(math.prod, zip(coeffs, *map(dict.__getitem__, rows, image))))
                   for image, sign in signed)
    # one length: each row entry is one int
    rows = [{key: entry for key, (entry,) in row.items()} for row in rows]
    images, signs = itertools.tee(signed)
    terms = map(math.prod, map(map, itertools.repeat(dict.__getitem__), itertools.repeat(rows),
                               map(operator.itemgetter(0), images)))
    return coeffs[0] * sum(map(operator.mul, map(operator.itemgetter(1), signs), terms))


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
    """The entry to a route: checks n >= 0, counts with the weights D*w_m, divides by D^n."""
    # D, the lcm of the weight denominators, makes them ints; every count is homogeneous of
    # degree n in the weights
    signature = inspect.signature(route)

    @functools.wraps(route)
    def count(*args, **kwargs):
        call = signature.bind(*args, **kwargs)
        spec, n = call.arguments["spec"], call.arguments["n"]
        if n < 0:
            raise ValueError(f"walk length n must be >= 0, got {n}")
        d = math.lcm(*(w.denominator for w in spec.weights))
        call.arguments["spec"] = CompositeSpec(spec.kind, spec.k, [d * w for w in spec.weights])
        total = route(*call.args, **call.kwargs)
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
    _check_work(f"{spec.kind.value} kernel work", *_term_size(spec, u, v, n, 1))
    return _signed_sum(spec, u, v, n, [(tuple((j, 1) for j in range(spec.k)), 1)])


def signed_permutations(k: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """Yields (image map, sign) over all signed permutations of {1..k}.

    The image map sends position j to (source index, sign); the yielded
    sign is sgn(sigma) * prod_j eps_j.
    """
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
                    *_term_size(spec, u, v, n, math.factorial(spec.k) * 2 ** spec.k))
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
               terms: int) -> tuple[int, int, int]:
    """(ops, integers, bits) for ``_check_work``: ``terms`` kernel terms from images of u to v.

    A diagonal term dots its counts at the L lengths of ``_length_count``; the kernel holds L
    coefficients and 2k^2 rows over them, of n*log2(P(1)) + k*N bits at most, N = n*degree
    ([x^m]P(x)^n <= P(1)^n, C(m, j) <= 2^N).  With one length each row is one math.comb(N, .),
    charged (N/64 + 1)^2/8 as its time grows, about N^1.8.  An axis term sums its k shifts and,
    in reach (``_reachable_images``), dots N + 1 counts and makes k - 1 convolutions: 10 to
    call, 2 a length and 1 a pair past the leading zeros, t(t + 1)/2 for the p-th, t = N + 1 -
    sum_(j <= p) min_(i, eps) |v_j - eps*u_i|, per 4096 bits.  Its counts, 2k^2 + 1 rows and
    Pascal rows C(m, .), m <= N, are at most (2k)^N: k*N bits.
    """
    k, top = spec.k, n * spec.degree
    if spec.kind is AtomicKind.DIAGONAL:
        lengths = _length_count(spec, n)
        combs = 2 * k * k * (top // 64 + 1) ** 2 // 8 if lengths == 1 else 0
        bits = math.ceil(n * math.log2(sum(spec.weights)) + k * top)
        return terms * lengths + combs, (2 * k * k + 1) * lengths, bits
    ops = terms * k
    lows = itertools.accumulate(min(abs(vj - eps * ui) for ui in u for eps in (1, -1)) for vj in v)
    pairs = sum(t * (t + 1) // 2 for t in (max(0, top + 1 - low) for low in list(lows)[1:]))
    # one term is in reach (``_reachable``); a count already over the budget counts none
    reachable = min(terms, _reachable_images(u, v, top)) \
        if 1 < terms and ops <= DEFAULT_STATE_BUDGET else terms
    ops += reachable * (top + 1 + (k - 1) * (2 * top + 12) + pairs) * (k * top // 4096 + 1)
    return ops, (2 * k * k + 1) * (top + 1) + (k > 1) * (top + 1) * (top + 2) // 2, k * top


def _reachable_images(u: tuple[int, ...], v: tuple[int, ...], top: int) -> int:
    """The signed permutations with sum_j |v_j - eps_j*u_sigma(j)| <= top, by sources placed."""
    ways = collections.Counter({(0, 0): 1})
    for vj in v:
        placed = collections.Counter()
        for ((sources, spent), count), (i, ui), eps in itertools.product(
                ways.items(), enumerate(u), (1, -1)):
            if not sources >> i & 1 and (cost := spent + abs(vj - eps * ui)) <= top:
                placed[sources | 1 << i, cost] += count
        ways = placed
    return sum(ways.values())


@_exact_count
def count_confined(spec: CompositeSpec, u: Sequence[int], v: Sequence[int], n: int):
    """Dynamic-programming oracle for confined walk counts; confinement is atomic-strict."""
    u = check_chamber_point(spec, u)
    v = check_chamber_point(spec, v)
    return _weighted_layers(spec, n, u, v) if _reachable(spec, u, v, n) else 0


@_exact_count
def count_confined_free(spec: CompositeSpec, u: Sequence[int], n: int):
    """Total confined count over all endpoints: the DP frontier mass after n steps."""
    return _weighted_layers(spec, n, check_chamber_point(spec, u))


@_exact_count
def count_reflection_free(spec: CompositeSpec, u: Sequence[int], n: int):
    """Free-endpoint total: de Bruijn's Pfaffian of the reflected one-dimensional counts.

    f_i(x)[m] = b(m, x - u_i) - b(m, x + u_i), b(m, d) = [z^d](z + 1/z)^m, counts the
    walks of m atomic steps from u_i to x above 0.  The confined count to v is
    det[f_i(v_j)] under a product of length vectors: pointwise for diagonal steps, a
    binomial convolution for axis steps.  Summed over 0 < v_1 < ... < v_k it is the
    Pfaffian of a_ij = sum_(x<y) f_i(x) f_j(y) - f_j(x) f_i(y), bordered by sum_x f_i(x)
    for odd k (de Bruijn 1955; Stembridge 1990).  For each group of lengths, x walks
    down once from max(u) + max m, above which f vanishes, keeping sum_(y>x) f_j(y).
    """
    spec, u = _as_diagonal(spec, check_chamber_point(spec, u))
    k, top, axis = spec.k, n * spec.degree, spec.kind is AtomicKind.AXIS
    # a convolution mixes the lengths, so axis vectors take every m <= top at once;
    # pointwise products keep them apart and take 16 at a time, holding 16 binomial rows
    box, size = max(u) + top, top + 1 if axis else _length_count(spec, n)
    chunk = size if axis else 16
    # work: k(k-1) ring products per x, and for the Pfaffian of order K one product per
    # entry of each minor of order K - 2d > 2 it expands, C(K - d, d) of them, each of size
    # scalar products pointwise or t(t+1)/2 as a convolution, t <= size and
    # t <= top + 2max(u) - 2x past the leading zeros at x, each costing its words, as do the
    # rows held; each entry of f_i(x) and rows, a unit per 4096 bits
    order = k + k % 2
    pfaffian = sum(math.comb(order - d, d) * (order - 2 * d - 1) for d in range(order // 2 - 1))
    products = (k * (k - 1) * (max(u) - 1) + pfaffian) * size * (size + 1) // 2 \
        + k * (k - 1) * (size + 2) ** 3 // 12 if axis else (box * k * (k - 1) + pfaffian) * size
    _check_work("free-endpoint Pfaffian work", (box * k * size + size * (2 * top + 3 - size) // 2)
                * (top // 4096 + 1), products + min(size, chunk) * (top + 1), top)
    lengths, coeffs = _weight_power(spec.weights, n)
    confined, every = {}, range(top + 1) if axis else lengths
    for start in range(0, len(every), chunk):
        grid = every[start:start + chunk]
        binomials = _pascal_rows(grid)
        b = {m: {2 * j - m: c for j, c in enumerate(row)} for m, row in binomials.items()}
        product = functools.partial(_ring_product, binomials if axis else None)
        entries = {(i, j): [0] * len(grid) for i in range(k) for j in range(i + 1, k)}
        tails = [[0] * len(grid)] * k
        for x in range(max(u) + grid[-1], 0, -1):
            f = [[b[m].get(x - ui, 0) - b[m].get(x + ui, 0) for m in grid] for ui in u]
            for i, j in entries:
                entries[i, j] = list(map(lambda a, p, q: a + p - q, entries[i, j],
                                         product(f[i], tails[j]), product(f[j], tails[i])))
            tails = [list(map(operator.add, t, fi)) for t, fi in zip(tails, f)]
        entries.update({(i, k): tails[i] for i in range(k) if k % 2})
        confined.update(zip(grid, _pfaffian(order, entries, product)))
    return sum(c * confined[m] for m, c in zip(lengths, coeffs))


def _ring_product(binomials: dict | None, a: Sequence[int], b: Sequence[int]) -> list:
    """a*b pointwise, or sum_j C(m, j) a_j b_(m-j) over the leading nonzeros with ``binomials``.

    C(m, j) interleaves j steps of some coordinates with m - j steps of the others.
    """
    if binomials is None:
        return list(map(operator.mul, a, b))
    lo_a, lo_b = (next((j for j, c in enumerate(v) if c), len(v)) for v in (a, b))
    return [sum(map(operator.mul, map(operator.mul, binomials[m][lo_a:m - lo_b + 1],
                                      a[lo_a:m - lo_b + 1]), b[lo_b:m - lo_a + 1][::-1]))
            for m in range(len(a))]


def _pfaffian(order: int, entries: dict, product: Callable) -> list:
    """Pfaffian of the antisymmetric ``entries[i, j]``, i < j < order, along the first row.

    Each minor is expanded once: C(order - d, d) minors of order - 2d rows are reached.
    """
    @functools.cache
    def minor(rows: tuple[int, ...]) -> list:
        if len(rows) == 2:
            return entries[rows]
        terms = [product(entries[rows[0], j], minor(rows[1:p] + rows[p + 1:]))
                 for p, j in enumerate(rows[1:], 1)]
        return [sum(t[::2]) - sum(t[1::2]) for t in zip(*terms)]
    return minor(tuple(range(order)))


def format_count(value) -> str:
    """Serialize an exact count: decimal string, or 'p/q' for non-integers.

    ``Decimal`` prints the digits: it has no int-to-str length limit.
    """
    num, den = Fraction(value).as_integer_ratio()
    return str(Decimal(num)) + (f"/{Decimal(den)}" if den != 1 else "")
