"""Exact counting: DP oracle, reflection sum, unconstrained coefficients."""

import itertools
import math
import operator
import random
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from chamberwalk import exact
from chamberwalk.stepmodel import AtomicKind, CompositeSpec, lattice_contains

LOCKSTEP_1 = CompositeSpec(AtomicKind.DIAGONAL, 1, [0, 1])
RT_1 = CompositeSpec(AtomicKind.AXIS, 1, [0, 1])
TANGLED_1 = CompositeSpec(AtomicKind.AXIS, 1, [1, 1, 1])

CATALAN = [1, 2, 5, 14, 42, 132, 429, 1430]


def _shift_sum(dist, steps):
    """sum over (step, weight) in steps of weight * (dist shifted by step)."""
    out = {}
    for point, mass in dist.items():
        for step, w in steps:
            key = tuple(p + s for p, s in zip(point, step))
            out[key] = out.get(key, 0) + w * mass
    return out


def _atomic_steps(spec):
    if spec.kind is AtomicKind.AXIS:
        return [(tuple(s * (i == j) for i in range(spec.k)), 1)
                for j in range(spec.k) for s in (1, -1)]
    return [(eps, 1) for eps in itertools.product((1, -1), repeat=spec.k)]


def _composite_step(spec):
    """The composite step's displacements and weights: sum_m w_m A^m."""
    one, layer = {}, {(0,) * spec.k: 1}
    for w in spec.weights:
        # integer weights as ints: Fraction masses would make the oracle slow
        w = int(w) if w.denominator == 1 else w
        for point, mass in layer.items():
            one[point] = one.get(point, 0) + w * mass
        layer = _shift_sum(layer, _atomic_steps(spec))
    return list(one.items())


def _composite_dp(spec, u, n):
    """Confined counts after n composite steps, one composite step at a time.

    Each composite step walks up to degree atomic steps, keeps every atomic
    position strictly inside the chamber, and weighs the walks of m atomic
    steps by w_m, a Fraction as given.
    """
    frontier = {u: Fraction(1)}
    for _ in range(n):
        layer, frontier = frontier, {}
        for m, w in enumerate(spec.weights):
            if m:
                layer = {p: mass for p, mass in _shift_sum(layer, _atomic_steps(spec)).items()
                         if 0 < p[0] and all(a < b for a, b in zip(p, p[1:]))}
            for point, mass in layer.items():
                frontier[point] = frontier.get(point, 0) + w * mass
    return frontier


# spec -> [S^0, S^1, ...] as displacement dicts, extended one convolution at a time
_POWERS: dict = {}


def _composite_convolution(spec, n):
    """[z^d]S^n for every d, convolving the whole composite step n times."""
    powers = _POWERS.setdefault(spec, [{(0,) * spec.k: 1}])
    while len(powers) <= n:
        powers.append(_shift_sum(powers[-1], _composite_step(spec)))
    return powers[n]


def _naive_reflection(spec, u, v, n):
    """The signed sum term by term, one count_unconstrained call per signed permutation."""
    return sum(sign * exact.count_unconstrained(spec, [eps * u[src] for src, eps in image], v, n)
               for image, sign in exact.signed_permutations(spec.k))


class TestClassicalSequences:
    def test_catalan_confined(self):
        got = [exact.count_confined(LOCKSTEP_1, (1,), (1,), 2 * m) for m in range(1, 9)]
        assert got == CATALAN

    def test_catalan_reflection(self):
        got = [exact.count_reflection(LOCKSTEP_1, (1,), (1,), 2 * m) for m in range(1, 9)]
        assert got == CATALAN

    def test_central_binomial_free(self):
        got = [exact.count_confined_free(LOCKSTEP_1, (1,), n) for n in range(1, 13)]
        assert got == [math.comb(n, n // 2) for n in range(1, 13)]

    def test_central_binomial_free_reflection(self):
        got = [exact.count_reflection_free(LOCKSTEP_1, (1,), n) for n in range(1, 13)]
        assert got == [math.comb(n, n // 2) for n in range(1, 13)]

    def test_odd_length_excursions_vanish(self):
        assert exact.count_confined(LOCKSTEP_1, (1,), (1,), 7) == 0
        assert exact.count_reflection(LOCKSTEP_1, (1,), (1,), 7) == 0


class TestHandComputed:
    def test_zero_steps(self):
        assert exact.count_confined(TANGLED_1, (1,), (1,), 0) == 1
        assert exact.count_confined(TANGLED_1, (1,), (2,), 0) == 0

    def test_tangled_one_step(self):
        # stay (w0) or atomic pair out-and-back (w2, 1->2->1; 1->0 blocked)
        assert exact.count_confined(TANGLED_1, (1,), (1,), 1) == 2
        assert exact.count_confined(TANGLED_1, (1,), (2,), 1) == 1

    def test_tangled_two_steps(self):
        assert exact.count_confined(TANGLED_1, (1,), (1,), 2) == 6
        assert exact.count_unconstrained(TANGLED_1, (1,), (1,), 2) == 13

    def test_watermelon_k2_shortest(self):
        spec = CompositeSpec(AtomicKind.DIAGONAL, 2, [0, 1])
        assert exact.count_confined(spec, (1, 3), (1, 3), 2) == 1
        assert exact.count_confined(spec, (1, 3), (1, 3), 4) == 3

    def test_tangled_k2(self):
        spec = CompositeSpec(AtomicKind.AXIS, 2, [1, 1, 1])
        assert exact.count_confined(spec, (1, 2), (1, 2), 3) == 39
        assert exact.count_reflection(spec, (1, 2), (1, 2), 3) == 39

    def test_fractional_weights(self):
        spec = CompositeSpec(AtomicKind.AXIS, 1, [Fraction(1, 2), Fraction(1, 3)])
        # stay-stay 1/4, up-down 1/9
        assert exact.count_confined(spec, (1,), (1,), 2) == Fraction(13, 36)
        assert exact.count_reflection(spec, (1,), (1,), 2) == Fraction(13, 36)


class TestUnconstrained:
    def test_lockstep_binomial_product(self):
        spec = CompositeSpec(AtomicKind.DIAGONAL, 2, [0, 1])
        got = exact.count_unconstrained(spec, (1, 3), (3, 5), 4)
        assert got == math.comb(4, 3) * math.comb(4, 3)

    def test_row_sums_equal_total_mass(self):
        spec = CompositeSpec(AtomicKind.AXIS, 2, [1, 1, 1])
        box = range(-7, 8)
        total = sum(exact.count_unconstrained(spec, (0, 0), v, 3)
                    for v in itertools.product(box, box))
        # total mass is S(1,...,1)^n = 21^3, and every displacement has |d|_1 <= 3*2
        assert total == 21 ** 3

    def test_off_lattice_rejected(self):
        spec = CompositeSpec(AtomicKind.DIAGONAL, 2, [0, 1])
        with pytest.raises(ValueError):
            exact.count_unconstrained(spec, (1, 3), (1, 2), 2)

    def test_naive_matches_fast(self):
        for spec, u, v in [(CompositeSpec(AtomicKind.AXIS, 2, [0, 1, 1]), (1, 2), (2, 3)),
                           (CompositeSpec(AtomicKind.DIAGONAL, 2, [1, 0, 2]), (1, 3), (3, 5))]:
            for n in range(5):
                assert _naive_reflection(spec, u, v, n) == exact.count_reflection(spec, u, v, n)
        # one atomic length (the streamed diagonal sum) and two (a sum over lengths per term)
        for weights in ["0,1", "0,1/3", "0,0,2", "1/2,1/3"]:
            for k in range(1, 5):
                spec = _spec(AtomicKind.DIAGONAL, k, weights)
                u = tuple(range(1, 2 * k, 2))
                for v in (u, tuple(x + 1 for x in u), u[:-1] + (u[-1] + 2,)):
                    for n in range(7):
                        fast = exact.count_reflection(spec, u, v, n)
                        assert _naive_reflection(spec, u, v, n) == fast, (weights, k, v, n)
                        assert exact.count_confined(spec, u, v, n) == fast, (weights, k, v, n)


class TestSignedPermutations:
    def test_group_order(self):
        assert len(list(exact.signed_permutations(3))) == 48

    def test_signs_sum_to_zero(self):
        assert sum(sign for _, sign in exact.signed_permutations(2)) == 0

    def test_identity_has_positive_sign(self):
        images = dict(exact.signed_permutations(3))
        ident = tuple((j, 1) for j in range(3))
        assert images[ident] == 1


@pytest.mark.parametrize("kind,weights", [
    (AtomicKind.AXIS, "0,1"), (AtomicKind.AXIS, "1,1,1"),
    # one atomic length (the streamed sum) and several (a sum over lengths per term)
    (AtomicKind.DIAGONAL, "0,1"), (AtomicKind.DIAGONAL, "0,1/3"),
    (AtomicKind.DIAGONAL, "0,1,1"), (AtomicKind.DIAGONAL, "1/2,1/3")])
def test_signed_sum_draws_every_term(kind, weights):
    """Each count_reflection call within the budget draws all k!*2^k signed
    permutations, reachable end point or not: the traced benchmark's check."""
    drawn = []
    real = exact.signed_permutations

    def counting(k):
        drawn.append(0)
        for item in real(k):
            drawn[-1] += 1
            yield item

    stride = 2 if kind is AtomicKind.DIAGONAL else 1
    with mock.patch.object(exact, "signed_permutations", counting):
        for k in range(1, 5):
            spec = _spec(kind, k, weights)
            u = tuple(range(1, stride * k + 1, stride))
            far = u[:-1] + (u[-1] + 2 * 5 * spec.degree + 2,)  # out of reach in 5 steps
            for v, n in [(u, 0), (u, 4), (u, 5), (far, 5)]:
                drawn.clear()
                exact.count_reflection(spec, u, v, n)
                assert drawn == [math.factorial(k) * 2 ** k], (k, v, n)


@pytest.mark.parametrize("kind", [AtomicKind.AXIS, AtomicKind.DIAGONAL])
def test_dp_takes_no_step_at_n_zero(kind):
    """At n = 0 the DP counts the empty walk without moving a coordinate."""
    spec = CompositeSpec(kind, 18, [0, 1])
    stride = 2 if kind is AtomicKind.DIAGONAL else 1
    u = tuple(range(1, stride * 18 + 1, stride))
    with mock.patch.object(exact, "_moves", side_effect=AssertionError):
        assert exact.count_confined_free(spec, u, 0) == 1
        assert exact.count_confined(spec, u, u, 0) == 1


@settings(deadline=None, max_examples=30)
@given(
    kind=st.sampled_from([AtomicKind.AXIS, AtomicKind.DIAGONAL]),
    k=st.integers(1, 2),
    weights=st.lists(st.integers(0, 2), min_size=2, max_size=3),
    n=st.integers(0, 4),
    data=st.data(),
)
def test_reflection_equals_confined(kind, k, weights, n, data):
    if not any(weights[1:]):
        weights = weights[:1] + [1] + weights[2:]
    spec = CompositeSpec(kind, k, weights)
    stride = 2 if kind is AtomicKind.DIAGONAL else 1
    base = data.draw(st.integers(1, 3))
    gaps = data.draw(st.lists(st.integers(1, 2), min_size=k - 1, max_size=k - 1))
    u = [base]
    for g in gaps:
        u.append(u[-1] + stride * g)
    shift = data.draw(st.integers(0, 2)) * stride
    v = tuple(x + shift for x in u)
    assert exact.count_reflection(spec, tuple(u), v, n) \
        == exact.count_confined(spec, tuple(u), v, n)


# named weight lists: lock-step, mixed degree, w_0 > 0, rational, one parity
WEIGHT_LISTS = ["0,1", "0,1,1", "1,0,2", "1/2,1/3", "1,1", "0,0,1", "1,0,1", "0,1,0,1",
                "2/3,0,1/5"]


def _spec(kind, k, weights):
    return CompositeSpec(kind, k, [Fraction(w) for w in weights.split(",")])


def _chamber_point(data, kind, k):
    stride = 2 if kind is AtomicKind.DIAGONAL else 1
    point = [data.draw(st.integers(1, 4))]
    for gap in data.draw(st.lists(st.integers(1, 2), min_size=k - 1, max_size=k - 1)):
        point.append(point[-1] + stride * gap)
    return tuple(point)


def _check_kernel(kind, weights, k, n, data):
    """Reflection equals the DP; at n <= 6 the kernel equals the composite convolution."""
    spec = _spec(kind, k, weights)
    u = _chamber_point(data, kind, k)
    v = _chamber_point(data, kind, k)
    assert exact.count_reflection(spec, u, v, n) == exact.count_confined(spec, u, v, n)
    if n <= 6:
        delta = tuple(b - a for a, b in zip(u, v))
        assert exact.count_unconstrained(spec, u, v, n) \
            == _composite_convolution(spec, n).get(delta, 0)


@settings(deadline=None, max_examples=60)
@given(weights=st.sampled_from(WEIGHT_LISTS), k=st.integers(1, 3), n=st.integers(0, 12),
       data=st.data())
def test_diagonal_kernel_matches_dp_and_convolution(weights, k, n, data):
    _check_kernel(AtomicKind.DIAGONAL, weights, k, n, data)


@settings(deadline=None, max_examples=60)
@given(weights=st.sampled_from(WEIGHT_LISTS), k=st.integers(1, 3), n=st.integers(0, 6),
       data=st.data())
def test_axis_kernel_matches_dp_and_convolution(weights, k, n, data):
    _check_kernel(AtomicKind.AXIS, weights, k, n, data)


@settings(deadline=None, max_examples=80)
@given(kind=st.sampled_from([AtomicKind.AXIS, AtomicKind.DIAGONAL]),
       weights=st.sampled_from(WEIGHT_LISTS), k=st.integers(1, 3), n=st.integers(0, 8),
       data=st.data())
def test_dp_matches_composite_step_dp(kind, weights, k, n, data):
    spec = _spec(kind, k, weights)
    u = _chamber_point(data, kind, k)
    v = _chamber_point(data, kind, k)
    frontier = _composite_dp(spec, u, n)
    assert exact.count_confined(spec, u, v, n) == frontier.get(v, 0)
    assert exact.count_confined_free(spec, u, n) == sum(frontier.values())


@settings(deadline=None, max_examples=40)
@given(weights=st.sampled_from(WEIGHT_LISTS), n=st.integers(0, 4), data=st.data())
def test_diagonal_dp_at_k4_matches_composite_step_dp(weights, n, data):
    """A diagonal step moves x_1, x_2, x_3, x_4 in turn, each against the x_(i-1) that it has
    already moved; the counts are those of whole composite steps."""
    spec = _spec(AtomicKind.DIAGONAL, 4, weights)
    u = _chamber_point(data, AtomicKind.DIAGONAL, 4)
    v = _chamber_point(data, AtomicKind.DIAGONAL, 4)
    frontier = _composite_dp(spec, u, n)
    assert exact.count_confined(spec, u, v, n) == frontier.get(v, 0)
    assert exact.count_confined_free(spec, u, n) == sum(frontier.values())


@pytest.mark.parametrize("weights", ["0,1", "1,0,1", "0,1,1"])
@pytest.mark.parametrize("u", [(1, 3, 5, 7), (2, 4, 6), (2, 4, 6, 8), (1, 3)], ids=str)
def test_diagonal_dp_packed_against_the_wall(u, weights):
    """Gaps of exactly 2 from the wall up: x_i moving down meets an x_(i-1) that moved up in
    the same step.  Every end point of the composite-step DP, u itself and the total agree."""
    spec = _spec(AtomicKind.DIAGONAL, len(u), weights)
    for n in range(5):
        frontier = _composite_dp(spec, u, n)
        for v in {u, *frontier}:
            assert exact.count_confined(spec, u, v, n) == frontier.get(v, 0), (v, n)
        assert exact.count_confined_free(spec, u, n) == sum(frontier.values())


@pytest.mark.parametrize("weights", ["1/2,1/3", "2/3,0,1/5"])
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("kind", [AtomicKind.AXIS, AtomicKind.DIAGONAL])
def test_rational_weights_count_in_ints(kind, k, weights):
    """Every route expands only integer weights and still equals the Fraction oracles."""
    spec = _spec(kind, k, weights)
    u = (1, 3)[:k] if kind is AtomicKind.DIAGONAL else (1, 2)[:k]
    expanded = []

    def checking(ws, n):
        lengths, coeffs = weight_power(ws, n)
        expanded.append(n)
        assert all(type(c) is int for c in coeffs), coeffs
        return lengths, coeffs

    weight_power = exact._weight_power
    with mock.patch.object(exact, "_weight_power", checking):
        for n in range(7):
            frontier = _composite_dp(spec, u, n)
            assert exact.count_confined_free(spec, u, n) == sum(frontier.values())
            assert exact.count_reflection_free(spec, u, n) == sum(frontier.values())
            for v in {u, max(frontier, key=frontier.get)}:
                assert exact.count_confined(spec, u, v, n) == frontier.get(v, 0)
                assert exact.count_reflection(spec, u, v, n) == frontier.get(v, 0)
                delta = tuple(b - a for a, b in zip(u, v))
                assert exact.count_unconstrained(spec, u, v, n) \
                    == _composite_convolution(spec, n).get(delta, 0)
    assert expanded


@pytest.mark.parametrize("v", [None, (30, 40)], ids=["likeliest-end", "out-of-reach"])
def test_layers_weigh_only_the_values_read(v):
    """Each weighted length multiplies its coefficient into the values a count reads, no more.

    The DP and the unconstrained count read one value per length; the signed
    sum at k=2, rotated to diagonal steps, one for each of its 8 terms.
    """
    spec = _spec(AtomicKind.AXIS, 2, "1/1000003,1,1")
    u, n = (1, 2), 12
    frontier = _composite_dp(spec, u, n)
    v = v or max(frontier, key=frontier.get)
    delta = tuple(b - a for a, b in zip(u, v))
    products = []

    class Counted(int):
        def __mul__(self, other):
            products.append(other)
            return int(self) * other
        __rmul__ = __mul__

    def counting(ws, n):
        lengths, coeffs = weight_power(ws, n)
        return lengths, tuple(map(Counted, coeffs))

    weight_power = exact._weight_power
    lengths = len(weight_power(_integer_spec(spec).weights, n)[0])
    with mock.patch.object(exact, "_weight_power", counting):
        for count, expected, reads in [
                (lambda: exact.count_confined(spec, u, v, n), frontier.get(v, 0), 1),
                (lambda: exact.count_confined_free(spec, u, n), sum(frontier.values()), 1),
                (lambda: exact.count_unconstrained(spec, u, v, n),
                 _composite_convolution(spec, n).get(delta, 0), 1),
                (lambda: exact.count_reflection(spec, u, v, n), frontier.get(v, 0), 8)]:
            products.clear()
            assert count() == expected
            assert len(products) <= reads * lengths


def test_axis_signed_sum_holds_only_its_targets():
    """The axis signed sum holds its 2k^2 rows and the Pascal rows, draws the k!*2^k images
    of u one at a time, and convolves only those in reach."""
    spec = CompositeSpec(AtomicKind.AXIS, 6, [0, 1])
    point = tuple(range(1, 7))
    tracemalloc.start()
    try:
        count = exact.count_reflection(spec, point, point, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == exact.count_confined(spec, point, point, 2)
    assert peak < 2 * 2 ** 20


def test_axis_k1_past_the_layer_walk_budget_equals_the_dp():
    """Weights 1,1 at n = 2236, refused by the axis layer walk of earlier versions: answered
    as diagonal steps."""
    spec = CompositeSpec(AtomicKind.AXIS, 1, [1, 1])
    with mock.patch.object(exact, "_weighted_layers", side_effect=AssertionError):
        count = exact.count_reflection(spec, (1,), (1,), 2236)
    assert count == exact.count_confined(spec, (1,), (1,), 2236)


def test_deep_axis_reflection():
    """n above the default recursion limit: the rotated reflection route, and the unconstrained
    count's one row, which takes no recursion per step and, with no product, no Pascal rows."""
    n = 1100
    catalan = math.comb(n, n // 2) // (n // 2 + 1)
    assert exact.count_reflection(RT_1, (1,), (1,), n) \
        == exact.count_reflection(LOCKSTEP_1, (1,), (1,), n) == catalan
    with mock.patch.object(exact, "_pascal_rows", side_effect=AssertionError):
        assert exact.count_unconstrained(RT_1, (1,), (1,), n) == math.comb(n, n // 2)
    # one term: 1 to draw, and its dot with the weights, a pointwise ring product of n + 1
    # entries, 2 to call; held, one unit an entry per 4096 bits: 2k^2 = 2 rows of n + 1
    # entries of n bits and n + 1 weights, and no Pascal row
    assert exact._term_size(RT_1, (1,), (1,), n, 1) == 4 * n + 7


@settings(deadline=None, max_examples=80)
@given(weights=st.sampled_from(WEIGHT_LISTS), k=st.integers(1, 2), n=st.integers(0, 8),
       far=st.booleans(), data=st.data())
def test_axis_reflection_at_k_le_2_runs_as_diagonal_steps(weights, k, n, far, data):
    """Axis counts at k <= 2 take no layer walk, and equal the DP and the unrotated axis
    signed sum (convolved rows) over every signed permutation: rational weights, n = 0, and
    end points that reach (``far``) or the step parity make 0."""
    spec = _spec(AtomicKind.AXIS, k, weights)
    u = _chamber_point(data, AtomicKind.AXIS, k)
    v = _chamber_point(data, AtomicKind.AXIS, k)
    if far:
        v = v[:-1] + (max(u[-1], v[-1]) + n * spec.degree + 1,)
    with mock.patch.object(exact, "_weighted_layers", side_effect=AssertionError):
        count = exact.count_reflection(spec, u, v, n)
    assert count == exact.count_confined(spec, u, v, n)
    scale = math.lcm(*(w.denominator for w in spec.weights))
    convolved = exact._signed_sum(_integer_spec(spec), u, v, n, exact.signed_permutations(k))
    assert count == Fraction(convolved, scale ** n)
    if far:
        assert count == 0


@settings(deadline=None, max_examples=60)
@given(weights=st.sampled_from(WEIGHT_LISTS), k=st.integers(3, 4), n=st.integers(0, 5),
       far=st.booleans(), data=st.data())
@example(weights="1/2,1/3", k=3, n=0, far=False, data=None)
def test_axis_signed_sum_at_k_ge_3_matches_dp_and_convolution(weights, k, n, far, data):
    """The convolved rows at k = 3, 4 take no layer walk, and equal the DP and the composite
    convolution: rational weights, n = 0, and end points that reach (``far``) or the step
    parity make 0."""
    spec = _spec(AtomicKind.AXIS, k, weights)
    if data is None:
        u = v = tuple(range(1, k + 1))
    else:
        u = _chamber_point(data, AtomicKind.AXIS, k)
        v = _chamber_point(data, AtomicKind.AXIS, k)
    if far:
        v = v[:-1] + (max(u[-1], v[-1]) + n * spec.degree + 1,)
    with mock.patch.object(exact, "_weighted_layers", side_effect=AssertionError):
        count = exact.count_reflection(spec, u, v, n)
        unconstrained = exact.count_unconstrained(spec, u, v, n)
    assert count == exact.count_confined(spec, u, v, n)
    delta = tuple(b - a for a, b in zip(u, v))
    assert unconstrained == _composite_convolution(spec, n).get(delta, 0)
    if far or not spec.parity_allows(u, v, n):
        assert count == unconstrained == 0


def test_axis_signed_sum_at_the_dp_edge():
    """Random turns at k = 3 at n = 77, the last length the DP answers from (1, 2, 3) to
    (1, 2, 4): the convolved rows equal it."""
    spec = CompositeSpec(AtomicKind.AXIS, 3, [0, 1])
    count = exact.count_confined(spec, (1, 2, 3), (1, 2, 4), 77)
    assert count > 0 and exact.count_reflection(spec, (1, 2, 3), (1, 2, 4), 77) == count
    with pytest.raises(exact.ResourceBudgetError):
        exact.count_confined(spec, (1, 2, 3), (1, 2, 4), 79)


@settings(deadline=None, max_examples=200)
@given(first=st.integers(0, 40), step=st.integers(1, 4), size=st.integers(1, 12),
       d=st.integers(-50, 50))
@example(first=7, step=1, size=1, d=3)  # a single length
@example(first=3, step=2, size=5, d=-40)  # |d| > m at every length
@example(first=4, step=2, size=6, d=1)  # the other parity at every length
def test_binomial_rows_by_recurrence_equal_math_comb(first, step, size, d):
    """A row over an arithmetic run of lengths takes at most one ``math.comb``."""
    lengths = tuple(range(first, first + step * size, step))
    expected = tuple(math.comb(m, (m + d) // 2) if abs(d) <= m and (m + d) % 2 == 0 else 0
                     for m in lengths)
    with mock.patch.object(math, "comb", wraps=math.comb) as comb:
        assert exact._binomial_row(lengths, d) == expected
    assert comb.call_count <= 1


@settings(deadline=None, max_examples=60)
@given(kind=st.sampled_from([AtomicKind.AXIS, AtomicKind.DIAGONAL]),
       weights=st.sampled_from(WEIGHT_LISTS), k=st.integers(1, 4), n=st.integers(0, 7),
       data=st.data())
def test_reflection_free_equals_confined_free(kind, weights, k, n, data):
    if kind is AtomicKind.AXIS:
        k = min(k, 3)
    spec = _spec(kind, k, weights)
    u = _chamber_point(data, kind, k)
    assert exact.count_reflection_free(spec, u, n) == exact.count_confined_free(spec, u, n)


def _half_line(m, x, u):
    """Walks of m steps +-1 from u to x that stay above 0, by reflection in 0."""
    def walks(d):
        return math.comb(m, (m + d) // 2) if abs(d) <= m and (m + d) % 2 == 0 else 0
    return walks(x - u) - walks(x + u)


def _fixed_end_count(kind, u, v, n):
    """Confined walks of n atomic steps from u to v, the end points summed one by one.

    Diagonal steps: the type-B determinant det[f_i(v_j)] of the half-line
    counts.  Axis steps (k = 2): the two coordinates take j and n - j of the
    steps, interleaved in C(n, j) ways.
    """
    if kind is AtomicKind.DIAGONAL:
        return sum(math.prod(_half_line(n, v[j], u[i]) for j, i in enumerate(perm))
                   * (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))
                   for perm in itertools.permutations(range(len(u))))
    return sum(math.comb(n, j) * (_half_line(j, v[0], u[0]) * _half_line(n - j, v[1], u[1])
                                  - _half_line(j, v[0], u[1]) * _half_line(n - j, v[1], u[0]))
               for j in range(n + 1))


@pytest.mark.parametrize("kind,u,n", [
    (AtomicKind.DIAGONAL, (1, 3), 400),
    (AtomicKind.DIAGONAL, (1, 3, 7), 60),
    (AtomicKind.AXIS, (1, 2), 100),
], ids=["lockstep-k2", "lockstep-k3", "random-turns-k2"])
def test_free_count_sums_the_fixed_end_counts(kind, u, n):
    """The Pfaffian equals the fixed-end counts summed over every end point in reach."""
    stride = 2 if kind is AtomicKind.DIAGONAL else 1
    points = range(max(u) + n, 0, -stride)
    spec = CompositeSpec(kind, len(u), [0, 1])
    total = sum(_fixed_end_count(kind, u, v[::-1], n)
                for v in itertools.combinations(points, len(u)))
    assert total > 0 and exact.count_reflection_free(spec, u, n) == total


def test_free_lockstep_k4_equals_confined_free():
    spec = CompositeSpec(AtomicKind.DIAGONAL, 4, [0, 1])
    assert exact.count_reflection_free(spec, (1, 3, 5, 7), 30) \
        == exact.count_confined_free(spec, (1, 3, 5, 7), 30)


@pytest.mark.parametrize("kind,u,n,total", [
    (AtomicKind.DIAGONAL, (1, 100000001), 4, 96),
    (AtomicKind.DIAGONAL, (99999999999,), 6, 64),
    (AtomicKind.AXIS, (1, 2, 100000000), 4, 188),
], ids=["diagonal-k2", "k1", "axis-k3"])
def test_free_count_far_from_the_wall(kind, u, n, total):
    """A start far from the wall is answered as one near it: the windows read no row past
    |d| = n*degree and make no product whose row r(x - u_i) is 0."""
    spec = CompositeSpec(kind, len(u), [0, 1])
    assert exact.count_reflection_free(spec, u, n) == exact.count_confined_free(spec, u, n) \
        == total


@pytest.mark.parametrize("kind,k,weights,u", [
    (AtomicKind.DIAGONAL, 2, "0,1", (1, 3)),
    (AtomicKind.DIAGONAL, 2, "0,0,1", (2, 4)),
    (AtomicKind.DIAGONAL, 3, "1,1", (1, 3, 7)),
    (AtomicKind.AXIS, 2, "0,1", (1, 4)),
    (AtomicKind.AXIS, 2, "1,0,1", (2, 3)),
    (AtomicKind.AXIS, 3, "0,1,1", (1, 2, 4)),
])
def test_endpoint_filter(kind, k, weights, u):
    """Every chamber point the parity rule rejects has count 0, which no route refuses."""
    spec = _spec(kind, k, weights)
    for n in range(6):
        points = [v for v in itertools.combinations(range(1, max(u) + n * spec.degree + 2), k)
                  if lattice_contains(spec, v)]
        frontier = _composite_dp(spec, u, n)
        rejected = []
        for v in points:
            if not spec.parity_allows(u, v, n):
                assert frontier.get(v, 0) == 0
                with mock.patch.object(exact, "_weighted_layers", side_effect=AssertionError):
                    assert exact.count_confined(spec, u, v, n) == 0
                with mock.patch.object(exact, "_signed_sum", side_effect=AssertionError):
                    assert exact.count_unconstrained(spec, u, v, n) == 0
                with mock.patch.object(exact, "DEFAULT_STATE_BUDGET", -1):
                    assert exact.count_reflection(spec, u, v, n) == 0
                rejected.append(v)
        if n and spec.parity is not None:
            assert rejected


@pytest.mark.parametrize("count", [
    lambda spec: exact.count_confined(spec, (1, 3), (1, 3), -1),
    lambda spec: exact.count_confined_free(spec, (1, 3), -1),
    lambda spec: exact.count_reflection(spec, (1, 3), (1, 3), -1),
    lambda spec: exact.count_reflection_free(spec, (1, 3), -1),
    lambda spec: exact.count_unconstrained(spec, (1, 3), (1, 3), -1),
])
@pytest.mark.parametrize("kind", [AtomicKind.AXIS, AtomicKind.DIAGONAL])
def test_negative_length_rejected(count, kind):
    with pytest.raises(ValueError, match="walk length"):
        count(CompositeSpec(kind, 2, [1, 1, 1]))


_GOOD_POINT = {AtomicKind.AXIS: (1, 2), AtomicKind.DIAGONAL: (1, 3)}
_OFF_LATTICE = {AtomicKind.AXIS: (1.5, 3), AtomicKind.DIAGONAL: (1, 2)}

# each route with the point under test p in every endpoint slot; q is a valid point
_POINT_ROUTES = {
    "confined-u": lambda spec, p, q: exact.count_confined(spec, p, q, 4),
    "confined-v": lambda spec, p, q: exact.count_confined(spec, q, p, 4),
    "confined-free": lambda spec, p, q: exact.count_confined_free(spec, p, 4),
    "reflection-u": lambda spec, p, q: exact.count_reflection(spec, p, q, 4),
    "reflection-v": lambda spec, p, q: exact.count_reflection(spec, q, p, 4),
    "reflection-free": lambda spec, p, q: exact.count_reflection_free(spec, p, 4),
    "unconstrained-u": lambda spec, p, q: exact.count_unconstrained(spec, p, q, 4),
    "unconstrained-v": lambda spec, p, q: exact.count_unconstrained(spec, q, p, 4),
}
_CHAMBER_ROUTES = [r for r in _POINT_ROUTES if not r.startswith("unconstrained")]


@pytest.mark.parametrize("kind", [AtomicKind.AXIS, AtomicKind.DIAGONAL])
@pytest.mark.parametrize("route", _POINT_ROUTES)
def test_off_lattice_point_rejected(route, kind):
    spec = CompositeSpec(kind, 2, [0, 1])
    with pytest.raises(ValueError, match="lattice"):
        _POINT_ROUTES[route](spec, _OFF_LATTICE[kind], _GOOD_POINT[kind])


@pytest.mark.parametrize("kind", [AtomicKind.AXIS, AtomicKind.DIAGONAL])
@pytest.mark.parametrize("route", _POINT_ROUTES)
def test_wrong_dimension_rejected(route, kind):
    spec = CompositeSpec(kind, 2, [0, 1])
    with pytest.raises(ValueError):
        _POINT_ROUTES[route](spec, (1, 3, 5), _GOOD_POINT[kind])


@pytest.mark.parametrize("point", [(0, 2), (3, 1), (3, 3)])
@pytest.mark.parametrize("kind", [AtomicKind.AXIS, AtomicKind.DIAGONAL])
@pytest.mark.parametrize("route", _CHAMBER_ROUTES)
def test_point_outside_chamber_rejected(route, kind, point):
    spec = CompositeSpec(kind, 2, [0, 1])
    with pytest.raises(ValueError, match="chamber"):
        _POINT_ROUTES[route](spec, point, _GOOD_POINT[kind])


@pytest.mark.parametrize("weights", [[1], [1, 0, 0], [0, -1], [1, 1, -1]],
                         ids=["stationary", "zero-moving", "negative", "negative-top"])
@pytest.mark.parametrize("kind", [AtomicKind.AXIS, AtomicKind.DIAGONAL])
@pytest.mark.parametrize("route", [r for r in _POINT_ROUTES if not r.endswith("-v")])
def test_invalid_weights_rejected(route, kind, weights):
    with pytest.raises(ValueError, match="weight"):
        _POINT_ROUTES[route](CompositeSpec(kind, 2, weights), _GOOD_POINT[kind],
                             _GOOD_POINT[kind])


def test_budget_guard():
    spec = CompositeSpec(AtomicKind.AXIS, 3, [0, 1])
    with pytest.raises(exact.ResourceBudgetError):
        exact.count_confined(spec, (1, 2, 3), (1, 2, 3), 10 ** 6)


_LONG_LOCKSTEP = CompositeSpec(AtomicKind.DIAGONAL, 1, [0, 1])


@pytest.mark.parametrize("what,count", [
    ("signed sum work",
     lambda: exact.count_reflection(CompositeSpec(AtomicKind.AXIS, 3, [1, 1, 1]),
                                    (1, 2, 3), (1, 2, 3), 400)),
    ("axis kernel work",
     lambda: exact.count_unconstrained(CompositeSpec(AtomicKind.AXIS, 3, [1, 1, 1]),
                                       (1, 2, 3), (1, 2, 3), 1200)),
    ("free-endpoint Pfaffian work",
     lambda: exact.count_reflection_free(CompositeSpec(AtomicKind.AXIS, 2, [1, 1, 1]),
                                         (1, 2), 10000)),
    ("signed sum work",
     lambda: exact.count_reflection(CompositeSpec(AtomicKind.DIAGONAL, 9, [0, 1]),
                                    tuple(range(1, 18, 2)), tuple(range(1, 18, 2)), 2)),
    ("signed sum work",
     lambda: exact.count_reflection(CompositeSpec(AtomicKind.DIAGONAL, 7, [0, 1, 1]),
                                    tuple(range(1, 14, 2)), tuple(range(1, 14, 2)), 60)),
    ("signed sum work",
     lambda: exact.count_reflection(CompositeSpec(AtomicKind.DIAGONAL, 2, [0, 1, 1]),
                                    (1, 3), (1, 3), 10 ** 6)),
    ("diagonal kernel work",
     lambda: exact.count_unconstrained(CompositeSpec(AtomicKind.DIAGONAL, 2, [0, 1, 1]),
                                       (1, 3), (1, 3), 20000)),
    ("confined DP updates", lambda: exact.count_confined(_LONG_LOCKSTEP, (1,), (1,), 20000)),
    ("confined DP updates", lambda: exact.count_confined_free(_LONG_LOCKSTEP, (1,), 20000)),
], ids=["axis-table", "axis-unconstrained", "free-end-points", "signed-sum", "signed-sum-lengths",
        "kernel-bits", "unconstrained-kernel-bits", "dp-long-walk", "dp-free-long-walk"])
def test_reflection_budget_guard(what, count):
    with pytest.raises(exact.ResourceBudgetError) as err:
        count()
    assert err.value.what == what and err.value.budget == exact.DEFAULT_STATE_BUDGET
    assert err.value.estimate > err.value.budget
    assert str(err.value) == f"{what}: estimate {err.value.estimate} exceeds budget of 10000000"


def test_a_huge_estimate_is_printed_in_full():
    """k!*2^k terms at k = 2000 give an estimate past Python's int-to-str limit of 4300
    digits; its refusal prints every digit, by Decimal, and is not a ValueError."""
    spec = CompositeSpec(AtomicKind.DIAGONAL, 2000, [0, 1])
    point = tuple(range(1, 4000, 2))
    with pytest.raises(exact.ResourceBudgetError) as err:
        exact.count_reflection(spec, point, point, 2)
    digits = str(Decimal(err.value.estimate))
    assert len(digits) > 4300
    assert str(err.value) == f"signed sum work: estimate {digits} exceeds budget of 10000000"


def test_digits_by_halves_are_decimals_digits():
    """``_digits`` splits past 4096 bits and joins the halves in ``decimal``: every digit and
    the sign are ``Decimal``'s, on both sides of the split."""
    rng = random.Random(11)
    values = [0, 1, -1]
    for bits in (4095, 4096, 4097, 10 ** 4, 2 * 10 ** 5):
        x = rng.getrandbits(bits) | 1 << (bits - 1)
        values += [x, -x]
    for x in values:
        assert exact._digits(x) == str(Decimal(x))


@pytest.mark.parametrize("count", [
    lambda: exact.count_reflection_free(CompositeSpec(AtomicKind.DIAGONAL, 1000, [0, 1]),
                                        tuple(range(1, 2000, 2)), 100),
    lambda: exact.count_reflection_free(CompositeSpec(AtomicKind.AXIS, 1000, [0, 1]),
                                        tuple(range(1, 1001)), 10),
], ids=["free-diagonal", "free-axis"])
def test_large_k_is_priced_before_anything_k_squared_is_made(count):
    """The Pfaffian's k(k - 1) windows are counted in closed form and made only under the
    budget, so a refusal at k = 1000 allocates next to nothing."""
    tracemalloc.start()
    try:
        with pytest.raises(exact.ResourceBudgetError):
            count()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from([AtomicKind.AXIS, AtomicKind.DIAGONAL]),
       weights=st.sampled_from(WEIGHT_LISTS), k=st.integers(1, 5), n=st.integers(0, 30),
       data=st.data())
def test_free_windows_are_counted_in_closed_form(kind, weights, k, n, data):
    """The free route's estimate, its windows counted in closed form, is its price with the
    windows enumerated: min(0, u_i - u_j) <= x <= u_i + u_j, |x - u_i| <= N, for each of the
    k(k - 1) ordered pairs, less x = 0, each point a product of N-bit rows."""
    spec = _spec(kind, k, weights)
    u = _chamber_point(data, kind, k)
    assert _estimate(lambda: exact.count_reflection_free(spec, u, n)) == _free_price(spec, u, n)


@pytest.mark.parametrize("k", range(1, 41))
def test_pfaffian_minors_are_counted_from_the_last(k):
    """Each C(K - d, d) of the Pfaffian's minor count, K = k + k % 2 from 2 to 40, is taken from
    the one before it; the estimate is the price with every binomial from ``math.comb``."""
    spec, u = CompositeSpec(AtomicKind.DIAGONAL, k, [0, 1]), tuple(range(1, 2 * k, 2))
    assert _estimate(lambda: exact.count_reflection_free(spec, u, 3)) == _free_price(spec, u, 3)


def _free_price(spec, u, n):
    """The free route's price with its windows enumerated and its minors counted by math.comb."""
    ints, w = exact._as_diagonal(_integer_spec(spec), u)
    k, top, axis = spec.k, n * ints.degree, ints.kind is AtomicKind.AXIS
    order, size = k + k % 2, top + 1 if axis else exact._length_count(ints, n)
    reach = min(top, max(w))
    points = sum(len(window) - (0 in window) for window in (
        range(max(min(0, a - b), a - top), min(a + b, a + top) + 1) for a in w for b in w
        if a != b))
    pfaffian = sum(math.comb(order - d, d) * (order - 2 * d - 1) for d in range(order // 2 - 1))
    return points * exact._product_work(axis, size, top, top) \
        + pfaffian * exact._product_work(axis, size, 2 * top, max(2, order - 2) * top) \
        + exact._held_work((5 * reach + 7) * size + axis * size * (size + 1) // 2, top) \
        + (size == 1) * exact._comb_work(reach + 1, top)


@settings(max_examples=200, deadline=None)
@given(u=st.lists(st.integers(-30, 30), min_size=1, max_size=5),
       v=st.lists(st.integers(-30, 30), min_size=1, max_size=5), n=st.integers(1, 40))
def test_axis_leading_zeros_are_the_nearest_image(u, v, n):
    """The signed sum's estimate skips, for row j, the distance from v_j to its nearest
    eps*u_i over all i and eps, found by bisection: the same as the minimum over all 2k."""
    k = min(len(u), len(v))
    u, v = tuple(u[:k]), tuple(v[:k])
    spec = CompositeSpec(AtomicKind.AXIS, k, [0, 1])
    seen = []
    work = exact._product_work
    with mock.patch.object(exact, "_product_work",
                           side_effect=lambda *args: seen.append(args) or work(*args)):
        exact._term_size(spec, u, v, n, 1)
    lows = list(itertools.accumulate(
        min(abs(vj - eps * ui) for ui in u for eps in (1, -1)) for vj in v))
    assert [args[1] for args in seen[1:]] == [max(0, n + 1 - low) for low in lows[1:]]


def _integer_spec(spec):
    """The spec with weights D*w_m, D the lcm of their denominators: what every route runs on."""
    d = math.lcm(*(w.denominator for w in spec.weights))
    return CompositeSpec(spec.kind, spec.k, [d * w for w in spec.weights])


def _estimate(count):
    """The work a route charges before it runs, read from its refusal under a budget of -1."""
    with mock.patch.object(exact, "DEFAULT_STATE_BUDGET", -1), \
            pytest.raises(exact.ResourceBudgetError) as err:
        count()
    return err.value.estimate


@settings(max_examples=150, deadline=None)
@given(weights=st.lists(st.sampled_from([Fraction(0), Fraction(1), Fraction(2), Fraction(1, 3)]),
                        min_size=2, max_size=6).filter(lambda ws: any(ws[1:])),
       n=st.integers(0, 12))
def test_signed_sum_cost_bounds_the_lengths_without_expanding(weights, n):
    spec = CompositeSpec(AtomicKind.DIAGONAL, 2, weights)
    ints = _integer_spec(spec)
    lengths = len(exact._weight_power(ints.weights, n)[0])
    bound = exact._length_count(ints, n)
    # an end point the step parity allows: any other is answered 0, not priced
    v = (1, 3) if spec.parity_allows((1, 3), (1, 3), n) else (2, 4)
    work = exact._term_size(ints, (1, 3), v, n, 8)
    assert bound >= lengths
    top = n * spec.degree
    weight_bits = math.ceil(n * math.log2(sum(ints.weights)))
    # held, one unit an entry per 4096 bits: 8 rows of N-bit integers and the weights, over
    # every length
    held = 8 * bound * (top // 4096 + 1) + bound * (weight_bits // 4096 + 1)
    if bound == 1:  # 8 rows of one math.comb; 8 streamed terms, each a unit and a product
        assert work == held + (top // 64 + 1) ** 2 \
            + 8 * (1 + exact._STREAM_SCALE * top * top // 2 ** 20)
    else:
        # 8 terms drawn, 2 units each; each in reach two ring products over every length
        reachable = sum(max(abs(vj - eps * (1, 3)[i]) for vj, (i, eps) in zip(v, image)) <= top
                        for image, _ in exact.signed_permutations(2))
        products = exact._product_work(False, bound, top, top) \
            + exact._product_work(False, bound, 2 * top, weight_bits)
        assert work == held + 16 + reachable * products
        # a count over the budget, as under ``_estimate``'s, does not count the terms in reach
        work = held + 16 + 8 * products
    assert _estimate(lambda: exact.count_reflection(spec, (1, 3), v, n)) == work
    weighted = [m for m, w in enumerate(spec.weights) if w]
    if len({b - a for a, b in zip(weighted, weighted[1:])}) <= 1:
        # weighted lengths in arithmetic progression: their n-fold sums fill it
        assert bound == lengths


@pytest.mark.parametrize("n,over", [(14, False), (20000, True), (10 ** 6, True)])
def test_kernel_words_weigh_the_bit_size(n, over):
    """The diagonal kernel's work charges its integers, one unit an entry per 4096 bits, and
    its products by the size of the integers they multiply."""
    spec = CompositeSpec(AtomicKind.DIAGONAL, 2, [0, 1, 1])
    # L = n + 1 lengths, so no math.comb is charged.  A term: 2 to draw, a product of 2n- by
    # 2n-bit rows and one of the 4n-bit product by the n-bit weights.  Held: the L weights and
    # the 2k^2*L row entries of at most N = n*degree = 2n bits
    products = exact._product_work(False, n + 1, 2 * n, 2 * n) \
        + exact._product_work(False, n + 1, 4 * n, n)
    held = (n + 1) * (n // 4096 + 1) + 8 * (n + 1) * ((2 * n) // 4096 + 1)
    assert exact._term_size(spec, (1, 3), (1, 3), n, 8) == 16 + 8 * products + held
    work = _estimate(lambda: exact.count_reflection(spec, (1, 3), (1, 3), n))
    assert work == 16 + 8 * products + held
    assert _estimate(lambda: exact.count_unconstrained(spec, (1, 3), (1, 3), n)) \
        == 2 + products + held
    assert (work > exact.DEFAULT_STATE_BUDGET) is over


@pytest.mark.parametrize("n,over", [(50000, False), (192126, False), (192128, True),
                                    (400000, True)])
def test_one_length_rows_charge_their_math_comb(n, over):
    """Random turns at k = 2 run as lock-step steps with the one atomic length n: each of the
    8 rows is one math.comb(n, .), whose time grows as about n^1.8, charged (n/64 + 1)^2/8,
    and each of the 8 terms one unit and its product of two n-bit ints."""
    spec = CompositeSpec(AtomicKind.AXIS, 2, [0, 1])
    # 8 math.comb; 8 terms; held, one unit an entry per 4096 bits: 8 rows of n bits and the
    # weight P(1)^n = 1
    work = _estimate(lambda: exact.count_reflection(spec, (1, 2), (1, 2), n))
    assert work == (n // 64 + 1) ** 2 + 8 * (1 + exact._STREAM_SCALE * n * n // 2 ** 20) \
        + 8 * (n // 4096 + 1) + 1
    assert (work > exact.DEFAULT_STATE_BUDGET) is over


@pytest.mark.parametrize("kind,weights,u,v,n", [
    # the first coordinate's digits straddle 2^16
    (AtomicKind.AXIS, "0,1,1", (65534, 65537), (65535, 65537), 3),
    (AtomicKind.DIAGONAL, "1,1", (65535, 65537), (65537, 65539), 2),
    # v exactly n*degree from u
    (AtomicKind.AXIS, "0,1,1", (1, 2), (1, 8), 3),
    (AtomicKind.DIAGONAL, "0,0,1", (1, 3), (7, 9), 3),
    (AtomicKind.AXIS, "0,1", tuple(range(1, 7)), (1, 2, 3, 4, 6, 8), 3),
    (AtomicKind.DIAGONAL, "0,1", (1, 3, 5, 7, 9), (2, 4, 6, 10, 12), 3),
], ids=["axis-2^16", "diagonal-2^16", "axis-edge", "diagonal-edge", "axis-k6", "diagonal-k5"])
def test_packed_digits_never_carry(kind, weights, u, v, n):
    """Large coordinates, far end points and wide k count as the tuple oracles do."""
    spec = _spec(kind, len(u), weights)
    frontier = _composite_dp(spec, u, n)
    delta = tuple(b - a for a, b in zip(u, v))
    assert frontier.get(v, 0) > 0
    assert exact.count_confined(spec, u, v, n) == frontier[v]
    assert exact.count_reflection(spec, u, v, n) == frontier[v]
    assert exact.count_confined_free(spec, u, n) == sum(frontier.values())
    assert exact.count_unconstrained(spec, u, v, n) \
        == _composite_convolution(spec, n).get(delta, 0)


def _chamber_pair(u, d):
    """u and u + d, with d sorted if u + d is out of order, both shifted to stay above 0.

    Sorting and shifting keep both norms of d; a sorted d keeps u + d in order.
    """
    v = [a + b for a, b in zip(u, d)]
    if any(a >= b for a, b in zip(v, v[1:])):
        v = [a + b for a, b in zip(u, sorted(d))]
    shift = max(0, 1 - v[0])
    return tuple(x + shift for x in u), tuple(x + shift for x in v)


@settings(deadline=None, max_examples=100)
@given(kind=st.sampled_from([AtomicKind.AXIS, AtomicKind.DIAGONAL]),
       weights=st.sampled_from(WEIGHT_LISTS), k=st.integers(1, 3), n=st.integers(1, 6),
       short=st.integers(0, 2), data=st.data())
def test_dp_at_the_reach_edge(kind, weights, k, n, short, data):
    """End points n*degree - short steps from u, short <= 2, count as the composite-step DP.

    These are the points the reach pruning of the fixed-end DP keeps last.
    """
    spec = _spec(kind, k, weights)
    far = max(0, n * spec.degree - short)
    if kind is AtomicKind.AXIS:  # l1 norm far: k parts of far, each with a sign
        cuts = sorted(data.draw(st.lists(st.integers(0, far), min_size=k - 1, max_size=k - 1)))
        parts = [b - a for a, b in zip([0] + cuts, cuts + [far])]
    else:  # l-infinity norm far, every part of far's parity to stay on the lattice
        parts = [far] + [far - 2 * data.draw(st.integers(0, far)) for _ in range(k - 1)]
        parts = data.draw(st.permutations(parts))
    signs = data.draw(st.lists(st.sampled_from([1, -1]), min_size=k, max_size=k))
    u, v = _chamber_pair(_chamber_point(data, kind, k), [s * p for s, p in zip(signs, parts)])
    frontier = _composite_dp(spec, u, n)
    assert exact.count_confined(spec, u, v, n) == frontier.get(v, 0)
    assert exact.count_reflection(spec, u, v, n) == frontier.get(v, 0)


def _dict_updates(route):
    """The dict updates of ``_moves`` while ``route`` runs: two tries a point per call."""
    counted = []

    def counting(layer, *args):
        counted.append(2 * len(layer))
        return moves(layer, *args)

    moves = exact._moves
    with mock.patch.object(exact, "_moves", counting):
        route()
    return sum(counted)


@pytest.mark.parametrize("kind,weights,u,v,n,share", [
    (AtomicKind.DIAGONAL, "0,1", (1, 3, 5), (1, 3, 5), 24, 0.35),
    (AtomicKind.AXIS, "1,1,1", (1, 2), (1, 2), 20, 0.35),
    (AtomicKind.AXIS, "0,1", (1, 2, 3), (1, 2, 4), 21, 0.35),
    (AtomicKind.DIAGONAL, "0,1", (1,), (1,), 200, 0.55),
], ids=["lock-step-k3", "tangled-k2", "random-turns-k3", "lock-step-k1"])
def test_fixed_end_dp_keeps_only_points_in_reach(kind, weights, u, v, n, share):
    """A DP read at one end point moves at most ``share`` of the points the free DP moves."""
    spec = _spec(kind, len(u), weights)
    assert exact.count_confined(spec, u, v, n) > 0
    fixed = _dict_updates(lambda: exact.count_confined(spec, u, v, n))
    assert 0 < fixed <= share * _dict_updates(lambda: exact.count_confined_free(spec, u, n))


# the largest estimate/counted ratio seen over both kinds, WEIGHT_LISTS, k <= 3
# and n <= 10, and diagonal steps at k = 4 and n <= 6, is about 15
LAYER_WORK_SLACK = 32


@settings(deadline=None, max_examples=80)
@given(kind=st.sampled_from([AtomicKind.AXIS, AtomicKind.DIAGONAL]),
       weights=st.sampled_from(WEIGHT_LISTS), k=st.integers(1, 4), n=st.integers(0, 10),
       data=st.data())
def test_layer_work_bounds_the_updates(kind, weights, k, n, data):
    """counted <= estimate <= C*(counted + 1) for the DP, the one route that charges it; at
    k = 4, where 2k a point first differs from the 2^k moves of a diagonal step, diagonal."""
    assume(k < 4 or (kind is AtomicKind.DIAGONAL and n <= 6))
    spec = _spec(kind, k, weights)
    u = _chamber_point(data, kind, k)
    route = lambda: exact.count_confined_free(spec, u, n)  # noqa: E731
    estimate = exact._layer_work(spec, n, u)
    assert _estimate(route) == estimate
    counted = _dict_updates(route)
    assert counted <= estimate <= LAYER_WORK_SLACK * (counted + 1)


def _leading_zeros(vector):
    return next((j for j, c in enumerate(vector) if c), len(vector))


def _ring_product_work(route):
    """The work of each ``_ring_product`` call ``route`` makes, as ``_product_work`` prices it
    at what the call multiplies: its length, past the leading zeros of both factors for a
    binomial convolution, and the largest bit size of each factor."""
    counted = []

    def counting(binomials, a, b):
        convolved = binomials is not None
        size = len(a) - convolved * (_leading_zeros(a) + _leading_zeros(b))
        counted.append(exact._product_work(convolved, max(0, size), *(
            max(map(abs, factor)).bit_length() for factor in (a, b))))
        return ring_product(binomials, a, b)

    ring_product = exact._ring_product
    with mock.patch.object(exact, "_ring_product", counting):
        route()
    return counted


# the largest estimate/counted ratio seen over both kinds, WEIGHT_LISTS, k = 3, 4 for axis
# steps, k = 2, 3 for diagonal ones and n <= 6 is about 2.5
AXIS_WORK_SLACK = 8


@settings(deadline=None, max_examples=80)
@given(kind=st.sampled_from([AtomicKind.AXIS, AtomicKind.DIAGONAL]),
       weights=st.sampled_from(WEIGHT_LISTS), k=st.integers(3, 4), n=st.integers(0, 6),
       data=st.data())
def test_axis_work_bounds_the_convolutions(kind, weights, k, n, data):
    """counted <= estimate <= C*(counted + 1) for the signed sum and for its identity term,
    the unconstrained count: axis steps at k = 3, 4, whose rows convolve, and diagonal steps
    at k = 2, 3, whose rows multiply pointwise over one or several lengths.

    counted is the work the kernel must do.  With one length: one unit a term, and one per
    integer held (its products, under a unit at these lengths, are counted by
    ``test_stream_work_bounds_the_products``).  Otherwise: k units to draw each term and sum
    its shifts; per term in reach, its k - 1 ring products (``_ring_product_work``) and its
    dot with the weights, 2 to call and one per length; one per entry of the 2k^2 rows, of
    the weights and of the Pascal rows.  At these lengths no integer has over 4096 bits, so
    each is one unit.
    """
    k -= kind is AtomicKind.DIAGONAL
    spec = _spec(kind, k, weights)
    ints = _integer_spec(spec)
    u = _chamber_point(data, kind, k)
    v = _chamber_point(data, kind, k)
    top = n * spec.degree
    axis = kind is AtomicKind.AXIS
    size = top + 1 if axis else len(exact._weight_power(ints.weights, n)[0])
    held = 2 * k * k + 1 if size == 1 \
        else (2 * k * k + 1) * size + axis * size * (size + 1) // 2
    routes = [(lambda: exact.count_reflection(spec, u, v, n), math.factorial(k) * 2 ** k)]
    if exact._reachable(spec, u, v, n):  # else answered 0, not priced
        routes.append((lambda: exact.count_unconstrained(spec, u, v, n), 1))
    for route, terms in routes:
        products = _ring_product_work(route)
        made = len(products) // (k - 1)
        counted = terms + held if size == 1 \
            else terms * k + made * (2 + size) + sum(products) + held
        estimate = exact._term_size(ints, u, v, n, terms)
        assert counted <= estimate <= AXIS_WORK_SLACK * (counted + 1), (terms, made)


def _stream_product_work(route):
    """The work of the integer products the one-length stream makes while ``route`` runs: for
    each ``math.prod`` call, ``_STREAM_SCALE`` times ``_product_work``'s rate ab/2^20 summed
    over its products, each of the running product by the next factor at their bit lengths."""
    counted = []

    def counting(factors):
        factors = list(factors)
        running = itertools.accumulate(factors, operator.mul)
        counted.append(exact._STREAM_SCALE * sum(
            abs(a).bit_length() * abs(b).bit_length() for a, b in zip(running, factors[1:]))
            // 2 ** 20)
        return prod(factors)

    prod = math.prod
    with mock.patch.object(math, "prod", counting):
        route()
    return sum(counted)


# the largest estimate/counted ratio seen over STREAM_WEIGHTS, k <= 5, n <= 60 and the
# examples below is about 1.5
STREAM_WORK_SLACK = 4
STREAM_WEIGHTS = ["0,1", "0,0,2", "0,1/3", "0,0,0,1", "0,0,1/2"]


@settings(deadline=None, max_examples=60)
@given(weights=st.sampled_from(STREAM_WEIGHTS), k=st.integers(1, 5), n=st.integers(0, 60),
       data=st.data())
@example(weights="0,1", k=4, n=3000, data=None)
@example(weights="0,0,2", k=5, n=1500, data=None)
def test_stream_work_bounds_the_products(weights, k, n, data):
    """counted <= estimate <= C*(counted + 1) for the signed sum of one atomic length, streamed.

    counted is the work the stream must do: one unit a term, each term's k - 1 products of
    ints at their bit lengths (``_stream_product_work``), and one per integer held, the 2k^2
    rows and the weight.  The examples reach lengths where the products cost many units.
    """
    spec = _spec(AtomicKind.DIAGONAL, k, weights)
    u = v = tuple(range(1, 2 * k, 2))
    if data is not None:
        u, v = (_chamber_point(data, AtomicKind.DIAGONAL, k) for _ in "uv")
    assume(exact._reachable(spec, u, v, n))  # else answered 0, not priced
    route = lambda: exact.count_reflection(spec, u, v, n)  # noqa: E731
    terms = math.factorial(k) * 2 ** k
    counted = terms + _stream_product_work(route) + 2 * k * k + 1
    estimate = _estimate(route)
    assert counted <= estimate <= STREAM_WORK_SLACK * (counted + 1)


# the largest estimate/counted ratio seen over both kinds, WEIGHT_LISTS, k <= 8
# (k <= 3 for axis steps) and n <= 8 is about 2
FREE_WORK_SLACK = 8


@settings(deadline=None, max_examples=80)
@given(kind=st.sampled_from([AtomicKind.AXIS, AtomicKind.DIAGONAL]),
       weights=st.sampled_from(WEIGHT_LISTS), k=st.integers(1, 8), n=st.integers(0, 8),
       data=st.data())
def test_free_work_bounds_the_products(kind, weights, k, n, data):
    """counted <= estimate <= C*(counted + 1) for the free-endpoint Pfaffian.

    counted is the work the route must do: one unit per entry of the rows r(d), |d| <=
    min(n*degree, max(u)), of their prefix and doubled sums and of the Pascal rows, and each
    ring product (``_ring_product_work``).  The windows and the memoised Pfaffian make each
    product once.  Axis steps at k = 2 are counted as diagonal steps from (u_2 - u_1,
    u_1 + u_2).  At these lengths no integer has over 4096 bits.
    """
    if kind is AtomicKind.AXIS:
        k = min(k, 3)
    spec = _spec(kind, k, weights)
    u = _chamber_point(data, kind, k)
    top = n * spec.degree
    convolved = kind is AtomicKind.AXIS and k > 2
    grid = range(top + 1) if convolved \
        else exact._weight_power(_integer_spec(spec).weights, n)[0]
    reach = min(top, sum(u) if kind is AtomicKind.AXIS and k == 2 else max(u))
    route = lambda: exact.count_reflection_free(spec, u, n)  # noqa: E731
    counted = (5 * reach + 7) * len(grid) + convolved * len(grid) * (len(grid) + 1) // 2 \
        + sum(_ring_product_work(route))
    estimate = _estimate(route)
    assert counted <= estimate <= FREE_WORK_SLACK * (counted + 1)


def _pfaffian_by_rows(matrix):
    """The Pfaffian of an antisymmetric matrix by expansion along its first row."""
    if not matrix:
        return 1
    return sum((-1) ** (j - 1) * matrix[0][j]
               * _pfaffian_by_rows([[row[c] for c in range(1, len(row)) if c != j]
                                    for r, row in enumerate(matrix) if r not in (0, j)])
               for j in range(1, len(matrix)))


@pytest.mark.parametrize("order", [2, 4, 6, 8, 10, 12])
def test_pfaffian_computes_each_minor_once(order):
    """One product per entry of each minor of order > 2, C(order - d, d) minors of
    order - 2d, with the value of the plain expansion along the first row."""
    rng = random.Random(order)
    upper = {(i, j): rng.randint(-9, 9) for i in range(order) for j in range(i + 1, order)}
    matrix = [[upper.get((i, j), -upper.get((j, i), 0)) for j in range(order)]
              for i in range(order)]
    products = []

    def product(a, b):
        products.append(1)
        return [x * y for x, y in zip(a, b)]

    got = exact._pfaffian(order, {key: [value] for key, value in upper.items()}, product)
    assert got == [_pfaffian_by_rows(matrix)]
    assert len(products) == sum(math.comb(order - d, d) * (order - 2 * d - 1)
                                for d in range(order // 2 - 1))


def test_format_count():
    assert exact.format_count(5) == "5"
    assert exact.format_count(Fraction(13, 36)) == "13/36"
    assert exact.format_count(Fraction(4, 2)) == "2"
    # past the interpreter's default int-to-str limit of 4300 digits
    assert exact.format_count(Fraction(10 ** 5000 + 1, 3)) == "1" + "0" * 4999 + "1/3"
