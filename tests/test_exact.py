"""Exact counting: DP oracle, reflection sum, unconstrained coefficients."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from chamberwalk import exact
from chamberwalk.stepmodel import AtomicKind, CompositeSpec

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


class TestSignedPermutations:
    def test_group_order(self):
        assert len(list(exact.signed_permutations(3))) == 48

    def test_signs_sum_to_zero(self):
        assert sum(sign for _, sign in exact.signed_permutations(2)) == 0

    def test_identity_has_positive_sign(self):
        images = dict(exact.signed_permutations(3))
        ident = tuple((j, 1) for j in range(3))
        assert images[ident] == 1


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


def test_deep_axis_reflection():
    """The axis table takes no recursion per step: n above the default recursion limit."""
    n = 1100
    catalan = math.comb(n, n // 2) // (n // 2 + 1)
    assert exact.count_reflection(RT_1, (1,), (1,), n) \
        == exact.count_reflection(LOCKSTEP_1, (1,), (1,), n) == catalan


@settings(deadline=None, max_examples=40)
@given(kind=st.sampled_from([AtomicKind.AXIS, AtomicKind.DIAGONAL]),
       weights=st.sampled_from(WEIGHT_LISTS), k=st.integers(1, 3), n=st.integers(0, 7),
       data=st.data())
def test_reflection_free_equals_confined_free(kind, weights, k, n, data):
    if kind is AtomicKind.AXIS:
        k, n = min(k, 2), min(n, 5)
    spec = _spec(kind, k, weights)
    u = _chamber_point(data, kind, k)
    assert exact.count_reflection_free(spec, u, n) == exact.count_confined_free(spec, u, n)


@pytest.mark.parametrize("kind,k,weights,u", [
    (AtomicKind.DIAGONAL, 2, "0,1", (1, 3)),
    (AtomicKind.DIAGONAL, 2, "0,0,1", (2, 4)),
    (AtomicKind.DIAGONAL, 3, "1,1", (1, 3, 7)),
    (AtomicKind.AXIS, 2, "0,1", (1, 4)),
    (AtomicKind.AXIS, 2, "1,0,1", (2, 3)),
    (AtomicKind.AXIS, 3, "0,1,1", (1, 2, 4)),
])
def test_endpoint_filter(kind, k, weights, u):
    """Rejected end points have DP count 0; on these models every kept one is reachable."""
    spec = _spec(kind, k, weights)
    for n in range(6):
        frontier = exact._confined_frontier(spec, u, n)
        rejected = []
        for v in exact._chamber_points_upto(spec, max(u) + n * spec.degree):
            if exact._reachable(spec, u, v, n):
                assert exact.count_unconstrained(spec, u, v, n) != 0
            else:
                assert frontier.get(v, 0) == 0
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


@pytest.mark.parametrize("count", [
    lambda: exact.count_reflection(CompositeSpec(AtomicKind.AXIS, 3, [1, 1, 1]),
                                   (1, 2, 3), (1, 2, 3), 400),
    lambda: exact.count_unconstrained(CompositeSpec(AtomicKind.AXIS, 3, [1, 1, 1]),
                                      (1, 2, 3), (1, 2, 3), 400),
    lambda: exact.count_reflection_free(CompositeSpec(AtomicKind.DIAGONAL, 6, [0, 1]),
                                        (1, 3, 5, 7, 9, 11), 60),
    lambda: exact.count_reflection(CompositeSpec(AtomicKind.DIAGONAL, 9, [0, 1]),
                                   tuple(range(1, 18, 2)), tuple(range(1, 18, 2)), 2),
    lambda: exact.count_reflection(CompositeSpec(AtomicKind.DIAGONAL, 7, [0, 1, 1]),
                                   tuple(range(1, 14, 2)), tuple(range(1, 14, 2)), 60),
    lambda: exact.count_reflection(CompositeSpec(AtomicKind.DIAGONAL, 2, [0, 1, 1]),
                                   (1, 3), (1, 3), 10 ** 6),
    lambda: exact.count_unconstrained(CompositeSpec(AtomicKind.DIAGONAL, 2, [0, 1, 1]),
                                      (1, 3), (1, 3), 20000),
], ids=["axis-table", "axis-unconstrained", "free-end-points", "signed-sum", "signed-sum-lengths",
        "kernel-bits", "unconstrained-kernel-bits"])
def test_reflection_budget_guard(count):
    with pytest.raises(exact.ResourceBudgetError, match="exceeds budget of 10000000"):
        count()


@settings(max_examples=150, deadline=None)
@given(weights=st.lists(st.sampled_from([Fraction(0), Fraction(1), Fraction(2), Fraction(1, 3)]),
                        min_size=2, max_size=6).filter(lambda ws: any(ws[1:])),
       n=st.integers(0, 12))
def test_signed_sum_cost_bounds_the_lengths_without_expanding(weights, n):
    spec = CompositeSpec(AtomicKind.DIAGONAL, 2, weights)
    lengths = len(exact._weight_power(spec.weights, n)[0])
    bound = exact._length_bound(spec, n)
    assert bound >= lengths and exact._signed_sum_cost(spec, n) >= 8 * bound
    weighted = [m for m, w in enumerate(spec.weights) if w]
    if len({b - a for a, b in zip(weighted, weighted[1:])}) <= 1:
        # weighted lengths in arithmetic progression: their n-fold sums fill it
        assert bound == lengths


@pytest.mark.parametrize("n,over", [(14, False), (20000, True), (10 ** 6, True)])
def test_kernel_words_weigh_the_bit_size(n, over):
    """The diagonal cost charges the kernel's integers, in 64-bit words."""
    spec = CompositeSpec(AtomicKind.DIAGONAL, 2, [0, 1, 1])
    # (2k^2 + 1)*L integers of n*log2(P(1)) + k*n*degree bits
    words = 9 * (n + 1) * ((5 * n) // 64 + 1)
    assert exact._kernel_words(spec, n) == words
    assert exact._signed_sum_cost(spec, n) == 8 * (n + 1) + words
    assert (exact._signed_sum_cost(spec, n) > exact.DEFAULT_STATE_BUDGET) is over


def test_format_count():
    assert exact.format_count(5) == "5"
    assert exact.format_count(Fraction(13, 36)) == "13/36"
    assert exact.format_count(Fraction(4, 2)) == "2"
    # past the interpreter's default int-to-str limit of 4300 digits
    assert exact.format_count(Fraction(10 ** 5000 + 1, 3)) == "1" + "0" * 4999 + "1/3"
