"""Preset models: defaults, length conventions, specialized asymptotics."""

import hashlib
import itertools
import math
from fractions import Fraction

import pytest

from chamberwalk import asym, exact, presets, verify
from chamberwalk.stepmodel import AtomicKind

from test_recurrence import guess, inverse_h_coefficient


class TestPresetSpec:
    def test_watermelon_defaults(self):
        inst = presets.preset_spec("watermelon", 3)
        assert inst.u == (1, 3, 5) and inst.v == (1, 3, 5)
        assert inst.spec.kind is AtomicKind.DIAGONAL
        assert inst.steps(10) == 20

    def test_star_defaults(self):
        inst = presets.preset_spec("star", 2)
        assert inst.u == (1, 3) and inst.v is None
        assert inst.steps(10) == 10

    def test_tangled_defaults(self):
        inst = presets.preset_spec("tangled-isolated", 3)
        assert inst.u == (1, 2, 3) and inst.v == (1, 2, 3)
        assert inst.spec.kind is AtomicKind.AXIS and inst.spec.weights == (1, 1, 1)

    def test_every_preset_has_default_end_points(self):
        defaults = {
            "lock-step-fixed": ((1, 3), (1, 3)),
            "watermelon": ((1, 3), (1, 3)),
            "lock-step-free": ((1, 3), None),
            "star": ((1, 3), None),
            "random-turns-fixed": ((1, 2), (1, 2)),
            "random-turns-free": ((1, 2), None),
            "tangled-isolated": ((1, 2), (1, 2)),
            "tangled-no-isolated": ((1, 2), (1, 2)),
        }
        instances = verify.preset_instances(2)
        assert [inst.name for inst in instances] == list(presets.PRESET_NAMES)
        for inst in instances:
            assert inst == presets.preset_spec(inst.name, 2)
            assert (inst.u, inst.v) == defaults[inst.name]

    def test_negative_length_rejected(self):
        inst = presets.preset_spec("watermelon", 1)
        with pytest.raises(ValueError, match="walk length n must be >= 0, got -1"):
            inst.steps(-1)

    def test_free_preset_rejects_v(self):
        with pytest.raises(ValueError):
            presets.preset_spec("star", 2, v=(1, 3))

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            presets.preset_spec("banana", 2)

    def test_rejects_k_zero(self):
        with pytest.raises(ValueError, match="k must be >= 1"):
            presets.preset_spec("star", 0)

    def test_endpoint_override_validated(self):
        with pytest.raises(ValueError):
            presets.preset_spec("watermelon", 2, u=(1, 2), v=(1, 3))


class TestExactSmoke:
    def test_watermelon_k2_length2(self):
        inst = presets.preset_spec("watermelon", 2)
        assert exact.count_confined(inst.spec, inst.u, inst.v, 2) == 1

    def test_catalan_via_lockstep_preset(self):
        inst = presets.preset_spec("lock-step-fixed", 1, u=(1,), v=(1,))
        got = [exact.count_confined(inst.spec, inst.u, inst.v, 2 * m) for m in range(1, 6)]
        assert got == [1, 2, 5, 14, 42]


class TestPresetAsym:
    def test_watermelon_k1_value(self):
        # 4^8 / (sqrt(pi) 8^(3/2)) at half-length 8
        inst = presets.preset_spec("watermelon", 1)
        est = presets.preset_asym(inst, 8)
        expect = 4.0 ** 8 / (math.sqrt(math.pi) * 8 ** 1.5)
        assert est.value == pytest.approx(expect, rel=1e-12)

    def test_star_k2_value(self):
        # 2^(2n+3) / (pi n^2)
        inst = presets.preset_spec("star", 2)
        est = presets.preset_asym(inst, 20)
        assert est.value == pytest.approx(2.0 ** 43 / (math.pi * 400), rel=1e-12)

    def test_tangled_isolated_k1_value(self):
        # 7^n (2/pi)^(1/2) (7/(10 n))^(3/2)
        inst = presets.preset_spec("tangled-isolated", 1)
        est = presets.preset_asym(inst, 12)
        expect = 7.0 ** 12 * math.sqrt(2 / math.pi) * (7 / 120) ** 1.5
        assert est.value == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("name", presets.PRESET_NAMES)
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_matches_general_evaluator(self, name, k):
        inst = presets.preset_spec(name, k)
        for n in (10, 100, 1000):
            special = presets.preset_asym(inst, n)
            if not special.supported:
                continue
            general = asym.leading_order(inst.spec, inst.u, inst.v, inst.steps(n))
            assert special.log_value == pytest.approx(general.log_value, abs=1e-9)

    def test_override_endpoints_still_consistent(self):
        inst = presets.preset_spec("watermelon", 2, u=(2, 4), v=(2, 6))
        special = presets.preset_asym(inst, 50)
        general = asym.leading_order(inst.spec, inst.u, inst.v, 100)
        assert special.log_value == pytest.approx(general.log_value, abs=1e-9)

    @pytest.mark.parametrize("name", presets.PRESET_NAMES)
    def test_no_estimate_at_length_zero(self, name):
        inst = presets.preset_spec(name, 2)
        est = presets.preset_asym(inst, 0)
        assert not est.supported and math.isnan(est.log_value)
        with pytest.raises(ValueError, match="walk length n must be >= 0, got -1"):
            presets.preset_asym(inst, -1)

    @pytest.mark.parametrize("family", ["lock-step-fixed", "tangled-no-isolated"])
    def test_unknown_name_is_refused(self, family):
        """A hand-built instance under a name outside the table is never read as a family."""
        spec = presets.preset_spec(family, 1).spec
        inst = presets.PresetInstance("bogus", spec, (1,), (1,), 1)
        with pytest.raises(ValueError, match="unknown preset 'bogus'"):
            presets.preset_asym(inst, 2)

    @pytest.mark.parametrize("name", presets.PRESET_NAMES)
    def test_no_estimate_past_a_float(self, name):
        inst = presets.preset_spec(name, 20)
        for n in (10 ** 400, 10 ** 308):
            with pytest.raises(ValueError, match="past a float's range"):
                presets.preset_asym(inst, n)

    def test_unsupported_parity(self):
        inst = presets.preset_spec("lock-step-fixed", 1, u=(1,), v=(1,))
        est = presets.preset_asym(inst, 15)
        assert not est.supported and math.isnan(est.log_value)

    def test_every_log_value_is_pinned(self):
        """320 estimates, every preset, k <= 4, n in {0, 1, 7, 100, 5000}: at the default end
        points and at the wall shifted by 2 in every coordinate; repr of each log_value."""
        values = []
        for name, k, n in itertools.product(presets.PRESET_NAMES, range(1, 5),
                                            (0, 1, 7, 100, 5000)):
            wall = presets.preset_spec(name, k)
            shifted = tuple(x + 2 for x in wall.u)
            for inst in (wall, presets.preset_spec(name, k, shifted,
                                                   None if wall.v is None else shifted)):
                values.append(repr(presets.preset_asym(inst, n).log_value))
        assert len(values) == 320
        assert hashlib.sha256("\n".join(values).encode()).hexdigest() \
            == "2b9d93ea9406b788f501e14b1ae7e9f51d22868fabacd6777bcddf8409eaa35e"


# ---------------------------------------------------------------------------
# tangled diagrams, enumerated from their definition


def _matchings(slots):
    """Every perfect matching of ``slots``, as a list of pairs in slot order."""
    if not slots:
        yield []
        return
    for p in range(1, len(slots)):
        for rest in _matchings(slots[1:p] + slots[p + 1:]):
            yield [(slots[0], slots[p])] + rest


def _tangled_diagrams(n):
    """(vertex degrees, arcs) of every tangled diagram on [n].

    A tangled diagram is a graph on the vertices 1..n, drawn in order on a
    line with its arcs above it, in which every vertex has degree at most
    two; a loop (i, i) gives its vertex degree two.  The two arc ends at a
    vertex of degree two leave it at two points side by side, its slots, and
    which arc takes the left slot is part of the drawing: two arcs that share
    a vertex are drawn crossing or not, and both drawings are diagrams.  So a
    diagram is a choice of degrees and a perfect matching of the slots; a loop
    joins the two slots of its vertex.
    """
    for degrees in itertools.product(range(3), repeat=n):
        slots = [(i, side) for i, d in enumerate(degrees) for side in range(d)]
        if len(slots) % 2 == 0:
            for arcs in _matchings(slots):
                yield degrees, arcs


def _largest_crossing(arcs):
    """The most arcs that cross each other pairwise: a_1 < ... < a_m < b_1 < ... < b_m."""
    def cross(one, other):
        (a, b), (c, d) = sorted([one, other])
        return a < c < b < d

    return max((m for m in range(1, len(arcs) + 1)
                for group in itertools.combinations(arcs, m)
                if all(itertools.starmap(cross, itertools.combinations(group, 2)))), default=0)


def test_tangled_diagram_enumerator_by_hand():
    """On [2]: no arc, a loop at 1, at 2 or at both, the arc (1, 2), and the double
    arc (1, 2) drawn nested or crossing; the crossing one is 2-crossing."""
    diagrams = list(_tangled_diagrams(2))
    assert len(diagrams) == 7
    assert sorted(_largest_crossing(arcs) for _, arcs in diagrams) == [0, 1, 1, 1, 1, 1, 2]


@pytest.mark.parametrize("n", range(7))
def test_tangled_presets_count_the_diagrams(n):
    """The k-noncrossing tangled diagrams on [n], with and without isolated
    vertices, are the walks of ``tangled-isolated`` and ``tangled-no-isolated``
    in dimension k - 1 of n steps from their default end point to itself."""
    largest = [(0 not in degrees, _largest_crossing(arcs))
               for degrees, arcs in _tangled_diagrams(n)]
    for k in (2, 3, 4):
        for name, isolated_allowed in (("tangled-isolated", True), ("tangled-no-isolated", False)):
            inst = presets.preset_spec(name, k - 1)
            walks = exact.count_confined(inst.spec, inst.u, inst.v, inst.steps(n))
            diagrams = sum(m < k and (isolated_allowed or none_isolated)
                           for none_isolated, m in largest)
            assert walks == diagrams, (name, k, n)


# ---------------------------------------------------------------------------
# watermelons, by a product formula that shares nothing with the exact routes


def _watermelon(k, n):
    """Lock-step walks of n steps from the wall (1, 3, ..., 2k-1) back to it.

    For n = 2h it is prod_(1<=i<=j<=h-1) (i + j + 2k)/(i + j) (de Sainte-Catherine
    and Viennot 1986; Krattenthaler, Guttmann and Viennot 2000); odd n gives 0.
    The product over j telescopes: with H = h - 1 it is prod_(i<=H) prod_(t=1..2k)
    (i + H + t) over prod_(i<=H) prod_(t=0..2k-1) (2i + t), one exact division.
    """
    if n % 2:
        return 0
    top = n // 2 - 1
    num = math.prod(i + top + t for i in range(1, top + 1) for t in range(1, 2 * k + 1))
    den = math.prod(2 * i + t for i in range(1, top + 1) for t in range(2 * k))
    count, rest = divmod(num, den)
    assert rest == 0
    return count


def test_watermelon_product_by_hand():
    # k = 1: the Catalan numbers; k = 2: C_h C_(h+2) - C_(h+1)^2 (OEIS A005700)
    assert [_watermelon(1, n) for n in range(0, 13, 2)] == [1, 1, 2, 5, 14, 42, 132]
    assert [_watermelon(2, n) for n in range(0, 9, 2)] == [1, 1, 3, 14, 84]
    assert _watermelon(3, 7) == 0


@pytest.mark.parametrize("k", [1, 2, 3])
def test_watermelon_product_equals_the_dp(k):
    spec = presets.preset_spec("lock-step-fixed", k).spec
    wall = tuple(range(1, 2 * k, 2))
    for n in range(13):
        assert exact.count_confined(spec, wall, wall, n) == _watermelon(k, n), (k, n)


@pytest.mark.parametrize("name", ["lock-step-fixed", "watermelon"])
@pytest.mark.parametrize("k", range(1, 7))
def test_signed_sum_at_the_wall_is_the_watermelon_product(name, k):
    inst = presets.preset_spec(name, k)
    for steps in range(0, 41, 2):
        n = steps // inst.length_scale
        assert inst.steps(n) == steps
        assert exact.count_reflection(inst.spec, inst.u, inst.v, steps) == _watermelon(k, steps)


@pytest.mark.parametrize("name", ["lock-step-fixed", "watermelon"])
def test_signed_sum_at_the_wall_is_the_watermelon_product_long(name):
    inst = presets.preset_spec(name, 3)
    steps = inst.steps(2000 // inst.length_scale)
    assert steps == 2000
    assert exact.count_reflection(inst.spec, inst.u, inst.v, steps) == _watermelon(3, steps)


def test_random_turns_at_the_wall_is_the_watermelon_product():
    """Random turns at k = 2 from the wall (1, 2) back to it: in (x_2 - x_1, x_1 + x_2)
    the wall is (1, 3), and an axis step is a lock-step one."""
    inst = presets.preset_spec("random-turns-fixed", 2)
    assert inst.u == inst.v == (1, 2)
    for n in [*range(0, 41), 1000, 2001, 8000]:
        assert exact.count_reflection(inst.spec, inst.u, inst.v, inst.steps(n)) \
            == _watermelon(2, n), n


def test_tangled_isolated_at_the_wall_sums_watermelons():
    """Tangled diagrams at k = 2, n = 500: sum_m [x^m](1 + x + x^2)^n times the watermelon
    of m steps, which is 0 for odd m.  The trinomial coefficient is
    sum_j C(n, j) C(n - j, m - 2j), over the j factors that give x^2."""
    inst = presets.preset_spec("tangled-isolated", 2)
    n = 500
    trinomial = {m: sum(math.comb(n, j) * math.comb(n - j, m - 2 * j) for j in range(m // 2 + 1))
                 for m in range(0, 2 * n + 1, 2)}
    # the even coefficients sum to (P(1)^n + P(-1)^n)/2
    assert trinomial[n - 2] == trinomial[n + 2] and sum(trinomial.values()) == (3 ** n + 1) // 2
    assert exact.count_reflection(inst.spec, inst.u, inst.v, inst.steps(n)) \
        == sum(c * _watermelon(2, m) for m, c in trinomial.items())


# ---------------------------------------------------------------------------
# the 1/n term at the wall: delta_n = exact/asym - 1 = c/n + O(1/n^2)

_C_FIXED = lambda k: Fraction(-k * (2 * k + 1) * (4 * k - 1), 4)  # noqa: E731
_C_FREE = lambda k: Fraction(-k * (2 * k * k - 1), 4)  # noqa: E731
# random turns at k <= 2 are lock-step walks in (x_2 - x_1, x_1 + x_2), with its coefficients
_WALL_COEFFICIENT = {"lock-step-fixed": _C_FIXED, "lock-step-free": _C_FREE,
                     "random-turns-fixed": _C_FIXED, "random-turns-free": _C_FREE}
_WALL_CASES = [(k, name) for name in sorted(_WALL_COEFFICIENT)
               for k in ([1, 2, 3] if name.startswith("lock-step") else [1, 2])] \
    + [(4, "lock-step-free"), (5, "lock-step-free")]


@pytest.mark.parametrize("k,name", _WALL_CASES)
def test_inverse_n_coefficient_at_the_wall(name, k):
    """n*delta_n approaches c at every step, and its Richardson value is c to 1e-4."""
    inst = presets.preset_spec(name, k)
    target = float(_WALL_COEFFICIENT[name](k))
    n_delta = {}
    for n in (1000, 2000, 4000, 8000):
        steps = inst.steps(n)
        if inst.v is None:
            count = exact.count_reflection_free(inst.spec, inst.u, steps)
        else:
            count = exact.count_reflection(inst.spec, inst.u, inst.v, steps)
        n_delta[n] = n * math.expm1(asym.log_exact(count) - presets.preset_asym(inst, n).log_value)
    gaps = [abs(x - target) for x in n_delta.values()]
    assert gaps == sorted(gaps, reverse=True) and len(set(gaps)) == len(gaps), n_delta
    assert 2 * n_delta[8000] - n_delta[4000] == pytest.approx(target, rel=1e-4), n_delta


# ---------------------------------------------------------------------------
# the wall coefficients read off exact forms (Krattenthaler, Guttmann and Viennot 2000)


def _b2(b):
    """B_2(b) = b^2 - b + 1/6: by Stirling's series log Gamma(z + b) has the 1/z term
    B_2(b)/(2z)."""
    return b * b - b + Fraction(1, 6)


@pytest.mark.parametrize("k", range(1, 11))
def test_fixed_coefficient_is_derived_from_the_watermelon_product(k):
    """With n = 2h, ``_watermelon``'s telescoped product is prod_(t=1..2k) Gamma(n+t-1)/Gamma(h+t)
    times prod_(t=0..2k-1) Gamma(1+t/2)/(2^(h-1) Gamma(h+t/2)).  Its 1/z terms, z = n or h,
    give c = sum_t (B_2(t-1)/2 - B_2(t)) - sum_t B_2(t/2)."""
    def log_gamma_form(n):
        h = n // 2
        return sum(math.lgamma(n + t - 1) - math.lgamma(h + t) for t in range(1, 2 * k + 1)) \
            + sum(math.lgamma(1 + t / 2) - (h - 1) * math.log(2) - math.lgamma(h + t / 2)
                  for t in range(2 * k))

    for n in (2, 10, 400):
        assert log_gamma_form(n) == pytest.approx(asym.log_exact(_watermelon(k, n)), abs=1e-9)
    c = sum(_b2(Fraction(t - 1)) / 2 - _b2(Fraction(t)) for t in range(1, 2 * k + 1)) \
        - sum(_b2(Fraction(t, 2)) for t in range(2 * k))
    assert c == _C_FIXED(k)


def _free_ratio(k, h):
    """a_(h+1)/a_h of lock-step walks of 2h steps from the wall with a free end."""
    return 2 ** k * math.prod(Fraction(2 * h + 2 * (j // 2) + 1, h + (k + j + 1) // 2)
                              for j in range(1, k + 1))


@pytest.mark.parametrize("k", range(1, 13))
def test_free_coefficient_is_the_ratio_gamma_sum(k):
    """The ratio makes a_h a constant times 4^(kh) prod_j Gamma(h + floor(j/2) + 1/2) /
    Gamma(h + floor((k+j+1)/2)), whose 1/h terms give c = sum_j (B_2(floor(j/2) + 1/2) -
    B_2(floor((k+j+1)/2))) in n = 2h."""
    c = sum(_b2(Fraction(j // 2) + Fraction(1, 2)) - _b2(Fraction((k + j + 1) // 2))
            for j in range(1, k + 1))
    assert c == _C_FREE(k)


@pytest.mark.parametrize("k", range(1, 5))
def test_free_counts_at_the_wall_follow_the_ratio(k):
    """The DP's 2k + 8 counts at n = 0, 2, 4, ... fix a first-order recurrence; its coefficients
    are the ratio's, and its exact 1/n coefficient is ``_C_FREE(k)``."""
    inst = presets.preset_spec("lock-step-free", k)
    terms = [exact.count_confined_free(inst.spec, inst.u, 2 * h) for h in range(2 * k + 8)]
    r, d, (low, high) = guess(terms)
    assert (r, d) == (1, k)

    def value(poly, h):
        return sum(c * h ** j for j, c in enumerate(poly))

    # both sides of -low * prod (h + ...) = high * 2^k prod (2h + ...) have degree <= 2k
    for h in range(2 * k + 1):
        assert Fraction(-value(low, h), value(high, h)) == _free_ratio(k, h)
    assert 2 * inverse_h_coefficient([low, high], Fraction(4 ** k), -Fraction(k * k, 2)) \
        == _C_FREE(k)
