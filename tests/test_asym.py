"""Asymptotic evaluators, the parity rule they take as support, convergence fitting."""

import hashlib
import itertools
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest

from chamberwalk import asym, exact, presets
from chamberwalk.stepmodel import AtomicKind, CompositeSpec

LOCKSTEP_1 = CompositeSpec(AtomicKind.DIAGONAL, 1, [0, 1])
LOCKSTEP_2 = CompositeSpec(AtomicKind.DIAGONAL, 2, [0, 1])
RT_2 = CompositeSpec(AtomicKind.AXIS, 2, [0, 1])


def RT_K(k):
    return CompositeSpec(AtomicKind.AXIS, k, [0, 1])


class TestSupport:
    """``CompositeSpec.parity_allows``, the support rule of ``leading_order`` and the presets."""

    def test_lockstep_parity(self):
        assert LOCKSTEP_1.parity_allows((1,), (1,), 16)
        assert not LOCKSTEP_1.parity_allows((1,), (1,), 15)
        assert not asym.leading_order(LOCKSTEP_1, (1,), (1,), 15).supported

    def test_axis_parity(self):
        assert RT_2.parity_allows((1, 2), (1, 2), 4)
        assert not RT_2.parity_allows((1, 2), (1, 2), 5)

    def test_mixed_parity_always_supported(self):
        spec = CompositeSpec(AtomicKind.AXIS, 1, [1, 1, 1])
        assert spec.parity_allows((1,), (1,), 3)
        assert spec.parity_allows((1,), (2,), 3)

    def test_no_estimate_at_length_zero(self):
        for est in (asym.leading_order(LOCKSTEP_1, (1,), (1,), 0),
                    asym.leading_order(LOCKSTEP_1, (1,), None, 0)):
            assert not est.supported and math.isnan(est.log_value)
        with pytest.raises(ValueError, match="walk length n must be >= 0, got -1"):
            asym.leading_order(LOCKSTEP_1, (1,), None, -1)


class TestLogExact:
    def test_small(self):
        assert asym.log_exact(8) == pytest.approx(math.log(8))

    def test_huge(self):
        x = 3 ** 5000
        assert asym.log_exact(x) == pytest.approx(5000 * math.log(3), rel=1e-12)

    def test_fraction(self):
        assert asym.log_exact(Fraction(3, 7)) == pytest.approx(math.log(3 / 7))

    def test_nonpositive(self):
        with pytest.raises(ValueError):
            asym.log_exact(0)


class TestFixedEndpoint:
    def test_excursion_value(self):
        # 2 * 4^8 * (2/pi)^(1/2) * 16^(-3/2) at 16 steps, k=1, M = 2 points
        est = asym.leading_order(LOCKSTEP_1, (1,), (1,), 16)
        expect = 2 * 4.0 ** 8 * math.sqrt(2 / math.pi) * 16.0 ** -1.5
        assert est.value == pytest.approx(expect, rel=1e-12)

    def test_unsupported_is_nan(self):
        est = asym.leading_order(LOCKSTEP_1, (1,), (1,), 15)
        assert not est.supported
        assert math.isnan(est.log_value)
        assert est.value is None

    def test_huge_value_overflow_guard(self):
        est = asym.leading_order(LOCKSTEP_1, (1,), (1,), 5000)
        assert est.value is None
        assert est.log10_value == pytest.approx(est.log_value / math.log(10))

    def test_ratio_approaches_one(self):
        for n, tol in ((64, 0.05), (256, 0.02)):
            cnt = exact.count_reflection(LOCKSTEP_1, (1,), (1,), n)
            est = asym.leading_order(LOCKSTEP_1, (1,), (1,), n)
            assert math.exp(asym.log_exact(cnt) - est.log_value) == pytest.approx(1.0, abs=tol)


class TestFreeEndpoint:
    def test_k1_matches_central_binomial_asymptotics(self):
        # comb(n, n//2) ~ 2^n sqrt(2/(pi n))
        est = asym.leading_order(LOCKSTEP_1, (1,), None, 100)
        expect = 2.0 ** 100 * math.sqrt(2 / (math.pi * 100))
        assert est.value == pytest.approx(expect, rel=1e-12)

    def test_ratio_approaches_one(self):
        cnt = exact.count_reflection_free(LOCKSTEP_2, (1, 3), 64)
        est = asym.leading_order(LOCKSTEP_2, (1, 3), None, 64)
        assert math.exp(asym.log_exact(cnt) - est.log_value) == pytest.approx(1.0, abs=0.1)


class TestLeadingOrder:
    def test_every_log_value_is_pinned(self):
        """600 estimates, both kinds, k <= 4, five weight lists, n in {0, 1, 7, 100, 5000}: a
        fixed end at the wall u and at 2u + 1, and a free end; repr of each log_value."""
        values = []
        for kind, k, weights, n in itertools.product(
                AtomicKind, range(1, 5), ("0,1", "1,1,1", "0,1,1", "1/2,1/3", "2,0,3"),
                (0, 1, 7, 100, 5000)):
            spec = CompositeSpec(kind, k, [Fraction(w) for w in weights.split(",")])
            gap = 2 if kind is AtomicKind.DIAGONAL else 1
            u = tuple(range(1, gap * k + 1, gap))
            v = tuple(2 * x + 1 for x in u)
            values += [repr(est.log_value) for est in (
                asym.leading_order(spec, u, u, n), asym.leading_order(spec, u, v, n),
                asym.leading_order(spec, u, None, n))]
        assert len(values) == 600
        assert hashlib.sha256("\n".join(values).encode()).hexdigest() \
            == "d8951758fff2a86c5295803192351688bd447e8313750590bd5fed8a313c76d5"

    @pytest.mark.parametrize("kind", AtomicKind)
    def test_no_estimate_past_a_float(self, kind):
        """An n past a float's range, or a log value that overflows one, is invalid input; a
        small model still has a finite estimate at an n near the largest float."""
        spec = CompositeSpec(kind, 20, [0, 1])
        u = tuple(range(1, 41, 2)) if kind is AtomicKind.DIAGONAL else tuple(range(1, 21))
        for n in (10 ** 400, 10 ** 308):
            with pytest.raises(ValueError, match="past a float's range"):
                asym.leading_order(spec, u, u, n)
        assert math.isfinite(asym.leading_order(CompositeSpec(kind, 1, [0, 1]), (1,), None,
                                                int(1.5e308)).log_value)


class TestEndPointFactor:
    @pytest.mark.parametrize("u", [(1,), (1, 2), (2, 3, 7), (1, 4, 5, 9, 12), tuple(range(1, 40)),
                                   tuple(range(3, 300, 7))])
    def test_the_balanced_tree_is_the_running_product(self, u):
        running = 1
        for j in range(len(u)):
            for m in range(j + 1, len(u)):
                running *= u[m] ** 2 - u[j] ** 2
        assert asym._squared_difference_product(u) == running

    @pytest.mark.parametrize("k", [2, 10, 100, 400])
    def test_the_price_bounds_the_tree(self, k):
        """A unit a factor made, and each product of the tree at the pointwise rate of
        ``_product_work``, ab/2^20 + 1 for a- by b-bit ints: counted <= price <= 4(counted + 1)
        (largest ratio seen 1.36, at k = 400)."""
        u = tuple(range(1, k + 1))
        factors = [um * um - uj * uj for m, um in enumerate(u) for uj in u[:m]]
        counted = len(factors)
        while len(factors) > 1:
            pairs = [factors[i:i + 2] for i in range(0, len(factors), 2)]
            counted += sum(a.bit_length() * b.bit_length() // 2 ** 20 + 1
                           for a, b in (p for p in pairs if len(p) == 2))
            factors = [math.prod(p) for p in pairs]
        with mock.patch.object(exact, "DEFAULT_STATE_BUDGET", -1), \
                pytest.raises(exact.ResourceBudgetError) as err:
            asym._squared_difference_product(u)
        assert factors[0].bit_length() <= k * (k - 1) * k.bit_length()
        assert counted <= err.value.estimate <= 4 * (counted + 1)

    @pytest.mark.parametrize("estimate", [
        lambda u: asym.leading_order(RT_K(len(u)), u, u, 10),
        lambda u: asym.leading_order(RT_K(len(u)), u, None, 10),
        lambda u: presets.preset_asym(presets.preset_spec("random-turns-fixed", len(u)), 1),
    ], ids=["fixed", "free", "preset"])
    def test_refused_before_the_product_is_formed(self, estimate):
        """At k = 1000 the 499 500 factors of u = (1, ..., 1000) are priced, not multiplied."""
        u = tuple(range(1, 1001))
        tracemalloc.start()
        try:
            with pytest.raises(exact.ResourceBudgetError, match="end-point factor: estimate"):
                estimate(u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20


class TestConvergence:
    def test_compare_series_slope_near_minus_one(self):
        rep = asym.compare_series(LOCKSTEP_1, (1,), (1,), [16, 32, 64, 128])
        assert rep.fitted_slope == pytest.approx(-1.0, abs=0.2)

    def test_rows_sorted_and_supported_only(self):
        rep = asym.compare_series(LOCKSTEP_1, (1,), (1,), [32, 16, 15, 64, 0])
        assert [r.n for r in rep.rows] == [16, 32, 64]

    @pytest.mark.parametrize("grid", [range(15, 65, 1), range(64, 14, -1)])
    def test_a_range_grid_is_walked_as_the_list(self, grid):
        assert asym.compare_series(LOCKSTEP_1, (1,), (1,), grid) \
            == asym.compare_series(LOCKSTEP_1, (1,), (1,), list(grid))

    def test_needs_three_points(self):
        with pytest.raises(asym.DiagnosticError):
            asym.compare_series(LOCKSTEP_1, (1,), (1,), [16, 32])

    def test_fit_decay_on_synthetic(self):
        rows = tuple(
            asym.ConvergenceRow(n=n, exact_log=0.0, asym_log=0.0,
                                ratio=1 + 2.0 * n ** (-5 / 3),
                                delta=2.0 * n ** (-5 / 3))
            for n in (10, 20, 40, 80)
        )
        # the decay fit that compare_series reports as fitted_slope
        slope, _ = asym._fit_loglog(rows)
        assert slope == pytest.approx(-5 / 3, rel=1e-9)
