"""Step model: generating functions, curvature constants, maximal points."""

import cmath
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from chamberwalk.stepmodel import (
    AtomicKind,
    CompositeSpec,
    check_chamber_point,
    curvature,
    in_chamber,
    lattice_contains,
    maximal_point_count,
    maximal_points,
    s_one,
    s_second_derivative_one,
)


def axis(k, weights):
    return CompositeSpec(AtomicKind.AXIS, k, weights)


def diag(k, weights):
    return CompositeSpec(AtomicKind.DIAGONAL, k, weights)


class TestSpecValidation:
    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            axis(0, [0, 1])

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            axis(1, [0, -1])

    def test_rejects_all_stationary(self):
        with pytest.raises(ValueError):
            axis(1, [1])

    def test_trailing_zeros_trimmed(self):
        assert axis(1, [0, 1, 0, 0]).weights == axis(1, [0, 1]).weights


class TestGeneratingFunction:
    # S(1) = P(2k) for axis steps, P(2^k) for diagonal steps
    def test_s_one_lockstep(self):
        assert s_one(diag(2, [0, 1])) == 4
        assert s_one(diag(3, [0, 1])) == 8

    def test_s_one_random_turns(self):
        assert s_one(axis(3, [0, 1])) == 6

    def test_s_one_tangled(self):
        assert s_one(axis(2, [1, 1, 1])) == 21     # 1 + 4 + 16
        assert s_one(axis(1, [1, 1, 1])) == 7      # 1 + 2 + 4

    def test_s_one_fractional(self):
        assert s_one(axis(1, [Fraction(1, 2), Fraction(1, 3)])) == Fraction(7, 6)

    def test_second_derivative_lockstep(self):
        # S = prod (z_j + 1/z_j): d^2/dz_1^2 at 1 is 2 * 2^(k-1)
        assert s_second_derivative_one(diag(1, [0, 1])) == 2
        assert s_second_derivative_one(diag(2, [0, 1])) == 4

    def test_lam_values(self):
        assert curvature(diag(2, [0, 1])) == 1
        assert curvature(axis(2, [0, 1])) == Fraction(1, 2)
        assert curvature(axis(2, [1, 1, 1])) == Fraction(6, 7)
        assert curvature(axis(1, [1, 1, 1])) == Fraction(10, 7)


class TestMaximalPoints:
    def test_random_turns_two_points(self):
        pts = maximal_points(axis(2, [0, 1]))
        assert sorted(pts) == [(-1, -1), (1, 1)]

    def test_lockstep_full_hypercube(self):
        assert len(maximal_points(diag(2, [0, 1]))) == 4
        assert len(maximal_points(diag(3, [0, 1]))) == 8

    def test_tangled_single_point(self):
        assert sorted(maximal_points(axis(2, [1, 1, 1]))) == [(1, 1)]

    @given(st.sampled_from([AtomicKind.AXIS, AtomicKind.DIAGONAL]),
           st.integers(1, 3),
           st.lists(st.integers(0, 3), min_size=1, max_size=4))
    def test_all_ones_always_maximal(self, kind, k, weights):
        if not any(w for m, w in enumerate(weights) if m > 0):
            weights = weights + [1]
        spec = CompositeSpec(kind, k, weights)
        assert tuple([1] * k) in maximal_points(spec)


def _scanned_maximal_points(spec):
    # every sign vector eps with |S(eps)| = S(1), S evaluated in exact rationals
    top = s_one(spec)
    found = []
    for eps in itertools.product((1, -1), repeat=spec.k):
        terms = [Fraction(e) + 1 / Fraction(e) for e in eps]
        a = sum(terms) if spec.kind is AtomicKind.AXIS else math.prod(terms)
        if abs(spec.poly(a)) == top:
            found.append(eps)
    return tuple(sorted(found, reverse=True))


class TestMaximalPointsFromParity:
    @given(st.sampled_from([AtomicKind.AXIS, AtomicKind.DIAGONAL]),
           st.integers(1, 5),
           st.lists(st.sampled_from([0, 0, 1, 2, Fraction(1, 3), Fraction(5, 2)]),
                    min_size=1, max_size=5))
    # w_0 > 0 with one parity, and mixed parity, for both kinds
    @example(AtomicKind.AXIS, 3, [1, 0, 1])
    @example(AtomicKind.AXIS, 3, [1, 1])
    @example(AtomicKind.DIAGONAL, 4, [2, 0, Fraction(1, 2)])
    @example(AtomicKind.DIAGONAL, 4, [0, 1, 1])
    def test_matches_brute_force_scan(self, kind, k, weights):
        if not any(w for m, w in enumerate(weights) if m > 0):
            weights = weights + [1]
        spec = CompositeSpec(kind, k, weights)
        scanned = _scanned_maximal_points(spec)
        assert maximal_points(spec) == scanned
        assert maximal_point_count(spec) == len(scanned)

    def test_count_without_listing(self):
        assert maximal_point_count(diag(40, [0, 1])) == 2 ** 40
        assert maximal_point_count(diag(40, [0, 1, 1])) == 2 ** 39


class TestChamberPredicates:
    def test_in_chamber(self):
        assert in_chamber((1, 2, 5))
        assert not in_chamber((0, 2))
        assert not in_chamber((2, 2))
        assert not in_chamber((3, 2))

    def test_lattice_diagonal_parity(self):
        spec = diag(2, [0, 1])
        assert lattice_contains(spec, (1, 3))
        assert lattice_contains(spec, (2, 4))
        assert not lattice_contains(spec, (1, 2))

    def test_lattice_axis_everything(self):
        assert lattice_contains(axis(2, [0, 1]), (1, 2))

    def test_check_chamber_point_rejects(self):
        with pytest.raises(ValueError):
            check_chamber_point(diag(2, [0, 1]), (1, 2))
        with pytest.raises(ValueError):
            check_chamber_point(axis(2, [0, 1]), (2, 1))
        with pytest.raises(ValueError):
            check_chamber_point(axis(2, [0, 1]), (1,))


def _log_s_along_first_axis(spec, t):
    # log|S(e^{it}, 1, ..., 1)| - log S(1, ..., 1), in complex floating point
    z = [cmath.exp(1j * t)] + [1] * (spec.k - 1)
    terms = [zj + 1 / zj for zj in z]
    a = sum(terms) if spec.kind is AtomicKind.AXIS else math.prod(terms)
    return math.log(abs(spec.poly(a))) - math.log(s_one(spec))


class TestCurvatureOracle:
    # f(t) = c2 t^2 + c4 t^4 + O(t^6), so (16 f(t) - f(2t)) / (12 t^2) = c2 + O(t^4),
    # and the Gaussian expansion of log|S| gives c2 = -Lam/2
    @pytest.mark.parametrize("spec", [axis(1, [1, 1, 1]), diag(2, [0, 1]), axis(3, [1, 0, 2])],
                             ids=["axis-k1-111", "diagonal-k2-01", "axis-k3-102"])
    def test_matches_log_s_expansion(self, spec):
        t = 0.01
        f = _log_s_along_first_axis
        c2 = (16 * f(spec, t) - f(spec, 2 * t)) / (12 * t * t)
        assert -2 * c2 == pytest.approx(float(curvature(spec)), rel=1e-6)
