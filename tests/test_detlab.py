"""Determinant identities: exact rational checks, exact asymptotic series, the shift identity."""

import dataclasses
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from chamberwalk import detlab

frac = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def det_cofactor(matrix):
    """Cofactor-expansion oracle; only sensible for small matrices."""
    k = len(matrix)
    if k == 1:
        return Fraction(matrix[0][0])
    total = Fraction(0)
    for col in range(k):
        if matrix[0][col] == 0:
            continue
        minor = [[row[c] for c in range(k) if c != col] for row in matrix[1:]]
        total += (-1) ** col * Fraction(matrix[0][col]) * det_cofactor(minor)
    return total


class TestDetExact:
    def test_known_2x2(self):
        assert detlab.det_exact([[1, 2], [3, 4]]) == -2

    def test_singular(self):
        assert detlab.det_exact([[1, 2], [2, 4]]) == 0

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            detlab.det_exact([[1, 2, 3], [4, 5, 6]])

    def test_empty_is_one(self):
        det = detlab.det_exact([])
        assert det == 1 and isinstance(det, Fraction)

    @settings(deadline=None, max_examples=40)
    @given(st.integers(1, 4).flatmap(
        lambda k: st.lists(st.lists(frac, min_size=k, max_size=k),
                           min_size=k, max_size=k)))
    def test_matches_cofactor_oracle(self, rows):
        assert detlab.det_exact(rows) == det_cofactor(rows)

    @pytest.mark.parametrize("seed", range(10))
    def test_series_det_of_constants(self, seed):
        rng = random.Random(seed)
        for k in (1, 2, 3, 4):
            rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(k)]
                    for _ in range(k)]
            assert detlab._series_det([[[x] for x in row] for row in rows], 0) \
                == [det_cofactor(rows)]


class TestTypeCDeterminant:
    @pytest.mark.parametrize("z", [
        [Fraction(2)],
        [Fraction(2), Fraction(3)],
        [Fraction(1, 2), Fraction(5, 3), Fraction(-7, 4)],
        [Fraction(2), Fraction(3), Fraction(5), Fraction(7, 2)],
    ])
    def test_integer_powers(self, z):
        rep = detlab.check_typeC_det_identity(z)
        assert rep.passed and rep.residual == 0

    @pytest.mark.parametrize("t", [
        [Fraction(2)],
        [Fraction(2), Fraction(3, 2)],
        [Fraction(3), Fraction(5, 2), Fraction(7, 3)],
    ])
    def test_half_integer_powers(self, t):
        rep = detlab.check_typeC_det_identity(t, half_integer=True)
        assert rep.passed and rep.residual == 0

    def test_repeated_coordinates_trivial(self):
        rep = detlab.check_typeC_det_identity([Fraction(2), Fraction(2)])
        assert rep.passed and rep.residual == 0

    @pytest.mark.parametrize("half_integer", [False, True])
    @pytest.mark.parametrize("t", [
        [Fraction(1, 2), Fraction(3), Fraction(1, 2)],
        [Fraction(2), Fraction(-2)],
        [Fraction(5, 3), Fraction(3), Fraction(-5, 3)],
        [Fraction(-3, 2), Fraction(3, 2), Fraction(-3, 2), Fraction(7)],
    ])
    def test_repeated_and_opposite_points(self, t, half_integer):
        """One product formula holds on repeated points and on t_j = -t_m, for both exponents."""
        rep = detlab.check_typeC_det_identity(t, half_integer=half_integer)
        assert rep.passed and rep.residual == 0
        e = [2 * m - 1 if half_integer else m for m in range(1, len(t) + 1)]
        lhs = det_cofactor([[x ** p - x ** -p for p in e] for x in t])
        # a repeated point repeats a row; odd exponents make the rows of t and -t opposite
        repeated = len({x * x if half_integer else x for x in t}) < len(t)
        assert (lhs == 0) == repeated

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            detlab.check_typeC_det_identity([Fraction(0), Fraction(2)])


class TestSchurIdentity:
    @pytest.mark.parametrize("t,c", [
        ([Fraction(2)], 0),
        ([Fraction(2)], 2),
        ([Fraction(2), Fraction(3)], 1),
        ([Fraction(3, 2), Fraction(5, 2), Fraction(7, 3)], 1),
    ])
    def test_passes(self, t, c):
        rep = detlab.schur_orthogonal_identity_check(t, c)
        assert rep.passed and rep.residual == 0

    def test_c_zero_single_term(self):
        # only the empty partition contributes; ratio must equal 1
        rep = detlab.schur_orthogonal_identity_check([Fraction(2), Fraction(5)], 0)
        assert rep.passed

    def test_equal_squares_rejected(self):
        # t = 2 and -2 give one z = t^2 twice
        with pytest.raises(ValueError, match="distinct and nonzero"):
            detlab.schur_orthogonal_identity_check([2, -2], 1)


class TestQuotientIdentity:
    @pytest.mark.parametrize("z", [
        [Fraction(2)],
        [Fraction(2), Fraction(3)],
        [Fraction(-5, 2), Fraction(2), Fraction(7, 3)],
    ])
    def test_passes(self, z):
        rep = detlab.quotient_identity_check(z)
        assert rep.passed and rep.residual == 0

    def test_pole_rejected(self):
        with pytest.raises(ValueError):
            detlab.quotient_identity_check([Fraction(2), Fraction(1, 2)])
        with pytest.raises(ValueError):
            detlab.quotient_identity_check([Fraction(1), Fraction(2)])


class TestMixedVandermonde:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_nonzero_all_splits(self, k):
        u = [Fraction(j) for j in range(1, k + 1)]
        for a in range(k + 1):
            assert detlab.mixed_vandermonde_det(u, a) != 0

    def test_pure_vandermonde_value(self):
        # a = 0 gives the plain Vandermonde determinant
        got = detlab.mixed_vandermonde_det([Fraction(1), Fraction(2), Fraction(4)], 0)
        assert got == (2 - 1) * (4 - 1) * (4 - 2)

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            detlab.mixed_vandermonde_det([Fraction(2), Fraction(1)], 1)

    def test_rejects_a_split_past_k(self):
        with pytest.raises(ValueError, match="0 <= a <= k"):
            detlab.mixed_vandermonde_det([1, 2], 3)

    def test_a_zero_is_returned(self, monkeypatch):
        # verify records a zero as a failed check; it is not an internal error
        monkeypatch.setattr(detlab, "det_exact", lambda rows: Fraction(0))
        assert detlab.mixed_vandermonde_det([Fraction(1), Fraction(2)], 1) == 0


def _sin(x):
    return sum((-1) ** r * x ** (2 * r + 1) / math.factorial(2 * r + 1) for r in range(12))


def _exp(x):
    return sum(x ** r / math.factorial(r) for r in range(12))


class TestSinDeterminantAsymptotics:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_ratio_near_one(self, k):
        u = [2 * j - 1 for j in range(1, k + 1)]
        rep = detlab.dsin_leading_ratio(u, [j + Fraction(3, 10) for j in range(k)])
        assert rep.passed and rep.residual == 0

    @pytest.mark.parametrize("direction", [[1, 1], [0, 1], [1, -1], [1], [1, 2, 3]])
    def test_repeated_or_zero_direction_rejected(self, direction):
        with pytest.raises(ValueError):
            detlab.dsin_leading_ratio([1, 3], direction)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_gaussian_kernel_ratio(self, k):
        rep = detlab.gaussian_kernel_det_ratio(k)
        assert rep.passed and rep.residual == 0

    def test_quadratic_decay(self):
        # det / (eps^4 leading) = 1 + c1 eps^2 + O(eps^4), by Taylor sums at eps = 1e-4;
        # by hand, leading = -u1 u2 d1 d2 (u2^2 - u1^2)(d2^2 - d1^2) / 3! and
        # c1 = -(d1^2 + d2^2)(u1^2 + u2^2) / 20
        rep = detlab.dsin_leading_ratio([1, 3], [1, Fraction(11, 5)])
        assert rep.passed and rep.residual == 0
        eps = Fraction(1, 10 ** 4)
        det = detlab.det_exact([[_sin(u * eps * d) for u in (1, 3)] for d in (1, Fraction(11, 5))])
        ratio = det / (eps ** 4 * Fraction(-4224, 125))
        assert abs((ratio - 1) / eps ** 2 - Fraction(-73, 25)) < Fraction(1, 10 ** 6)

    @pytest.mark.parametrize("k,leading,c1", [(1, 4, -2), (2, 384, -10)])
    def test_gaussian_kernel_decay(self, k, leading, c1):
        # leading = 2^(k^2+k) / prod (2j-1)! * (k! prod_{i<j} (j^2 - i^2))^2, c1 = -k(k+1)(2k+1)/3
        eps = Fraction(1, 10 ** 4)
        x = [eps * j for j in range(1, k + 1)]
        det = detlab.det_exact([[_exp(-(a - b) ** 2) - _exp(-(a + b) ** 2) for b in x] for a in x])
        ratio = det / (eps ** (2 * k * k) * leading)
        assert abs((ratio - 1) / eps ** 2 - c1) < Fraction(1, 10 ** 6)

    @pytest.mark.parametrize("scale,residual", [(2, 1), (-1, -2)])
    def test_a_wrong_leading_form_fails_exactly(self, monkeypatch, scale, residual):
        # halving or negating the leading form leaves the series' c0 off by that much
        odd = detlab._odd_factorial_prod
        monkeypatch.setattr(detlab, "_odd_factorial_prod", lambda k: scale * odd(k))
        for rep in (detlab.dsin_leading_ratio([1, 3], [1, 2]), detlab.gaussian_kernel_det_ratio(2)):
            assert not rep.passed and rep.residual == residual


class TestSinShiftIdentity:
    def test_all_plus_is_exact_zero(self):
        assert detlab.sin_det_shift_residual([1, 3], [1, 1], [0.3, 0.7]) == 0.0

    @pytest.mark.parametrize("signs", [[-1, 1], [1, -1], [-1, -1]])
    def test_shifted_within_tolerance(self, signs):
        # mixed-sign maximal points only occur on the equal-parity
        # (diagonal) lattice, so u must have coordinates of one parity
        res = detlab.sin_det_shift_residual([1, 3], signs, [0.3, 0.7])
        assert res <= 1e-9

    def test_all_negative_any_parity(self):
        # the all-pi shift contributes a pure column sign, so mixed
        # parity endpoints are fine here
        res = detlab.sin_det_shift_residual([1, 4], [-1, -1], [0.3, 0.7])
        assert res <= 1e-9


def selberg_closed_form(k: int, weight: str) -> float:
    """The Laguerre or Hermite Selberg integral in floats: its rational times unit^k."""
    return float(detlab._selberg_rational(k, weight)) * detlab._UNIT_SQUARED[weight] ** (k / 2)


class TestSelberg:
    def test_closed_forms_k1(self):
        assert selberg_closed_form(1, "laguerre") == pytest.approx(math.sqrt(math.pi) / 2)
        assert selberg_closed_form(1, "hermite") == pytest.approx(math.sqrt(2 * math.pi))

    def test_closed_forms_k2(self):
        assert selberg_closed_form(2, "laguerre") == pytest.approx(3 * math.pi / 8)
        assert selberg_closed_form(2, "hermite") == pytest.approx(4 * math.pi)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("weight,which", [
        ("laguerre", "one"), ("laguerre", "aomoto"),
        ("hermite", "one"), ("hermite", "aomoto"),
    ])
    def test_quadrature_matches_closed_form(self, weight, which, k):
        rep = detlab.selberg_check(k, weight, which)
        assert rep.passed
        assert rep.residual == 0 and isinstance(rep.residual, Fraction)
        assert rep.params["estimate"] == pytest.approx(rep.params["target"], rel=1e-15)

    @pytest.mark.parametrize("p", range(9))
    def test_moments_against_the_gamma_function(self, p):
        hermite = 0.0 if p % 2 else 2 ** (p / 2) * math.gamma((p + 1) / 2) / math.sqrt(math.pi)
        assert float(detlab._moment("hermite", p)) == pytest.approx(hermite, rel=1e-14)
        laguerre = math.gamma(p + 1.5) / math.sqrt(math.pi)
        assert float(detlab._moment("laguerre", p)) == pytest.approx(laguerre, rel=1e-14)

    def test_a_wrong_closed_form_fails_exactly(self, monkeypatch):
        off = Fraction(1, 10 ** 30)
        monkeypatch.setattr(detlab, "_selberg_rational", lambda k, weight: Fraction(3, 8) + off)
        rep = detlab.selberg_check(2, "laguerre", "one")
        assert not rep.passed and rep.residual == -off
        assert rep.to_json()["residual"] == "-1/1000000000000000000000000000000"

    def test_rejects_unknown_weight_or_check(self):
        with pytest.raises(ValueError):
            detlab.selberg_check(2, "jacobi", "one")
        with pytest.raises(ValueError):
            detlab.selberg_check(2, "laguerre", "second")
        with pytest.raises(ValueError, match="k must be >= 1"):
            detlab.selberg_check(0, "hermite", "one")


def test_report_passes_iff_its_residual_is_zero():
    assert [f.name for f in dataclasses.fields(detlab.IdentityReport)] \
        == ["identity", "params", "residual"]
    for residual, passed in ((Fraction(0), True), (Fraction(-1, 3), False)):
        rep = detlab.IdentityReport("x", {}, residual)
        assert rep.passed is passed and rep.to_json()["pass"] is passed


def test_report_json_shape():
    rep = detlab.check_typeC_det_identity([Fraction(2), Fraction(3)])
    obj = rep.to_json()
    assert obj["identity"] == "typeC-det"
    assert obj["pass"] is True
    assert "residual" in obj and "params" in obj
