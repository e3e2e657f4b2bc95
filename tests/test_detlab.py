"""Determinant identities: exact rational checks and numeric asymptotics."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from chamberwalk import detlab

frac = st.fractions(min_value=-5, max_value=5, max_denominator=6)


class TestDetExact:
    def test_known_2x2(self):
        assert detlab.det_exact([[1, 2], [3, 4]]) == -2

    def test_singular(self):
        assert detlab.det_exact([[1, 2], [2, 4]]) == 0

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            detlab.det_exact([[1, 2, 3], [4, 5, 6]])

    @settings(deadline=None, max_examples=40)
    @given(st.integers(1, 4).flatmap(
        lambda k: st.lists(st.lists(frac, min_size=k, max_size=k),
                           min_size=k, max_size=k)))
    def test_matches_cofactor_oracle(self, rows):
        assert detlab.det_exact(rows) == detlab.det_cofactor(rows)


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


class TestSinDeterminantAsymptotics:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_ratio_near_one(self, k):
        u = [2 * j - 1 for j in range(1, k + 1)]
        rep = detlab.dsin_leading_ratio(u, [j + 0.3 for j in range(k)], 0.05)
        assert rep.passed
        assert abs(rep.residual) < 0.1

    @pytest.mark.parametrize("k", [2, 3])
    def test_observed_sign(self, k):
        u = list(range(1, k + 1))
        rep = detlab.dsin_leading_ratio(u, [j + 0.5 for j in range(k)], 0.05)
        assert rep.sign_observed == 1    # leading sign absorbed in the formula

    def test_eps_out_of_range(self):
        with pytest.raises(ValueError):
            detlab.dsin_leading_ratio([1], [1.0], 0.5)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_gaussian_kernel_ratio(self, k):
        rep = detlab.gaussian_kernel_det_ratio(k, 0.05)
        assert rep.passed
        assert abs(rep.residual) < 0.2

    def test_quadratic_decay(self):
        r1 = abs(detlab.dsin_leading_ratio([1, 3], [1.0, 2.2], 0.1).residual)
        r2 = abs(detlab.dsin_leading_ratio([1, 3], [1.0, 2.2], 0.05).residual)
        assert 3.0 <= r1 / r2 <= 5.0


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


class TestSelberg:
    def test_closed_forms_k1(self):
        assert detlab.selberg_closed_form(1, "laguerre") == pytest.approx(math.sqrt(math.pi) / 2)
        assert detlab.selberg_closed_form(1, "hermite") == pytest.approx(math.sqrt(2 * math.pi))

    def test_closed_forms_k2(self):
        assert detlab.selberg_closed_form(2, "laguerre") == pytest.approx(3 * math.pi / 8)
        assert detlab.selberg_closed_form(2, "hermite") == pytest.approx(4 * math.pi)

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


def test_report_json_shape():
    rep = detlab.check_typeC_det_identity([Fraction(2), Fraction(3)])
    obj = rep.to_json()
    assert obj["identity"] == "typeC-det"
    assert obj["pass"] is True
    assert "residual" in obj and "params" in obj
