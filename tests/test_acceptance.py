"""Acceptance gate: the headline criteria, one reported line each.

Each test prints a single PASS/FAIL line (visible with ``pytest -v -s`` or
on failure) in addition to asserting, so the gate doubles as a report.
"""

import math
import random
from fractions import Fraction

from chamberwalk import asym, detlab, exact, presets
from chamberwalk.verify import preset_instances, random_chamber_point

SEED = 20260824


def report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_01_oracle_equivalence():
    """Reflection sum equals the confined DP on randomized endpoints."""
    rng = random.Random(SEED)
    checks = 0
    ok = True
    for k in (1, 2, 3):
        n_max = 16 if k == 1 else 10
        for inst in preset_instances(k):
            spec = inst.spec
            for _ in range(10):
                u = random_chamber_point(rng, spec)
                v = random_chamber_point(rng, spec)
                for n in range(n_max + 1):
                    if exact.count_reflection(spec, u, v, n) \
                            != exact.count_confined(spec, u, v, n):
                        ok = False
                    checks += 1
    report("oracle equivalence (8 presets x 10 endpoints, k<=3)", ok, f"{checks} checks")


def test_02_classical_sequences():
    spec = presets.preset_spec("lock-step-fixed", 1, u=(1,), v=(1,)).spec
    catalan = [exact.count_confined(spec, (1,), (1,), n) for n in range(2, 17, 2)]
    free = [exact.count_confined_free(spec, (1,), n) for n in range(1, 13)]
    ok = catalan == [1, 2, 5, 14, 42, 132, 429, 1430] \
        and free == [math.comb(n, n // 2) for n in range(1, 13)]
    report("classical sequences (Catalan, central binomial)", ok)


def _decreasing(rows):
    return all(abs(rows[i].delta) > abs(rows[i + 1].delta) for i in range(len(rows) - 1))


def test_03_fixed_endpoint_leading_term():
    wm1 = presets.preset_spec("watermelon", 1)
    r1 = asym.compare_series(wm1.spec, wm1.u, wm1.v, [16, 32, 64, 128])
    wm2 = presets.preset_spec("watermelon", 2)
    r2 = asym.compare_series(wm2.spec, wm2.u, wm2.v, list(range(20, 201, 20)))
    ok = _decreasing(r1.rows) and _decreasing(r2.rows) \
        and -1.6 <= r1.fitted_slope <= -0.6 and -1.6 <= r2.fitted_slope <= -0.6
    report("fixed-endpoint leading term (watermelon k=1,2)", ok,
           f"slopes {r1.fitted_slope:.3f}, {r2.fitted_slope:.3f}")


def test_04_free_endpoint_leading_term():
    f1 = presets.preset_spec("lock-step-free", 1, u=(1,))
    r1 = asym.compare_series(f1.spec, f1.u, None, list(range(16, 257, 16)))
    star = presets.preset_spec("star", 2)
    r2 = asym.compare_series(star.spec, star.u, None, list(range(16, 129, 16)))
    ok = _decreasing(r1.rows) and _decreasing(r2.rows) \
        and -1.5 <= r1.fitted_slope <= -0.5 and -1.5 <= r2.fitted_slope <= -0.5
    report("free-endpoint leading term (free k=1, star k=2)", ok,
           f"slopes {r1.fitted_slope:.3f}, {r2.fitted_slope:.3f}")


def test_04_free_endpoint_exponent_axis_steps():
    """The free-endpoint exponent -k^2/2 for axis steps: random turns at k = 2, 3."""
    slopes = []
    ok = True
    for u, grid in (((1, 2), [25, 50, 100, 200]), ((1, 2, 3), [20, 40, 80, 160])):
        inst = presets.preset_spec("random-turns-free", len(u), u=u)
        rep = asym.compare_series(inst.spec, inst.u, None, grid)
        ok &= _decreasing(rep.rows) and -1.5 <= rep.fitted_slope <= -0.5
        slopes.append(f"{rep.fitted_slope:.3f}")
    report("free-endpoint exponent, axis steps (random-turns-free k=2,3)", ok,
           "slopes " + ", ".join(slopes))


def test_05_preset_consistency():
    worst = 0.0
    count = 0
    for k in (1, 2, 3, 4):
        for inst in preset_instances(k):
            for n in (10, 100, 1000):
                special = presets.preset_asym(inst, n)
                if not special.supported:
                    continue
                general = asym.leading_order(inst.spec, inst.u, inst.v, inst.steps(n))
                diff = abs(special.log_value - general.log_value)
                worst = max(worst, diff / max(1.0, abs(general.log_value)))
                count += 1
    report("preset/general asymptotics consistency (k<=4)", worst <= 1e-10,
           f"{count} points, worst rel {worst:.2e}")


def test_06_exact_identity_suites():
    rng = random.Random(SEED)

    def rational(lo=-9):
        while True:
            x = Fraction(rng.randint(lo, 9), rng.randint(1, 9))
            if x != 0 and abs(x) != 1:
                return x

    ok = True
    for trial in range(20):
        k = 1 + trial % 4
        z = []
        while len(z) < k:
            x = rational()
            if all(x != y and x * y != 1 for y in z):
                z.append(x)
        t = []
        while len(t) < k:
            x = rational(lo=1)
            if all(x != y and x * y != 1 for y in t):
                t.append(x)
        ok &= detlab.check_typeC_det_identity(z).passed
        ok &= detlab.check_typeC_det_identity(t, half_integer=True).passed
        ok &= detlab.quotient_identity_check(z).passed
        ok &= detlab.mixed_vandermonde_det(sorted(t), rng.randint(0, k)) != 0
        if k <= 3:
            ok &= detlab.schur_orthogonal_identity_check(t, trial % 3).passed
    report("exact determinant identity suites (20 seeded instances)", bool(ok))


def test_07_determinant_asymptotics():
    ok = True
    details = []
    for k in (1, 2, 3):
        u = [2 * j - 1 for j in range(1, k + 1)]
        direction = [j + Fraction(37, 100) for j in range(k)]
        # exact eps^2 series: zero below the leading order, then leading * (1 + c1 eps^2)
        for rep in (detlab.dsin_leading_ratio(u, direction), detlab.gaussian_kernel_det_ratio(k)):
            details.append(str(rep.residual))
            ok &= rep.passed and rep.residual == 0
    # maximal-point sign identity across all presets
    rng = random.Random(SEED)
    for k in (1, 2, 3):
        for inst in preset_instances(k):
            u = random_chamber_point(rng, inst.spec)
            from chamberwalk.stepmodel import maximal_points
            for eps in maximal_points(inst.spec):
                phi = [0.2 + 0.15 * j + 0.05 * rng.random() for j in range(k)]
                ok &= detlab.sin_det_shift_residual(u, eps, phi) <= 1e-9
    report("determinant asymptotics (exact eps^2 series + sign identity)", bool(ok),
           "residuals " + ",".join(details))


def test_08_selberg_suite():
    def closed_form(weight):  # in floats at k = 1: the rational times unit^1
        return float(detlab._selberg_rational(1, weight)) * detlab._UNIT_SQUARED[weight] ** 0.5

    ok = abs(closed_form("laguerre") - math.sqrt(math.pi) / 2) < 1e-15
    ok &= abs(closed_form("hermite") - math.sqrt(2 * math.pi)) < 1e-12
    targets = {("laguerre", "one"): 3 * math.pi / 8,
               ("laguerre", "aomoto"): 5 * 3 * math.pi / 8,
               ("hermite", "one"): 4 * math.pi,
               ("hermite", "aomoto"): 4 * 4 * math.pi}
    for (weight, which), target in targets.items():
        ok &= abs(detlab.selberg_check(2, weight, which).params["target"] - target) < 1e-9
        for k in (1, 2, 3, 4):
            ok &= detlab.selberg_check(k, weight, which).passed
    report("Selberg integrals (closed forms + exact moments, residual 0)", bool(ok))


def test_09_second_order_diagnostic():
    """delta_n = c/n + O(1/n^2) with c = -9/4 for watermelon k=1: the Richardson value
    2 (n delta)_8000 - (n delta)_4000 cancels the 1/n^2 term."""
    wm1 = presets.preset_spec("watermelon", 1)
    rep = asym.compare_series(wm1.spec, wm1.u, wm1.v, [2000, 4000, 8000])
    n_delta = {row.n: row.n * row.delta for row in rep.rows}
    coeff = 2 * n_delta[8000] - n_delta[4000]
    ok = abs(coeff - (-9 / 4)) <= 1e-4 * 9 / 4
    report("second-order diagnostic (1/n coefficient vs -9/4)", ok,
           f"Richardson {coeff:.7f}")
