"""Named verification suites: seeded, deterministic, machine-readable.

Each suite returns a list of JSON-ready records with a ``pass`` field; a
suite passes iff every record does.  The CLI maps suite failures to exit
code 1.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable

from chamberwalk import asym, detlab, exact, presets
from chamberwalk.stepmodel import CompositeSpec, lattice_contains, maximal_points


def run_suite(name: str, seed: int) -> list[dict]:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    return SUITES[name](seed)


# ---------------------------------------------------------------------------
# helpers


def random_chamber_point(rng: random.Random, spec: CompositeSpec) -> tuple[int, ...]:
    """A random lattice point strictly inside the chamber, below 2k + 8."""
    while True:
        coords = sorted(rng.sample(range(1, 8 + spec.k * 2), spec.k))
        pt = tuple(coords)
        if lattice_contains(spec, pt):
            return pt


def _record(identity: str, params: dict, passed: bool, residual) -> dict:
    """A check record in the layout of ``detlab.IdentityReport.to_json``."""
    return {"identity": identity, "params": params, "pass": passed, "residual": residual}


def preset_instances(k: int) -> list:
    """Every preset at dimension k with its default end points."""
    return [presets.preset_spec(name, k) for name in presets.PRESET_NAMES]


# ---------------------------------------------------------------------------
# suites


def suite_oracle(seed: int) -> list[dict]:
    """Reflection signed sum against the confined DP on randomized endpoints."""
    rng = random.Random(seed)
    records = []
    for k in (1, 2):
        for inst in preset_instances(k):
            spec = inst.spec
            for _ in range(3):
                u = random_chamber_point(rng, spec)
                v = random_chamber_point(rng, spec)
                for n in (0, 1, 3, 5):
                    a = exact.count_reflection(spec, u, v, n)
                    b = exact.count_confined(spec, u, v, n)
                    records.append(_record("oracle-equivalence", {"preset": inst.name, "k": k,
                                           "u": u, "v": v, "n": n}, a == b,
                                           exact.format_count(a - b)))
    return records


def suite_det(seed: int) -> list[dict]:
    """Exact determinant identities at seeded random rational points."""
    rng = random.Random(seed)
    records = []
    for k in (1, 2, 3, 4):
        for _ in range(5):
            z = _distinct_fractions(rng, k, avoid_unit=True)
            for report in (
                detlab.check_typeC_det_identity(z),
                detlab.check_typeC_det_identity(_distinct_fractions(rng, k, positive=True),
                                                half_integer=True),
                detlab.quotient_identity_check(z),
            ):
                records.append(report.to_json())
            u = sorted({Fraction(rng.randint(1, 30), rng.randint(1, 5)) for _ in range(2 * k)})[:k]
            if len(u) == k:
                val = detlab.mixed_vandermonde_det(u, rng.randint(0, k))
                records.append(_record("mixed-vandermonde-nonzero", {"k": k}, val != 0, 0))
    return records


def _distinct_fractions(rng: random.Random, k: int, positive: bool = False,
                        avoid_unit: bool = False) -> list[Fraction]:
    out: list[Fraction] = []
    while len(out) < k:
        x = Fraction(rng.randint(1 if positive else -9, 9), rng.randint(1, 9))
        if x == 0 or (avoid_unit and abs(x) == 1):
            continue
        if any(x == y or x * y == 1 for y in out):
            continue
        out.append(x)
    return out


def suite_schur(seed: int) -> list[dict]:
    """Box-bounded Schur summation against the character ratio, k <= 3, c <= 2."""
    rng = random.Random(seed)
    records = []
    for k in (1, 2, 3):
        for c in (0, 1, 2):
            # t_j = 1 zeroes the character ratio's denominator
            t = _distinct_fractions(rng, k, positive=True, avoid_unit=True)
            records.append(detlab.schur_orthogonal_identity_check(t, c).to_json())
    return records


def suite_selberg(seed: int) -> list[dict]:
    """Selberg closed forms and Aomoto ratios against their exact moment integrals."""
    records = []
    for k in (1, 2):
        for weight in ("laguerre", "hermite"):
            for which in ("one", "aomoto"):
                records.append(detlab.selberg_check(k, weight, which).to_json())
    return records


def suite_dsin(seed: int) -> list[dict]:
    """The eps^2 decay of the determinant asymptotics, as exact series coefficients."""
    rng = random.Random(seed)
    records = []
    for k in (1, 2, 3):
        u = sorted(rng.sample(range(1, 12), k))
        direction = [j + Fraction(rng.randint(1, 9), 10) for j in range(k)]
        for identity, params, rep in (
                ("dsin-decay", {"k": k, "u": u}, detlab.dsin_leading_ratio(u, direction)),
                ("gaussian-kernel-decay", {"k": k}, detlab.gaussian_kernel_det_ratio(k))):
            records.append(_record(identity, params, rep.passed, str(rep.residual)))
    return records


def suite_signs(seed: int) -> list[dict]:
    """Maximal-point shift identity for the sin determinant, all presets."""
    rng = random.Random(seed)
    records = []
    for k in (1, 2, 3):
        for inst in preset_instances(k):
            spec = inst.spec
            u = random_chamber_point(rng, spec)
            for eps in maximal_points(spec):
                phi = [0.2 + 0.1 * rng.random() + 0.15 * j for j in range(k)]
                residual = detlab.sin_det_shift_residual(u, eps, phi)
                records.append(_record("sin-det-shift",
                                       {"preset": inst.name, "k": k, "u": u, "signs": eps},
                                       residual <= 1e-9, residual))
    return records


def suite_consistency(seed: int) -> list[dict]:
    """Preset formulas against the general evaluator, relative 1e-10 in log."""
    records = []
    for k in (1, 2, 3, 4):
        for inst in preset_instances(k):
            for n in (10, 100, 1000):
                specialized = presets.preset_asym(inst, n)
                general = asym.leading_order(inst.spec, inst.u, inst.v, inst.steps(n))
                diff = abs(specialized.log_value - general.log_value)
                tol = 1e-10 * max(1.0, abs(general.log_value))
                records.append(_record("preset-consistency", {"preset": inst.name, "k": k, "n": n},
                                       diff <= tol, diff))
    return records


SUITES: dict[str, Callable[[int], list[dict]]] = {
    "oracle": suite_oracle,
    "det": suite_det,
    "schur": suite_schur,
    "selberg": suite_selberg,
    "dsin": suite_dsin,
    "signs": suite_signs,
    "consistency": suite_consistency,
}
