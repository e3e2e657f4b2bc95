"""The benchmark's operations: CLI argument lists drawn from a seed, with references.

    python3 bench/workloads.py WORKLOAD SEED

prints the workload's operations (``checks.Op``) as one JSON list.  The
benchmark runs this in a child process, so that the package and the
reference work never load into the runner.

Operation sizes are fixed.  The seed draws only the walk endpoints, near
the walls (the largest coordinate is fixed, the others are drawn below it,
so the reachable box and with it the work stays the same from seed to
seed), and the ``verify`` seed.  In the count workloads the start point is
fixed per operation and the seed draws the end point: the work of the
confined DP, and of the free-end reflection loop, depends on the start
point, so each operation then does the same work for every seed.

Every expected value is computed here, before any operation is timed, by a
route other than the one the operation times:

* lock-step counts: the determinant in ``reference``;
* other reflection counts: the program's confined DP;
* DP counts: the benchmark's own reflection kernel in ``reference``;
* asymptotic estimates: the independently coded preset formulas;
* ``verify``: its JSON ``pass`` field; refusals and usage errors: the exit
  code and a stderr without a traceback.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
import sys
from fractions import Fraction
from typing import Optional

import reference
from checks import Op
from chamberwalk import exact, presets
from chamberwalk.stepmodel import AtomicKind, CompositeSpec


def _csv(values) -> str:
    return ",".join(str(x) for x in values)


def _weights(text: str) -> list[Fraction]:
    return [Fraction(w) for w in text.split(",")]


def _spec(kind: str, k: int, weights: str) -> CompositeSpec:
    return CompositeSpec(AtomicKind(kind), k, _weights(weights))


def _near_wall(rng: random.Random, k: int, top: int, step: int) -> tuple[int, ...]:
    """A chamber point with largest coordinate ``top``; the rest drawn below it."""
    return tuple(sorted(rng.sample(range(top - step, 0, -step), k - 1))) + (top,)


def _endpoints(rng: random.Random, kind: str, k: int, weights: str, n: int, top: int,
               start_rng: Optional[random.Random] = None):
    """Start and end point with the parity a positive count needs.

    The start point is drawn from ``start_rng`` when one is given.
    """
    step = 2 if kind == "diagonal" else 1
    parities = {m % 2 for m, w in enumerate(_weights(weights)) if m and w}
    u = _near_wall(start_rng or rng, k, top, step)
    for _ in range(1000):
        v = _near_wall(rng, k, top, step)
        # diagonal points on one lattice always differ by even coordinates
        if kind == "diagonal" or len(parities) > 1 \
                or (sum(u) + sum(v)) % 2 == n * min(parities) % 2:
            return u, v
    raise ValueError("no end point with the right parity")


def _n_values(n_text: str) -> list[int]:
    if ":" not in n_text:
        return [int(n_text)]
    start, stop, step = (int(p) for p in n_text.split(":"))
    return list(range(start, stop + 1, step))


def _log(count) -> float:
    count = Fraction(count)
    num, den = count.numerator, count.denominator
    shift_n, shift_d = max(num.bit_length() - 64, 0), max(den.bit_length() - 64, 0)
    return math.log(num >> shift_n) - math.log(den >> shift_d) + (shift_n - shift_d) * math.log(2)


# ---------------------------------------------------------------------------
# operations


def _count_op(name, kind, k, weights, u, v, n_text, method, refs) -> Op:
    argv = ["count", "--kind", kind, "--k", str(k), "--weights", weights, "--u", _csv(u)]
    argv += ["--v", _csv(v)] if v is not None else []
    argv += ["--n", n_text, "--method", method]
    probe = None
    if method == "reflection":
        probe = [kind, str(k), weights, _csv(u), _csv(v or u), str(max(_n_values(n_text)))]
    return Op(name, argv, ["counts", _n_values(n_text), [str(r) for r in refs]],
              kernel_probe=probe)


def _dp_reference(kind, k, weights, u, v, n):
    spec = _spec(kind, k, weights)
    if v is None:
        return exact.count_confined_free(spec, u, n)
    return exact.count_confined(spec, u, v, n)


def _lockstep_reference(u, v, n):
    return reference.lockstep_free_count(u, n) if v is None else reference.lockstep_count(u, v, n)


def _count_ops(rng, cases, method: str) -> list[Op]:
    """Count operations by ``method``, each with its reference counts.

    Lock-step counts are checked against the determinant, other reflection
    counts against the program's DP, other DP counts against the
    benchmark's reflection kernel.
    """
    ops = []
    for name, kind, k, weights, top, n_text, free in cases:
        ns = _n_values(n_text)
        start = random.Random(name)
        if free:
            u, v = _near_wall(start, k, top, 2 if kind == "diagonal" else 1), None
        else:
            u, v = _endpoints(rng, kind, k, weights, ns[-1], top, start)
        if kind == "diagonal" and weights == "0,1":
            refs = [_lockstep_reference(u, v, n) for n in ns]
        elif method == "reflection":
            refs = [_dp_reference(kind, k, weights, u, v, n) for n in ns]
        else:
            refs = [reference.reflection_count(kind, _weights(weights), u, v, n) for n in ns]
        ops.append(_count_op(name, kind, k, weights, u, v, n_text, method, refs))
    return ops


# name, kind, k, weights, top coordinate, n, free endpoint
REFLECTION_DEEP = [
    ("tangled-isolated-k2", "axis", 2, "1,1,1", 4, "26", False),
    ("tangled-no-isolated-k2", "axis", 2, "0,1,1", 4, "26", False),
    ("random-turns-k3", "axis", 3, "0,1", 5, "18", False),
    ("rational-axis-k2", "axis", 2, "1/2,1/3", 4, "26", False),
    ("mixed-diagonal-k2", "diagonal", 2, "0,1,1", 5, "20", False),
    ("tangled-isolated-k2-range", "axis", 2, "1,1,1", 4, "10:26:8", False),
]
SIGNED_SUM_WIDE = [
    ("lock-step-k6", "diagonal", 6, "0,1", 13, "100", False),
    ("lock-step-k6-b", "diagonal", 6, "0,1", 13, "100", False),
    ("lock-step-free-k3", "diagonal", 3, "0,1", 7, "30", True),
    ("lock-step-free-k4", "diagonal", 4, "0,1", 9, "14", True),
    ("random-turns-free-k2", "axis", 2, "0,1", 4, "30", True),
]
DP_ORACLE = [
    ("lock-step-k3", "diagonal", 3, "0,1", 7, "60", False),
    ("tangled-isolated-k2", "axis", 2, "1,1,1", 4, "50", False),
    ("random-turns-k3", "axis", 3, "0,1", 5, "40", False),
    ("rational-axis-k2", "axis", 2, "1/2,1/3", 4, "50", False),
    ("lock-step-free-k4", "diagonal", 4, "0,1", 9, "30", True),
    ("tangled-no-isolated-k2-range", "axis", 2, "0,1,1", 4, "10:50:10", False),
]


def _short_ops(rng: random.Random, seed: int) -> list[Op]:
    ops = [Op("verify", ["verify", "--suite", "oracle,det,selberg,dsin,signs,consistency",
                         "--seed", str(seed)], ["verify"]),
           Op("verify-schur", ["verify", "--suite", "schur", "--seed", str(seed)], ["verify"],
              known_defect="schur-zero-division")]

    drawn = {"lock-step-fixed": _endpoints(rng, "diagonal", 2, "0,1", 20, 5),
             "lock-step-free": (_near_wall(rng, 2, 5, 2), None),
             "random-turns-fixed": _endpoints(rng, "axis", 2, "0,1", 20, 4),
             "random-turns-free": (_near_wall(rng, 2, 4, 1), None)}
    for name in presets.PRESET_NAMES:
        n = 10 if name == "watermelon" else 12 if name.startswith("tangled") else 20
        u, v = drawn.get(name, (None, None))
        inst = presets.preset_spec(name, 2, u=u, v=v)
        steps = inst.steps(n)
        spec = inst.spec
        if spec.kind is AtomicKind.DIAGONAL:
            ref = _lockstep_reference(inst.u, inst.v, steps)
        elif inst.v is None:
            ref = exact.count_confined_free(spec, inst.u, steps)
        else:
            ref = exact.count_confined(spec, inst.u, inst.v, steps)
        argv = ["preset", name, "--k", "2", "--n", str(n)]
        if u is not None:
            argv += ["--u", _csv(u)] + (["--v", _csv(v)] if v is not None else [])
        ops.append(Op(f"preset-{name}", argv, ["preset", str(ref)]))

    u, v = _endpoints(rng, "axis", 2, "1,1,1", 500, 4)
    est = presets.preset_asym(presets.preset_spec("tangled-isolated", 2, u=u, v=v), 500)
    ops.append(Op("asym-fixed", ["asym", "--kind", "axis", "--k", "2", "--weights", "1,1,1",
                                 "--u", _csv(u), "--v", _csv(v), "--n", "500"],
                  ["asym", est.log10_value]))
    u = _near_wall(rng, 3, 7, 2)
    est = presets.preset_asym(presets.preset_spec("lock-step-free", 3, u=u), 500)
    ops.append(Op("asym-free", ["asym", "--kind", "diagonal", "--k", "3", "--weights", "0,1",
                                "--u", _csv(u), "--n", "500"], ["asym", est.log10_value]))

    u, v = _endpoints(rng, "diagonal", 2, "0,1", 20, 5)
    inst = presets.preset_spec("lock-step-fixed", 2, u=u, v=v)
    rows = [(n, _log(reference.lockstep_count(u, v, n)), presets.preset_asym(inst, n).log_value)
            for n in (20, 40, 60, 80)]
    ops.append(Op("compare-fixed", ["compare", "--kind", "diagonal", "--k", "2", "--weights",
                                    "0,1", "--u", _csv(u), "--v", _csv(v),
                                    "--grid", "20:80:20"], ["compare", rows]))
    u = _near_wall(rng, 2, 4, 1)
    inst = presets.preset_spec("random-turns-free", 2, u=u)
    rows = [(n, _log(exact.count_confined_free(inst.spec, u, n)),
             presets.preset_asym(inst, n).log_value) for n in (8, 16, 24)]
    ops.append(Op("compare-free", ["compare", "--kind", "axis", "--k", "2", "--weights", "0,1",
                                   "--u", _csv(u), "--grid", "8:24:8"], ["compare", rows]))

    u, v = _endpoints(rng, "axis", 3, "0,1", 400, 5)
    ops.append(Op("budget-refusal", ["count", "--kind", "axis", "--k", "3", "--weights", "0,1",
                                     "--u", _csv(u), "--v", _csv(v), "--n", "400",
                                     "--method", "dp"], ["exit", 3, "budget"]))
    u, v = _endpoints(rng, "axis", 2, "1,1,1", 0, 4)
    signatures = {"dp": "negative-n-dp-count", "reflection": "negative-n-recursion",
                  "both": "negative-n-recursion"}
    for method, signature in signatures.items():
        ops.append(Op(f"negative-n-{method}",
                      ["count", "--kind", "axis", "--k", "2", "--weights", "1,1,1",
                       "--u", _csv(u), "--v", _csv(v), "--n", "-1", "--method", method],
                      ["exit", 2, ""], known_defect=signature))
    return ops


WORKLOADS = {
    "reflection-deep": lambda rng, seed: _count_ops(rng, REFLECTION_DEEP, "reflection"),
    "signed-sum-wide": lambda rng, seed: _count_ops(rng, SIGNED_SUM_WIDE, "reflection"),
    "dp-oracle": lambda rng, seed: _count_ops(rng, DP_ORACLE, "dp"),
    "short-ops": _short_ops,
}


def build(workload: str, seed: int) -> list[Op]:
    """The workload's operations for this seed, each with its expected outcome."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"), seed)


if __name__ == "__main__":
    ops = build(sys.argv[1], int(sys.argv[2]))
    print(json.dumps([dataclasses.asdict(op) for op in ops]))
