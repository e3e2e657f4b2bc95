"""Named walk models and their independently coded asymptotic formulas.

One table, ``_PRESETS``, gives each preset its composite spec, its default
end points and its length convention (the watermelon parameter n means 2n
composite steps).
The per-preset asymptotic evaluators are written directly from the
specialized closed forms, independent of the general evaluators in
``asym``, so the two can be cross-checked against each other.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from chamberwalk.asym import AsymptoticEstimate, _log_factorial_odd, _squared_difference_product
from chamberwalk.stepmodel import AtomicKind, CompositeSpec, check_chamber_point, check_walk_length

# name: (atomic kind, weights, fixed end point?, composite steps per unit of n).  A walk
# starts by default at the wall, the chamber's lowest lattice point (walker heights shifted
# by +1): (1, 3, ..., 2k-1) for diagonal steps, (1, 2, ..., k) for axis steps.  A fixed end
# point is by default the start.
_PRESETS = {
    "lock-step-fixed": (AtomicKind.DIAGONAL, (0, 1), True, 1),
    "watermelon": (AtomicKind.DIAGONAL, (0, 1), True, 2),
    "lock-step-free": (AtomicKind.DIAGONAL, (0, 1), False, 1),
    "star": (AtomicKind.DIAGONAL, (0, 1), False, 1),
    "random-turns-fixed": (AtomicKind.AXIS, (0, 1), True, 1),
    "random-turns-free": (AtomicKind.AXIS, (0, 1), False, 1),
    "tangled-isolated": (AtomicKind.AXIS, (1, 1, 1), True, 1),
    "tangled-no-isolated": (AtomicKind.AXIS, (0, 1, 1), True, 1),
}
PRESET_NAMES = tuple(_PRESETS)


@dataclass(frozen=True)
class PresetInstance:
    name: str
    spec: CompositeSpec
    u: tuple[int, ...]
    v: Optional[tuple[int, ...]]        # None for free-endpoint presets
    length_scale: int                   # composite steps per unit of the n parameter

    def steps(self, n: int) -> int:
        # checked before scaling: the error quotes the n typed
        return self.length_scale * check_walk_length(n)


def preset_spec(name: str, k: int, u: Optional[Sequence[int]] = None,
                v: Optional[Sequence[int]] = None) -> PresetInstance:
    """Builds a preset instance; endpoints may override the defaults of ``_PRESETS``."""
    if k < 1:
        raise ValueError("k must be >= 1")
    try:
        kind, weights, fixed_end, length_scale = _PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown preset {name!r}") from None
    spec = CompositeSpec(kind, k, weights)
    gap = 2 if kind is AtomicKind.DIAGONAL else 1
    wall = tuple(range(1, gap * k + 1, gap))
    u = check_chamber_point(spec, wall if u is None else u)
    if fixed_end:
        v = check_chamber_point(spec, wall if v is None else v)
    elif v is not None:
        raise ValueError(f"preset {name!r} has a free end point")
    return PresetInstance(name=name, spec=spec, u=u, v=v, length_scale=length_scale)


# ---------------------------------------------------------------------------
# specialized asymptotic formulas


def _fixed_endpoint_log(u: Sequence[int], v: Sequence[int]) -> float:
    # the squared-difference factors are priced before the k-fold product is formed
    logs = math.log(_squared_difference_product(u)) + math.log(_squared_difference_product(v))
    return logs + math.log(math.prod(uj * vj for uj, vj in zip(u, v)))


def _free_endpoint_log(u: Sequence[int]) -> float:
    k = len(u)
    out = math.log(_squared_difference_product(u))
    for j in range(1, k + 1):
        out += math.log(u[j - 1]) + math.lgamma(j) - math.lgamma(2 * j)
    return out


def preset_asym(instance: PresetInstance, n: int) -> AsymptoticEstimate:
    """Leading term of the preset's specialized asymptotic formula (log space); none at n = 0."""
    check_walk_length(n)
    k = instance.spec.k
    name = instance.name
    u, v = instance.u, instance.v
    log2, logpi = math.log(2), math.log(math.pi)

    odd = tuple(2 * j - 1 for j in range(1, k + 1))
    # for random turns, the exponent on k/n = S/(n S'') with a free end is k^2/2, as the k=1
    # central binomial benchmark confirms
    n_power = -Fraction(k * k, 2) if v is None else -Fraction(2 * k * k + k, 2)

    if name == "watermelon" and u == odd and v == odd:
        # n counts half-lengths: 2n composite steps
        reps, rate = n * k, math.log(4)
        constant_log = (k * k - k) * log2 - (k / 2) * logpi + _log_factorial_odd(k)
    elif name == "star" and u == odd:
        reps, rate = n * k, log2
        constant_log = (k * k - k / 2) * log2 - (k / 2) * logpi \
            + sum(math.lgamma(j) for j in range(1, k + 1))
    elif name in _PRESETS and instance.spec.kind is AtomicKind.DIAGONAL:
        # a watermelon off the wall takes the lock-step form at length 2n, its n^power turned
        # into (2n)^power; for lock-step the added term is -0.0, which changes no float
        reps, rate = instance.steps(n) * k, log2
        if v is None:
            constant_log = (k / 2) * log2 - (k / 2) * logpi + _free_endpoint_log(u)
        else:
            constant_log = (3 * k / 2) * log2 - (k / 2) * logpi \
                + _fixed_endpoint_log(u, v) - _log_factorial_odd(k) \
                + (instance.length_scale - 1) * float(n_power) * log2
    elif name in _PRESETS:
        # S(1), and k/(n Lam) = scale/n: 2k and k for random turns, S(1)/(2 + 8k) for tangled
        # diagrams; at the default endpoints u = v = (1..k) the endpoint factor collapses to
        # prod (2j-1)!, matching the printed forms
        s1 = {"tangled-isolated": 1 + 2 * k + 4 * k * k,
              "tangled-no-isolated": 2 * k + 4 * k * k}.get(name, 2 * k)
        scale = k if name.startswith("random-turns") else s1 / (2 + 8 * k)
        reps, rate = n, math.log(s1)
        constant_log = (log2 if name == "random-turns-fixed" else 0.0) \
            + (k / 2) * (log2 - logpi) - float(n_power) * math.log(scale)
        constant_log = constant_log + _free_endpoint_log(u) if v is None \
            else constant_log + _fixed_endpoint_log(u, v) - _log_factorial_odd(k)
    else:
        raise ValueError(f"unknown preset {name!r}")

    if reps > sys.float_info.max:  # the growth S(1)^steps is e^(reps * rate)
        raise ValueError("walk length n is past a float's range")
    supported = n > 0 and (v is None or instance.spec.parity_allows(u, v, instance.steps(n)))
    log_value = reps * rate + float(n_power) * math.log(n) + constant_log if supported else math.nan
    return AsymptoticEstimate(log_value=log_value, supported=supported)
