"""Walk model: step sets, weights, lattice and chamber geometry.

A model is fully described by three data: the atomic kind (axis or
diagonal), the dimension k, and the weight list (w_0, ..., w_d) where w_m
weights every composite step made of m atomic steps.  The composite step
generating function is then S(z) = P(A(z)) with P(x) = sum_m w_m x^m and
A(z) the atomic step generating function.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Optional, Sequence


class AtomicKind(Enum):
    """The two admissible atomic step sets."""

    AXIS = "axis"          # {+-e_1, ..., +-e_k}
    DIAGONAL = "diagonal"  # {sum_j eps_j e_j : eps_j in {-1, +1}}


def _as_fraction(x) -> Fraction:
    if isinstance(x, (Fraction, int, str)):
        return Fraction(x)
    raise TypeError(f"weight must be int, Fraction or 'p/q' string, got {type(x).__name__}")


@dataclass(frozen=True)
class CompositeSpec:
    """A composite step model: atomic kind, dimension, weight polynomial.

    ``weights[m]`` is the weight of each composite step consisting of m
    atomic steps.  At least one weight with m >= 1 must be positive,
    otherwise the walker never moves.
    """

    kind: AtomicKind
    k: int
    weights: tuple[Fraction, ...]

    def __init__(self, kind: AtomicKind, k: int, weights: Iterable) -> None:
        if k < 1:
            raise ValueError("dimension k must be positive")
        ws = [_as_fraction(w) for w in weights]
        if any(w < 0 for w in ws):
            raise ValueError("weights must be nonnegative")
        while len(ws) > 1 and ws[-1] == 0:
            ws.pop()
        if not any(w > 0 for w in ws[1:]):
            raise ValueError("at least one moving weight w_m > 0 with m >= 1 is required")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "weights", tuple(ws))

    @property
    def degree(self) -> int:
        """Largest atomic length d with w_d > 0."""
        return len(self.weights) - 1

    @property
    def parity(self) -> Optional[int]:
        """0 if every m with w_m > 0 is even, 1 if every such m is odd, None if mixed."""
        parities = {m % 2 for m, w in enumerate(self.weights) if w > 0}
        return parities.pop() if len(parities) == 1 else None

    def parity_allows(self, u: Sequence[int], v: Sequence[int], n: int) -> bool:
        """False only when the step parity rules out every n-step walk from u to v.

        When every weighted atomic length has one parity, a walk makes a
        number of atomic steps of the parity of n times it.  An axis step
        moves the coordinate sum by 1; a diagonal step moves every
        coordinate by 1, and the coordinates of a diagonal-lattice point
        share one parity, so the first coordinate carries it.
        """
        if self.parity is None:
            return True
        moved = sum(v) - sum(u) if self.kind is AtomicKind.AXIS else v[0] - u[0]
        return moved % 2 == n * self.parity % 2

    # -- weight polynomial -------------------------------------------------

    def poly(self, x: Fraction) -> Fraction:
        """P(x) = sum_m w_m x^m, evaluated exactly."""
        acc = Fraction(0)
        for w in reversed(self.weights):
            acc = acc * x + w
        return acc


def s_one(spec: CompositeSpec) -> Fraction:
    """S(1, ..., 1); equals P(2k) for axis steps and P(2^k) for diagonal."""
    if spec.kind is AtomicKind.AXIS:
        return spec.poly(Fraction(2 * spec.k))
    return spec.poly(Fraction(2 ** spec.k))


def curvature(spec: CompositeSpec) -> Fraction:
    """Lam = S''(1,...,1)/S(1,...,1), the one model constant of the asymptotic formulas.

    S'' = A''(1) * P'(A(1)) in any one variable at the all-ones point, where dA/dz_1 vanishes:
    A(1) = 2k and A'' = 2 for axis steps, A(1) = A'' = 2^k for diagonal steps."""
    a = Fraction(2 * spec.k if spec.kind is AtomicKind.AXIS else 2 ** spec.k)
    second = 2 if spec.kind is AtomicKind.AXIS else a
    p_prime = sum(m * w * a ** (m - 1) for m, w in enumerate(spec.weights[1:], 1))
    return second * p_prime / spec.poly(a)


def _maximal_signs(spec: CompositeSpec) -> tuple[int, ...]:
    # the values of A(eps)/A(1) at a maximal point: -1 counts only when
    # every weighted atomic length has one parity, so |P(-x)| = P(x)
    return (1, -1) if spec.parity is not None else (1,)


def maximal_points(spec: CompositeSpec) -> tuple[tuple[int, ...], ...]:
    """All sign vectors eps with |S(eps)| = S(1, ..., 1), from the step parity.

    The sign vector eps stands for the angle vector with phi_j = 0 when
    eps_j = +1 and phi_j = pi when eps_j = -1.  Weights are nonnegative, so
    |P(x)| <= P(|x|), and eps is maximal exactly when A(eps) = +-A(1) with
    a sign from ``_maximal_signs``.  A(eps) is 2 sum(eps) for axis steps,
    so only eps = +-(1, ..., 1) qualify, and 2^k prod(eps) for diagonal
    steps, so every eps whose product is such a sign does.
    """
    signs = _maximal_signs(spec)
    if spec.kind is AtomicKind.AXIS:
        return tuple((s,) * spec.k for s in signs)
    return tuple(eps for eps in itertools.product((1, -1), repeat=spec.k)
                 if math.prod(eps) in signs)


def maximal_point_count(spec: CompositeSpec) -> int:
    """len(maximal_points(spec)) in closed form, without listing 2^k points.

    Each sign is taken by one axis sign vector and by 2^(k-1) diagonal ones.
    """
    per_sign = 1 if spec.kind is AtomicKind.AXIS else 2 ** (spec.k - 1)
    return per_sign * len(_maximal_signs(spec))


# ---------------------------------------------------------------------------
# lattice and chamber predicates


def lattice_contains(spec: CompositeSpec, coords: Sequence[int]) -> bool:
    """Membership in the Z-lattice spanned by the atomic step set.

    Diagonal steps span the sublattice of points with all coordinates of
    equal parity; axis steps span all of Z^k.
    """
    if len(coords) != spec.k:
        raise ValueError(f"expected {spec.k} coordinates, got {len(coords)}")
    if spec.kind is AtomicKind.AXIS:
        return all(c == int(c) for c in coords)
    parity = coords[0] % 2
    # a non-integer first coordinate has a parity outside {0, 1}
    return parity in (0, 1) and all(c % 2 == parity for c in coords)


def in_chamber(coords: Sequence[int]) -> bool:
    """True iff 0 < x_1 < x_2 < ... < x_k strictly."""
    prev = 0
    for c in coords:
        if c <= prev:
            return False
        prev = c
    return True


def check_chamber_point(spec: CompositeSpec, coords: Sequence[int]) -> tuple[int, ...]:
    """Validate a chamber point against the spec; returns it as a tuple."""
    pt = tuple(int(c) for c in coords)
    if len(pt) != spec.k:
        raise ValueError(f"expected {spec.k} coordinates, got {len(pt)}")
    if not in_chamber(pt):
        raise ValueError(f"{pt} is not strictly inside the chamber")
    if not lattice_contains(spec, coords):
        raise ValueError(f"{tuple(coords)} is not on the walk lattice")
    return pt


def check_walk_length(n: int) -> int:
    """Validate a walk length; returns it."""
    if n < 0:
        raise ValueError(f"walk length n must be >= 0, got {n}")
    return n
