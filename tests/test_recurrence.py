"""A recurrence oracle past the confined DP's edge.

For fixed k, end points and weights, a count is a finite sum of products of
binomials in n, so it satisfies a linear recurrence with polynomial
coefficients (Stanley 1980; Zeilberger 1990).  The recurrence is guessed
from the confined DP's counts alone, at even n = 2h, or at every n for a
model with a step that stays put: the smallest order r and degree d whose
equations, with at least ``SPARE`` more than unknowns, have a
one-dimensional kernel modulo the prime 2^61 - 1, then that kernel over
``Fraction``s.  Every term it extends to must be an integer, and the
reflection routes must meet it at lengths the DP cannot reach.  A guessed
recurrence is a conjecture, certified only by its held-out terms, so none
enters the package.

Its coefficients also give the asymptotics exactly (Wimp-Zeilberger 1985):
putting a_h ~ rho^h h^alpha (1 + s/h) into the recurrence, the powers h^d,
h^(d-1) and h^(d-2) must vanish.  The first two hold for the paper's growth
and exponent, the third fixes the 1/n coefficient, which the counts the
recurrence extends to must approach.
"""

import math
from fractions import Fraction

import pytest

from chamberwalk import asym, exact, presets
from chamberwalk.stepmodel import s_one

PRIME = 2 ** 61 - 1
SPARE = 4


def _rows(terms, r, d):
    """The equations sum_(i<=r, j<=d) c_ij h^j a_(h+i) = 0, one for each h with a_(h+r) known."""
    return [[h ** j * terms[h + i] for i in range(r + 1) for j in range(d + 1)]
            for h in range(len(terms) - r)]


def _rank_mod_prime(rows):
    """The rank of an integer system modulo ``PRIME``, by Gauss-Jordan elimination."""
    rows = [[x % PRIME for x in row] for row in rows]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inverse = pow(rows[rank][col], -1, PRIME)
        rows[rank] = [x * inverse % PRIME for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                rows[i] = [(x - rows[i][col] * y) % PRIME for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _kernel(rows):
    """The one kernel vector of an exact system, scaled to coprime integers."""
    rows = [[Fraction(x) for x in row] for row in rows]
    width, pivots = len(rows[0]), []
    for col in range(width):
        pivot = next((i for i in range(len(pivots), len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        top = len(pivots)
        rows[top], rows[pivot] = rows[pivot], rows[top]
        rows[top] = [x / rows[top][col] for x in rows[top]]
        for i in range(len(rows)):
            if i != top and rows[i][col]:
                rows[i] = [x - rows[i][col] * y for x, y in zip(rows[i], rows[top])]
        pivots.append(col)
    free = [col for col in range(width) if col not in pivots]
    assert len(free) == 1, "the kernel is not one-dimensional"
    vector = [Fraction(0)] * width
    vector[free[0]] = Fraction(1)
    for i, col in enumerate(pivots):
        vector[col] = -rows[i][free[0]]
    scale = math.lcm(*(x.denominator for x in vector))
    ints = [int(x * scale) for x in vector]
    return [x // math.gcd(*ints) for x in ints]


def guess(terms):
    """The smallest (r, d), r <= 6 and d <= 8, by r + d and then r, and its coefficient lists,
    c_ij at [i][j]."""
    shapes = sorted(((r, d) for r in range(1, 7) for d in range(9)),
                    key=lambda s: (s[0] + s[1], s[0]))
    for r, d in shapes:
        unknowns = (r + 1) * (d + 1)
        if len(terms) - r < unknowns + SPARE:
            continue
        if _rank_mod_prime(_rows(terms, r, d)) < unknowns:
            flat = _kernel(_rows(terms, r, d))
            return r, d, [flat[i * (d + 1):(i + 1) * (d + 1)] for i in range(r + 1)]
    raise AssertionError("no recurrence within the search bounds")


def extend(terms, coefficients, length):
    """The sequence run on to ``length`` terms; each new term must come out an integer."""
    terms = list(terms)
    r = len(coefficients) - 1
    while len(terms) < length:
        h = len(terms) - r
        p = [sum(c * h ** j for j, c in enumerate(poly)) for poly in coefficients]
        assert p[r] != 0, f"the leading coefficient vanishes at h = {h}"
        numerator = -sum(p[i] * terms[h + i] for i in range(r))
        assert numerator % p[r] == 0, f"term {len(terms)} is not an integer"
        terms.append(numerator // p[r])
    return terms


def inverse_h_coefficient(coefficients, rho, alpha):
    """s of a_h ~ rho^h h^alpha (1 + s/h), after asserting that rho and alpha make the powers
    h^d and h^(d-1) vanish; the power h^(d-2) is linear in s."""
    d = len(coefficients[0]) - 1
    terms = list(enumerate(coefficients))
    assert sum(rho ** i * p[d] for i, p in terms) == 0
    assert sum(rho ** i * (p[d - 1] + alpha * i * p[d]) for i, p in terms) == 0
    slope = sum(i * rho ** i * p[d] for i, p in terms)
    assert slope != 0, "rho is a multiple root"
    alpha_choose_2 = alpha * (alpha - 1) / 2
    return sum(rho ** i * (p[d - 2] + alpha * i * p[d - 1] + alpha_choose_2 * i * i * p[d])
               for i, p in terms) / slope


@pytest.mark.parametrize("name,u,step,seeds,shape,checks,c,richardson", [
    # n = 502 is the signed sum's last answered length
    ("random-turns-fixed", (1, 2, 3), 2, 24, (2, 3), (100, 200, 502), Fraction(-273, 4),
     4000),
    ("lock-step-fixed", (1, 3, 7), 2, 24, (2, 4), (1000, 2000), Fraction(-327, 4), 4000),
    ("random-turns-free", (1, 2, 3), 2, 24, (2, 3), (200, 400), Fraction(-63, 4), 4000),
    # from the wall, where a tangled diagram's walk starts and ends
    ("tangled-isolated", (1, 2), 1, 70, (6, 5), (200, 1000), Fraction(-625, 72), 2000),
    # the DP's last lengths: 3160 and 244 for random turns at k = 1 and 2, 1580 and 122 for
    # tangled diagrams
    ("random-turns-fixed", (1,), 2, 24, (1, 1), (3200, 4000), Fraction(-9, 4), 2000),
    ("random-turns-fixed", (1, 2), 2, 40, (1, 2), (1000, 4000), Fraction(-35, 2), 2000),
    ("random-turns-free", (1,), 2, 24, (1, 1), (3200, 4000), Fraction(-1, 4), 2000),
    ("random-turns-free", (1, 2), 2, 40, (1, 2), (1000, 4000), Fraction(-7, 2), 2000),
    ("tangled-isolated", (1,), 1, 40, (3, 3), (1600, 2000), Fraction(-87, 80), 2000),
    ("tangled-no-isolated", (1,), 1, 40, (3, 3), (1600, 2000), Fraction(-6, 5), 2000),
    ("tangled-no-isolated", (1, 2), 1, 50, (5, 5), (200, 400), Fraction(-485, 54), 2000),
], ids=["random-turns-fixed", "lock-step", "random-turns-free", "tangled-isolated",
        "random-turns-fixed-k1", "random-turns-fixed-k2", "random-turns-free-k1",
        "random-turns-free-k2", "tangled-isolated-k1", "tangled-no-isolated-k1",
        "tangled-no-isolated-k2"])
def test_reflection_meets_the_dp_recurrence_past_the_dp(name, u, step, seeds, shape, checks,
                                                        c, richardson):
    """The DP's counts at n = 0, step, 2*step, ..., fix a recurrence in h = n/step; the
    reflection route's counts at lengths far past the DP's edge are its terms.

    The recurrence holds for the paper's growth rho = S(1)^step and exponent alpha, and gives
    delta = exact/asym - 1 ~ c/n with an exact c: the Richardson value 2*(n delta)_2n -
    (n delta)_n of the counts it extends to, at n = ``richardson``, is c to 1e-3."""
    free = name.endswith("free")
    spec = presets.preset_spec(name, len(u), u, None if free else u).spec
    ends = (spec, u) if free else (spec, u, u)
    dp, reflection = (exact.count_confined_free, exact.count_reflection_free) if free \
        else (exact.count_confined, exact.count_reflection)
    terms = [dp(*ends, step * h) for h in range(seeds)]
    r, d, coefficients = guess(terms)
    assert (r, d) == shape
    terms = extend(terms, coefficients, 2 * richardson // step + 1)
    for n in checks:
        assert reflection(*ends, n) == terms[n // step]

    k = len(u)
    alpha = -Fraction(k * k, 2) if free else -Fraction(2 * k * k + k, 2)
    assert step * inverse_h_coefficient(coefficients, s_one(spec) ** step, alpha) == c

    def n_delta(n):
        estimate = asym.leading_order(spec, u, None if free else u, n)
        return n * (math.exp(asym.log_exact(terms[n // step]) - estimate.log_value) - 1)

    assert 2 * n_delta(2 * richardson) - n_delta(richardson) == pytest.approx(float(c), rel=1e-3)
