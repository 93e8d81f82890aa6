import math
import random
from fractions import Fraction

import pytest

from clog.simplex import INFEASIBLE, OPTIMAL, POSITIVE, solve_lp

import oracles


def test_basic_box_maximum():
    res = solve_lp(2, [], objective=[1, 1])
    assert res.status == OPTIMAL
    assert res.value == 2
    assert res.point == [1, 1]


def test_infeasible():
    # x - 2 >= 0 leaves the box
    res = solve_lp(1, [([1], -2)], objective=[1])
    assert res.status == INFEASIBLE
    assert solve_lp(1, [([1], -2)]).status == INFEASIBLE


def test_tent_peak():
    # max y st y <= x, y <= 1 - x: the peak of the tent is 1/2
    rows = [([1, -1], 0), ([-1, -1], 1)]
    res = solve_lp(2, rows, objective=[0, 1])
    assert res.value == Fraction(1, 2)
    assert res.point[0] == Fraction(1, 2)


def test_stop_when_positive():
    # max x + y: the first pivot already reaches 1
    res = solve_lp(2, [], objective=[1, 1], positive_above=0)
    assert (res.status, res.value, res.point) == (POSITIVE, 1, [1, 0])
    res = solve_lp(2, [], objective=[1, 1], positive_above=1)
    assert (res.status, res.value, res.point) == (POSITIVE, 2, [1, 1])
    # the origin's value 0 already exceeds a negative threshold
    res = solve_lp(2, [], objective=[1, 1], positive_above=-1)
    assert (res.status, res.value, res.point) == (POSITIVE, 0, [0, 0])
    # a threshold the maximum does not exceed: the maximum itself
    res = solve_lp(2, [], objective=[1, 1], positive_above=2)
    assert (res.status, res.value, res.point) == (OPTIMAL, 2, [1, 1])


def test_zero_variables():
    res = solve_lp(0, [([], 1)], objective=[])
    assert (res.status, res.value) == (OPTIMAL, 0)
    res = solve_lp(0, [([], 0)], objective=[])
    assert (res.status, res.value) == (OPTIMAL, 0)
    res = solve_lp(0, [([], -1)], objective=[])
    assert res.status == INFEASIBLE


def test_negative_rhs_normalisation():
    # a row with const > 0 is stored negated, so its right-hand side
    # stays >= 0: 1/2 - x >= 0 is x <= 1/2
    half = Fraction(1, 2)
    res = solve_lp(1, [([-1], half)], objective=[1])
    assert (res.status, res.value, res.point) == (OPTIMAL, half, [half])
    # together with a row that needs an artificial: 1/3 <= x <= 1/2
    third = Fraction(1, 3)
    res = solve_lp(1, [([-1], half), ([1], -third)], objective=[-1])
    assert (res.status, res.value, res.point) == (OPTIMAL, -third, [third])


def _random_box_lp(rng, n, m):
    rows = []
    for _ in range(m):
        coeffs = [Fraction(rng.randint(-4, 4)) for _ in range(n)]
        const = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        rows.append((coeffs, const))
    obj = [Fraction(rng.randint(-5, 5)) for _ in range(n)]
    return rows, obj


def _feasible(rows, point):
    return all(0 <= x <= 1 for x in point) and all(
        sum(c * x for c, x in zip(coeffs, point)) + const >= 0
        for coeffs, const in rows
    )


def test_random_lps_against_scipy():
    scipy_lp = __import__("scipy.optimize", fromlist=["linprog"]).linprog
    rng = random.Random(11)
    checked = infeasible = 0
    for _ in range(80):
        n = rng.randint(1, 4)
        rows, obj = _random_box_lp(rng, n, rng.randint(1, 4))
        res = solve_lp(n, rows, objective=obj)
        found = solve_lp(n, rows)
        # float reference on the same problem: -coeffs . x <= const
        ref = scipy_lp(
            [-float(c) for c in obj],
            A_ub=[[-float(c) for c in coeffs] for coeffs, _ in rows],
            b_ub=[float(const) for _, const in rows],
            bounds=[(0, 1)] * n,
        )
        if res.status == INFEASIBLE:
            assert ref.status == 2
            assert found.status == INFEASIBLE
            infeasible += 1
            continue
        assert res.status == OPTIMAL and found.status == OPTIMAL
        assert abs(float(res.value) + ref.fun) < 1e-7
        # the returned points are feasible and attain the value, exactly
        assert _feasible(rows, res.point) and _feasible(rows, found.point)
        assert sum(c * x for c, x in zip(obj, res.point)) == res.value
        # an early exit is above its threshold; otherwise it is the maximum
        threshold = res.value - 1
        early = solve_lp(n, rows, objective=obj, positive_above=threshold)
        assert _feasible(rows, early.point)
        assert sum(c * x for c, x in zip(obj, early.point)) == early.value
        assert early.value > threshold
        assert early.status == POSITIVE or early.value == res.value
        checked += 1
    assert checked > 30 and infeasible > 5


def _agrees(n, rows, objective=None, positive_above=None):
    res = solve_lp(n, rows, objective, positive_above)
    want = oracles.solve_lp_fractions(n, rows, objective, positive_above)
    assert (res.status, res.value, res.point) == want, (n, rows, objective)
    return res


def test_negative_pivot_driving_out_an_artificial():
    # -x >= 0 gets an artificial that phase 1 leaves basic at level 0; it is
    # driven out on x's entry -1, so the integer row is negated first
    res = _agrees(1, [([-1], 0)], objective=[1])
    assert (res.status, res.value, res.point) == (OPTIMAL, 0, [0])
    half = Fraction(1, 2)
    rows = [([half, -1], 0), ([-1, Fraction(2)], 0), ([1, 1], -1)]
    res = _agrees(2, rows, objective=[1, -half])
    assert res.status == OPTIMAL


def _random_mixed_lp(rng):
    """A small box LP: fractional coefficients, many rows with constant 0
    (degenerate vertices), rows repeated at another scale (ratio ties)."""
    n = rng.choice([0, 1, 2, 2, 3, 3, 4])
    dens = [1, 1, 2, 3, 4, 6]
    rows = []
    for _ in range(rng.randint(0, 5)):
        coeffs = [Fraction(rng.randint(-3, 3), rng.choice(dens))
                  for _ in range(n)]
        const = Fraction(0) if rng.random() < 0.35 else Fraction(
            rng.randint(-4, 4), rng.choice(dens))
        rows.append((coeffs, const))
    if rows and rng.random() < 0.3:
        coeffs, const = rng.choice(rows)
        k = Fraction(rng.randint(1, 4), rng.randint(1, 3))
        rows.insert(rng.randint(0, len(rows)),
                    ([k * c for c in coeffs], k * const))
    objective = None
    if rng.random() < 0.8:
        objective = [Fraction(rng.randint(-3, 3), rng.choice(dens))
                     for _ in range(n)]
    positive_above = None
    if objective is not None and rng.random() < 0.4:
        positive_above = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return n, rows, objective, positive_above


def test_integer_pivots_are_the_fraction_tableaus():
    """The fraction-free tableau takes Bland's pivots exactly as the
    textbook Fraction tableau does: same status, value and point."""
    rng = random.Random(14)
    seen = dict.fromkeys([OPTIMAL, INFEASIBLE, POSITIVE, "no variables"], 0)
    for _ in range(1500):
        n, rows, objective, positive_above = _random_mixed_lp(rng)
        res = _agrees(n, rows, objective, positive_above)
        seen[res.status] += 1
        seen["no variables"] += n == 0
        # the same region in plain ints: each row times its denominators' lcm
        ints = []
        for coeffs, const in rows:
            k = math.lcm(*[x.denominator for x in coeffs + [const]])
            ints.append(([int(c * k) for c in coeffs], int(const * k)))
        again = _agrees(n, ints)
        assert (again.status == INFEASIBLE) == (res.status == INFEASIBLE)
    assert min(seen.values()) > 100, seen


@pytest.mark.parametrize("args", [
    (1, [([0.5], 0)]),
    (1, [([1], -0.25)]),
    (1, [([1], 0)], [1.0]),
    (1, [([1], 0)], [1], 0.5),
])
def test_floats_are_refused(args):
    with pytest.raises(TypeError, match="refusing float -> rational conversion"):
        solve_lp(*args)
