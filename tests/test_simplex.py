import random
from fractions import Fraction

from clog.simplex import INFEASIBLE, OPTIMAL, POSITIVE, solve_lp


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
