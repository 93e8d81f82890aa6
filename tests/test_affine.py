"""branches.Affine, integer numerators over one denominator, against
oracles.FractionAffine, the same rows kept in Fractions."""

import random
from fractions import Fraction

from oracles import FractionAffine
from clog import branches
from clog.branches import Affine, CellEnumerator

NAMES = ["p", "q", "r", "s"]
DENOMINATORS = [1, 1, 2, 3, 4, 6, 8, 12]
FACTORS = [0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-3, 4), Fraction(5, 6)]


def random_row(rng):
    coeffs = {}
    for v in rng.sample(NAMES, rng.randint(0, len(NAMES))):
        c = Fraction(rng.randint(-9, 9), rng.choice(DENOMINATORS))
        if c:
            coeffs[v] = c
    const = Fraction(rng.randint(-9, 9), rng.choice(DENOMINATORS))
    return Affine(coeffs, const), FractionAffine(coeffs, const)


def random_point(rng):
    d = rng.choice([1, 2, 3, 7, 12, 35])
    return {v: Fraction(rng.randint(0, d), d) for v in NAMES}


def assert_same(a, f):
    """The integer row a has the Fraction row f's values, keys and signs."""
    assert a.den > 0 and a.nums.keys() == f.coeffs.keys()
    assert a.coeffs == f.coeffs and a.const == f.const
    assert all(type(c) is Fraction for c in (a.const, *a.coeffs.values()))
    assert a.key() == f.key()
    assert Fraction(a.box_max(), a.den) == f.box_max()


def test_each_operation_matches_the_fraction_rows():
    """plus, minus, scale, negated, at, box_max and key, on random
    rows and on rows built from them, so that denominators differ and
    coefficients cancel."""
    rng = random.Random(26)
    pool = [random_row(rng) for _ in range(100)]
    cancelled = scaled_apart = 0
    for _ in range(6000):
        (a, f), (b, g) = rng.choice(pool), rng.choice(pool)
        op = rng.randrange(6)
        if op == 0:
            got, want = a.plus(b), f.plus(g)
        elif op == 1:
            got, want = a.minus(b), f.minus(g)
        elif op == 2:
            k = rng.choice(FACTORS)
            got, want = a.scale(k), f.scale(Fraction(k))
        elif op == 3:
            got, want = a.negated(), f.negated()
        elif op == 4:  # a row minus a multiple of itself, plus another
            k = rng.choice(FACTORS)
            got = a.minus(a.scale(k)).plus(b)
            want = f.minus(f.scale(Fraction(k))).plus(g)
        else:  # b's terms cancel, a's stay
            got, want = a.plus(b).minus(b), f.plus(g).minus(g)
        assert_same(got, want)
        point = random_point(rng)
        value = want.evaluate(point)
        nums, d = branches._integer_point(point)
        assert got.at((nums, d)) == value * got.den * d
        assert want.at((nums, d)) == value * d
        cancelled += op not in (2, 3) and (
            len(got.nums) < len(a.nums.keys() | b.nums.keys()))
        scaled_apart += a.den != b.den and op < 2
        # results join the pool, and fresh rows keep it sparse
        pool[rng.randrange(len(pool))] = (
            (got, want) if rng.random() < 0.5 else random_row(rng))
    assert cancelled > 400 and scaled_apart > 1200


def test_the_constructors_and_views():
    rng = random.Random(27)
    for _ in range(500):
        a, f = random_row(rng)
        assert_same(a, f)
        assert a.coeffs is a.coeffs  # the views are built once per row
        c = rng.choice(FACTORS)
        assert_same(Affine.constant(c), FractionAffine.constant(c))
        assert_same(Affine(f.coeffs, f.const.numerator),
                    FractionAffine(f.coeffs, Fraction(f.const.numerator)))
    assert_same(Affine.variable("p"), FractionAffine({"p": Fraction(1)}))
    assert_same(Affine(), FractionAffine())


def test_lp_rows_are_the_fraction_rows():
    """The rows solve_lp is handed equal the Fraction rows as rationals.
    Rows with a value that is no integer are counted: no integer row, the
    gcd-reduced numerators included, equals them."""
    rng = random.Random(28)
    enum = CellEnumerator(NAMES)
    fractional = 0
    for _ in range(300):
        rows = [random_row(rng) for _ in range(rng.randint(1, 5))]
        constraints = {a.key(): a for a, _ in rows}
        judges = {f.key(): f for _, f in rows}
        assert enum._lp_rows(constraints) == [
            f.lp_row(NAMES) for f in judges.values()]
        fractional += sum(
            any(c.denominator > 1 for c in (f.const, *f.coeffs.values()))
            for f in judges.values())
    assert fractional > 500
