import functools
import math
import random
from fractions import Fraction

import oracles
from clog import branches, semantics
from clog.branches import Affine, CellEnumerator
from clog.rationals import ONE
from clog.simplex import OPTIMAL, solve_lp
from clog.syntax import Atom, Const0, Half, Monus, Neg


def random_affine(rng, names):
    coeffs = {}
    for v in rng.sample(names, rng.randint(0, len(names))):
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 12))
        if c:
            coeffs[v] = c
    return Affine(coeffs, Fraction(rng.randint(-9, 9), rng.randint(1, 12)))


def fraction_key(a):
    """Affine.key as Fraction products: the lcm of the denominators, each
    number times it, then the gcd reduction."""
    lcm = math.lcm(Fraction(a.const).denominator,
                   *(Fraction(c).denominator for c in a.coeffs.values()))
    ints = {v: int(c * lcm) for v, c in a.coeffs.items()}
    const = int(a.const * lcm)
    g = math.gcd(const, *ints.values())
    if g > 1:
        ints = {v: x // g for v, x in ints.items()}
        const //= g
    return (tuple(sorted(ints.items())), const)


def test_affine_identities_the_walk_relies_on():
    rng = random.Random(11)
    names = ["p", "q", "r", "s"]
    cancelled = constant_only = 0
    for _ in range(2000):
        a = random_affine(rng, names)
        b = random_affine(rng, names)
        if rng.random() < 0.3:  # share some terms, so that they cancel
            b = Affine({**b.coeffs, **dict(list(a.coeffs.items())[:2])},
                       a.const if rng.random() < 0.5 else b.const)
        got = a.minus(b)
        want = a.plus(b.scale(-ONE))
        assert got.coeffs == want.coeffs and got.const == want.const
        assert 0 not in got.coeffs.values()
        cancelled += not got.coeffs or got.const == 0
        neg = a.negated()
        assert neg.coeffs == a.scale(-ONE).coeffs
        assert neg.const == a.scale(-ONE).const
        ints, const = a.key()
        assert neg.key() == (tuple((v, -x) for v, x in ints), -const)
        # the integer key is the Fraction one, also with no coefficient or
        # with an int constant
        for c in (a, b, got, Affine({}, a.const), Affine(a.coeffs, a.const.numerator)):
            assert c.key() == fraction_key(c)
            constant_only += not c.coeffs
    assert cancelled > 100 and constant_only > 2000


def test_every_cell_is_keyed_pointed_and_valued_correctly():
    rng = random.Random(5)
    cells = constraints = 0
    for _ in range(300):
        atoms = ["p%d" % i for i in range(rng.randint(2, 4))]
        f = oracles.random_core_formula(rng, 5, atoms, monus_cap=6)
        nodes, pos, names = semantics._traverse([f])
        enum = CellEnumerator(names)
        for cell in enum.iter_cells((semantics._ir(nodes, pos), [len(nodes) - 1])):
            cells += 1
            constraints += len(cell.constraints)
            point = cell.point
            assert all(0 <= point[v] <= 1 for v in names)
            for key, aff in cell.constraints.items():
                assert key == aff.key()
                assert oracles.FractionAffine.of(aff).evaluate(point) >= 0
            value = oracles.FractionAffine.of(cell.values[0]).evaluate(point)
            assert value == semantics.evaluate(f, point)
    assert cells > 400 and constraints > 800


def shared_terms(rng, atoms):
    """Formulas each built on earlier ones: subterms repeat, and some
    subtractions take a term from itself or a swapped, halved or negated
    copy of an earlier pair, so that their difference is constant or lies
    on a hyperplane split before; a few take a constant."""
    constants = [Const0(), Neg(Const0())]
    pool = [Atom(a) for a in atoms]
    pairs = []
    for _ in range(rng.randint(5, 12)):
        a, b = (rng.choice(constants if rng.random() < 0.1 else pool)
                for _ in "ab")
        kind = rng.randrange(6)
        if kind == 0:
            f = rng.choice([Neg(a), Half(a), Monus(a, a)])
        elif kind < 3 and pairs:
            a, b = rng.choice(pairs)
            f = rng.choice(
                [Monus(b, a), Monus(Half(a), Half(b)), Monus(Neg(b), Neg(a))])
        else:
            f = Monus(a, b)
            pairs.append((a, b))
        pool.append(f)
    return pool[len(atoms):]


def face_chain(rng, atoms):
    """((0 - x0) - x1) - ... over atoms drawn with repeats, beside a random
    formula: the chain is one cell, its second sides only faces."""
    chain = Const0()
    for _ in range(rng.randint(2, 6)):
        chain = Monus(chain, Atom(rng.choice(atoms)))
    other = oracles.random_core_formula(rng, 4, atoms, monus_cap=4)
    return [chain, other, Monus(other, chain)]


def fields(cell):
    return (
        [(key, aff.coeffs, aff.const) for key, aff in cell.constraints.items()],
        [(v.coeffs, v.const) for v in cell.values],
        cell.point,
    )


def test_the_stack_walk_yields_the_recursive_walks_cells():
    """iter_cells against the recursive judge: the same cells in the same
    order, each with the same constraint keys in the same order, the same
    guards, root values and point."""
    rng = random.Random(22)
    cells = moved = 0
    for case in range(600):
        atoms = ["p%d" % i for i in range(rng.randint(2, 4))]
        if case % 3 == 0:
            roots = [oracles.random_core_formula(rng, 6, atoms, monus_cap=8)]
        elif case % 3 == 1:
            roots = shared_terms(rng, atoms)
        else:
            roots = face_chain(rng, atoms)
        nodes, pos, names = semantics._traverse(roots)
        term = (semantics._ir(nodes, pos), [pos[id(f)] for f in roots])
        enum = CellEnumerator(names)
        got = [fields(c) for c in enum.iter_cells(term)]
        want = [fields(c) for c in oracles.cells_by_recursion(enum, term)]
        assert got == want, [str(f) for f in roots]
        cells += len(got)
        # points the screen or an LP found, not the carried centre
        moved += sum(c[2] != enum._center for c in got)
    assert cells > 1200 and moved > 250



def sign(x):
    return (x > 0) - (x < 0)


def test_the_integer_tests_have_the_signs_of_the_fraction_ones():
    """Affine.at at the integer point, and Affine.box_max, have the signs
    of the Fraction row's value at the point and at its best box corner, on
    points with small denominators and on LP vertices; some values are
    exactly 0."""
    rng = random.Random(31)
    names = ["p", "q", "r", "s"]
    vertices, zeros, faces = [], 0, 0
    while len(vertices) < 200:
        rows = [random_affine(rng, names) for _ in range(rng.randint(1, 5))]
        res = solve_lp(len(names), [([a.coeffs.get(v, 0) for v in names], a.const)
                                    for a in rows],
                       objective=[rng.randint(-5, 5) for _ in names])
        if res.status == OPTIMAL:
            vertices.append(dict(zip(names, res.point)))
    big = max(math.lcm(*[x.denominator for x in p.values()]) for p in vertices)
    assert big > 100
    for case in range(4000):
        if case % 2:
            point = rng.choice(vertices)
        else:
            point = {v: Fraction(rng.randint(0, 12), 12) / rng.randint(1, 7)
                     for v in names}
        a = random_affine(rng, names)
        f = oracles.FractionAffine.of(a)
        if case % 5 == 0:  # through the point
            a = Affine(a.coeffs, a.const - f.evaluate(point))
        elif case % 5 == 1:  # 0 at the best box corner
            a = Affine(a.coeffs, a.const - f.box_max())
        f = oracles.FractionAffine.of(a)
        value = a.at(branches._integer_point(point))
        assert sign(value) == sign(f.evaluate(point))
        assert sign(a.box_max()) == sign(f.box_max())
        zeros += value == 0
        faces += f.box_max() == 0
    assert zeros > 700 and faces > 700


def walk_cases():
    """The 600 terms of test_the_stack_walk_yields_the_recursive_walks_cells,
    drawn the same way: (atom names, term)."""
    rng = random.Random(22)
    for case in range(600):
        atoms = ["p%d" % i for i in range(rng.randint(2, 4))]
        if case % 3 == 0:
            roots = [oracles.random_core_formula(rng, 6, atoms, monus_cap=8)]
        elif case % 3 == 1:
            roots = shared_terms(rng, atoms)
        else:
            roots = face_chain(rng, atoms)
        nodes, pos, names = semantics._traverse(roots)
        yield names, (semantics._ir(nodes, pos), [pos[id(f)] for f in roots])


def test_the_integer_walk_makes_the_fraction_walks_lps(monkeypatch):
    """iter_cells against the recursive judge run with Fraction screens
    throughout: the same cells, and the same solve_lp calls with the same
    arguments in the same order."""
    calls = []

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return solve_lp(*args, **kwargs)

    monkeypatch.setattr(branches, "solve_lp", recording)
    lps = 0
    for names, term in walk_cases():
        enum = CellEnumerator(names)
        got = [fields(c) for c in enum.iter_cells(term)]
        got_calls = calls[:]
        del calls[:]
        judge = CellEnumerator(names)
        judge.feasible_point = functools.partial(
            oracles.feasible_point_by_fractions, judge)
        want = [fields(c) for c in oracles.cells_by_recursion(judge, term)]
        assert got == want and got_calls == calls
        lps += len(calls)
        del calls[:]
    assert lps > 150
