import collections
import itertools
import random
import time

import pytest

import oracles
from clog import randomisation as rd, syntax
from clog.rationals import rat
from clog.rv import FiniteProbSpace, expectation
from clog.syntax import (
    Apply,
    Atom,
    Const0,
    Half,
    Inf,
    Monus,
    Neg,
    Pred,
    Signature,
    Sup,
    Var,
    parse_lformula,
)


def line_metric(points):
    """A metric table from positions on [0,1]: max(|r_u - r_v|, 1/8) off the
    diagonal (still a metric, and it keeps distinct points apart)."""
    floor = rat(1, 8)
    n = len(points)
    return [
        [
            rat(0) if i == j else max(abs(points[i] - points[j]), floor)
            for j in range(n)
        ]
        for i in range(n)
    ]


def lipschitz_repair(values, metric, ids, lam):
    """Largest lam-Lipschitz function below the given values (exact)."""
    return {
        (u,): min(
            values[v] + lam * metric[ids.index(u)][ids.index(v)] for v in ids
        )
        for u in ids
    }


SIG = Signature(predicates={"P": [rat(1)]})


def random_structure(rng, signature=SIG, max_universe=3):
    n = rng.randint(1, max_universe)
    ids = ["e%d" % i for i in range(n)]
    positions = rng.sample([rat(k, 8) for k in range(9)], n)
    metric = line_metric(positions)
    predicates = {}
    for name, lam in signature.predicates.items():
        base = {u: rat(rng.randint(0, 8), 8) for u in ids}
        table = lipschitz_repair(base, metric, ids, min(lam))
        if len(lam) == 1:
            predicates[name] = table
        else:  # pragma: no cover - only unary predicates in these tests
            raise NotImplementedError
    functions = {}
    for name, lam in signature.functions.items():
        # constant maps satisfy any modulus
        target = rng.choice(ids)
        functions[name] = {
            key: target for key in itertools.product(ids, repeat=len(lam))
        }
    return rd.FiniteLStructure(
        signature, ids, predicates=predicates, functions=functions, metric=metric
    )


def random_family(rng, signature=SIG, max_atoms=3, max_universe=3):
    import oracles

    n = rng.randint(1, max_atoms)
    ws = oracles.random_weights(rng, n)
    space = FiniteProbSpace([("w%d" % i, w) for i, w in enumerate(ws)])
    return rd.RandomFamily(
        space, [random_structure(rng, signature, max_universe) for _ in range(n)]
    )


def random_section(rng, family):
    return rd.Section(family, [rng.choice(s.universe) for s in family.structures])


def random_lformula(rng, scope, max_depth, max_quants):
    """A random first-order formula over P/d with bounded quantifier count."""

    def atomic(scope):
        if not scope:
            return Const0()
        if rng.random() < 0.6:
            return Pred("P", (Var(rng.choice(scope)),))
        return Pred("d", (Var(rng.choice(scope)), Var(rng.choice(scope))))

    fresh = itertools.count()

    def gen(scope, depth, quants):
        if depth == 0 or rng.random() < 0.2:
            return atomic(scope), quants
        roll = rng.random()
        if quants > 0 and roll < 0.35:
            var = "q%d" % next(fresh)
            body, quants = gen(scope + [var], depth - 1, quants - 1)
            return (Inf if rng.random() < 0.5 else Sup)(var, body), quants
        if roll < 0.55:
            body, quants = gen(scope, depth - 1, quants)
            return (Neg if rng.random() < 0.5 else Half)(body), quants
        left, quants = gen(scope, depth - 1, quants)
        right, quants = gen(scope, depth - 1, quants)
        return Monus(left, right), quants

    formula, _ = gen(list(scope), max_depth, max_quants)
    return formula


def two_point_family():
    m1 = rd.FiniteLStructure(
        SIG, ["u", "v"],
        predicates={"P": {("u",): rat(1, 4), ("v",): rat(3, 4)}},
        metric=[[0, rat(1, 2)], [rat(1, 2), 0]],
    )
    m2 = rd.FiniteLStructure(
        SIG, ["a", "b", "c"],
        predicates={"P": {("a",): 0, ("b",): rat(1, 2), ("c",): 1}},
        metric=[
            [0, rat(1, 2), 1],
            [rat(1, 2), 0, rat(1, 2)],
            [1, rat(1, 2), 0],
        ],
    )
    space = FiniteProbSpace.uniform(["w1", "w2"])
    return rd.RandomFamily(space, [m1, m2])


# ---- structures -----------------------------------------------------------


def test_structure_validation():
    with pytest.raises(ValueError):
        rd.FiniteLStructure(SIG, [], metric=[])
    with pytest.raises(ValueError):  # asymmetric
        rd.FiniteLStructure(
            SIG, ["u", "v"],
            predicates={"P": {("u",): 0, ("v",): 0}},
            metric=[[0, rat(1, 2)], [rat(1, 4), 0]],
        )
    with pytest.raises(ValueError):  # distinct points at distance 0
        rd.FiniteLStructure(
            SIG, ["u", "v"],
            predicates={"P": {("u",): 0, ("v",): 0}},
            metric=[[0, 0], [0, 0]],
        )
    with pytest.raises(ValueError):  # triangle inequality
        rd.FiniteLStructure(
            SIG, ["u", "v", "w"],
            predicates={"P": {("u",): 0, ("v",): 0, ("w",): 0}},
            metric=[
                [0, rat(1, 8), 1],
                [rat(1, 8), 0, rat(1, 8)],
                [1, rat(1, 8), 0],
            ],
        )
    with pytest.raises(ValueError):  # missing predicate entry
        rd.FiniteLStructure(
            SIG, ["u", "v"],
            predicates={"P": {("u",): 0}},
            metric=[[0, 1], [1, 0]],
        )


def test_lipschitz_enforced_at_load():
    # P jumps a full unit over a distance of 1/2: violates lambda = 1
    with pytest.raises(ValueError):
        rd.FiniteLStructure(
            SIG, ["u", "v"],
            predicates={"P": {("u",): 0, ("v",): 1}},
            metric=[[0, rat(1, 2)], [rat(1, 2), 0]],
        )
    # a function must move points by at most lambda * d
    sig = Signature(functions={"f": [rat(1)]}, predicates={"P": [rat(1)]})
    with pytest.raises(ValueError):
        rd.FiniteLStructure(
            sig, ["u", "v", "w"],
            predicates={"P": {("u",): 0, ("v",): 0, ("w",): 0}},
            functions={"f": {("u",): "u", ("v",): "w", ("w",): "w"}},
            metric=[
                [0, rat(1, 8), 1],
                [rat(1, 8), 0, 1],
                [1, 1, 0],
            ],
        )


def test_modulus_violation_texts_and_residuals():
    """The load-time check and R1 in check_R_axioms read the same slacks:
    the first violation names its slot, and R1 is the largest slack."""
    sig = Signature(functions={"f": [rat(1)]}, predicates={"P": [rat(1)]})
    metric = [[0, rat(1, 8), 1], [rat(1, 8), 0, 1], [1, 1, 0]]
    flat = {("u",): 0, ("v",): 0, ("w",): 0}
    with pytest.raises(ValueError) as err:
        rd.FiniteLStructure(sig, ["u", "v", "w"],
                            predicates={"P": {("u",): 0, ("v",): rat(1, 2),
                                              ("w",): 0}},
                            functions={"f": {("u",): "u", ("v",): "w",
                                             ("w",): "w"}},
                            metric=metric)
    assert str(err.value) == (
        "predicate 'P' violates its modulus in slot 0 between ('u',) and ('v',)")
    with pytest.raises(ValueError) as err:
        rd.FiniteLStructure(sig, ["u", "v", "w"], predicates={"P": flat},
                            functions={"f": {("u",): "u", ("v",): "w",
                                             ("w",): "w"}},
                            metric=metric)
    assert str(err.value) == (
        "function 'f' violates its modulus in slot 0 between ('u',) and ('v',)")
    # tables altered after the load-time check: R1 reports the worst slack
    ok = rd.FiniteLStructure(sig, ["u", "v", "w"], predicates={"P": flat},
                             functions={"f": {k: k[0] for k in flat}},
                             metric=metric)
    ok.predicates["P"][("v",)] = rat(1, 2)
    ok.functions["f"][("v",)] = "w"
    fam = rd.RandomFamily(FiniteProbSpace.uniform(["w1"]), [ok])
    secs = [rd.Section(fam, ["u"]), rd.Section(fam, ["w"])]
    report = rd.check_R_axioms(fam, secs)
    assert report["R1_P"] == rat(3, 8)
    assert report["R1_f"] == rat(7, 8)


JUDGE_MODULI = [rat(0), rat(1), rat(2), rat(1, 2), rat(3, 7)]


def judge_case(rng):
    """A signature and FiniteLStructure's arguments over 1-5 elements: a
    metric closed under shortest paths from edge lengths with mixed
    denominators (left open one time in five), a unary P and now and then a
    binary Q repaired to their moduli, now and then a unary f (constant,
    identity or any map); then up to two corruptions, each a broken
    diagonal, triangle, symmetry, separation, range or modulus, or a float
    entry."""
    n = rng.randint(1, 5)
    ids = ["e%d" % i for i in range(n)]
    d = [[rat(0)] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        den = rng.choice([1, 2, 3, 4, 6, 8, 12])
        d[i][j] = d[j][i] = rat(rng.randint(1, den), den)
    if rng.random() < 0.8:
        for k, i, j in itertools.product(range(n), repeat=3):
            d[i][j] = min(d[i][j], d[i][k] + d[k][j])
    lam_p = rng.choice(JUDGE_MODULI)
    base = {u: oracles.random_rational(rng) for u in ids}
    predicates = {"P": {
        (u,): min(base[v] + lam_p * d[i][j] for j, v in enumerate(ids))
        for i, u in enumerate(ids)}}
    moduli = {"P": [lam_p]}
    if rng.random() < 0.5:
        lam = moduli["Q"] = [rng.choice(JUDGE_MODULI), rng.choice(JUDGE_MODULI)]
        base = {k: oracles.random_rational(rng) for k in itertools.product(ids, repeat=2)}
        pairs = list(itertools.product(range(n), repeat=2))
        predicates["Q"] = {
            (ids[i], ids[j]): min(base[ids[k], ids[m]] + lam[0] * d[i][k]
                                  + lam[1] * d[j][m] for k, m in pairs)
            for i, j in pairs}
    functions, function_moduli = {}, {}
    if rng.random() < 0.5:
        function_moduli["f"] = [rng.choice(JUDGE_MODULI)]
        target = rng.choice(ids)
        pick = rng.choice([lambda u: target, lambda u: u, lambda u: rng.choice(ids)])
        functions["f"] = {(u,): pick(u) for u in ids}
    sig = Signature(functions=function_moduli, predicates=moduli)
    kinds = ["diagonal", "range", "modulus", "float"] + [
        "triangle", "symmetry", "separation"] * (n > 1)
    for kind in rng.sample(kinds, rng.choice([0, 1, 1, 2])):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        table = predicates[rng.choice(sorted(predicates))]
        key = rng.choice(sorted(table))
        if kind == "diagonal":
            d[i][i] = rat(1, 8)
        elif kind == "triangle":
            d[i][j] = d[j][i] = rng.choice([rat(1), rat(1, 97), d[i][j] * 3 / 2])
        elif kind == "symmetry":
            d[i][j] = rat(rng.randint(1, 8), 8)
        elif kind == "separation":
            d[i][j] = d[j][i] = rat(0)
        elif kind == "range":
            value = rng.choice([rat(5, 4), rat(-1, 3), rat(9, 7)])
            if rng.random() < 0.5:
                d[i][j] = value
            else:
                table[key] = value
        elif kind == "modulus":
            if functions and rng.random() < 0.5:
                functions["f"][rng.choice(ids),] = rng.choice(ids)
            else:
                table[key] = oracles.random_rational(rng)
        elif rng.random() < 0.5:
            d[i][j] = float(d[i][j])
        else:
            table[key] = float(table[key])
    return sig, ids, predicates, functions, d


REFUSALS = ("outside [0,1]", "must be 0", "not symmetric", "at distance 0", "triangle",
            "violates its modulus", "refusing float")


def outcome(build):
    """What build returns, or the type and text of what it raises."""
    try:
        return build()
    except (ValueError, TypeError) as e:
        return type(e), str(e)


def test_load_check_matches_the_fraction_judge():
    """FiniteLStructure's integer load check accepts and refuses what the
    Fraction validator it replaced does, with the same exception type and
    text, and stores the same tables; on tables altered after load,
    check_R_axioms' R1 is the judge's largest slack per kind."""

    def load(*args):
        s = rd.FiniteLStructure(*args)
        return s.metric, s.predicates, s.functions

    rng = random.Random(2024)
    texts = collections.Counter()
    for _ in range(1200):
        sig, ids, predicates, functions, d = judge_case(rng)
        args = (sig, ids, predicates, functions, d)
        expected = outcome(lambda: oracles.structure_tables_by_fractions(*args))
        assert outcome(lambda: load(*args)) == expected, args
        if expected[0] in (ValueError, TypeError):
            texts[next(p for p in REFUSALS if p in expected[1])] += 1
            continue
        texts["loaded"] += 1
        altered = [rd.FiniteLStructure(*args) for _ in range(2)]
        for s in altered:
            u, v = rng.choice(ids), rng.choice(ids)
            s.predicates["P"][u,] = oracles.random_rational(rng)
            if "f" in s.functions:
                s.functions["f"][u,] = v
            if u != v:
                s.metric[u, v] = s.metric[v, u] = rat(rng.randint(1, 12), 12)
        fam = rd.RandomFamily(FiniteProbSpace.uniform(["w1", "w2"]), altered)
        secs = [rd.Section(fam, [rng.choice(ids), rng.choice(ids)]) for _ in range(2)]
        report = rd.check_R_axioms(fam, secs)
        for kind, r1 in (("predicate", "R1_P"), ("function", "R1_f")):
            assert report[r1] == max([rat(0)] + [
                slack for s in altered
                for k, *_, slack in oracles.lipschitz_slacks_fractions(s) if k == kind])
    assert texts["loaded"] >= 200 and min(texts[p] for p in REFUSALS) >= 20, texts


def test_function_tables_and_terms():
    sig = Signature(functions={"f": [rat(2)]}, predicates={"P": [rat(1)]})
    m = rd.FiniteLStructure(
        sig, ["u", "v"],
        predicates={"P": {("u",): rat(1, 2), ("v",): rat(3, 4)}},
        functions={"f": {("u",): "v", ("v",): "u"}},
        metric=[[0, rat(1, 2)], [rat(1, 2), 0]],
    )
    space = FiniteProbSpace([("w", 1)])
    fam = rd.RandomFamily(space, [m])
    sec = rd.Section(fam, ["u"])
    phi = parse_lformula("P(f(x))")
    assert rd.bracket(phi, {"x": sec}, fam).values == (rat(3, 4),)
    swap_twice = parse_lformula("d(f(f(x)), x)")
    assert rd.bracket(swap_twice, {"x": sec}, fam).values == (0,)


# ---- bracket --------------------------------------------------------------


def test_bracket_examples():
    fam = two_point_family()
    a = rd.Section(fam, ["u", "a"])
    assert rd.bracket(parse_lformula("P(x)"), {"x": a}, fam).values == (rat(1, 4), 0)
    assert rd.bracket(parse_lformula("d(x, x)"), {"x": a}, fam).values == (0, 0)
    got = rd.bracket(parse_lformula("inf x . P(x)"), {}, fam)
    assert got.values == (rat(1, 4), 0)
    got = rd.bracket(parse_lformula("sup x . P(x)"), {}, fam)
    assert got.values == (rat(3, 4), 1)


def test_bracket_errors():
    fam = two_point_family()
    a = rd.Section(fam, ["u", "a"])
    with pytest.raises(KeyError):
        rd.bracket(parse_lformula("P(x)"), {}, fam)
    with pytest.raises(ValueError):
        rd.bracket(parse_lformula("P(x, x)"), {"x": a}, fam)
    with pytest.raises(ValueError):
        rd.bracket(parse_lformula("Q(x)"), {"x": a}, fam)
    other = two_point_family()
    other_sec = rd.Section(other, ["u", "a"])
    # structurally equal families interoperate; a genuinely different one fails
    assert rd.bracket(parse_lformula("P(x)"), {"x": other_sec}, fam).values
    small = rd.RandomFamily(
        FiniteProbSpace([("z", 1)]), [fam.structures[0]]
    )
    with pytest.raises(ValueError):
        rd.bracket(parse_lformula("P(x)"), {"x": rd.Section(small, ["u"])}, fam)


def test_satisfaction_theorem_small():
    """Quantifiers over sections agree with pointwise quantifiers."""
    rng = random.Random(31)
    checked = 0
    for _ in range(25):
        fam = random_family(rng)
        env = {"x": random_section(rng, fam), "y": random_section(rng, fam)}
        phi = random_lformula(rng, ["x", "y"], max_depth=4, max_quants=2)
        inductive = rd.bracket_by_sections(phi, env, fam)
        pointwise = rd.bracket(phi, env, fam)
        assert inductive.values == pointwise.values
        checked += 1
    assert checked == 25


def odd_table_family():
    """Three atoms over two structures with a unary function f, a constant c,
    a unary P and a nullary C; tables have odd numerators and non-dyadic
    denominators, so inexact halving or a too-small scale shows."""
    sig = Signature(
        functions={"f": [rat(2)], "c": []},
        predicates={"P": [rat(1)], "C": []},
    )
    m1 = rd.FiniteLStructure(
        sig, ["u", "v", "w"],
        predicates={
            "P": {("u",): rat(3, 7), ("v",): rat(5, 7), ("w",): rat(1, 3)},
            "C": {(): rat(5, 11)},
        },
        functions={
            "f": {("u",): "v", ("v",): "w", ("w",): "w"},
            "c": {(): "u"},
        },
        metric=[
            [0, rat(1, 3), rat(3, 5)],
            [rat(1, 3), 0, rat(2, 5)],
            [rat(3, 5), rat(2, 5), 0],
        ],
    )
    m2 = rd.FiniteLStructure(
        sig, ["a", "b"],
        predicates={"P": {("a",): rat(1, 9), ("b",): rat(5, 9)}, "C": {(): 1}},
        functions={"f": {("a",): "b", ("b",): "a"}, "c": {(): "b"}},
        metric=[[0, rat(5, 9)], [rat(5, 9), 0]],
    )
    space = FiniteProbSpace([("w1", rat(1, 3)), ("w2", rat(1, 2)), ("w3", rat(1, 6))])
    return rd.RandomFamily(space, [m1, m2, m1])


def test_sections_route_beyond_the_criteria_generators():
    """bracket_by_sections equals bracket on the shapes the acceptance
    criteria never produce: function terms and constants, binders that
    rebind a free variable, halvings nested deeper than the tables' scale,
    and one subformula object shared under different binders."""
    fam = odd_table_family()
    p_q = Pred("P", (Var("q"),))
    d_xq = Pred("d", (Var("x"), Var("q")))
    shared = Monus(p_q, Half(d_xq))
    halves = "half half half half half half "
    cases = [parse_lformula(text) for text in (
        "inf q . d(f(q), x)",
        "sup q . (P(f(f(q))) - d(q, f(y)))",
        "(P(x) - inf x . d(x, y))",
        "sup x . inf x . P(x)",
        "inf y . (sup x . d(x, y) - inf x . sup y . d(f(x), y))",
        halves + "(P(x) - " + halves + "d(x, f(y)))",
        "inf q . " + halves + "(P(q) - half half half half half P(f(x)))",
        "sup q . half (" + halves + "neg P(q) - half d(q, y))",
    )]
    cases += [
        Inf("q", Pred("d", (Apply("c", ()), Apply("f", (Var("q"),))))),
        Monus(Pred("C", ()), Sup("q", Half(Half(Half(Half(Half(p_q))))))),
        # the same objects, once with x free and once with x bound
        Monus(Inf("q", d_xq), Sup("x", Inf("q", d_xq))),
        Monus(Inf("q", shared), Sup("y", Sup("q", Monus(shared, Inf("x", shared))))),
        Sup("x", Monus(Inf("q", shared), Inf("y", Sup("q", shared)))),
        Monus(Sup("y", Inf("q", shared)), Sup("x", Sup("y", Inf("q", shared)))),
    ]
    sections = rd.all_sections(fam)
    for a, b in itertools.product(sections[::5], sections[::7]):
        env = {"x": a, "y": b}
        for phi in cases:
            assert rd.bracket_by_sections(phi, env, fam) == rd.bracket(
                phi, env, fam
            ), phi


FUNC_SIG = Signature(functions={"f": [rat(2)], "c": []},
                     predicates={"P": [rat(1)], "Q": [], "R": [rat(1), rat(1)]})


def oracle_family(rng):
    """A family over FUNC_SIG: 1-3 atoms, universes of 1-3 points on a grid
    of ninths (so metric denominators are not dyadic), P the largest
    1-Lipschitz function below random rationals, R(u, v) the mean of two
    such functions at u and at v (so R is not symmetric), Q a random
    rational, f the identity or a constant map, and c a random point."""
    structures = []
    for _ in range(rng.randint(1, 3)):
        ids = ["e%d" % i for i in range(rng.randint(1, 3))]
        metric = line_metric(rng.sample([rat(k, 9) for k in range(10)], len(ids)))
        p, r1, r2 = (lipschitz_repair({u: oracles.random_rational(rng) for u in ids},
                                      metric, ids, 1) for _ in range(3))
        target = rng.choice(ids + [None])  # None: the identity
        structures.append(rd.FiniteLStructure(
            FUNC_SIG, ids,
            predicates={"P": p, "Q": {(): oracles.random_rational(rng)},
                        "R": {(u, v): (r1[u,] + r2[v,]) / 2 for u in ids for v in ids}},
            functions={"f": {(u,): target or u for u in ids},
                       "c": {(): rng.choice(ids)}},
            metric=metric))
    space = FiniteProbSpace(
        [("w%d" % i, w) for i, w in
         enumerate(oracles.random_weights(rng, len(structures)))])
    return rd.RandomFamily(space, structures)


def oracle_formula(rng, scope, max_depth, max_quants):
    """A random formula over FUNC_SIG with free variables among scope:
    function terms, Q(), the constant 0 and chains of half all occur."""
    fresh = itertools.count()

    def term(scope):
        roll = rng.random()
        if roll < 0.15:
            return Apply("c", ())
        if roll < 0.35:
            return Apply("f", (term(scope),))
        return Var(rng.choice(scope))

    def gen(scope, depth, quants):
        if depth == 0 or rng.random() < 0.2:
            roll = rng.random()
            if roll < 0.1:
                return Const0(), quants
            if roll < 0.2:
                return Pred("Q", ()), quants
            if roll < 0.5:
                return Pred("P", (term(scope),)), quants
            return Pred(rng.choice("dR"), (term(scope), term(scope))), quants
        roll = rng.random()
        if quants > 0 and roll < 0.3:
            var = "q%d" % next(fresh)
            body, quants = gen(scope + [var], depth - 1, quants - 1)
            return (Inf if rng.random() < 0.5 else Sup)(var, body), quants
        if roll < 0.5:
            body, quants = gen(scope, depth - 1, quants)
            if rng.random() < 0.5:
                return Neg(body), quants
            for _ in range(rng.randint(1, 4)):
                body = Half(body)
            return body, quants
        left, quants = gen(scope, depth - 1, quants)
        right, quants = gen(scope, depth - 1, quants)
        return Monus(left, right), quants

    return gen(list(scope), max_depth, max_quants)[0]


def test_routes_match_the_fraction_oracle():
    """bracket, bracket_by_sections and inf_witness give the Fraction
    evaluator's values on 1,000 seeded families and formulas."""
    rng = random.Random(41)
    seen = dict.fromkeys(("f", "c", "Q", "R", "0", "half half", "one point"), 0)
    for _ in range(1000):
        fam = oracle_family(rng)
        x, y = random_section(rng, fam), random_section(rng, fam)
        phi = oracle_formula(rng, ["x", "y"], max_depth=4, max_quants=2)
        names, tables = oracles.pointwise_fractions(phi, {"x": x, "y": y}, fam)
        want = tuple(table[tuple({"x": x, "y": y}[v].values[i] for v in names)]
                     for i, table in enumerate(tables))
        assert rd.bracket(phi, {"x": x, "y": y}, fam).values == want, phi
        assert rd.bracket_by_sections(phi, {"x": x, "y": y}, fam).values == want, phi
        names, tables = oracles.pointwise_fractions(
            phi, {"x": x}, fam, frozenset(["y"]))
        argmins = tuple(
            min(s.universe, key=lambda u, i=i, table=table: table[tuple(
                u if v == "y" else x.values[i] for v in names)])
            for i, (s, table) in enumerate(zip(fam.structures, tables)))
        assert rd.inf_witness(phi, "y", {"x": x}, fam).values == argmins, phi
        text = repr(phi)
        for feature, mark in (("f", "'f'"), ("c", "'c'"), ("Q", "'Q'"), ("R", "'R'"),
                              ("0", "Const0"), ("half half", "Half(body=Half(")):
            seen[feature] += mark in text
        seen["one point"] += any(len(s.universe) == 1 for s in fam.structures)
    assert min(seen.values()) >= 50, seen


def test_sections_are_listed_only_when_a_table_keys_on_them():
    """A formula whose tables all have one key costs one vector per
    position, even on a family of 3^16 sections: a quantifier-free formula
    or a quantifier whose variable is free nowhere lists no section."""
    fam = two_point_family()
    wide = rd.RandomFamily(FiniteProbSpace.uniform(["w%d" % i for i in range(16)]),
                           fam.structures[1:] * 16)
    env = {"x": rd.Section(wide, ["b"] * 16)}
    for text in ("(P(x) - half d(x, x))", "inf y . P(x)", "sup y . neg P(x)"):
        phi = parse_lformula(text)
        started = time.monotonic()
        lhs, rhs, ok = rd.los_check(phi, env, wide)
        assert time.monotonic() - started < 1, text
        assert ok and lhs == rd.bracket(phi, env, wide).values[0], text
        assert rd.table_sizes(phi, env, wide)[0] == len(syntax.subformulas(phi)[0])


def test_quantifier_locality_on_glue():
    # atomic values through a glued section mix the two argument sections
    rng = random.Random(32)
    fam = two_point_family()
    atoms = fam.space.ids
    phi = parse_lformula("P(x)")
    for _ in range(10):
        a = random_section(rng, fam)
        b = random_section(rng, fam)
        va = rd.bracket(phi, {"x": a}, fam).values
        vb = rd.bracket(phi, {"x": b}, fam).values
        for k in range(len(atoms) + 1):
            for chosen in itertools.combinations(atoms, k):
                ev = frozenset(chosen)
                mixed = rd.bracket(phi, {"x": rd.glue(ev, a, b)}, fam).values
                want = tuple(
                    va[i] if atom in ev else vb[i]
                    for i, atom in enumerate(atoms)
                )
                assert mixed == want


# ---- distance and gluing ---------------------------------------------------


def test_distance_examples():
    fam = two_point_family()
    a = rd.Section(fam, ["u", "a"])
    b = rd.Section(fam, ["v", "c"])
    assert rd.distance(a, a, fam) == 0
    assert rd.distance(a, b, fam) == rat(3, 4)  # (1/2 + 1)/2
    c = rd.Section(fam, ["v", "a"])
    assert rd.distance(a, c, fam) == rat(1, 4)


def test_distance_is_a_metric_on_sections():
    rng = random.Random(33)
    for _ in range(8):
        fam = random_family(rng)
        secs = [random_section(rng, fam) for _ in range(3)]
        for s, t in itertools.product(secs, repeat=2):
            assert rd.distance(s, t, fam) == rd.distance(t, s, fam)
            # distinct sections separate because atom metrics are positive
            assert (rd.distance(s, t, fam) == 0) == (s.values == t.values)
        a, b, c = secs
        assert rd.distance(a, c, fam) <= rd.distance(a, b, fam) + rd.distance(b, c, fam)


def test_glue_identities():
    fam = two_point_family()
    rng = random.Random(34)
    a = rd.Section(fam, ["u", "b"])
    b = rd.Section(fam, ["v", "c"])
    c = rd.Section(fam, ["u", "a"])
    everything = set(fam.space.ids)
    assert rd.glue(everything, a, b) == a
    assert rd.glue(set(), a, b) == b
    assert rd.glue({"w1"}, a, b).values == ("u", "c")
    for k in range(3):
        for chosen in itertools.combinations(fam.space.ids, k):
            ev = frozenset(chosen)
            assert rd.glue(ev, a, rd.glue(ev, b, c)) == rd.glue(ev, a, c)
            assert rd.glue(ev, a, b) == rd.glue(everything - ev, b, a)


def test_check_R_axioms():
    rng = random.Random(35)
    for _ in range(6):
        fam = random_family(rng)
        secs = [random_section(rng, fam) for _ in range(3)]
        report = rd.check_R_axioms(fam, secs)
        assert report == {"R1_P": 0, "R1_f": 0, "R2": 0, "R3": 0}
    fam = two_point_family()
    with pytest.raises(ValueError):
        rd.check_R_axioms(fam, [rd.Section(fam, ["u", "a"])])


# ---- witnesses -------------------------------------------------------------


def test_inf_witness_distance_to_self():
    fam = two_point_family()
    a = rd.Section(fam, ["v", "b"])
    w = rd.inf_witness(parse_lformula("d(x, y)"), "y", {"x": a}, fam)
    assert w == a
    assert rd.bracket(parse_lformula("d(x, y)"), {"x": a, "y": w}, fam).values == (0, 0)


def test_inf_witness_matches_brute_force():
    rng = random.Random(36)
    phi = parse_lformula("(P(y) - half P(x))")
    for _ in range(10):
        fam = random_family(rng)
        a = random_section(rng, fam)
        w = rd.inf_witness(phi, "y", {"x": a}, fam)
        got = rd.bracket(phi, {"x": a, "y": w}, fam)
        floor = rd.bracket(Inf("y", phi), {"x": a}, fam)
        assert got.values == floor.values
        # brute force over every section agrees pointwise
        candidates = [
            rd.bracket(phi, {"x": a, "y": s}, fam).values
            for s in rd.all_sections(fam)
        ]
        assert floor.values == tuple(min(col) for col in zip(*candidates))


def test_inf_witness_tie_break():
    # constant predicate: every element is optimal, the first must win
    m = rd.FiniteLStructure(
        SIG, ["u", "v"],
        predicates={"P": {("u",): rat(1, 2), ("v",): rat(1, 2)}},
        metric=[[0, 1], [1, 0]],
    )
    fam = rd.RandomFamily(FiniteProbSpace([("w", 1)]), [m])
    w = rd.inf_witness(parse_lformula("P(y)"), "y", {}, fam)
    assert w.values == ("u",)


def test_inf_witness_mixed_argmins():
    fam = two_point_family()
    w = rd.inf_witness(parse_lformula("P(y)"), "y", {}, fam)
    assert w.values == ("u", "a")  # per-atom argmins differ


# ---- Los -------------------------------------------------------------------


def test_los_check_examples():
    fam = two_point_family()
    a = rd.Section(fam, ["u", "c"])
    phi = parse_lformula("P(x)")
    lhs, rhs, ok = rd.los_check(phi, {"x": a}, fam)
    assert ok and lhs == rhs == rat(5, 8)  # (1/4 + 1)/2
    # Dirac weighting: the degenerate ultraproduct picks one structure
    lhs, rhs, ok = rd.los_check(phi, {"x": a}, fam, weighting=[1, 0])
    assert ok and lhs == rat(1, 4)
    lhs, rhs, ok = rd.los_check(phi, {"x": a}, fam, weighting=[0, 1])
    assert ok and lhs == 1


def test_los_check_quantified():
    rng = random.Random(37)
    for _ in range(10):
        fam = random_family(rng)
        env = {"x": random_section(rng, fam)}
        phi = random_lformula(rng, ["x"], max_depth=3, max_quants=2)
        lhs, rhs, ok = rd.los_check(phi, env, fam)
        assert ok and lhs == rhs


def test_los_check_computes_positions_once(monkeypatch):
    """Both routes read one _positions result; bad input still raises
    ValueError, then KeyError, then TypeError."""
    calls = []
    real = rd._positions

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(rd, "_positions", counting)
    fam = two_point_family()
    env = {"x": rd.Section(fam, ["u", "c"])}
    for text in ("P(x)", "inf y . d(x, y)", "sup y . (P(y) - half P(x))", "0"):
        calls.clear()
        lhs, rhs, ok = rd.los_check(parse_lformula(text), env, fam)
        assert ok and len(calls) == 1, text
    atom = Atom("p")
    undeclared = Monus(atom, Monus(Pred("R", (Var("z"),)), Pred("P", (Var("x"),))))
    unbound = Monus(atom, Pred("P", (Var("z"),)))
    for phi, error in ((undeclared, ValueError), (unbound, KeyError),
                       (Monus(atom, Pred("P", (Var("x"),))), TypeError)):
        calls.clear()
        with pytest.raises(error):
            rd.los_check(phi, env, fam)
        assert len(calls) == 1
    with pytest.raises(ValueError):  # the weighting is checked first
        rd.los_check(unbound, env, fam, weighting=[1])
    assert len(calls) == 1


def test_los_check_weighting_errors():
    fam = two_point_family()
    phi = parse_lformula("inf x . P(x)")
    with pytest.raises(ValueError):
        rd.los_check(phi, {}, fam, weighting=[1])
    with pytest.raises(ValueError):
        rd.los_check(phi, {}, fam, weighting=[rat(1, 2), rat(1, 4)])
    with pytest.raises(ValueError):
        rd.los_check(phi, {}, fam, weighting=[rat(3, 2), rat(-1, 2)])


def test_weight_sums_match_fraction_sums():
    """FiniteProbSpace and los_check's weighting take exactly the weights
    whose Fraction sum is 1, over mixed denominators, and refuse the others
    with the same texts in the same order."""
    rng = random.Random(31)
    m = rd.FiniteLStructure(SIG, ["u"], predicates={"P": {("u",): rat(1, 3)}})
    phi = parse_lformula("P(x)")
    for _ in range(300):
        ws = oracles.random_weights(rng, rng.randint(1, 4))
        for _ in range(rng.randint(0, 3)):  # one weight split in two
            i, b = rng.randrange(len(ws)), rng.randint(2, 9)
            a = rng.randint(1, b - 1)
            ws[i:i + 1] = [ws[i] * a / b, ws[i] * (b - a) / b]
        if rng.random() < 0.5:
            ws[rng.randrange(len(ws))] += rat(rng.choice([-1, 1]), rng.randint(50, 99))
        if min(ws) <= 0:
            space_error = "non-positive weight"
        else:
            space_error = None if sum(ws) == 1 else "weights must sum to exactly 1"
        weighting_error = ("weights must be nonnegative" if min(ws) < 0 else
                           None if sum(ws) == 1 else "weights must sum to exactly 1")
        atoms = [("w%d" % i, w) for i, w in enumerate(ws)]
        if space_error is None:
            assert FiniteProbSpace(atoms).weights == tuple(ws)
        else:
            with pytest.raises(ValueError, match=space_error):
                FiniteProbSpace(atoms)
        fam = rd.RandomFamily(
            FiniteProbSpace.uniform([a for a, _ in atoms]), [m] * len(ws))
        x = rd.Section(fam, ["u"] * len(ws))
        if weighting_error is None:
            assert rd.los_check(phi, {"x": x}, fam, weighting=ws) == (
                rat(1, 3), rat(1, 3), True)
        else:
            with pytest.raises(ValueError, match=weighting_error):
                rd.los_check(phi, {"x": x}, fam, weighting=ws)


# ---- type measures ---------------------------------------------------------


def test_type_measure_dirac_on_constant_family():
    m = rd.FiniteLStructure(
        SIG, ["u", "v"],
        predicates={"P": {("u",): rat(1, 4), ("v",): rat(1, 2)}},
        metric=[[0, rat(1, 4)], [rat(1, 4), 0]],
    )
    fam = rd.RandomFamily(FiniteProbSpace.uniform(["w1", "w2"]), [m, m])
    sec = rd.Section(fam, ["u", "u"])
    nu = rd.type_measure([sec], fam, [parse_lformula("P(x0)")])
    assert nu.masses == {(rat(1, 4),): 1}


def test_type_measure_grouping_and_pairing():
    fam = two_point_family()
    sec = rd.Section(fam, ["u", "c"])
    formulas = [parse_lformula("P(x0)"), parse_lformula("neg P(x0)")]
    nu = rd.type_measure([sec], fam, formulas)
    assert nu.masses == {
        (rat(1, 4), rat(3, 4)): rat(1, 2),
        (rat(1), rat(0)): rat(1, 2),
    }
    for i, phi in enumerate(formulas):
        assert rd.pairing(nu, i) == expectation(
            rd.bracket(phi, {"x0": sec}, fam)
        )


def test_type_measure_pairing_random():
    rng = random.Random(38)
    for _ in range(10):
        fam = random_family(rng)
        secs = [random_section(rng, fam) for _ in range(2)]
        formulas = [
            random_lformula(rng, ["x0", "x1"], max_depth=3, max_quants=1)
            for _ in range(3)
        ]
        nu = rd.type_measure(secs, fam, formulas)
        assert sum(nu.masses.values()) == 1
        env = {"x0": secs[0], "x1": secs[1]}
        for i, phi in enumerate(formulas):
            assert rd.pairing(nu, i) == expectation(rd.bracket(phi, env, fam))


# ---- JSON ------------------------------------------------------------------


def test_family_json_round_trip():
    rng = random.Random(39)
    sig = Signature(functions={"f": [rat(2)]}, predicates={"P": [rat(1)]})
    for _ in range(5):
        fam = random_family(rng, signature=sig)
        blob = rd.family_to_json(fam)
        assert rd.family_from_json(blob) == fam


def test_family_json_errors():
    fam = two_point_family()
    blob = rd.family_to_json(fam)
    broken = {"space": blob["space"], "signature": blob["signature"]}
    with pytest.raises(ValueError):
        rd.family_from_json(broken)
    bad = rd.family_to_json(fam)
    bad["structures"][0]["metric"] = [[0]]
    with pytest.raises(ValueError):
        rd.family_from_json(bad)
