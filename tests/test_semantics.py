import gc
import hashlib
import random
import sys
import time
from fractions import Fraction

import pytest

import oracles
from clog import branches, proofs, semantics, syntax
from clog.kernel import KernelUnsupported, grid_max
from clog.rationals import format_rat
from clog.semantics import (
    BudgetExceeded,
    entails_semantic,
    entails_witness,
    entailment,
    enumerate_branches,
    evaluate,
    is_satisfiable,
    is_valid,
    sup_value,
    unsat_witness,
)
from clog.syntax import Atom, Neg, monus_chain, parse_formula


def F(text):
    return parse_formula(text)


def test_eval_worked_examples():
    assert evaluate(F("neg p"), {"p": Fraction(3, 10)}) == Fraction(7, 10)
    assert evaluate(F("(p - q)"), {"p": Fraction(7, 10), "q": Fraction(3, 10)}) == Fraction(2, 5)
    # 1 - 2*(1 - 2*p) at p = 1/4 (nested two-step chains)
    p = Atom("p")
    inner = monus_chain(syntax.one(), 2, p)
    f = monus_chain(syntax.one(), 2, inner)
    assert evaluate(f, {"p": Fraction(1, 4)}) == 0
    assert evaluate(f, {"p": Fraction(1, 3)}) == Fraction(1, 3)
    with pytest.raises(ValueError):
        evaluate(F("p"), {"p": Fraction(3, 2)})


def test_eval_matches_oracle_on_random_formulas():
    rng = random.Random(23)
    for _ in range(200):
        f = oracles.random_core_formula(rng, 5, ["p", "q", "r"])
        assignment = {a: oracles.random_rational(rng) for a in ["p", "q", "r"]}
        assert evaluate(f, assignment) == oracles.eval_fraction(f, assignment)


def test_sugar_semantics():
    rng = random.Random(5)
    p, q = Atom("p"), Atom("q")
    for _ in range(100):
        vp, vq = oracles.random_rational(rng), oracles.random_rational(rng)
        env = {"p": vp, "q": vq}
        assert evaluate(syntax.conj(p, q), env) == min(vp, vq)
        assert evaluate(syntax.disj(p, q), env) == max(vp, vq)
        assert evaluate(syntax.abs_diff(p, q), env) == abs(vp - vq)
        assert evaluate(syntax.truncated_add(p, q), env) == min(1, vp + vq)
    for n in range(6):
        assert evaluate(syntax.dyadic(n), {}) == Fraction(1, 2**n)


def test_eval_is_1_lipschitz_in_each_atom():
    rng = random.Random(77)
    for _ in range(60):
        f = oracles.random_core_formula(rng, 5, ["p", "q"])
        e1 = {a: oracles.random_rational(rng) for a in ["p", "q"]}
        e2 = dict(e1)
        e2["p"] = oracles.random_rational(rng)
        diff = abs(evaluate(f, e1) - evaluate(f, e2))
        assert diff <= abs(e1["p"] - e2["p"])


def test_branch_cells_cover_box_and_agree_with_eval():
    rng = random.Random(13)
    for _ in range(40):
        f = oracles.random_core_formula(rng, 4, ["p", "q"], monus_cap=6)
        cells = enumerate_branches(f)
        for _ in range(10):
            env = {a: oracles.random_rational(rng) for a in ["p", "q"]}
            v = evaluate(f, env)
            covering = [
                c
                for c in cells
                if all(oracles.FractionAffine.of(a).evaluate(env) >= 0
                       for a in c.constraints)
            ]
            assert covering, "assignment not covered by any branch cell"
            for c in covering:
                assert oracles.FractionAffine.of(c.value).evaluate(env) == v


def test_branch_cell_shapes():
    # (p - q): zero cell has value 0, positive cell has value p - q
    cells = enumerate_branches(F("(p - q)"))
    assert len(cells) == 2
    values = sorted(str(c.value) for c in cells)
    assert any(not c.value.coeffs and c.value.const == 0 for c in cells)


def test_box_faces_are_not_cells():
    # ((0 - a0) - a1) ... - a11: the positive side of each split holds only
    # on the face a_j = 0, where the zero side agrees; it was 2^12 cells
    f = syntax.Const0()
    for j in range(12):
        f = syntax.Monus(f, Atom("a%d" % j))
    cells = enumerate_branches(f)
    assert len(cells) == 1
    assert not cells[0].value.coeffs and cells[0].value.const == 0


def test_sup_examples():
    v, w = sup_value(F("|p - 2^-1|"))
    assert v == Fraction(1, 2)
    assert w["p"] in (0, 1)
    v, _ = sup_value(F("( (p - q) - p )"))
    assert v == 0
    v, w = sup_value(F("(p /\\ neg p)"))
    assert v == Fraction(1, 2)
    assert w["p"] == Fraction(1, 2)


def test_validity_examples():
    ok, _ = is_valid(F("( (p - q) - p )"))
    assert ok
    ok, cx = is_valid(F("(p - q)"))
    assert not ok
    assert evaluate(F("(p - q)"), cx) > 0
    ok, _ = is_valid(F("( (half p - half q) - (p - q) )"))
    assert ok


def test_validity_against_grid_oracle():
    rng = random.Random(99)
    n_invalid = 0
    for _ in range(150):
        f = oracles.random_core_formula(rng, 5, ["p", "q"], monus_cap=8)
        valid, cx = is_valid(f)
        sup, _ = oracles.grid_sup_fractions(f, syntax.atom_names(f), 8)
        if sup > 0:
            assert not valid
        if not valid:
            n_invalid += 1
            assert oracles.eval_fraction(f, cx) > 0
        else:
            assert sup == 0
    assert n_invalid > 30  # random formulas should produce plenty of refutations


def test_sup_agrees_with_grid_on_dyadic_formulas():
    # formulas without Half have breakpoints on small grids: denominator 6
    # covers every vertex of formulas with at most 3 atoms here
    rng = random.Random(3)
    for _ in range(40):
        f = oracles.random_core_formula(rng, 4, ["p", "q"], monus_cap=6)
        if any(isinstance(g, syntax.Half) for g in syntax.subformulas(f)[0]):
            continue
        v, w = sup_value(f)
        gv, _ = oracles.grid_sup_fractions(f, syntax.atom_names(f), 6)
        assert v >= gv
        assert evaluate(f, w) == v


def test_satisfiability():
    assert is_satisfiable([])
    assert is_satisfiable([F("p"), F("(q - p)")])
    assert not is_satisfiable([F("p"), F("neg p")])
    assert is_satisfiable([F("|p - half neg p|")])  # zero exactly at p = 1/3
    assert not is_satisfiable([F("2^-3")])

    rng = random.Random(20260601)
    atoms = ["p", "q", "r"]
    for _ in range(40):
        # a planted common zero on the 1/4 grid
        point = {a: Fraction(rng.randint(0, 4), 4) for a in atoms}
        fs = []
        while len(fs) < 3:
            f = oracles.random_core_formula(rng, 3, atoms, monus_cap=3)
            if oracles.eval_fraction(f, point) == 0:
                fs.append(f)
        assert is_satisfiable(fs)
        # f = 0 forces neg f = 1
        f = oracles.random_core_formula(rng, 4, atoms, monus_cap=4)
        assert not is_satisfiable([f, Neg(f)])

    # first-order formulas are refused with the evaluator's own message
    with pytest.raises(TypeError) as exc:
        is_satisfiable([F("p"), syntax.parse_lformula("(2^-1 - inf x. P(x))")])
    assert str(exc.value) == (
        "Pred nodes have no meaning here: Pred(name='P', args=(Var(name='x'),))"
    )


def test_entailment_examples():
    ok, _ = entails_semantic([F("p")], F("half p"))
    assert ok
    # 1 - 2(1 - p) forces p <= 1/2 only; p itself does not follow
    prem = monus_chain(syntax.one(), 2, monus_chain(syntax.one(), 1, Atom("p")))
    ok, cx = entails_semantic([prem], Atom("p"))
    assert not ok
    assert evaluate(prem, cx) == 0
    assert evaluate(Atom("p"), cx) > 0
    assert cx["p"] == Fraction(1, 2)
    ok, _ = entails_semantic([], F("(p - p)"))
    assert ok
    ok, cx = entails_semantic([], F("p"))
    assert not ok
    # the countermodel is the first one in the cells of the goal first; the
    # premise's splits first would meet r = 1/4 first
    cx = entailment([F("(r - neg r)")], F("((q - neg q) - (r - half p))"), 1)[0]
    assert cx == {"p": Fraction(1, 2), "q": Fraction(3, 4), "r": Fraction(1, 2)}
    # m passes the cap 0 on a cell before the countermodel's, so every later
    # cell still takes the refutation test
    assert entailment([F("neg (q - neg p)"), F("neg p")], F("q"), 0) == (
        {"p": 1, "q": 1}, None)


def test_entailment_witness_examples():
    assert entails_witness([F("p")], F("half p"), cap=8) == 1
    assert entails_witness([F("p")], F("p"), cap=8) == 1  # p - p is valid, p alone is not
    # valid goals need m = 0 even with premises
    assert entails_witness([F("q")], F("(p - p)"), cap=8) == 0
    # half p |= p: subtracting the premise twice recovers p exactly
    assert entails_witness([F("half p")], F("p"), cap=6) == 2
    # max(0, 2p - 1) vanishes on all of [0, 1/2], so it cannot pin p to 0
    prem = monus_chain(syntax.one(), 2, monus_chain(syntax.one(), 1, Atom("p")))
    assert entails_witness([prem], Atom("p"), cap=12) is None


def test_unsat_witness_examples():
    assert unsat_witness([F("p"), F("neg p")], cap=4) == 1
    assert unsat_witness([F("neg half p")], cap=8) == 2
    assert unsat_witness([F("p")], cap=4) is None  # satisfiable set has none
    assert unsat_witness([], cap=4) is None


def test_witness_agrees_with_entailment_on_random_pairs():
    rng = random.Random(41)
    agreements = 0
    for _ in range(30):
        prem = oracles.random_core_formula(rng, 3, ["p", "q"], monus_cap=4)
        goal = oracles.random_core_formula(rng, 3, ["p", "q"], monus_cap=4)
        sem, _ = entails_semantic([prem], goal)
        m = entails_witness([prem], goal, cap=10)
        if sem:
            assert m is not None
        if m is not None:
            assert sem
            agreements += 1
    assert agreements > 5


def _random_witness_problem(rng):
    """(premises, goal, cap): 1-3 atoms, 0-3 premises, cap 0-8; a quarter
    of the sets hold f and neg f, a quarter entail their goal by a conj, and
    a quarter pin an atom goal through up to three halvings."""
    atoms = ["p", "q", "r"][: rng.randint(1, 3)]
    premises = [oracles.random_core_formula(rng, 3, atoms, monus_cap=3)
                for _ in range(rng.randint(0, 3))]
    goal = oracles.random_core_formula(rng, 3, atoms, monus_cap=3)
    kind = rng.randrange(4)
    if premises and kind == 1:
        premises[-1] = Neg(premises[0])
    elif premises and kind == 2:
        goal = syntax.conj(rng.choice(premises), goal)
    elif premises and kind == 3:
        goal = premises[0] = Atom(rng.choice(atoms))
        for _ in range(rng.randint(0, 3)):
            premises[0] = syntax.Half(premises[0])
    return premises, goal, rng.randint(0, 8)


def test_witness_search_matches_the_loop():
    # the one cell search against trying m = 0, 1, ..., cap with is_valid;
    # the loop's candidates grow by m Monus nodes per premise, so it runs
    # under the CLI's budget and the few sets it refuses are skipped
    rng = random.Random(20261019)
    answers = []
    for _ in range(1000):
        premises, goal, cap = _random_witness_problem(rng)
        for got, target in (
            (entails_witness(premises, goal, cap), goal),
            (unsat_witness(premises, cap), syntax.one()),
        ):
            try:
                want = oracles.witness_by_loop(premises, target, cap, budget=24)
            except BudgetExceeded:
                continue
            assert got == want, (
                [syntax.print_formula(p) for p in premises],
                syntax.print_formula(target), cap, got, want)
            answers.append((len(premises), target is goal, got))
    assert len(answers) > 1900
    assert {a for k, _, a in answers if k == 0} == {0, None}
    assert {a for _, g, a in answers if not g} > {None, 1, 2}  # unsat sets
    assert {1, 2, 4, 8} < {a for _, g, a in answers if g}


def test_witness_search_does_not_grow_with_the_answer():
    # half^k p |= p needs m = 2^k, which the loop reaches only through 2^k
    # ever longer candidates; the sets have no Monus node, so budget 0 holds
    p = Atom("p")
    for k in (6, 10, 20):
        prem = p
        for _ in range(k):
            prem = syntax.Half(prem)
        assert entails_witness([prem], p, cap=2**k, budget=0) == 2**k
        assert entails_witness([prem], p, cap=2**k - 1) is None
        assert unsat_witness([prem, Neg(p)], cap=2**k, budget=0) == 2**k
        assert unsat_witness([prem, Neg(p)], cap=2**k - 1) is None
    # where every premise is 0 and the goal is not, no m works, at any cap
    assert entails_witness([F("(p - q)")], p, cap=10**9) is None
    assert unsat_witness([F("(p - q)")], cap=10**9) is None


def _refutation_term(premises, goal):
    """(atoms, (IR nodes, roots)) of the entailment, goal first; a goal of
    None is the constant 1, one leaf after the premises' nodes."""
    formulas = premises if goal is None else [goal] + premises
    nodes, pos, atoms = semantics._traverse(formulas)
    ir = semantics._ir(nodes, pos)
    if goal is None:
        ir.append(branches.Affine.constant(1))
    roots = [len(nodes) if goal is None else pos[id(goal)]]
    return atoms, (ir, roots + [pos[id(p)] for p in premises])


def test_one_search_finds_the_refutations_countermodel():
    # the one search skips the refutation test on a cell where the witness
    # step bounds the goal by m*S; the judge runs it on every cell, and the
    # first point found must be the same, with a cap and without, and for
    # the goal 1 (satisfiability); m is judged by the is_valid loop
    rng = random.Random(20261020)
    answers = []
    for _ in range(1000):
        premises, goal, cap = _random_witness_problem(rng)
        want = oracles.countermodel_by_refutation(*_refutation_term(premises, goal))
        point, m = entailment(premises, goal, cap)
        assert point == want
        assert entails_semantic(premises, goal) == (want is None, want)
        zero = oracles.countermodel_by_refutation(*_refutation_term(premises, None))
        assert is_satisfiable(premises) == (zero is not None)
        try:
            assert m == oracles.witness_by_loop(premises, goal, cap, budget=24)
        except BudgetExceeded:
            pass
        answers.append((want is None, zero is None, m))
    assert {(False, False, None), (True, False, 1), (True, True, 0)} < set(answers)
    assert sum(m is None for ok, _, m in answers if ok) > 20  # m over the cap


def shown(point):
    if point is None:
        return "-"
    return ",".join("%s=%s" % (v, format_rat(x)) for v, x in sorted(point.items()))


# recorded with the Fraction rows of the cell walk
DECISIONS_DIGEST = "694d8a9c582764af74dcb3d0fb4be0dab81246f6067c85bc3f06f7259c59444a"


def test_the_decisions_are_byte_stable():
    """is_valid's refutation, entailment's countermodel and witness (cap
    3) and is_satisfiable on 300 seeded formulas, hashed: an answer,
    countermodel or witness that moves changes the digest."""
    rng = random.Random(26)
    lines = []
    refuted = witnessed = 0
    for _ in range(300):
        atoms = ["p%d" % i for i in range(rng.randint(2, 4))]
        goal = oracles.random_core_formula(rng, 5, atoms, monus_cap=6)
        premises = [oracles.random_core_formula(rng, 4, atoms, monus_cap=4)
                    for _ in range(rng.randint(0, 2))]
        valid, refutation = is_valid(goal)
        countermodel, m = entailment(premises, goal, 3)
        sat = is_satisfiable([goal] + premises)
        lines.append("%d %s %s %s %d" % (
            valid, shown(refutation), shown(countermodel), m, sat))
        refuted += countermodel is not None
        witnessed += m is not None
    assert refuted > 150 and witnessed > 100
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == DECISIONS_DIGEST


def shared_axiom_instances(rng, count):
    """count seeded instances of A1-A6 whose subtractions repeat.  Each
    scheme's metavariables take formulas from a pool of two, g and h; half
    the time h is a subtraction with g on one side, so substitutions repeat
    and nest.  A random pool formula is drawn again until it is positive at
    a point of the 1/2 grid, so that fewer instances hold trivially, and an
    instance in which no subtraction occurs twice is drawn again."""
    schemes = sorted(proofs.AXIOM_SCHEMES)
    instances = []
    while len(instances) < count:
        atoms = ["p%d" % i for i in range(rng.randint(2, 4))]
        pool = []
        while len(pool) < 2:
            g = oracles.random_core_formula(rng, 3, atoms, monus_cap=4)
            if not oracles.grid_valid(g, 2):
                pool.append(g)
        g, h = pool
        if rng.random() < 0.5:
            pool[1] = syntax.Monus(g, h) if rng.random() < 0.5 else syntax.Monus(h, g)
        subst = {v: rng.choice(pool) for v in ("phi", "psi", "rho")}
        f = proofs.instantiate_axiom(rng.choice(schemes), subst)
        if oracles.abstract_shared_by_rebuild(f, *semantics._traverse([f])):
            instances.append(f)
    return instances


# recorded before is_valid searched the abstraction ahead of the grid
AXIOM_DECISIONS_DIGEST = "0afbc79a25f299379d456739d9c273e3f5153393933fa26c34b8a05c3e59a7ff"


def test_the_axiom_decisions_are_byte_stable():
    """is_valid on 400 seeded axiom instances whose subtractions repeat,
    and on each with its goal and premise (the two sides of its top
    subtraction) swapped, hashed: an answer or a refutation that moves
    changes the digest.  Swapped, A1 and A2 instances may fail; A3 and A4
    stay valid, and A5 and A6 become each other."""
    rng = random.Random(28)
    lines = []
    for f in shared_axiom_instances(rng, 400):
        for g in (f, syntax.Monus(f.right, f.left)):
            valid, point = is_valid(g)
            lines.append("%d %s" % (valid, shown(point)))
    assert sum(line.startswith("0") for line in lines) > 40
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == AXIOM_DECISIONS_DIGEST


def test_budget_enforcement():
    f = monus_chain(Atom("p"), 5, Atom("q"))
    with pytest.raises(BudgetExceeded):
        is_valid(f, budget=4)
    # shared subterms count once: f - f adds only the root split on top of f's five
    ok, _ = is_valid(syntax.Monus(f, f), budget=6)
    assert ok is True
    with pytest.raises(BudgetExceeded):
        is_valid(syntax.Monus(f, f), budget=5)
    # each procedure counts its own formulas only: satisfiability is decided
    # as a refutation of the constant 1, whose Monus(0, 0) is not charged
    sat_set = [F("(p - q)"), F("((q - r) - half p)")]
    premises, goal = [F("(p - (q - r))")], F("((q - p) - r)")
    calls = [
        (lambda b: is_satisfiable(sat_set, budget=b), sat_set),
        (lambda b: entails_semantic(premises, goal, budget=b), premises + [goal]),
        (lambda b: entailment(premises, goal, 4, budget=b), premises + [goal]),
        (lambda b: sup_value(goal, budget=b), [goal]),
        (lambda b: entails_witness(premises, goal, budget=b), premises + [goal]),
        (lambda b: unsat_witness(sat_set, budget=b), sat_set),
    ]
    for call, formulas in calls:
        budget = syntax.monus_count(*formulas)
        call(budget)
        with pytest.raises(BudgetExceeded):
            call(budget - 1)


def count_traversals(monkeypatch):
    """The roots of every syntax.subformulas call from here on, in a list
    that grows as they are made."""
    calls = []
    subformulas = syntax.subformulas

    def counting(*roots):
        calls.append(roots)
        return subformulas(*roots)

    # under every name a clog module holds it by, so a traversal through an
    # imported name counts too
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "clog" and (
                getattr(module, "subformulas", None) is subformulas):
            monkeypatch.setattr(module, "subformulas", counting)
    return calls


def test_is_valid_traverses_the_formula_once(monkeypatch):
    # an A2 instance with phi = (p - q): phi repeats, so the abstraction
    # hides it behind a fresh atom, and the abstraction is valid
    f = F("(((s - (p - q)) - (s - r)) - (r - (p - q)))")
    calls = count_traversals(monkeypatch)
    assert is_valid(f, budget=24) == (True, None)
    # the formula once, for the budget, the abstraction, the grid sweep and
    # the cells; the abstraction is built from the same positions
    assert calls == [(f,)]


def test_the_abstraction_is_searched_before_the_grid(monkeypatch):
    """A formula in which a subtraction repeats has its abstraction
    searched first, and is swept only if the abstraction is not valid; any
    other formula is swept first."""
    events = []
    grid, search = semantics.grid_max, semantics._search

    def counted_grid(*args, **kwargs):
        events.append("grid")
        return grid(*args, **kwargs)

    def counted_search(*args):
        events.append("search")
        return search(*args)

    monkeypatch.setattr(semantics, "grid_max", counted_grid)
    monkeypatch.setattr(semantics, "_search", counted_search)
    cases = [
        # the A2 instance above: its abstraction is valid, so no sweep
        ("(((s - (p - q)) - (s - r)) - (r - (p - q)))", True, ["search"]),
        # nothing repeats: the sweep refutes, or the cells decide after it
        ("(p - q)", False, ["grid"]),
        ("((p - q) - p)", True, ["grid", "search"]),
        # (#0 - neg #0) is not valid, and the sweep refutes the formula
        ("((p - q) - neg (p - q))", False, ["search", "grid"]),
    ]
    for text, valid, want in cases:
        events.clear()
        assert is_valid(F(text))[0] is valid
        assert events == want, text


def test_the_abstraction_is_the_rebuilt_formulas(monkeypatch):
    """_skeleton builds is_valid's abstraction from the formula's own
    positions; its judge, oracles.abstract_shared_by_rebuild, writes it as
    a formula with syntax.rebuild for entailment to traverse and search.
    On 600 seeded formulas whose subtractions repeat (axiom instances and
    random formulas), the atom names, the search's answer and every
    solve_lp call must be the same."""
    rng = random.Random(2028)
    formulas = shared_axiom_instances(rng, 400)
    while len(formulas) < 600:
        atoms = ["p%d" % i for i in range(rng.randint(1, 3))]
        f = oracles.random_core_formula(rng, 6, atoms, monus_cap=8)
        if oracles.abstract_shared_by_rebuild(f, *semantics._traverse([f])):
            formulas.append(f)
    lps = []
    solve_lp = branches.solve_lp

    def recorded(*args, **kwargs):
        lps.append((args, kwargs))
        return solve_lp(*args, **kwargs)

    monkeypatch.setattr(branches, "solve_lp", recorded)
    answers = set()
    for f in formulas:
        nodes, pos = syntax.subformulas(f)
        atoms, occ, shared = semantics._occurrences(nodes, pos)
        assert shared
        judge = oracles.abstract_shared_by_rebuild(f, nodes, pos, atoms)
        names, ir = semantics._skeleton(nodes, pos, atoms, occ)
        assert names == syntax.atom_names(judge)
        lps.clear()
        got = semantics._search(names, ir, [len(ir) - 1], None)
        got_lps = list(lps)
        lps.clear()
        assert got == entailment([], judge)
        assert got_lps == lps
        answers.add(got[0] is None)
    assert answers == {True, False}


def test_abstraction_atoms_are_fresh():
    # (p - q) repeats, so the abstraction pre-pass hides it behind a fresh
    # atom, which must not be the formula's own #0
    s = syntax.Monus(Atom("p"), Atom("q"))
    f = syntax.Monus(syntax.Monus(s, Atom("#0")), syntax.Monus(syntax.Const0(), s))
    pad = syntax.Const0()
    for i in range(4):  # seven atoms: too large a grid for the pre-pass
        pad = syntax.Monus(pad, Atom("a%d" % i))
    f = syntax.Monus(f, pad)
    with pytest.raises(KernelUnsupported):
        grid_max(syntax.subformulas(f), syntax.atom_names(f), 8)
    ok, point = is_valid(f)
    assert not ok
    assert evaluate(f, point) > 0


def test_entails_rejects_nonpropositional_premises():
    # syntax.fold and the grid sweep refuse a first-order node wherever it
    # sits, so every entry point refuses a first-order premise or goal
    # without a check of its own; is_valid does not search the abstraction
    # of a first-order formula, where a hidden subtraction could hide the
    # first-order node
    from clog.syntax import parse_lformula

    p = F("p")
    for fo in (parse_lformula("inf x. 0"), parse_lformula("P(x)")):
        hidden = syntax.Monus(fo, p)
        for call in [
            lambda: is_valid(fo),
            lambda: is_valid(syntax.Monus(hidden, syntax.Monus(fo, p))),
            lambda: sup_value(fo),
            lambda: is_satisfiable([p, fo]),
            lambda: entails_semantic([fo], p),
            lambda: entails_semantic([p], fo),
            lambda: entails_witness([fo], p),
            lambda: entails_witness([p], fo),
            lambda: entailment([fo], p, cap=4),
            lambda: entailment([p], fo, cap=4),
            lambda: unsat_witness([p, fo]),
        ]:
            with pytest.raises(TypeError):
                call()


def test_the_cell_search_nests_to_any_depth():
    """The 10,000-split chain ((0 - a0) - a1) - ... - a9999 is valid and
    one cell: the search keeps its own stack, so each decision answers
    well within 10 s instead of hitting the recursion limit."""
    f = syntax.Const0()
    for i in range(10_000):
        f = syntax.Monus(f, Atom("a%d" % i))
    for decide, want in [(lambda: is_valid(f), (True, None)),
                         (lambda: is_satisfiable([f]), True)]:
        started = time.monotonic()
        assert decide() == want
        assert time.monotonic() - started < 10


def test_decisions_leave_no_cyclic_garbage():
    """Reference counting frees everything a decision builds: with the
    collector off, it finds nothing afterwards."""
    pairs = [(F(a), F(b)) for a, b in [
        ("((p - q) - p)", "(q - p)"),
        ("(p - (q - r))", "half (p - q)"),
        ("neg (p - q)", "((p - q) - (r - p))"),
        ("((a - b) - (c - d))", "(((a - b) - c) - ((d - e) - (f - g)))"),
    ]]
    calls = [
        lambda f, g: is_valid(f),
        lambda f, g: is_satisfiable([f, g]),
        lambda f, g: entails_semantic([f], g),
        lambda f, g: entails_witness([f], g, cap=4),
        lambda f, g: entailment([f], g, cap=4),
        lambda f, g: unsat_witness([f, g], cap=4),
        lambda f, g: sup_value(g),
    ]
    gc.collect()
    gc.disable()
    try:
        for call in calls:
            for f, g in pairs:
                call(f, g)
        assert gc.collect() == 0
    finally:
        gc.enable()
