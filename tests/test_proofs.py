import random

import pytest

import oracles
from clog import proofs, syntax
from clog.proofs import (
    ProofLine,
    check_proof,
    eliminate_half,
    find_proof,
    instantiate_axiom,
    proof_from_json,
    proof_to_json,
    recorded_monus_self,
)
from clog.semantics import entails_semantic, is_valid
from clog.syntax import Monus, parse_formula as F, print_formula as P


def test_instantiate_axiom_examples():
    got = instantiate_axiom("A1", {"phi": F("p"), "psi": F("q")})
    assert got == F("((p - q) - p)")
    got = instantiate_axiom("A5", {"phi": F("p")})
    assert got == F("(half p - (p - half p))")
    # symmetric A3 instance, conjunction expanded
    got = instantiate_axiom("A3", {"phi": F("p"), "psi": F("p")})
    assert got == F("((p - (p - p)) - (p - (p - p)))")
    with pytest.raises(ValueError):
        instantiate_axiom("A2", {"phi": F("p"), "psi": F("q")})  # rho missing
    with pytest.raises(ValueError):
        instantiate_axiom("A7", {"phi": F("p")})


def test_axiom_instances_are_valid():
    rng = random.Random(31)
    names = ["p", "q", "r"]
    for _ in range(40):
        subst = {
            "phi": oracles.random_core_formula(rng, 3, names, monus_cap=4),
            "psi": oracles.random_core_formula(rng, 3, names, monus_cap=4),
            "rho": oracles.random_core_formula(rng, 3, names, monus_cap=4),
        }
        for scheme in ("A1", "A2", "A3", "A4", "A5", "A6"):
            ok, cx = is_valid(instantiate_axiom(scheme, subst))
            assert ok, (scheme, subst, cx)


def test_check_proof_accepts_modus_ponens_chain():
    premises = [F("p"), F("(q - p)")]
    proof = [
        ProofLine(F("p"), ("premise", 0)),
        ProofLine(F("(q - p)"), ("premise", 1)),
        ProofLine(F("q"), ("mp", 0, 1)),
    ]
    assert check_proof(proof, premises)
    # wrong conclusion: same citations cannot justify r
    bad = proof[:2] + [ProofLine(F("r"), ("mp", 0, 1))]
    ok, offense = check_proof(bad, premises, explain=True)
    assert not ok
    assert offense[0] == 2


def test_check_proof_single_axiom_line():
    subst = {"phi": F("p"), "psi": F("q"), "rho": F("r")}
    line = ProofLine(instantiate_axiom("A2", subst), ("axiom", "A2"), subst)
    assert check_proof([line])


def test_check_proof_reports_first_offense():
    cases = [
        ([ProofLine(F("p"), ("premise", 0))], [], 0, "out of range"),
        ([ProofLine(F("p"), ("premise", 0))], [F("q")], 0, "differs"),
        (
            [ProofLine(F("p"), ("axiom", "A1"), {"phi": F("p"), "psi": F("q")})],
            [],
            0,
            "not that instance",
        ),
        ([ProofLine(F("p"), ("mp", 0, 1))], [], 0, "earlier"),
        (
            [
                ProofLine(F("p"), ("premise", 0)),
                ProofLine(F("q"), ("premise", 1)),
                ProofLine(F("r"), ("mp", 0, 1)),
            ],
            [F("p"), F("q")],
            2,
            "is not",
        ),
        ([ProofLine(F("p"), ("guess",))], [], 0, "unknown"),
    ]
    for proof, premises, at, needle in cases:
        ok, offense = check_proof(proof, premises, explain=True)
        assert not ok
        assert offense[0] == at
        assert needle in offense[1]


def test_recorded_derivation_library():
    proof = recorded_monus_self()
    assert len(proof) == 9
    assert check_proof(proof)
    assert proof[-1].formula == F("(p - p)")
    for line in proof:  # theorems only: every line valid on its own
        ok, cx = is_valid(line.formula)
        assert ok, (P(line.formula), cx)


def test_find_proof_one_liners():
    pr = find_proof(F("q"), [F("q")], depth=1)
    assert pr is not None and len(pr) == 1
    assert pr[0].by == ("premise", 0)
    goal = instantiate_axiom("A1", {"phi": F("p"), "psi": F("(q - p)")})
    pr = find_proof(goal, [], depth=1)
    assert pr is not None and len(pr) == 1
    assert pr[0].by[0] == "axiom"
    assert check_proof(pr)


def test_find_proof_monus_self():
    goal = F("(p - p)")
    pr = find_proof(goal, [], depth=20)
    assert pr is not None and len(pr) <= 20
    assert check_proof(pr)
    assert pr[-1].formula == goal


def test_find_proof_uses_premises():
    pr = find_proof(F("half p"), [F("p")], depth=8)
    assert pr is not None
    assert check_proof(pr, [F("p")])
    assert pr[-1].formula == F("half p")
    # the halving axioms let the search double a premise too
    pr = find_proof(F("p"), [F("half p")], depth=8)
    assert pr is not None
    assert check_proof(pr, [F("half p")])


def test_find_proof_misses():
    assert find_proof(F("p"), [], depth=20) is None
    # premise max(0, 2p-1) does not pin p to zero, so no proof can exist
    prem = syntax.monus_chain(syntax.one(), 2, syntax.monus_chain(syntax.one(), 1, F("p")))
    assert find_proof(F("p"), [prem], depth=16) is None
    # found but longer than the line budget
    assert find_proof(F("(p - p)"), [], depth=3) is None


def test_found_proofs_are_sound():
    rng = random.Random(67)
    jobs = []
    for _ in range(25):
        goal = oracles.random_core_formula(rng, 3, ["p", "q"], monus_cap=3)
        prems = [oracles.random_core_formula(rng, 2, ["p", "q"], monus_cap=2)]
        jobs.append((goal, prems, False))
    for _ in range(8):  # always-derivable shapes, multi-step proofs
        x = oracles.random_core_formula(rng, 2, ["p", "q"], monus_cap=2)
        jobs.append((Monus(x, x), [], True))
        jobs.append((syntax.Half(x), [x], True))
        jobs.append((x, [syntax.Half(x)], True))
    found = 0
    for goal, prems, must_find in jobs:
        pr = find_proof(goal, prems, depth=14)
        if pr is None:
            assert not must_find, (P(goal), [P(x) for x in prems])
            continue
        found += 1
        assert check_proof(pr, prems)
        assert pr[-1].formula == goal
        ok, _ = entails_semantic(prems, goal)
        assert ok, (P(goal), [P(x) for x in prems])
    assert found >= 24  # all constructed cases plus whatever randomness adds


def test_eliminate_half_goal_only():
    r = eliminate_half([], F("half p"))
    assert r.goal == F("Q0")
    assert [P(x) for x in r.premises] == ["((p - Q0) - Q0)", "(Q0 - (p - Q0))"]
    assert {k: P(v) for k, v in r.fresh.items()} == {"Q0": "half p"}


def test_eliminate_half_nested():
    r = eliminate_half([F("half half p")], F("0"))
    assert r.goal == F("0")
    assert [P(x) for x in r.premises] == [
        "Q1",
        "((p - Q0) - Q0)",
        "(Q0 - (p - Q0))",
        "((Q0 - Q1) - Q1)",
        "(Q1 - (Q0 - Q1))",
    ]
    assert list(r.fresh) == ["Q0", "Q1"]
    assert r.fresh["Q1"] == syntax.Half(F("Q0"))


def test_eliminate_half_trivial_and_collisions():
    r = eliminate_half([], F("p"))
    assert r.goal == F("p") and r.premises == [] and r.fresh == {}
    r = eliminate_half([F("Q0")], F("half Q1"))
    assert list(r.fresh) == ["Q2"]  # Q0 and Q1 are taken by the input
    with pytest.raises(TypeError):
        eliminate_half([], syntax.parse_lformula("inf x. P(x)"))


def test_one_pass_elimination_matches_the_steps():
    """eliminate_half against oracles.eliminate_half_by_steps, the loop it
    replaced, on random premises and goals that share subformulas and hold
    atoms named like the fresh ones: the same texts, in the same order."""
    rng = random.Random(91)
    halves = 0
    for _ in range(400):
        names = rng.sample(["p", "q", "Q0", "Q2"], 3)
        pool = [oracles.random_core_formula(rng, 4, names) for _ in range(3)]
        sigma = [rng.choice([f, Monus(f, rng.choice(pool))])
                 for f in rng.sample(pool, rng.randint(0, 3))]
        goal = rng.choice(pool + [syntax.Half(rng.choice(pool))])
        got = eliminate_half(sigma, goal)
        want = oracles.eliminate_half_by_steps(sigma, goal)
        assert [P(f) for f in got.premises] == [P(f) for f in want.premises]
        assert P(got.goal) == P(want.goal)
        assert {k: P(f) for k, f in got.fresh.items()} == {
            k: P(f) for k, f in want.fresh.items()}
        assert list(got.fresh) == list(want.fresh)
        halves += len(got.fresh)
    assert halves > 400


def test_the_printed_lengths_are_the_printed_texts_lengths():
    """find_proof picks its pool by the lengths one fold gives: they are
    those of print_formula, on every subformula of random formulas."""
    rng = random.Random(92)
    for _ in range(200):
        f = oracles.random_core_formula(rng, 6, ["p", "q2", "long_name"])
        nodes, pos = syntax.subformulas(f)
        lengths = syntax.fold(nodes, pos, proofs._PRINTED_LENGTH)
        assert lengths == [len(P(g)) for g in nodes]


def test_eliminate_half_preserves_entailment():
    rng = random.Random(90)
    checked = 0
    while checked < 25:
        names = ["p", "q", "r"]
        sigma = [
            oracles.random_core_formula(rng, 3, names, monus_cap=3)
            for _ in range(rng.randrange(3))
        ]
        goal = oracles.random_core_formula(rng, 3, names, monus_cap=3)
        halves = sum(
            1
            for f in sigma + [goal]
            for s in syntax.subformulas(f)[0]
            if isinstance(s, syntax.Half)
        )
        if not 1 <= halves <= 2:
            continue
        r = eliminate_half(sigma, goal)
        for f in r.premises + [r.goal]:
            assert not any(
                isinstance(s, syntax.Half) for s in syntax.subformulas(f)[0]
            )
        want, _ = entails_semantic(sigma, goal)
        got, _ = entails_semantic(r.premises, r.goal)
        assert got == want
        checked += 1


def test_proof_json_roundtrip():
    pr = find_proof(F("half p"), [F("p")], depth=8)
    data = proof_to_json(pr)
    back = proof_from_json(data)
    assert check_proof(back, [F("p")])
    assert [l.formula for l in back] == [l.formula for l in pr]
    assert [l.by for l in back] == [l.by for l in pr]
    with pytest.raises(ValueError, match="line 0"):
        proof_from_json([{"formula": "p", "by": "hunch:3"}])
    with pytest.raises(ValueError, match="line 1"):
        proof_from_json(
            [{"formula": "p", "by": "premise:0"}, {"formula": "p (", "by": "premise:0"}]
        )
