import copy
import pickle
import random

import pytest

import oracles
from clog.syntax import (
    Apply,
    Atom,
    Const0,
    Half,
    Inf,
    Monus,
    Neg,
    ParseError,
    Pred,
    Signature,
    Sup,
    Var,
    atom_names,
    conj,
    disj,
    dyadic,
    free_variables_at,
    is_propositional,
    monus_chain,
    monus_count,
    one,
    parse_formula,
    parse_lformula,
    print_formula,
    subformulas,
    substitute,
)


def test_parse_core_examples():
    assert parse_formula("0") == Const0()
    assert parse_formula("p") == Atom("p")
    assert parse_formula("neg p") == Neg(Atom("p"))
    assert parse_formula("half 0") == Half(Const0())
    assert parse_formula("(p - q)") == Monus(Atom("p"), Atom("q"))
    assert parse_formula("( (p - q) - p )") == Monus(
        Monus(Atom("p"), Atom("q")), Atom("p")
    )


def test_sugar_expansions():
    p, q = Atom("p"), Atom("q")
    assert parse_formula("(p /\\ q)") == Monus(p, Monus(p, q))
    assert parse_formula("(p \\/ q)") == Neg(conj(Neg(p), Neg(q)))
    assert parse_formula("(p (+) q)") == Neg(Monus(Neg(p), q))
    assert parse_formula("1") == Neg(Monus(Const0(), Const0()))
    assert parse_formula("2^-0") == one()
    assert parse_formula("2^-2") == Half(Half(one()))
    assert parse_formula("|p - q|") == disj(Monus(p, q), Monus(q, p))
    # sugar expands to core only: the printed form contains no sugar tokens
    s = print_formula(parse_formula("( |p - 2^-1| (+) (p \\/ q) )"))
    for tok in ("/\\", "\\/", "(+)", "|", "1", "2^-"):
        assert tok not in s


def test_print_is_parse_inverse_on_examples():
    for text in [
        "0",
        "p",
        "neg half (p - 0)",
        "( (p - q) - (q - p) )",
        "half half neg (0 - 0)",
    ]:
        f = parse_formula(text)
        assert parse_formula(print_formula(f)) == f


def test_chains():
    p, q = Atom("p"), Atom("q")
    assert monus_chain(p, 0, q) == p
    assert monus_chain(p, 2, q) == Monus(Monus(p, q), q)
    with pytest.raises(ValueError):
        monus_chain(p, -1, q)


def random_formula(rng, depth, atoms=("p", "q", "r")):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice([Const0(), Atom(rng.choice(atoms))])
    kind = rng.randrange(3)
    if kind == 0:
        return Neg(random_formula(rng, depth - 1, atoms))
    if kind == 1:
        return Half(random_formula(rng, depth - 1, atoms))
    return Monus(
        random_formula(rng, depth - 1, atoms), random_formula(rng, depth - 1, atoms)
    )


def test_roundtrip_random_core_formulas():
    rng = random.Random(7)
    for _ in range(300):
        f = random_formula(rng, rng.randrange(1, 7))
        assert parse_formula(print_formula(f)) == f


def test_structural_helpers():
    f = parse_formula("( (p - q) - (p - q) )")
    # the repeated subterm is counted once
    assert monus_count(f) == 2
    assert atom_names(f) == ["p", "q"]
    subs, pos = subformulas(f)
    assert subs[-1] == f
    assert len(subs) == len(set(subs))
    # both (p - q) objects sit at one position, the root at the last
    assert pos[id(f.left)] == pos[id(f.right)]
    assert pos[id(f)] == len(subs) - 1
    assert is_propositional(f)


def test_parse_errors():
    for bad in ["", "(p - q", "p q", "neg", "2^-", "p $ q", "(p + q)", "01", "(p"]:
        with pytest.raises(ParseError):
            parse_formula(bad)
    # 2^-n takes n up to 10,000; above that the error points at the exponent
    assert print_formula(parse_formula("2^-10000")) == print_formula(dyadic(10000))
    for bad in ["2^-10001", "2^-99999999999", "(p - 2^-0000010001)"]:
        with pytest.raises(ParseError) as exc:
            parse_formula(bad)
        assert exc.value.position == bad.index("2^-") + 3
    # the exponent is ASCII digits only: no superscripts, no other scripts
    for bad in ["2^-²", "(p - 2^-٣)"]:
        with pytest.raises(ParseError) as exc:
            parse_formula(bad)
        assert str(exc.value) == "expected digits after '2^-' (at offset %d)" % (
            bad.index("2^-") + 3)
    # identifiers start with a letter or '_' and go on with any str.isalnum()
    assert parse_formula("p²") == Atom("p²")
    assert parse_formula("é") == Atom("é")
    for bad, message, at in [
        ("²p", "unexpected character '²'", 0),
        ("p\t-", "trailing input", 2),
    ]:
        with pytest.raises(ParseError) as exc:
            parse_formula(bad)
        assert str(exc.value) == "%s (at offset %d)" % (message, at)
    with pytest.raises(ParseError):
        parse_formula("inf x. P(x)")  # quantifiers need the first-order parser
    with pytest.raises(ParseError):
        parse_lformula("p")  # bare identifiers are not first-order formulas
    with pytest.raises(ParseError):
        parse_lformula("inf neg. P(neg)")


def _sugar_text(rng, depth):
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(["0", "1", "p", "q", "r2", "_x", "2^-%d" % rng.randrange(4)])
    kind = rng.randrange(6)
    if kind < 2:
        return ("neg ", "half ")[kind] + _sugar_text(rng, depth - 1)
    a, b = _sugar_text(rng, depth - 1), _sugar_text(rng, depth - 1)
    if kind == 2:
        return "|%s - %s|" % (a, b)
    return "(%s %s %s)" % (a, rng.choice(["-", "/\\", "\\/", "(+)"]), b)


def _term_text(rng, depth):
    if depth == 0 or rng.random() < 0.5:
        return rng.choice(["x", "y", "z", "c()"])
    return "f(%s, %s)" % (_term_text(rng, depth - 1), _term_text(rng, depth - 1))


def _first_order_text(rng, depth):
    if depth == 0 or rng.random() < 0.25:
        return rng.choice([
            "P(%s)" % _term_text(rng, 2),
            "d(%s, %s)" % (_term_text(rng, 2), _term_text(rng, 1)),
            "Q()", "0", "2^-1",
        ])
    kind = rng.randrange(5)
    body = _first_order_text(rng, depth - 1)
    if kind < 2:
        return "%s %s. %s" % (("inf", "sup")[kind], rng.choice("xyz"), body)
    if kind == 2:
        return "neg " + body
    return "(%s %s %s)" % (body, rng.choice(["-", "/\\"]),
                           _first_order_text(rng, depth - 1))


def test_parser_matches_the_offset_tracking_judge():
    """Both parsers give the judge's formula, or its ParseError with the
    same message and offset, on well-formed texts and on each with one
    character deleted, doubled or replaced."""
    rng = random.Random(13)
    texts = ["2^-10000", "(p - 2^-10001)", "inf neg. P(x)", "sup x. inf half. Q()",
             "(p - 2^-%s1)" % ("0" * 5000)]  # more digits than int() reads
    for _ in range(500):
        f = oracles.random_core_formula(rng, rng.randrange(1, 6), ["p", "q", "r"])
        texts.append(print_formula(f))
        texts.append(_sugar_text(rng, rng.randrange(1, 5)))
        texts.append(_first_order_text(rng, rng.randrange(1, 5)))
    for text in list(texts):
        i = rng.randrange(len(text))
        how = rng.randrange(3)
        if how == 0:
            texts.append(text[:i] + text[i + 1:])
        elif how == 1:
            texts.append(text[:i] + text[i] + text[i:])
        else:
            texts.append(text[:i] + rng.choice("²٣#\t()|-.") + text[i + 1:])
    assert len(texts) == 3010
    refused = 0
    for text in texts:
        for first_order, parse in ((False, parse_formula), (True, parse_lformula)):
            try:
                want = oracles.parse_tracking_offsets(text, first_order)
            except ParseError as e:
                want = (str(e), e.position)
            try:
                got = parse(text)
            except ParseError as e:
                got = (str(e), e.position)
            assert got == want, (text, first_order)
            refused += type(want) is tuple
    assert 2000 < refused < 4000


def test_lformula_roundtrip():
    f = parse_lformula("inf x. sup y. (P(x) - d(x, f(y, c())))")
    assert f == Inf(
        "x",
        Sup(
            "y",
            Monus(
                Pred("P", (Var("x"),)),
                Pred("d", (Var("x"), Apply("f", (Var("y"), Apply("c", ()))))),
            ),
        ),
    )
    assert parse_lformula(print_formula(f)) == f
    assert free_variables_at(*subformulas(f))[-1] == set()
    assert free_variables_at(*subformulas(f.body))[-1] == {"x"}
    assert not is_propositional(f)


def test_lformula_allows_propositional_clauses():
    f = parse_lformula("(2^-1 - inf x. P(x))")
    assert isinstance(f, Monus)
    assert parse_lformula(print_formula(f)) == f


def test_signature_validation():
    sig = Signature(functions={"f": ["1", 2]}, predicates={"P": [1]})

    def validate(text):
        sig.validate_subformulas(subformulas(parse_lformula(text))[0])

    validate("inf x. (P(x) - d(x, x))")
    for text in ["Q(x)", "P(x, x)", "d(x, x, x)", "P(g(x))"]:
        with pytest.raises(ValueError):
            validate(text)
    with pytest.raises(ValueError):
        Signature(predicates={"d": [1, 1]})
    with pytest.raises(ValueError):
        Signature(functions={"f": [1]}, predicates={"f": [1]})
    with pytest.raises(ValueError):
        Signature(predicates={"P": [-1]})


def test_walkers_never_hash_or_compare_nodes(monkeypatch):
    """The formula walkers identify subformulas by position, never by
    hashing a node or comparing two nodes: with both disabled on every node
    class they give the same answers."""
    from clog import proofs, randomisation, rv, semantics
    from clog.rationals import rat

    sig = Signature(functions={"f": [1, 1], "c": []}, predicates={"P": [1]})
    sp = rv.FiniteProbSpace.uniform(["a", "b"])
    family = randomisation.RandomFamily(sp, [
        randomisation.FiniteLStructure(
            sig, ["u", "v"], predicates={"P": {("u",): rat(1, 4), ("v",): rat(1, 2)}},
            functions={"f": {(a, b): "u" for a in "uv" for b in "uv"},
                       "c": {(): "v"}},
            metric=[[0, rat(1, 2)], [rat(1, 2), 0]]),
        randomisation.FiniteLStructure(
            sig, ["w"], predicates={"P": {("w",): rat(1, 3)}},
            functions={"f": {("w", "w"): "w"}, "c": {(): "w"}}),
    ])
    env = {"p": rv.RandomVariable(sp, [rat(1, 3), rat(1)]),
           "q": rv.RandomVariable(sp, [rat(1, 2), rat(0)])}

    def answers():
        A = parse_formula
        a2 = proofs.instantiate_axiom(
            "A2", {"phi": A("half p"), "psi": A("(p - q)"), "rho": A("neg q")})
        shared = A("( ((p - q) - (p - q)) - half (p - q) )")
        lf = parse_lformula("inf x. sup y. (P(x) - d(x, f(y, c())))")
        sig.validate_subformulas(subformulas(lf)[0])
        elim = proofs.eliminate_half([A("half half p")], A("(half p - q)"))
        return [
            semantics.is_valid(a2), semantics.is_valid(shared),
            semantics.is_valid(A("p")),
            semantics.is_satisfiable([A("p"), A("neg p")]),
            semantics.entails_semantic([A("p")], A("half p")),
            semantics.entails_semantic([A("half p")], A("(q - p)")),
            semantics.evaluate(shared, {"p": rat(3, 4), "q": rat(1, 5)}),
            rv.rv_eval(shared, env, sp).values,
            semantics.grid_max(subformulas(a2), ["p", "q"], 4),
            print_formula(substitute(shared, {"p": A("neg q")})),
            [print_formula(f) for f in elim.premises + [elim.goal]],
            [print_formula(f) for f in elim.fresh.values()],
            print_formula(A("( |p - 2^-2| (+) (p \\/ q) )")),
            print_formula(lf),
            randomisation.bracket(lf, {}, family).values,
            randomisation.bracket_by_sections(lf, {}, family).values,
            randomisation.inf_witness(lf.body, "x", {}, family).values,
            randomisation.los_check(lf, {}, family),
        ]

    expected = answers()

    def refuse(*args):
        raise AssertionError("a formula node was hashed or compared")

    for cls in (Const0, Atom, Neg, Half, Monus, Var, Apply, Pred, Inf, Sup):
        monkeypatch.setattr(cls, "__hash__", refuse)
        monkeypatch.setattr(cls, "__eq__", refuse)
    assert answers() == expected


def test_node_reprs():
    # error texts embed these, so they read as before, field by field
    cases = [
        (Const0(), "Const0()"),
        (Atom("p"), "Atom(name='p')"),
        (Neg(Atom("p")), "Neg(body=Atom(name='p'))"),
        (Half(Const0()), "Half(body=Const0())"),
        (Monus(Atom("p"), Const0()), "Monus(left=Atom(name='p'), right=Const0())"),
        (Var("x"), "Var(name='x')"),
        (Apply("f", (Var("x"), Apply("g", ()))),
         "Apply(func='f', args=(Var(name='x'), Apply(func='g', args=())))"),
        (Pred("d", (Var("x"), Var("y"))),
         "Pred(name='d', args=(Var(name='x'), Var(name='y')))"),
        (Inf("x", Pred("P", (Var("x"),))),
         "Inf(var='x', body=Pred(name='P', args=(Var(name='x'),)))"),
        (Sup("y", Neg(Pred("P", (Var("y"),)))),
         "Sup(var='y', body=Neg(body=Pred(name='P', args=(Var(name='y'),))))"),
        (Atom("it's"), "Atom(name=\"it's\")"),
    ]
    for node, text in cases:
        assert repr(node) == text


def test_nodes_are_immutable_and_structural():
    f = Monus(Atom("p"), Half(Const0()))
    with pytest.raises(AttributeError):
        f.left = Atom("q")
    with pytest.raises(AttributeError):
        del f.left
    g = Monus(Atom("p"), Half(Const0()))
    assert f == g and hash(f) == hash(g) and f is not g
    assert f != Monus(Atom("p"), Neg(Const0()))
    assert Atom("p") != Var("p") and Atom("p") != "p"
    assert Inf("x", Pred("P", (Var("x"),))) != Sup("x", Pred("P", (Var("x"),)))
    assert {parse_formula("(p /\\ q)"): 1}[conj(Atom("p"), Atom("q"))] == 1
    lf = parse_lformula("inf x. (P(f(x)) - d(x, y))")
    for node in (f, lf):
        assert copy.deepcopy(node) == node
        assert pickle.loads(pickle.dumps(node)) == node
    # 40 nested conjunctions share subformulas: a tree of 2^40 nodes, which
    # equality and hashing visit once per distinct node
    text = "p"
    for _ in range(40):
        text = "(%s /\\ q)" % text
    a, b = parse_formula(text), parse_formula(text)
    assert a == b and hash(a) == hash(b)
    assert a != parse_formula(text.replace("q)", "r)", 1))


def test_deep_nodes_compare_hash_and_print():
    def deep(leaf):
        f = leaf
        for _ in range(100_000):
            f = Neg(f)
        return f

    a, b = deep(Atom("p")), deep(Atom("p"))
    assert a == b
    assert hash(a) == hash(b)
    assert a != deep(Atom("q"))
    text = repr(a)
    assert text == "Neg(body=" * 100_000 + "Atom(name='p')" + ")" * 100_000
