import random
import time

import pytest

import oracles
from clog import kernel, syntax
from clog.cli import main
from clog.kernel import KernelUnsupported, grid_max
from clog.rationals import rat
from clog.semantics import evaluate


def F(text):
    return syntax.parse_formula(text)


def test_active_backend_reports_a_backend():
    assert kernel.active_backend() == "python"


H28 = "half " * 28

#: (formula, denominator, scale): the scale, denominator * 2^halvings, sits
#: just below and just above 2^7, 2^15 and 2^31, where the sweep's lanes
#: widen by a byte.  Each left operand reaches the full scale, which must
#: not spill into the lane's guard bit.
LANE_EDGES = [
    ("(p - q)", 127, 127),
    ("(p - half q)", 64, 1 << 7),
    ("(neg p - half half half p)", 4095, 4095 << 3),
    ("(neg p - half half half p)", 4096, 1 << 15),
    ("(neg p - %sq)" % H28, 7, 7 << 28),
    ("(neg p - %sq)" % H28, 8, 1 << 31),
]

#: Formulas without atoms: a grid of one point.
NO_ATOMS = ["0", "neg 0", "half neg 0", "(neg 0 - half neg 0)",
            "(half neg 0 - neg 0)"]

#: Parsed sugar: its expansions share subformula objects (conj uses its left
#: operand twice) and repeat structurally equal subtrees, so the sweep's
#: positions are fewer than the tree's nodes.
SUGAR = [
    "(p /\\ q)",
    "(p \\/ neg q)",
    "(p (+) half q)",
    "|p - q|",
    "(2^-3 - |half p - q|)",
    "((p /\\ q) \\/ (p (+) q))",
    "|(p /\\ 2^-2) - (q \\/ half 1)|",
    "(((p /\\ q) /\\ q) /\\ q)",
    "(half (p (+) p) - (p /\\ p))",
    "(|p - 2^-1| (+) |q - 2^-1|)",
    "neg (1 (+) 2^-5)",
]


def test_grid_max_matches_fraction_oracle():
    rng = random.Random(23)
    cases = []
    for _ in range(80):
        f = oracles.random_core_formula(rng, 3, ["p", "q"], monus_cap=6)
        cases += [(f, syntax.atom_names(f), denom) for denom in (3, 4, 5)]
    for text, denom, scale in LANE_EDGES:
        f = F(text)
        assert denom << syntax.print_formula(f).count("half") == scale
        cases.append((f, syntax.atom_names(f), denom))
    cases += [(F(text), [], denom) for text in NO_ATOMS for denom in (1, 3)]
    for text in SUGAR:
        f = F(text)
        cases += [(f, syntax.atom_names(f), denom) for denom in (3, 4, 5)]
    for f, atoms, denom in cases:
        value, point = grid_max(syntax.subformulas(f), atoms, denom)
        want_value, want_point = oracles.grid_sup_fractions(f, atoms, denom)
        assert value == want_value, (f, denom)
        assert point == want_point, (f, denom)  # same first-maximum tie break
        # stop_at_positive: the first positive point in odometer order
        got = grid_max(syntax.subformulas(f), atoms, denom, stop_at_positive=True)
        assert got == oracles.grid_first_positive(f, atoms, denom), (f, denom)


def test_halving_is_exact_on_odd_denominators():
    f = F("half half half p")
    value, point = grid_max(syntax.subformulas(f), ["p"], 3)
    assert value == rat(1, 8)
    assert point == {"p": rat(1)}
    # spot value at an interior point via the positive-stop scan
    value, point = grid_max(syntax.subformulas(f), ["p"], 3, stop_at_positive=True)
    assert point == {"p": rat(1, 3)}
    assert value == rat(1, 24)
    assert evaluate(f, point) == value


def test_stop_at_positive_returns_first_positive_point():
    value, point = grid_max(syntax.subformulas(F("p")), ["p"], 4, stop_at_positive=True)
    assert point == {"p": rat(1, 4)}
    assert value == rat(1, 4)
    # a valid formula has no positive point; the zero maximum comes back
    value, point = grid_max(syntax.subformulas(F("((p - q) - p)")), ["p", "q"], 4,
                            stop_at_positive=True)
    assert value == 0


def test_kernel_guards():
    many = None
    for i in range(17):
        a = syntax.Atom("a%02d" % i)
        many = a if many is None else syntax.Monus(many, a)
    with pytest.raises(KernelUnsupported):
        grid_max(syntax.subformulas(many), syntax.atom_names(many), 2)
    with pytest.raises(KernelUnsupported):
        # too many grid points
        grid_max(syntax.subformulas(F("(p - q)")), ["p", "q"], 2000)
    deep = syntax.Atom("p")
    for _ in range(70):
        deep = syntax.Half(deep)
    with pytest.raises(KernelUnsupported):
        grid_max(syntax.subformulas(deep), ["p"], 3)  # scale beyond 2^61
    halves = F("half " * 31 + "p")
    with pytest.raises(KernelUnsupported):  # 62 halvings in the tree, 31 on a path
        grid_max(syntax.subformulas(syntax.Monus(halves, halves)), ["p"], 1)
    # 61: scale 2^61
    grid_max(syntax.subformulas(syntax.Monus(halves, halves.body)), ["p"], 1)
    chain = syntax.Atom("p")
    for depth in range(1, 257):  # a postfix evaluation stacks depth + 1 values
        chain = syntax.Monus(syntax.Atom("p"), chain)
        if depth == 255:
            grid_max(syntax.subformulas(chain), ["p"], 2)
    with pytest.raises(KernelUnsupported):
        grid_max(syntax.subformulas(chain), ["p"], 2)
    with pytest.raises(ValueError):
        grid_max(syntax.subformulas(F("p")), ["p"], 0)
    # not propositional over the atoms: the error names the tree's first
    # offending node, left to right and outermost first
    z, pred = syntax.Atom("z"), syntax.parse_lformula("P(x)")
    for f, error, text in [
        (syntax.Monus(z, pred), KeyError, "atom 'z' not in atom order"),
        (syntax.Monus(pred, z), TypeError, "formula: Pred"),
        (syntax.Neg(syntax.Inf("x", syntax.Monus(z, z))), TypeError, "formula: Inf"),
    ]:
        with pytest.raises(error, match=text):
            grid_max(syntax.subformulas(f), ["p"], 3)


def test_shared_subformulas_are_swept_once(capsys, monkeypatch):
    """(((p /\\ q) /\\ q) ... /\\ q), 40 deep, is min(p, q): its tree has
    about 2^40 nodes but only 82 distinct subformulas, and both the sweep
    and `clog valid` with no branch budget answer as for (p /\\ q)."""
    p, q = syntax.Atom("p"), syntax.Atom("q")
    deep = syntax.conj(p, q)
    for _ in range(39):
        deep = syntax.conj(deep, q)
    shallow = F("(p /\\ q)")
    for denom in (3, 8):
        for stop in (False, True):
            started = time.monotonic()
            got = grid_max(syntax.subformulas(deep), ["p", "q"], denom,
                           stop_at_positive=stop)
            assert time.monotonic() - started < 1
            assert got == grid_max(syntax.subformulas(shallow), ["p", "q"], denom,
                                   stop_at_positive=stop)

    monkeypatch.setenv("CLOG_BRANCH_BUDGET", "0")
    lines = []
    for text in ["(p /\\ q)", "(" * 39 + "(p /\\ q)" + " /\\ q)" * 39]:
        started = time.monotonic()
        assert main(["valid", "-e", text]) == 1
        assert time.monotonic() - started < 1
        lines.append(capsys.readouterr().out)
    assert lines[0] == lines[1]
    assert lines[0].endswith('"countermodel":{"p":"1/8","q":"1/8"},"value":"1/8"}\n')
