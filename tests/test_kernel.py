import random

import pytest

import oracles
from clog import kernel, syntax
from clog.kernel import KernelUnsupported, compile_formula, grid_max
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


def test_grid_max_matches_fraction_oracle():
    rng = random.Random(23)
    cases = []
    for _ in range(80):
        f = oracles.random_core_formula(rng, 3, ["p", "q"], monus_cap=6)
        cases += [(f, syntax.atom_names(f), denom) for denom in (3, 4, 5)]
    for text, denom, scale in LANE_EDGES:
        f = F(text)
        atoms = syntax.atom_names(f)
        assert denom << compile_formula(f, atoms).n_half == scale
        cases.append((f, atoms, denom))
    cases += [(F(text), [], denom) for text in NO_ATOMS for denom in (1, 3)]
    for f, atoms, denom in cases:
        value, point = grid_max(f, atoms, denom)
        want_value, want_point = oracles.grid_sup_fractions(f, atoms, denom)
        assert value == want_value, (f, denom)
        assert point == want_point, (f, denom)  # same first-maximum tie break
        # stop_at_positive: the first positive point in odometer order
        got = grid_max(f, atoms, denom, stop_at_positive=True)
        assert got == oracles.grid_first_positive(f, atoms, denom), (f, denom)


def test_halving_is_exact_on_odd_denominators():
    f = F("half half half p")
    value, point = grid_max(f, ["p"], 3)
    assert value == rat(1, 8)
    assert point == {"p": rat(1)}
    # spot value at an interior point via the positive-stop scan
    value, point = grid_max(f, ["p"], 3, stop_at_positive=True)
    assert point == {"p": rat(1, 3)}
    assert value == rat(1, 24)
    assert evaluate(f, point) == value


def test_stop_at_positive_returns_first_positive_point():
    value, point = grid_max(F("p"), ["p"], 4, stop_at_positive=True)
    assert point == {"p": rat(1, 4)}
    assert value == rat(1, 4)
    # a valid formula has no positive point; the zero maximum comes back
    value, point = grid_max(F("((p - q) - p)"), ["p", "q"], 4,
                            stop_at_positive=True)
    assert value == 0


def test_kernel_guards():
    many = None
    for i in range(17):
        a = syntax.Atom("a%02d" % i)
        many = a if many is None else syntax.Monus(many, a)
    with pytest.raises(KernelUnsupported):
        grid_max(many, syntax.atom_names(many), 2)
    with pytest.raises(KernelUnsupported):
        grid_max(F("(p - q)"), ["p", "q"], 2000)  # too many grid points
    deep = syntax.Atom("p")
    for _ in range(70):
        deep = syntax.Half(deep)
    with pytest.raises(KernelUnsupported):
        grid_max(deep, ["p"], 3)  # scale beyond 2^61
    with pytest.raises(ValueError):
        grid_max(F("p"), ["p"], 0)
