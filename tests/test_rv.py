import itertools
import random
from fractions import Fraction

import pytest

import oracles
from clog import rv, syntax
from clog.rationals import rat
from clog.syntax import Atom, Half, Monus, Neg

X, Y = Atom("x"), Atom("y")


def uniform2():
    return rv.FiniteProbSpace.uniform(["a", "b"])


def random_space(rng, max_atoms=6):
    n = rng.randint(1, max_atoms)
    ws = oracles.random_weights(rng, n)
    return rv.FiniteProbSpace([("w%d" % i, w) for i, w in enumerate(ws)])


def random_rv(rng, space, **kw):
    return rv.RandomVariable(
        space, [oracles.random_rational(rng, **kw) for _ in space.ids]
    )


# ---- spaces and variables ----------------------------------------------------


def test_space_validation():
    with pytest.raises(ValueError):
        rv.FiniteProbSpace([("a", rat(1, 2)), ("b", rat(1, 3))])  # sums to 5/6
    with pytest.raises(ValueError):
        rv.FiniteProbSpace([("a", 1), ("b", 0)])
    with pytest.raises(ValueError):
        rv.FiniteProbSpace([("a", rat(1, 2)), ("a", rat(1, 2))])
    with pytest.raises(ValueError):
        rv.FiniteProbSpace([])
    sp = rv.FiniteProbSpace([("a", rat(2, 3)), ("b", rat(1, 3))])
    assert sp.mu(["a", "b"]) == 1
    with pytest.raises(ValueError):
        sp.mu(["c"])


def test_rv_validation():
    sp = uniform2()
    with pytest.raises(ValueError):
        rv.RandomVariable(sp, [0])
    with pytest.raises(ValueError):
        rv.RandomVariable(sp, [0, rat(3, 2)])
    with pytest.raises(ValueError):
        rv.RandomVariable(sp, [0, -1])


def test_rv_eval_examples():
    sp = uniform2()
    x = rv.RandomVariable(sp, [rat(1, 2), 1])
    y = rv.RandomVariable(sp, [rat(1, 4), rat(3, 4)])
    out = rv.rv_eval(Monus(X, Y), {"x": x, "y": y}, sp)
    assert out.values == (rat(1, 4), rat(1, 4))
    flipped = rv.rv_eval(Neg(X), {"x": rv.RandomVariable(sp, [0, 1])}, sp)
    assert flipped.values == (1, 0)
    # half of the definable constant 1 has expectation exactly 1/2
    h = rv.rv_eval(Half(syntax.one()), {}, sp)
    assert h.values == (rat(1, 2), rat(1, 2))
    assert rv.expectation(h) == rat(1, 2)


def test_rv_eval_errors():
    sp = uniform2()
    x = rv.RandomVariable(sp, [0, 1])
    with pytest.raises(KeyError):
        rv.rv_eval(Monus(X, Y), {"x": x}, sp)
    other = rv.FiniteProbSpace([("z", 1)])
    with pytest.raises(ValueError):
        rv.rv_eval(X, {"x": x}, other)


def test_expectation_and_distance():
    sp = uniform2()
    x = rv.RandomVariable(sp, [rat(1, 2), 1])
    y = rv.RandomVariable(sp, [rat(1, 4), rat(3, 4)])
    assert rv.expectation(x) == rat(3, 4)
    assert rv.l1_dist(x, x) == 0
    assert rv.l1_dist(x, y) == rat(1, 4)
    # RV3 decomposition of the metric
    env = {"x": x, "y": y}
    assert rv.l1_dist(x, y) == rv.expectation(
        rv.rv_eval(Monus(X, Y), env, sp)
    ) + rv.expectation(rv.rv_eval(Monus(Y, X), env, sp))
    zero = rv.rv_eval(syntax.Const0(), {}, sp)
    assert rv.expectation(x) == rv.l1_dist(x, zero)
    with pytest.raises(ValueError):
        rv.l1_dist(x, rv.RandomVariable(rv.FiniteProbSpace([("z", 1)]), [0]))


# ---- axiom residuals -----------------------------------------------------------


def test_axiom_residuals_on_random_spaces():
    rng = random.Random(20)
    for _ in range(20):
        sp = random_space(rng)
        samples = [random_rv(rng, sp) for _ in range(3)]
        report = rv.check_rv_axioms(sp, samples)
        assert set(report) == {
            "RV1", "RV2", "RV3", "RV4.1", "RV4.2", "RV4.3", "RV4.4",
            "RV4.5", "RV4.6", "RV5", "LinearE", "ExpectationDifference",
        }
        assert all(v == 0 for v in report.values()), report


def test_axiom_check_needs_two_samples():
    sp = uniform2()
    with pytest.raises(ValueError):
        rv.check_rv_axioms(sp, [rv.RandomVariable(sp, [0, 0])])


def test_halving_residual_example():
    # RV4.5 at x = (1/3, 2/3): half x - (x - half x) vanishes pointwise
    sp = uniform2()
    x = rv.RandomVariable(sp, [rat(1, 3), rat(2, 3)])
    out = rv.rv_eval(Monus(Half(X), Monus(X, Half(X))), {"x": x}, sp)
    assert out.values == (0, 0)


def test_expectation_difference_bounds():
    rng = random.Random(21)
    for _ in range(30):
        sp = random_space(rng, max_atoms=4)
        a = random_rv(rng, sp)
        b = random_rv(rng, sp)
        e_monus = rv.expectation(rv.rv_eval(Monus(X, Y), {"x": a, "y": b}, sp))
        assert rv.expectation(a) - rv.expectation(b) <= e_monus
        assert e_monus <= rv.expectation(a)


# ---- the atomlessness defect ----------------------------------------------------


def test_arv_defect_uniform_two_atoms():
    sp = uniform2()
    x = rv.RandomVariable(sp, [1, 1])
    value, witness = rv.arv_defect(sp, x, with_witness=True)
    assert value == 0
    # the witness must actually achieve 0: a crisp y with E(y /\ x) = 1/2
    assert oracles.arv_objective(sp.weights, x.values, witness.values) == 0


def test_arv_defect_single_atom():
    sp = rv.FiniteProbSpace([("w", 1)])
    x = rv.RandomVariable(sp, [1])
    value, witness = rv.arv_defect(sp, x, with_witness=True)
    assert value == rat(1, 4)
    assert witness.values == (rat(1, 4),)
    grid, _ = oracles.arv_defect_grid([Fraction(1)], [Fraction(1)])
    assert abs(value - grid) <= rat(1, 64)


def test_arv_defect_indicator():
    sp = uniform2()
    x = rv.RandomVariable(sp, [1, 0])
    value, witness = rv.arv_defect(sp, x, with_witness=True)
    assert value == rat(1, 8)
    grid, _ = oracles.arv_defect_grid(sp.weights, x.values)
    assert abs(value - grid) <= rat(1, 64)
    # exact certificate: substituting the witness reproduces the value
    assert oracles.arv_objective(sp.weights, x.values, witness.values) == value


def test_arv_defect_never_beaten_by_grid():
    rng = random.Random(22)
    for _ in range(8):
        sp = random_space(rng, max_atoms=2)
        x = random_rv(rng, sp, max_den=4)
        value, witness = rv.arv_defect(sp, x, with_witness=True)
        assert oracles.arv_objective(sp.weights, x.values, witness.values) == value
        levels = [rat(k, 8) for k in range(9)]
        for ys in itertools.product(levels, repeat=len(sp)):
            assert oracles.arv_objective(sp.weights, x.values, ys) >= value


# ---- staged integrals ------------------------------------------------------------


def test_tau_phi_requires_a_stage():
    sp = uniform2()
    f = rv.RandomVariable(sp, [0, 0])
    with pytest.raises(ValueError):
        rv.tau_phi_interpretation(sp, f, 0, ["a"])


def test_tau_phi_constant_zero():
    # the all-zero variable on the full space is the one boundary case where
    # the error bound is attained rather than beaten
    sp = uniform2()
    f = rv.RandomVariable(sp, [0, 0])
    for n in (1, 2, 5):
        assert rv.tau_phi_interpretation(sp, f, n, ["a", "b"]) == rat(1, 2**n)


def test_tau_phi_examples():
    sp = uniform2()
    f = rv.RandomVariable(sp, [rat(1, 4), rat(3, 4)])
    phi = rv.tau_phi_interpretation(sp, f, 4, ["a", "b"])
    assert abs(phi - rat(1, 2)) < rat(1, 16)
    # 0/1-valued f over its own support: integral is mu(support)
    g = rv.RandomVariable(sp, [1, 0])
    phi = rv.tau_phi_interpretation(sp, g, 3, ["a"])
    assert abs(phi - sp.mu(["a"])) < rat(1, 8)


def test_tau_phi_error_bound():
    rng = random.Random(24)
    for _ in range(25):
        sp = random_space(rng)
        f = random_rv(rng, sp, odd_den=True)
        c = [a for a in sp.ids if rng.random() < 0.6]
        n = rng.randint(1, 6)
        phi = rv.tau_phi_interpretation(sp, f, n, c)
        exact = rv.integral_over(f, c)
        assert abs(phi - exact) < rat(1, 2**n)


# ---- joint distributions ---------------------------------------------------------


def test_joint_distribution_and_type_equality():
    sp = uniform2()
    f = rv.RandomVariable(sp, [0, 1])
    g = rv.RandomVariable(sp, [1, 0])
    joint = rv.joint_distribution([f, g])
    assert joint.masses == {
        (rat(0), rat(1)): rat(1, 2),
        (rat(1), rat(0)): rat(1, 2),
    }
    assert rv.qf_type_equal([f, g], [g, f])
    # same law on a different space
    sp4 = rv.FiniteProbSpace.uniform(["p", "q", "r", "s"])
    f4 = rv.RandomVariable(sp4, [0, 0, 1, 1])
    assert rv.qf_type_equal([f], [f4])
    assert not rv.qf_type_equal([f], [rv.RandomVariable(sp, [0, 0])])
    with pytest.raises(ValueError):
        rv.qf_type_equal([f], [f, g])
    with pytest.raises(ValueError):
        rv.joint_distribution([])


# a catalog of terms of depth <= 3 in two variables; on value grids inside
# {0, 1/2, 1} its evaluation matrix has full rank 9, so two joint laws on the
# grid agree exactly when all catalog expectations agree.
_CATALOG = [
    X,
    Y,
    Neg(X),
    Monus(X, Y),
    Monus(X, Neg(X)),
    Monus(X, Neg(Y)),
    Monus(Y, Neg(Y)),
    Monus(X, Half(Y)),
    Monus(Y, Half(X)),
]


def _exact_rank(rows):
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0])):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                factor = rows[i][col] / rows[rank][col]
                rows[i] = [
                    a - factor * b for a, b in zip(rows[i], rows[rank])
                ]
        rank += 1
    return rank


def test_catalog_separates_grid_laws():
    single = rv.FiniteProbSpace([("w", 1)])
    grid = [
        (rat(a, 2), rat(b, 2)) for a in range(3) for b in range(3)
    ]
    rows = []
    for term in _CATALOG:
        row = []
        for vx, vy in grid:
            env = {
                "x": rv.RandomVariable(single, [vx]),
                "y": rv.RandomVariable(single, [vy]),
            }
            row.append(rv.rv_eval(term, env, single).values[0])
        rows.append(row)
    assert _exact_rank(rows) == 9


def test_type_equality_matches_term_expectations():
    """Equal qf types give equal expectations for depth <= 3 terms, and on
    half-integer grids the catalog is rich enough for the converse."""
    rng = random.Random(25)
    agree_seen = disagree_seen = 0
    for _ in range(40):
        sp1 = random_space(rng, max_atoms=4)
        sp2 = random_space(rng, max_atoms=4)
        fbar = [random_rv(rng, sp1, max_den=2) for _ in range(2)]
        if rng.random() < 0.5:
            # same joint law on a doubled copy of the space
            doubled = rv.FiniteProbSpace(
                [(a + "L", w / 2) for a, w in zip(sp1.ids, sp1.weights)]
                + [(a + "R", w / 2) for a, w in zip(sp1.ids, sp1.weights)]
            )
            gbar = [
                rv.RandomVariable(doubled, f.values + f.values) for f in fbar
            ]
        else:
            gbar = [random_rv(rng, sp2, max_den=2) for _ in range(2)]
        same_type = rv.qf_type_equal(fbar, gbar)
        same_expectations = all(
            rv.expectation(rv.rv_eval(t, {"x": fbar[0], "y": fbar[1]}, sp1))
            == rv.expectation(
                rv.rv_eval(t, {"x": gbar[0], "y": gbar[1]}, gbar[0].space)
            )
            for t in _CATALOG
        )
        assert same_type == same_expectations
        agree_seen += same_type
        disagree_seen += not same_type
    assert agree_seen >= 5 and disagree_seen >= 5


# ---- conditioning ----------------------------------------------------------------


def test_cond_expectation_fixture():
    sp = rv.FiniteProbSpace(
        [("w1", rat(1, 2)), ("w2", rat(1, 4)), ("w3", rat(1, 4))]
    )
    x = rv.RandomVariable(sp, [rat(1, 4), rat(3, 4), 1])
    out = rv.cond_expectation(x, [["w1"], ["w2", "w3"]])
    assert out.values == (rat(1, 4), rat(7, 8), rat(7, 8))
    assert rv.expectation(out) == rv.expectation(x)


def test_cond_expectation_extremes():
    sp = rv.FiniteProbSpace(
        [("w1", rat(1, 2)), ("w2", rat(1, 4)), ("w3", rat(1, 4))]
    )
    x = rv.RandomVariable(sp, [rat(1, 4), rat(3, 4), 1])
    finest = rv.cond_expectation(x, [["w1"], ["w2"], ["w3"]])
    assert finest == x
    coarsest = rv.cond_expectation(x, [sp.ids])
    assert set(coarsest.values) == {rv.expectation(x)}


def test_cond_expectation_partition_errors():
    sp = rv.FiniteProbSpace.uniform(["a", "b", "c"])
    x = rv.RandomVariable(sp, [0, 0, 1])
    with pytest.raises(ValueError):
        rv.cond_expectation(x, [["a"], ["b"]])  # does not cover
    with pytest.raises(ValueError):
        rv.cond_expectation(x, [["a", "b"], ["b", "c"]])  # overlaps
    with pytest.raises(ValueError):
        rv.cond_expectation(x, [["a", "b", "c"], []])  # empty block


# ---- JSON ------------------------------------------------------------------------


def test_json_round_trips():
    sp = rv.FiniteProbSpace([("a", rat(2, 3)), ("b", rat(1, 3))])
    x = rv.RandomVariable(sp, [rat(1, 7), 1])
    assert rv.space_from_json(rv.space_to_json(sp)) == sp
    assert rv.rv_from_json(rv.rv_to_json(x)) == x
    blob = rv.space_to_json(sp)
    assert blob == {"atoms": [{"id": "a", "w": "2/3"}, {"id": "b", "w": "1/3"}]}
    # denominators stay explicit, even for integers: byte-stable output
    assert rv.rv_to_json(x)["values"] == ["1/7", "1/1"]


def test_json_errors():
    with pytest.raises(ValueError):
        rv.space_from_json({"atoms": [{"id": "a"}]})
    with pytest.raises(ValueError):
        rv.rv_from_json({"values": ["1/2"]})
