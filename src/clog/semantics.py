"""Exact semantics and decision procedures for propositional formulas.

Truth functions are piecewise affine in the atom values, so suprema,
validity (value 0 everywhere), satisfiability and entailment are decided
exactly by enumerating the affine cells of the formula(s) and optimizing
with a rational LP on each (see clog.branches).  An integer grid pre-pass
(clog.kernel) short-circuits most refutations with an exact counterexample
before any LP runs.

Conventions: an assignment maps atom names to rationals in [0,1]; a formula
is valid iff its value is 0 under every assignment; a set of formulas entails
a goal iff every assignment making all premises 0 makes the goal 0.
"""

from . import syntax
from .branches import Affine, CellEnumerator, PLAffine, PLComb, PLMonus
from .kernel import KernelUnsupported, grid_max
from .rationals import ZERO, ONE, HALF, rat, is_unit_interval

DEFAULT_WITNESS_CAP = 16


class BudgetExceeded(ValueError):
    """A formula has more branching (Monus) nodes than the allowed budget."""


def evaluate(formula, assignment):
    """The truth value of the formula under the assignment, exact.

    neg is 1-x, half is x/2, and (a - b) is truncated subtraction
    max(0, a-b); values of atoms must lie in [0,1].
    """

    def atom(f):
        v = rat(assignment[f.name])
        if not is_unit_interval(v):
            raise ValueError("atom %r outside [0,1]: %s" % (f.name, v))
        return v

    values, _ = syntax.fold([formula], {
        syntax.Const0: lambda f: ZERO,
        syntax.Atom: atom,
        syntax.Neg: lambda f, v: ONE - v,
        syntax.Half: lambda f, v: v * HALF,
        syntax.Monus: lambda f, a, b: a - b if a > b else ZERO,
    })
    return values[-1]


def _formula_ir(formulas):
    """Shared piecewise-linear IR for several formulas (common subformulas
    become the same IR node, so their branches are enumerated once)."""
    ir, pos = syntax.fold(formulas, {
        syntax.Const0: lambda f: PLAffine(Affine.constant(0)),
        syntax.Atom: lambda f: PLAffine(Affine.variable(f.name)),
        syntax.Neg: lambda f, v: PLComb([(-ONE, v)], ONE),
        syntax.Half: lambda f, v: PLComb([(HALF, v)], ZERO),
        syntax.Monus: lambda f, a, b: PLMonus(a, b),
    })
    return [ir[pos[id(f)]] for f in formulas]


def check_budget(formulas, budget):
    """Raise BudgetExceeded if the shared Monus-node count exceeds budget."""
    if budget is None:
        return
    total = syntax.monus_count(*formulas)
    if total > budget:
        raise BudgetExceeded(
            "formula set has %d branching nodes, budget is %d" % (total, budget)
        )


def _box_upper_bound(affine):
    """Largest value the affine can take on the unit box (ignoring the cell)."""
    bound = affine.const
    for c in affine.coeffs.values():
        if c > 0:
            bound = bound + c
    return bound


def _abstract_shared(formula):
    """The formula with every repeated subtraction subformula replaced by a
    fresh atom (the same atom at all its occurrences), and the number of
    replacements made.

    Validity of the result implies validity of the input: under any
    assignment of the original atoms, giving each fresh atom the value of
    the subformula it stands for (a value in [0,1]) makes both formulas
    evaluate alike.  The converse fails, so a non-valid result says nothing.
    Only subtraction nodes are replaced; neg and half are affine and
    contribute no branching worth hiding.
    """
    nodes, pos = syntax.subformulas(formula)
    occ = [0] * len(nodes)  # occurrences in the formula's tree
    occ[-1] = 1
    for p in range(len(nodes) - 1, -1, -1):  # parents before children
        f, n = nodes[p], occ[p]
        t = type(f)
        if t is syntax.Neg or t is syntax.Half:
            occ[pos[id(f.body)]] += n
        elif t is syntax.Monus:
            occ[pos[id(f.left)]] += n
            occ[pos[id(f.right)]] += n
    fresh = []

    def swap(f, p):
        if type(f) is syntax.Monus and occ[p] >= 2:
            fresh.append(syntax.Atom("#%d" % len(fresh)))
            return fresh[-1]
        return None

    (skeleton,) = syntax.rebuild([formula], pos, swap)
    return skeleton, len(fresh)


class BranchCell:
    """One affine piece of a formula: constraints (affine >= 0) and value."""

    __slots__ = ("constraints", "value", "point")

    def __init__(self, constraints, value, point):
        self.constraints = constraints
        self.value = value
        self.point = point


def enumerate_branches(formula, budget=None):
    """All feasible affine cells of the formula over its atom box."""
    check_budget([formula], budget)
    atoms = syntax.atom_names(formula)
    enum = CellEnumerator(atoms)
    (node,) = _formula_ir([formula])
    return [
        BranchCell(list(c.constraints.values()), c.values[0], c.point)
        for c in enum.iter_cells([node])
    ]


def sup_value(formula, budget=None):
    """(exact supremum over the unit box, witnessing assignment)."""
    check_budget([formula], budget)
    atoms = syntax.atom_names(formula)
    enum = CellEnumerator(atoms)
    (node,) = _formula_ir([formula])
    best, best_point = None, None
    for cell in enum.iter_cells([node]):
        value = cell.values[0]
        if best is not None:
            if best == 1:  # cannot do better than the range bound
                break
            if _box_upper_bound(value) <= best:
                continue
        if not value.coeffs:  # constant on the cell, any cell point attains it
            got = (value.const, cell.point, None)
        else:
            got = enum.optimize_cell(cell, value, maximize=True)
        if got is None:
            continue
        got_value, point, _ = got
        if best is None or got_value > best:
            best, best_point = got_value, point
    assert best is not None, "a formula always has at least one feasible cell"
    return best, best_point


def _valid_by_cells(formula, atoms):
    """Cell-by-cell validity check; assumes budget and pre-passes are done."""
    enum = CellEnumerator(atoms)
    (node,) = _formula_ir([formula])
    for cell in enum.iter_cells([node]):
        value = cell.values[0]
        if _box_upper_bound(value) <= 0:
            continue
        at_probe = value.evaluate(cell.point)
        if at_probe > 0:
            return False, cell.point
        got = enum.optimize_cell(
            cell, value, maximize=True, stop_when_positive=True
        )
        if got is None:
            continue
        got_value, point, _ = got
        if got_value > 0:
            return False, point
    return True, None


def _grid_refute(formula, atoms, denom=8):
    """An exact positive grid point if the cheap integer sweep finds one."""
    try:
        value, point = grid_max(formula, atoms, denom=denom, stop_at_positive=True)
    except KernelUnsupported:
        return None
    return point if value > 0 else None


def is_valid(formula, budget=None):
    """(True, None) if the formula is 0 everywhere, else (False, assignment).

    The counterexample assignment is exact and gives the formula a positive
    value (not necessarily the supremum).
    """
    check_budget([formula], budget)
    atoms = syntax.atom_names(formula)
    # integer grid pre-pass: a positive grid point is already an exact refutation
    point = _grid_refute(formula, atoms)
    if point is not None:
        return False, point
    # abstraction pre-pass: hiding repeated subformulas behind fresh atoms
    # keeps the cell count tiny, and validity of the abstraction carries over
    skeleton, replaced = _abstract_shared(formula)
    if replaced:
        sk_atoms = syntax.atom_names(skeleton)
        if _grid_refute(skeleton, sk_atoms) is None:
            ok, _ = _valid_by_cells(skeleton, sk_atoms)
            if ok:
                return True, None
    return _valid_by_cells(formula, atoms)


def is_satisfiable(formulas, budget=None):
    """Is there one assignment giving every formula the value 0?

    Decided on the single disjunction (pointwise max) of the set: the max of
    the values is 0 exactly when all of them are.
    """
    formulas = list(formulas)
    if not formulas:
        return True
    check_budget(formulas, budget)
    joined = formulas[0]
    for f in formulas[1:]:
        joined = syntax.disj(joined, f)
    atoms = syntax.atom_names(joined)
    enum = CellEnumerator(atoms)
    (node,) = _formula_ir([joined])
    for cell in enum.iter_cells([node]):
        value = cell.values[0]
        if value.evaluate(cell.point) == 0:  # the cell's own point suffices
            return True
        lower = value.const + sum(c for c in value.coeffs.values() if c < 0)
        if lower > 0:  # cannot reach zero anywhere on the box
            continue
        if not value.coeffs:
            continue  # constant and nonzero on this cell
        got = enum.optimize_cell(cell, value, maximize=False)
        if got is None:
            continue
        got_value, _, _ = got
        if got_value == 0:
            return True
    return False


def entails_semantic(premises, goal, budget=None):
    """(True, None) if every common zero of the premises zeroes the goal,
    else (False, countermodel): an assignment with all premises 0 and the
    goal positive.

    Only finite premise lists are accepted.
    """
    premises = list(premises)
    if not syntax.is_propositional(*premises):
        raise TypeError("premises must be propositional formulas")
    check_budget(premises + [goal], budget)
    atoms = syntax.atom_names(*premises, goal)
    enum = CellEnumerator(atoms)
    nodes = _formula_ir([goal] + premises)
    for cell in enum.iter_cells(nodes):
        goal_value = cell.values[0]
        if _box_upper_bound(goal_value) <= 0:
            continue
        if goal_value.evaluate(cell.point) > 0 and all(
            v.evaluate(cell.point) == 0 for v in cell.values[1:]
        ):
            return False, cell.point  # the cell's own point is a countermodel
        # premises pinned to zero: their cell values are >= 0 on the cell
        # already, so one inequality each suffices
        extra = [value.scale(-ONE) for value in cell.values[1:]]
        got = enum.optimize_cell(
            cell, goal_value, maximize=True, extra=extra, stop_when_positive=True
        )
        if got is None:
            continue
        value, point, _ = got
        if value > 0:
            return False, point
    return True, None


def entails_witness(premises, goal, cap=DEFAULT_WITNESS_CAP, budget=None):
    """Smallest m <= cap making goal - m*p_0 - ... - m*p_{n-1} valid, or None.

    By the finite-implication property this m exists exactly when the
    premises entail the goal (and the premise list is finite).
    """
    premises = list(premises)
    for m in range(cap + 1):
        f = goal
        for p in premises:
            f = syntax.monus_chain(f, m, p)
        if is_valid(f, budget=budget)[0]:
            return m
    return None


def unsat_witness(premises, cap=DEFAULT_WITNESS_CAP, budget=None):
    """Smallest n <= cap making 1 - n*p_0 - ... - n*p_{k-1} valid, or None.

    Such an n certifies that the premises have no common zero.
    """
    premises = list(premises)
    for n in range(cap + 1):
        f = syntax.one()
        for p in premises:
            f = syntax.monus_chain(f, n, p)
        if is_valid(f, budget=budget)[0]:
            return n
    return None
