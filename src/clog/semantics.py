"""Exact semantics and decision procedures for propositional formulas.

Truth functions are piecewise affine in the atom values, so suprema,
validity (value 0 everywhere), satisfiability, entailment and its
finite-implication witness are decided exactly by enumerating the affine
cells of the formula(s) and optimizing with a rational LP on each
(clog.branches, imported on the first cell search); an integer grid pre-pass
(clog.kernel) finds most of is_valid's exact counterexamples before any LP.

Each entry point traverses its formulas once, with syntax.subformulas, and
reads the budget count, atom order, grid sweep and cell IR off that result.
When a subtraction repeats, is_valid first searches an abstraction with
each repeated subtraction hidden behind a fresh atom, its cell IR built
from the same positions; only if that is not valid does it sweep the grid
and search the formula's own cells.  One cell search serves every
decision, and gives an entailment's verdict, countermodel and witness m at
once.

Conventions: an assignment maps atom names to rationals in [0,1]; a formula
is valid iff its value is 0 under every assignment; a set of formulas entails
a goal iff every assignment making all premises 0 makes the goal 0.
"""

import functools
import itertools

from . import syntax
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

    values = syntax.fold(*syntax.subformulas(formula), {
        syntax.Const0: lambda f: ZERO,
        syntax.Atom: atom,
        syntax.Neg: lambda f, v: ONE - v,
        syntax.Half: lambda f, v: v * HALF,
        syntax.Monus: lambda f, a, b: a - b if a > b else ZERO,
    })
    return values[-1]


def _check_budget(nodes, budget):
    """Raise BudgetExceeded if the distinct Monus nodes exceed the budget."""
    if budget is None:
        return
    total = sum(type(f) is syntax.Monus for f in nodes)
    if total > budget:
        raise BudgetExceeded(
            "formula set has %d branching nodes, budget is %d" % (total, budget)
        )


def _traverse(formulas, budget=None):
    """The one traversal of a decision call other than is_valid:
    subformulas(*formulas) as (nodes, pos), and the sorted atom names,
    after the budget check."""
    nodes, pos = syntax.subformulas(*formulas)
    _check_budget(nodes, budget)
    return nodes, pos, sorted({f.name for f in nodes if type(f) is syntax.Atom})


def _ir(nodes, pos):
    """The cell IR of subformulas(...) positions: one node per position,
    naming its children by position, so common subformulas become one node
    and their branches are enumerated once."""
    from .branches import Affine, PLComb, PLMonus

    return syntax.fold(nodes, pos, {
        syntax.Const0: lambda f: Affine.constant(0),
        syntax.Atom: lambda f: Affine.variable(f.name),
        syntax.Neg: lambda f, v: PLComb([(-1, pos[id(f.body)])], ONE),
        syntax.Half: lambda f, v: PLComb([(HALF, pos[id(f.body)])], ZERO),
        syntax.Monus: lambda f, a, b: PLMonus(pos[id(f.left)], pos[id(f.right)]),
    })


def _occurrences(nodes, pos):
    """is_valid's pass over subformulas(formula), parents first: the sorted
    atom names; how often each position occurs in the formula's tree; and
    whether the formula is propositional and some subtraction occurs twice
    or more, so that _skeleton hides something."""
    occ = [0] * len(nodes)
    occ[-1] = 1
    names = set()
    shared, propositional = False, True
    for p in range(len(nodes) - 1, -1, -1):
        f, n = nodes[p], occ[p]
        t = type(f)
        if t is syntax.Monus:
            shared |= n > 1
            occ[pos[id(f.left)]] += n
            occ[pos[id(f.right)]] += n
        elif t is syntax.Neg or t is syntax.Half:
            occ[pos[id(f.body)]] += n
        elif t is syntax.Atom:
            names.add(f.name)
        elif t is not syntax.Const0:  # the grid sweep raises the TypeError
            propositional = False
    return sorted(names), occ, shared and propositional


def _skeleton(nodes, pos, atoms, occ):
    """(sorted atom names, cell IR) of the formula's abstraction, in which
    each subtraction occurring twice or more (occ, from _occurrences) is one
    fresh atom; nodes, pos and atoms as _occurrences reads them.

    Validity of the abstraction implies validity of the formula: giving each
    fresh atom the value of the subtraction it hides (a value in [0,1])
    makes both evaluate alike.  That needs the fresh atoms to be new: they
    are #0, #1, ..., skipping the formula's own atom names.  The converse
    fails.  Neg and half are affine, so hiding them would gain nothing.

    The IR is the one entailment([], abstraction) builds from the
    abstraction written as a formula: fresh atoms are named outermost first,
    left to right, nodes come children first, left to right, and a position
    that occurs only under a hidden subtraction has none.
    """
    from .branches import Affine, PLComb, PLMonus

    taken = set(atoms)
    fresh = (name for name in map("#{}".format, itertools.count())
             if name not in taken)
    at = [None] * len(nodes)  # each reached position's node in the IR
    ir, names = [], []
    stack = [len(nodes) - 1]  # p to reach position p, ~p once its children are
    while stack:
        p = stack.pop()
        if p < 0:
            f = nodes[~p]
            t = type(f)
            if t is syntax.Monus:
                node = PLMonus(at[pos[id(f.left)]], at[pos[id(f.right)]])
            elif t is syntax.Neg:
                node = PLComb([(-1, at[pos[id(f.body)]])], ONE)
            else:
                node = PLComb([(HALF, at[pos[id(f.body)]])], ZERO)
            p = ~p
        elif at[p] is not None:  # reached before
            continue
        else:
            f = nodes[p]
            t = type(f)
            if t is syntax.Atom or t is syntax.Monus and occ[p] > 1:
                name = f.name if t is syntax.Atom else next(fresh)
                names.append(name)
                node = Affine.variable(name)
            elif t is syntax.Const0:
                node = Affine.constant(0)
            else:
                at[p] = -1  # its children come first
                stack += ((~p, pos[id(f.right)], pos[id(f.left)]) if t is syntax.Monus
                          else (~p, pos[id(f.body)]))
                continue
        at[p] = len(ir)
        ir.append(node)
    return sorted(names), ir


class BranchCell:
    """One affine piece of a formula: constraints (affine >= 0) and value."""

    __slots__ = ("constraints", "value", "point")

    def __init__(self, constraints, value, point):
        self.constraints = constraints
        self.value = value
        self.point = point


def enumerate_branches(formula, budget=None):
    """Feasible affine cells of the formula that cover its atom box; a face
    on which only a split's second side holds is left to the first side's
    cells, not listed on its own."""
    from .branches import CellEnumerator

    nodes, pos, atoms = _traverse([formula], budget)
    cells = CellEnumerator(atoms).iter_cells((_ir(nodes, pos), [len(nodes) - 1]))
    return [
        BranchCell(list(c.constraints.values()), c.values[0], c.point)
        for c in cells
    ]


def sup_value(formula, budget=None):
    """(exact supremum over the unit box, witnessing assignment)."""
    from .branches import CellEnumerator

    nodes, pos, atoms = _traverse([formula], budget)
    # no formula exceeds 1
    return CellEnumerator(atoms).maximum(_ir(nodes, pos), ONE)


def _positive_point(enum, cell, objective, zeros=()):
    """A point of the cell, its own or an LP vertex, where the objective is
    positive and the zeros (affines >= 0 on the cell) are 0, or None.  The
    cell's own point is tried in integers, at cell.ipoint."""
    if objective.box_max() <= 0:
        return None
    ipoint = cell.ipoint
    if objective.at(ipoint) > 0 and all(z.at(ipoint) == 0 for z in zeros):
        return cell.point
    # the zeros are >= 0 on the cell already, so one inequality each pins them
    extra = [z.negated() for z in zeros]
    got = enum.optimize_cell(cell, objective, extra=extra, stop_when_positive=True)
    return got[1] if got is not None and got[0] > 0 else None


def _search(atoms, ir, roots, cap):
    """entailment's (countermodel, m), roots = [goal, p_0, ...] being
    positions in the IR nodes ir.  goal - m*p_0 - ... is max(0, goal - m*S),
    S the premises' sum, and goal/S is linear-fractional on each cell
    (Dinkelbach 1967): while goal - m*S is positive at the cell's point or
    an LP vertex x, m becomes the ceiling of goal(x)/S(x), which puts x out
    of reach for good.  A cell where that step ends with m <= cap holds no
    countermodel; the refutation test runs on the others, and on every
    cell without a cap or a premise."""
    from .branches import Affine, CellEnumerator, _integer_point

    enum = CellEnumerator(atoms)
    step = cap is not None and len(roots) > 1
    m = 0
    for cell in enum.iter_cells((ir, roots)):
        goal, premises = cell.values[0], cell.values[1:]
        if step and m <= cap:
            total = functools.reduce(Affine.plus, premises)
            while (x := _positive_point(
                    enum, cell, goal.minus(total.scale(m)))) is not None:
                # goal(x)/S(x) from the integer values at x, goal.at(ix) =
                # goal(x)*goal.den*d and total.at(ix) = S(x)*total.den*d
                ix = cell.ipoint if x is cell.point else _integer_point(x)
                s = total.at(ix)
                if not s:  # every premise is 0 at x and the goal is not
                    break
                # the ceiling; s > 0, S being a sum of truth values at x
                m = -(-goal.at(ix) * total.den // (s * goal.den))
                if m > cap:
                    break
            else:
                continue
        point = _positive_point(enum, cell, goal, premises)
        if point is not None:
            return point, None
    return None, (m if cap is not None and m <= cap else None)


def is_valid(formula, budget=None):
    """(True, None) if the formula is 0 everywhere, else (False, assignment).

    The counterexample assignment is exact and gives the formula a positive
    value (not necessarily the supremum).
    """
    nodes, pos = syntax.subformulas(formula)
    _check_budget(nodes, budget)
    atoms, occ, shared = _occurrences(nodes, pos)
    # abstraction first: hiding repeated subtractions behind fresh atoms
    # keeps the cell count tiny, and validity of the abstraction carries
    # over, so a grid sweep could not have refuted the formula
    if shared:
        sk_atoms, ir = _skeleton(nodes, pos, atoms, occ)
        if _search(sk_atoms, ir, [len(ir) - 1], None)[0] is None:
            return True, None
    # integer grid pre-pass: a positive grid point is already an exact refutation
    try:
        value, point = grid_max((nodes, pos), atoms, denom=8, stop_at_positive=True)
        if value > 0:
            return False, point
    except KernelUnsupported:
        pass
    point = _search(atoms, _ir(nodes, pos), [len(nodes) - 1], None)[0]
    return point is None, point


def entailment(premises, goal, cap=None, budget=None):
    """(countermodel, m) from one search over the cells of the goal and the
    premises: an assignment making every premise 0 and the goal positive,
    or None if the premises entail the goal; and, given a cap, the smallest
    m <= cap making goal - m*p_0 - ... - m*p_(k-1) valid, or None.  By the
    finite-implication property m exists exactly when the premises entail
    the goal.  A goal of None is the constant 1, one IR leaf the budget
    does not charge: its countermodels are the premises' common zeros.
    """
    premises = list(premises)
    formulas = premises if goal is None else [goal] + premises
    nodes, pos, atoms = _traverse(formulas, budget)
    ir = _ir(nodes, pos)
    if goal is None:
        from .branches import Affine

        ir.append(Affine.constant(1))
    roots = [len(nodes) if goal is None else pos[id(goal)]]
    return _search(atoms, ir, roots + [pos[id(p)] for p in premises], cap)


def is_satisfiable(formulas, budget=None):
    """Is there one assignment giving every formula the value 0?  A common
    zero is exactly a countermodel to the entailment of the constant 1."""
    return entailment(formulas, None, budget=budget)[0] is not None


def entails_semantic(premises, goal, budget=None):
    """(True, None) if every common zero of the premises zeroes the goal,
    else (False, countermodel); see entailment."""
    point = entailment(premises, goal, budget=budget)[0]
    return point is None, point


def entails_witness(premises, goal, cap=DEFAULT_WITNESS_CAP, budget=None):
    """Smallest m <= cap making goal - m*p_0 - ... - m*p_(k-1) valid, or
    None; see entailment."""
    return entailment(premises, goal, cap, budget)[1]


def unsat_witness(premises, cap=DEFAULT_WITNESS_CAP, budget=None):
    """Smallest n <= cap making 1 - n*p_0 - ... - n*p_(k-1) valid, or None.

    Such an n certifies that the premises have no common zero: it is the
    entailment witness for the goal 1.
    """
    return entailment(premises, None, cap, budget)[1]
