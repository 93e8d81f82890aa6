"""Independent reference computations used to pin expected test values.

Everything here is deliberately the dumbest exact method available: plain
Fraction recursion and exhaustive grid search (over integers scaled by a
common denominator where every grid point is swept).  The package's
decision procedures (branch enumeration + rational LP, the integer grid
sweep) must agree with these on the frozen fixtures; nothing here imports
the modules under test, except that witness_by_loop decides each of its
candidates with semantics.is_valid to judge the one-search witness,
cells_by_recursion walks clog.branches' IR in FractionAffine rows (the
Fraction rows that clog.branches.Affine's integer rows are judged against)
with the enumerator's own feasibility check (or feasible_point_by_fractions,
which builds its LP rows from those FractionAffines and calls
clog.branches.solve_lp) to judge the order of the explicit-stack walk,
countermodel_by_refutation runs the refutation test on every cell of
clog.branches' walk to judge which cells the one search skips, and
structure_tables_by_fractions converts table values with
clog.rationals.rat.  The parser judge, parse_tracking_offsets, builds its
formulas with syntax's node classes and sugar and raises syntax.ParseError.
The command-line judge, parser_by_hand, is the argparse parser written one
block per command, each pointing at its clog.cli handler, and
eliminate_half_by_steps rewrites with syntax's subformulas and rebuild and
returns a clog.proofs.HalfElimResult.  abstract_shared_by_rebuild writes
is_valid's abstraction as a formula, with syntax.rebuild, for
semantics.entailment to traverse and search on its own.
"""

import argparse
import itertools
import math
import re
import types
from fractions import Fraction

from clog import syntax
from clog.rationals import rat


def exact(x):
    """Exact value as a Fraction rebuilt from plain ints."""
    return Fraction(int(x.numerator), int(x.denominator))


def eval_fraction(formula, assignment):
    """Textbook recursive evaluation over Fraction."""
    if isinstance(formula, syntax.Const0):
        return Fraction(0)
    if isinstance(formula, syntax.Atom):
        return Fraction(assignment[formula.name])
    if isinstance(formula, syntax.Neg):
        return 1 - eval_fraction(formula.body, assignment)
    if isinstance(formula, syntax.Half):
        return eval_fraction(formula.body, assignment) / 2
    if isinstance(formula, syntax.Monus):
        v = eval_fraction(formula.left, assignment) - eval_fraction(
            formula.right, assignment
        )
        return v if v > 0 else Fraction(0)
    raise TypeError(formula)


def _halvings(formula, memo):
    """The most Half nodes on any root-to-leaf path of the formula."""
    got = memo.get(id(formula))
    if got is None:
        if isinstance(formula, (syntax.Neg, syntax.Half)):
            got = _halvings(formula.body, memo) + isinstance(formula, syntax.Half)
        elif isinstance(formula, syntax.Monus):
            got = max(_halvings(formula.left, memo), _halvings(formula.right, memo))
        else:
            got = 0
        memo[id(formula)] = got
    return got


def _scaled_values(formula, columns, scale, size, memo):
    """The formula's values at a block of points, as integers over scale."""
    got = memo.get(id(formula))
    if got is None:
        if isinstance(formula, syntax.Const0):
            got = [0] * size
        elif isinstance(formula, syntax.Atom):
            got = columns[formula.name]
        elif isinstance(formula, syntax.Neg):
            got = [scale - v for v in
                   _scaled_values(formula.body, columns, scale, size, memo)]
        elif isinstance(formula, syntax.Half):
            got = [v >> 1 for v in
                   _scaled_values(formula.body, columns, scale, size, memo)]
        elif isinstance(formula, syntax.Monus):
            left = _scaled_values(formula.left, columns, scale, size, memo)
            right = _scaled_values(formula.right, columns, scale, size, memo)
            got = [a - b if a > b else 0 for a, b in zip(left, right)]
        else:
            raise TypeError(formula)
        memo[id(formula)] = got
    return got


def grid_sup_fractions(formula, atoms, denom):
    """Exhaustive max over the grid {0, 1/denom, ..., 1}^atoms, exact.

    Returns (max value, first witness assignment in odometer order), as
    Fractions.  The sweep is integer-scaled: with H the most halvings on a
    root-to-leaf path, scale = denom * 2^H makes every value an integer (a
    node with k halvings below it is a multiple of 2^(H-k), so each halving
    divides an even number).  Points are swept in blocks that fix all but
    the last three coordinates, each node's values in a block one list.
    """
    scale = denom << _halvings(formula, {})
    unit = scale // denom
    lead = max(0, len(atoms) - 3)
    block = list(itertools.product(range(denom + 1), repeat=len(atoms) - lead))
    best = witness = None
    for head in itertools.product(range(denom + 1), repeat=lead):
        columns = {a: [k * unit] * len(block) for a, k in zip(atoms, head)}
        for i, a in enumerate(atoms[lead:]):
            columns[a] = [point[i] * unit for point in block]
        values = _scaled_values(formula, columns, scale, len(block), {})
        top = max(values)
        if best is None or top > best:
            best, witness = top, head + block[values.index(top)]
    return Fraction(best, scale), {
        a: Fraction(k, denom) for a, k in zip(atoms, witness)}


def grid_first_positive(formula, atoms, denom):
    """The first grid point in odometer order with a positive value, pure
    Fraction: (value, assignment), or (0, the first point) if there is none.
    """
    levels = [Fraction(k, denom) for k in range(denom + 1)]
    first = None
    for point in itertools.product(levels, repeat=len(atoms)):
        assignment = dict(zip(atoms, point))
        v = eval_fraction(formula, assignment)
        if v > 0:
            return v, assignment
        if first is None:
            first = assignment
    return Fraction(0), first


def grid_valid(formula, denom):
    """True iff the formula evaluates to 0 on every grid point."""
    value, _ = grid_sup_fractions(formula, syntax.atom_names(formula), denom)
    return value == 0


def arv_objective(weights, x_values, y_values):
    """max( E(y /\\ neg y), | E(y /\\ x) - E(x)/2 | ), all exact."""
    e_fuzzy = sum(w * min(y, 1 - y) for w, y in zip(weights, y_values))
    e_meet = sum(w * min(y, x) for w, (y, x) in zip(weights, zip(y_values, x_values)))
    e_x = sum(w * x for w, x in zip(weights, x_values))
    return max(e_fuzzy, abs(e_meet - e_x / 2))


def arv_defect_grid(weights, x_values, denom=64, refine=True):
    """Grid search for the defect, refined once around the best grid point."""
    n = len(weights)
    weights = [exact(w) for w in weights]
    x_values = [exact(x) for x in x_values]
    levels = [Fraction(k, denom) for k in range(denom + 1)]
    best, best_y = None, None
    for ys in itertools.product(levels, repeat=n):
        v = arv_objective(weights, x_values, ys)
        if best is None or v < best:
            best, best_y = v, ys
    if refine:
        fine = denom * denom
        ranges = []
        for y in best_y:
            lo = max(Fraction(0), y - Fraction(1, denom))
            steps = [lo + Fraction(k, fine) for k in range(2 * denom + 1)]
            ranges.append([s for s in steps if 0 <= s <= 1])
        for ys in itertools.product(*ranges):
            v = arv_objective(weights, x_values, ys)
            if v < best:
                best, best_y = v, ys
    return best, best_y


def integral_over(weights, values, event_indexes):
    """Integral of the variable over the event, i.e. sum of w*f on it."""
    return sum(exact(weights[i]) * exact(values[i]) for i in event_indexes)


def witness_by_loop(premises, goal, cap, budget=None):
    """Smallest m <= cap making goal - m*p_0 - ... - m*p_(k-1) valid, or
    None: each candidate in turn, decided on its own by semantics.is_valid
    (grid pre-pass, abstraction and the refutation search), never by the
    one-search witness it judges."""
    from clog import semantics

    for m in range(cap + 1):
        f = goal
        for p in premises:
            f = syntax.monus_chain(f, m, p)
        if semantics.is_valid(f, budget=budget)[0]:
            return m
    return None


def _positive_point(enum, cell, objective, zeros=()):
    """A point of the cell, its own or an LP vertex, where the objective is
    positive and the zeros (affines >= 0 on the cell) are 0, or None."""
    if objective.box_max() <= 0:
        return None
    point = cell.point
    value = FractionAffine.of(objective).evaluate(point)
    if value > 0 and all(FractionAffine.of(z).evaluate(point) == 0 for z in zeros):
        return point
    # the zeros are >= 0 on the cell already, so one inequality each pins them
    extra = [z.negated() for z in zeros]
    got = enum.optimize_cell(cell, objective, extra=extra, stop_when_positive=True)
    return got[1] if got is not None and got[0] > 0 else None


def countermodel_by_refutation(atoms, term):
    """The first point found where every root but the first is 0 and the
    first is positive, or None if there is none; term is (IR nodes, root
    positions) as CellEnumerator.iter_cells takes it.  The refutation test
    runs on every cell, with no witness step to rule any cell out."""
    from clog.branches import CellEnumerator

    enum = CellEnumerator(atoms)
    for cell in enum.iter_cells(term):
        point = _positive_point(enum, cell, cell.values[0], cell.values[1:])
        if point is not None:
            return point
    return None


class FractionAffine:
    """Sum of coeff*var plus a constant, all Fractions: the cell walk's
    affine rows as clog.branches kept them before they became integer
    numerators over one denominator.  The judge of branches.Affine, and
    the row arithmetic of cells_by_recursion."""

    __slots__ = ("coeffs", "const")

    def __init__(self, coeffs=None, const=Fraction(0)):
        self.coeffs = coeffs or {}
        self.const = const

    @staticmethod
    def constant(c):
        return FractionAffine({}, rat(c))

    @staticmethod
    def of(aff):
        """The Fraction row of a branches.Affine, read off its views."""
        return FractionAffine(dict(aff.coeffs), aff.const)

    def scale(self, k):
        if k == 0:
            return FractionAffine({}, Fraction(0))
        return FractionAffine({v: k * c for v, c in self.coeffs.items()},
                              k * self.const)

    def plus(self, other):
        coeffs = dict(self.coeffs)
        for v, c in other.coeffs.items():
            if v not in coeffs:
                coeffs[v] = c
            elif (s := coeffs[v] + c) == 0:
                del coeffs[v]
            else:
                coeffs[v] = s
        return FractionAffine(coeffs, self.const + other.const)

    def minus(self, other):
        coeffs = dict(self.coeffs)
        for v, c in other.coeffs.items():
            if v not in coeffs:
                coeffs[v] = -c
            elif (s := coeffs[v] - c) == 0:
                del coeffs[v]
            else:
                coeffs[v] = s
        return FractionAffine(coeffs, self.const - other.const)

    def negated(self):
        return FractionAffine({v: -c for v, c in self.coeffs.items()}, -self.const)

    def evaluate(self, point):
        return sum(
            (c * point[v] for v, c in self.coeffs.items()), start=Fraction(0)
        ) + self.const

    def at(self, ipoint):
        """The value at an integer point (numerators over d, as
        branches._integer_point makes it) times d: its sign is the value's,
        as is that of branches.Affine.at."""
        nums, d = ipoint
        return self.const * d + sum(
            (c * nums[v] for v, c in self.coeffs.items()), start=Fraction(0))

    def box_max(self):
        return self.const + sum(
            (c for c in self.coeffs.values() if c > 0), start=Fraction(0)
        )

    def key(self):
        """The coefficients and constant times the lcm of their
        denominators, gcd-reduced."""
        const, coeffs = self.const, self.coeffs
        lcm = math.lcm(const.denominator, *[c.denominator for c in coeffs.values()])
        ints = {v: c.numerator * (lcm // c.denominator) for v, c in coeffs.items()}
        const = const.numerator * (lcm // const.denominator)
        g = math.gcd(const, *ints.values())
        if g > 1:
            ints = {v: x // g for v, x in ints.items()}
            const //= g
        return (tuple(sorted(ints.items())), const)

    def lp_row(self, variables):
        """(coefficients in the variables' order, constant), as solve_lp
        takes a row."""
        return [self.coeffs.get(v, Fraction(0)) for v in variables], self.const


def feasible_point_by_fractions(enum, constraints):
    """CellEnumerator.feasible_point with its interval and midpoint screens
    in Fractions, evaluating the FractionAffines of cells_by_recursion
    rather than their keys, and its LP rows built from them: the same point
    and the same clog.branches.solve_lp call (rows equal as rationals), if
    any."""
    from clog import branches
    from clog.simplex import OPTIMAL

    lo = {v: Fraction(0) for v in enum.variables}
    hi = {v: Fraction(1) for v in enum.variables}
    for aff in constraints.values():
        if not aff.coeffs and aff.const < 0:
            return None
        if len(aff.coeffs) == 1:
            ((v, c),) = aff.coeffs.items()
            if c > 0:
                lo[v] = max(lo[v], -aff.const / c)
            else:
                hi[v] = min(hi[v], -aff.const / c)
    if any(lo[v] > hi[v] for v in enum.variables):
        return None
    mid = {v: (lo[v] + hi[v]) / 2 for v in enum.variables}
    if all(aff.evaluate(mid) >= 0 for aff in constraints.values()):
        return mid
    rows = [aff.lp_row(enum.variables) for aff in constraints.values()]
    res = branches.solve_lp(len(enum.variables), rows)
    return dict(zip(enum.variables, res.point)) if res.status == OPTIMAL else None


def cells_by_recursion(enum, term):
    """The cells of CellEnumerator.iter_cells, found by a recursive
    generator: one nested walk per split on the current path, each cell
    passed up through every one of them.  It visits the sides in the same
    order, with the same face skip and the same enum.feasible_point calls,
    so it judges the explicit-stack walk cell by cell; it stops at Python's
    recursion limit, about a thousand splits deep.  Its rows are
    FractionAffines: the IR's leaves are read off their Fraction views, and
    the cells' constraints and values are FractionAffines."""
    from clog.branches import Affine, Cell, PLComb

    nodes, roots = term
    values = [None] * len(nodes)
    constraints = {}

    def walk(i, point):
        while i < len(nodes):
            n = nodes[i]
            t = type(n)
            if t is Affine:
                values[i] = FractionAffine.of(n)
            elif t is PLComb:
                total = FractionAffine.constant(n.const)
                for k, j in n.terms:
                    total = total.plus(values[j].scale(rat(k)))
                values[i] = total
            else:
                break
            i += 1
        else:
            yield Cell(dict(constraints), tuple(values[r] for r in roots), point)
            return
        node = nodes[i]  # a PLMonus: zero where diff <= 0, else diff
        diff = values[node.left].minus(values[node.right])
        if not diff.coeffs:
            values[i] = FractionAffine.constant(0) if diff.const <= 0 else diff
            yield from walk(i + 1, point)
            return
        guards = (diff.negated(), diff)
        ints, const = diff.key()
        keys = ((tuple([(v, -x) for v, x in ints]), -const), (ints, const))
        for si in (0, 1):
            if keys[si] in constraints:
                values[i] = diff if si else FractionAffine.constant(0)
                yield from walk(i + 1, point)
                return
        d = diff.evaluate(point)
        order = (0, 1) if d <= 0 else (1, 0)
        for si in order:
            guard = guards[si]
            if si == order[1] and guard.box_max() <= 0:
                break
            key = keys[si]
            if (d >= 0) if si else (d <= 0):
                newpoint = point
            else:
                trial = dict(constraints)
                trial[key] = guard
                newpoint = enum.feasible_point(trial)
                if newpoint is None:
                    continue
            constraints[key] = guard
            values[i] = diff if si else FractionAffine.constant(0)
            yield from walk(i + 1, newpoint)
            del constraints[key]

    yield from walk(0, dict(enum._center))


def random_core_formula(rng, max_depth, atoms, monus_cap=None):
    """Random formula over the core connectives with a rough size control."""

    def gen(depth, budget):
        if depth == 0 or rng.random() < 0.25:
            return rng.choice([syntax.Const0()] + [syntax.Atom(a) for a in atoms])
        kind = rng.randrange(4)
        if kind == 0:
            return syntax.Neg(gen(depth - 1, budget))
        if kind == 1:
            return syntax.Half(gen(depth - 1, budget))
        return syntax.Monus(gen(depth - 1, budget), gen(depth - 1, budget))

    f = gen(max_depth, monus_cap)
    if monus_cap is not None:
        while syntax.monus_count(f) > monus_cap:
            f = gen(max_depth, monus_cap)
    return f


def random_rational(rng, max_den=12, odd_den=False):
    """A random rational in [0,1]; odd_den avoids dyadic gridpoints."""
    if odd_den:
        den = rng.choice([3, 5, 7, 9, 11])
        return Fraction(rng.randint(1, den - 1), den)
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(0, den), den)


def random_weights(rng, n, max_den=10):
    """n positive rational weights summing to exactly 1."""
    cuts = sorted(rng.randint(1, max_den * n - 1) for _ in range(n - 1))
    parts = []
    prev = 0
    for c in cuts + [max_den * n]:
        parts.append(c - prev)
        prev = c
    while 0 in parts:  # nudge empty parts: steal from the largest
        i = parts.index(0)
        j = parts.index(max(parts))
        parts[i] += 1
        parts[j] -= 1
    return [Fraction(p, max_den * n) for p in parts]


def hall_condition_by_enumeration(instance):
    """Hall's condition over all 2^n item subsets: (True, None), or (False,
    T) for the lexicographically-least violating T in declared item order.

    Subsets are visited depth first, each extending its prefix by a later
    item, which is lexicographic order of their index tuples; weights are
    compared as integers over their common denominator."""
    n = len(instance.ids)
    scale = math.lcm(*(w.denominator for w in
                       instance.weights + instance.space.weights))
    need = [int(w * scale) for w in instance.weights]
    mass = {a: int(w * scale)
            for a, w in zip(instance.space.ids, instance.space.weights)}

    def first_violation(prefix, total, union):
        for i in range(prefix[-1] + 1 if prefix else 0, n):
            chosen = prefix + (i,)
            grown = union | instance.events[i]
            more = total + need[i]
            if sum(mass[a] for a in grown) < more:
                return chosen
            found = first_violation(chosen, more, grown)
            if found:
                return found
        return None

    chosen = first_violation((), 0, frozenset())
    if chosen is None:
        return True, None
    return False, tuple(instance.ids[i] for i in chosen)


def verify_allocation_fractions(instance, allocation):
    """Every allocation invariant, summed and compared as Fractions: each
    mass nonnegative and on an atom of its item's event, each item paid
    exactly its weight, no atom overdrawn.  clog.hall.verify_allocation
    sums integers over one common denominator and must agree with this."""
    space = instance.space
    event_of = dict(zip(instance.ids, instance.events))
    item_total = dict.fromkeys(instance.ids, Fraction(0))
    atom_total = dict.fromkeys(space.ids, Fraction(0))
    for (x, a), m in allocation.masses.items():
        # an item's event holds only atoms of the space
        if a not in event_of.get(x, ()) or m < 0:
            return False
        item_total[x] += m
        atom_total[a] += m
    return all(
        item_total[x] == w for x, w in zip(instance.ids, instance.weights)
    ) and all(atom_total[a] <= w for a, w in zip(space.ids, space.weights))


def solve_lp_fractions(n_vars, rows, objective=None, positive_above=None):
    """The textbook two-phase simplex on a Fraction tableau, with Bland's
    rule: (status, value, point) for clog.simplex.solve_lp's problem, where
    status is "optimal", "infeasible" or "positive".  The integer solver
    must take these very pivots, so its answers must equal these."""
    zero, one = Fraction(0), Fraction(1)
    rows = list(rows)
    m = len(rows) + n_vars  # the rows, then x_j <= 1 for each variable
    real = n_vars + m  # variables and one slack per row
    # a row with const > 0 is negated and starts basic on its slack, so every
    # right-hand side is >= 0; each other row gets an artificial
    art_rows = [i for i, (_, const) in enumerate(rows) if const <= 0]
    width = real + len(art_rows)

    tab = []
    basis = list(range(n_vars, real))
    for i, (coeffs, const) in enumerate(rows):
        sign = -one if const > 0 else one  # sign*coeffs . x - sign*s = -sign*const
        row = [sign * c for c in coeffs] + [zero] * (width + 1 - n_vars)
        row[n_vars + i] = -sign
        row[width] = -sign * const
        tab.append(row)
    for j in range(n_vars):  # x_j + s = 1
        row = [zero] * (width + 1)
        row[j] = row[n_vars + len(rows) + j] = row[width] = one
        tab.append(row)
    for a, i in enumerate(art_rows, start=real):
        tab[i][a] = one
        basis[i] = a

    def pivot(r, c):
        # exact Gauss-Jordan step on column c, row r
        row = tab[r]
        inv = one / row[c]
        for j in range(width + 1):
            row[j] *= inv
        for i in range(m):
            if i != r and tab[i][c] != 0:
                f = tab[i][c]
                ri = tab[i]
                for j in range(width + 1):
                    ri[j] -= f * row[j]
        basis[r] = c

    def run_simplex(costs, active_width, threshold=None):
        """Maximize costs . x; returns (status, objective)."""
        while True:
            zrow = [zero] * active_width
            obj = zero
            for i in range(m):
                cb = costs[basis[i]]
                if cb != 0:
                    obj += cb * tab[i][width]
                    for j in range(active_width):
                        if tab[i][j] != 0:
                            zrow[j] += cb * tab[i][j]
            if threshold is not None and obj > threshold:
                return "positive", obj
            enter = -1
            for j in range(active_width):
                if costs[j] - zrow[j] > 0 and j not in basis:
                    enter = j
                    break
            if enter < 0:
                return "optimal", obj
            leave = -1
            best = None
            for i in range(m):
                if tab[i][enter] > 0:
                    ratio = tab[i][width] / tab[i][enter]
                    if best is None or ratio < best or (
                        ratio == best and basis[i] < basis[leave]
                    ):
                        best = ratio
                        leave = i
            assert leave >= 0, "a box LP cannot be unbounded"
            pivot(leave, enter)

    if art_rows:
        _, obj = run_simplex([zero] * real + [-one] * len(art_rows), width)
        if obj != 0:
            return "infeasible", None, None
        # drive leftover artificial basics out
        for i in range(m):
            if basis[i] >= real:
                for j in range(real):
                    if tab[i][j] != 0:
                        pivot(i, j)
                        break

    x = [zero] * n_vars
    if objective is None:
        for i in range(m):
            if basis[i] < n_vars:
                x[basis[i]] = tab[i][width]
        return "optimal", zero, x
    costs = list(objective) + [zero] * (width - n_vars)
    status, obj = run_simplex(costs, real, positive_above)
    for i in range(m):
        if basis[i] < n_vars:
            x[basis[i]] = tab[i][width]
    return status, obj, x


def pointwise_fractions(phi, env, family, ranging=frozenset()):
    """The pointwise route on Fractions, as it stood before it moved to
    integers: one pass over phi's positions, children first; at each atom a
    position's table gives its value in that atom's structure for every key
    (a value per free variable, in sorted order), the variables in
    `ranging` or bound by a quantifier ranging over the universe and the
    others taking their section's value.  Tables are dicts keyed by the
    key, so no key-order arithmetic is shared with the package.  Returns
    the root's free variables and each atom's root table."""
    nodes, pos = syntax.subformulas(phi)
    names = [tuple(sorted(v)) for v in syntax.free_variables_at(nodes, pos)]
    ranging = ranging.union(
        f.var for f in nodes if isinstance(f, (syntax.Inf, syntax.Sup)))
    roots = []
    for i, s in enumerate(family.structures):
        domain = {name: [sec.values[i]] for name, sec in env.items()}
        domain.update(dict.fromkeys(ranging, s.universe))

        def term(t, binding):
            if isinstance(t, syntax.Var):
                return binding[t.name]
            return s.functions[t.func][tuple(term(a, binding) for a in t.args)]

        tables = []

        def at(child, binding):
            return tables[pos[id(child)]][tuple(
                binding[v] for v in names[pos[id(child)]])]

        for p, f in enumerate(nodes):
            table = {}
            for key in itertools.product(*(domain[v] for v in names[p])):
                binding = dict(zip(names[p], key))
                if isinstance(f, syntax.Pred):
                    values = s.metric if f.name == "d" else s.predicates[f.name]
                    value = values[tuple(term(a, binding) for a in f.args)]
                elif isinstance(f, syntax.Const0):
                    value = Fraction(0)
                elif isinstance(f, syntax.Neg):
                    value = 1 - at(f.body, binding)
                elif isinstance(f, syntax.Half):
                    value = at(f.body, binding) / 2
                elif isinstance(f, syntax.Monus):
                    value = max(at(f.left, binding) - at(f.right, binding), Fraction(0))
                else:
                    pick = min if isinstance(f, syntax.Inf) else max
                    value = pick(at(f.body, {**binding, f.var: u}) for u in s.universe)
                table[key] = value
            tables.append(table)
        roots.append(tables[-1])
    return names[-1], roots


# --- the structure load check as it stood on Fractions -----------------------


def lipschitz_slacks_fractions(structure):
    """Every table's modulus slack on Fractions, one argument slot changed at
    a time: (kind, name, slot, key, swapped, slack), slack being the gap
    between the two table values (a distance, for a function) minus the
    slot's Lipschitz constant times the distance between the changed
    arguments, read from the structure's tables as they are now."""
    sig = structure.signature
    metric = structure.metric
    for kind, moduli, tables in (
        ("predicate", sig.predicates, structure.predicates),
        ("function", sig.functions, structure.functions),
    ):
        for name, lam in moduli.items():
            table = tables[name]
            for slot, bound in enumerate(lam):
                for key in itertools.product(structure.universe, repeat=len(lam)):
                    for other in structure.universe:
                        if other == key[slot]:
                            continue  # slack 0: no gap, no distance
                        swapped = key[:slot] + (other,) + key[slot + 1:]
                        if kind == "predicate":
                            gap = abs(table[key] - table[swapped])
                        else:
                            gap = metric[table[key], table[swapped]]
                        slack = gap - bound * metric[key[slot], other]
                        yield kind, name, slot, key, swapped, slack


def structure_tables_by_fractions(signature, universe, predicates=None,
                                  functions=None, metric=None):
    """FiniteLStructure's load check on Fractions, as it stood before it
    moved to integers: (metric, predicates, functions) as the structure
    stores them, or the ValueError or TypeError the check raises first.
    Values are converted with clog.rationals.rat, so a float is refused
    with the package's text; every comparison is between Fractions."""
    universe = tuple(str(u) for u in universe)
    if not universe:
        raise ValueError("empty universe")
    if len(set(universe)) != len(universe):
        raise ValueError("duplicate universe elements")
    n = len(universe)
    if metric is None and n == 1:
        metric = [[0]]
    if metric is None or len(metric) != n or any(len(row) != n for row in metric):
        raise ValueError("metric must be an %dx%d table" % (n, n))
    d = {}
    for i, a in enumerate(universe):
        for j, b in enumerate(universe):
            v = rat(metric[i][j])
            if not 0 <= v <= 1:
                raise ValueError("metric value %s outside [0,1]" % (v,))
            d[a, b] = v
    for i, a in enumerate(universe):
        if d[a, a] != 0:
            raise ValueError("d(%s,%s) must be 0" % (a, a))
        for b in universe[i + 1:]:
            if d[a, b] != d[b, a]:
                raise ValueError("metric not symmetric at (%s,%s)" % (a, b))
            if d[a, b] == 0:
                raise ValueError("distinct elements %s,%s at distance 0" % (a, b))
    for a in universe:
        for b in universe:
            for c in universe:
                if d[a, c] > d[a, b] + d[b, c]:
                    raise ValueError(
                        "triangle inequality fails on (%s,%s,%s)" % (a, b, c))
    preds = {}
    for name, lam in signature.predicates.items():
        table = (predicates or {}).get(name)
        if table is None:
            raise ValueError("missing table for predicate %r" % name)
        out = preds[name] = {}
        for key in itertools.product(universe, repeat=len(lam)):
            if key not in table:
                raise ValueError("predicate %r has no value at %r" % (name, key))
            v = rat(table[key])
            if not 0 <= v <= 1:
                raise ValueError("predicate %r value %s outside [0,1]" % (name, v))
            out[key] = v
        if len(table) != len(out):
            raise ValueError("predicate %r table has stray entries" % name)
    funcs = {}
    for name, lam in signature.functions.items():
        table = (functions or {}).get(name)
        if table is None:
            raise ValueError("missing table for function %r" % name)
        out = funcs[name] = {}
        for key in itertools.product(universe, repeat=len(lam)):
            if key not in table:
                raise ValueError("function %r has no value at %r" % (name, key))
            v = str(table[key])
            if v not in universe:
                raise ValueError("function %r maps %r outside the universe" % (name, key))
            out[key] = v
        if len(table) != len(out):
            raise ValueError("function %r table has stray entries" % name)
    tables = types.SimpleNamespace(signature=signature, universe=universe, metric=d,
                                   predicates=preds, functions=funcs)
    for kind, name, slot, key, swapped, slack in lipschitz_slacks_fractions(tables):
        if slack > 0:
            raise ValueError(
                "%s %r violates its modulus in slot %d between %r and %r"
                % (kind, name, slot, key, swapped))
    return d, preds, funcs


# --- the parser as it stood with position-tracking tokens ----------------------

_T_LPAREN, _T_RPAREN, _T_BAR, _T_MINUS, _T_AND, _T_OR, _T_PLUS = range(7)
_T_ZERO, _T_ONE, _T_DYADIC, _T_IDENT, _T_DOT, _T_COMMA, _T_END = range(7, 14)
_SYMBOLS = {
    "(": _T_LPAREN, ")": _T_RPAREN, "|": _T_BAR, "-": _T_MINUS, "/\\": _T_AND,
    "\\/": _T_OR, "(+)": _T_PLUS, "0": _T_ZERO, "1": _T_ONE, ".": _T_DOT,
    ",": _T_COMMA,
}
_TOKEN = re.compile(r"(\s*)(?:(\(\+\)|[()|\-.,01]|/\\|\\/)|2\^-([0-9]*)|(\w+)|(\S))")


def _tokenize(text):
    """(kind, value, offset) tokens, each offset counted as the text is
    read, and the end token; the first token that is an error on its own
    raises before any parsing."""
    toks = []
    i = 0  # where the next token starts
    for space, symbol, digits, word, other in _TOKEN.findall(text):
        i += len(space)
        if symbol:
            toks.append((_SYMBOLS[symbol], None, i))
            i += len(symbol)
        elif word:
            if not (word[0].isalpha() or word[0] == "_"):
                raise syntax.ParseError("unexpected character %r" % word[0], i)
            toks.append((_T_IDENT, word, i))
            i += len(word)
        elif other:
            raise syntax.ParseError("unexpected character %r" % other, i)
        else:
            if not digits:
                raise syntax.ParseError("expected digits after '2^-'", i + 3)
            exponent = digits.lstrip("0") or "0"
            if len(exponent) > 5 or int(exponent) > syntax.MAX_DYADIC_EXPONENT:
                raise syntax.ParseError(
                    "exponent of '2^-' above %d" % syntax.MAX_DYADIC_EXPONENT, i + 3
                )
            toks.append((_T_DYADIC, int(exponent), i))
            i += 3 + len(digits)
    toks.append((_T_END, None, len(text)))
    return toks


class _Parser:
    def __init__(self, text, first_order):
        self.toks = _tokenize(text)
        self.pos = 0
        self.first_order = first_order
        self.variables = {}  # name -> the one Var node of that name here

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        """The next token; the end token repeats once it is reached."""
        t = self.toks[self.pos]
        if t[0] != _T_END:
            self.pos += 1
        return t

    def expect(self, kind, what):
        t = self.next()
        if t[0] != kind:
            raise syntax.ParseError("expected %s" % what, t[2])
        return t

    def formula(self):
        waiting = []
        while True:
            kind, value, at = self.next()
            if kind == _T_IDENT and value in syntax.KEYWORDS:
                if value == "neg" or value == "half":
                    waiting.append(syntax.Neg if value == "neg" else syntax.Half)
                    continue
                if not self.first_order:
                    raise syntax.ParseError(
                        "quantifier %r not allowed here" % value, at)
                vtok = self.expect(_T_IDENT, "a variable name")
                if vtok[1] in syntax.KEYWORDS:
                    raise syntax.ParseError(
                        "reserved word %r cannot be a variable" % vtok[1], vtok[2])
                self.expect(_T_DOT, "'.'")
                q = syntax.Inf if value == "inf" else syntax.Sup
                waiting.append(lambda body, q=q, var=vtok[1]: q(var, body))
                continue
            if kind == _T_LPAREN or kind == _T_BAR:
                waiting.append(kind)
                continue
            node = self.leaf(kind, value, at)
            while waiting:  # close what this node completes
                w = waiting.pop()
                if w == _T_LPAREN:
                    op = self.next()
                    waiting.append(
                        lambda right, left=node, op=op: self.binary(left, op, right))
                    break
                if w == _T_BAR:
                    self.expect(_T_MINUS, "'-'")
                    waiting.append(lambda right, left=node: self.bars(left, right))
                    break
                node = w(node)
            else:
                return node

    def leaf(self, kind, value, at):
        if kind == _T_ZERO:
            return syntax.Const0()
        if kind == _T_ONE:
            return syntax.one()
        if kind == _T_DYADIC:
            return syntax.dyadic(value)
        if kind == _T_IDENT:
            if self.first_order:
                self.expect(_T_LPAREN, "'(' (predicates take arguments here)")
                return syntax.Pred(value, tuple(self.termlist()))
            return syntax.Atom(value)
        raise syntax.ParseError("expected a formula", at)

    def binary(self, left, op, right):
        self.expect(_T_RPAREN, "')'")
        build = _BINARY.get(op[0])
        if build is None:
            raise syntax.ParseError("expected a binary operator", op[2])
        return build(left, right)

    def bars(self, left, right):
        self.expect(_T_BAR, "closing '|'")
        return syntax.abs_diff(left, right)

    def termlist(self):
        args = []
        if self.peek()[0] == _T_RPAREN:
            self.next()
            return args
        while True:
            args.append(self.term())
            kind, _, at = self.next()
            if kind == _T_RPAREN:
                return args
            if kind != _T_COMMA:
                raise syntax.ParseError("expected ',' or ')'", at)

    def term(self):
        tok = self.expect(_T_IDENT, "a term")
        if tok[1] in syntax.KEYWORDS:
            raise syntax.ParseError(
                "reserved word %r cannot start a term" % tok[1], tok[2])
        if self.peek()[0] == _T_LPAREN:
            self.next()
            return syntax.Apply(tok[1], tuple(self.termlist()))
        var = self.variables.get(tok[1])
        if var is None:
            var = self.variables[tok[1]] = syntax.Var(tok[1])
        return var


_BINARY = {_T_MINUS: syntax.Monus, _T_AND: syntax.conj, _T_OR: syntax.disj,
           _T_PLUS: syntax.truncated_add}


def parse_tracking_offsets(text, first_order=False):
    """The formula syntax.parse_formula (or, first_order, parse_lformula)
    must return for the text, or the ParseError it must raise: the parser
    whose tokens carry their offsets, all tokenized before any is parsed."""
    p = _Parser(text, first_order)
    node = p.formula()
    t = p.peek()
    if t[0] != _T_END:
        raise syntax.ParseError("trailing input", t[2])
    return node


def _formula_arg_by_hand(p, many=False):
    """Attach the shared formula input of parser_by_hand: -e TEXT or a file
    path."""
    p.add_argument(
        "-e",
        "--expr",
        action="append",
        default=None,
        metavar="FORMULA",
        help="formula text" + (" (repeatable)" if many else ""),
    )
    p.add_argument(
        "file",
        nargs="?",
        default=None,
        help="file with the formula text"
        + (", one per line" if many else ""),
    )


def parser_by_hand(argv):
    """cli._build_parser as it was before the command table, one block per
    command pointing at cli's handlers: the parser for argv.  Every command
    is named, so the usage, help and invalid-choice texts are the same
    whichever runs, but only the one that runs gets its arguments.  At each level the command is argparse's first
    positional, and no option before it takes a value, so it is argv's
    first word not starting with "-" (the second one under rv and rand)."""
    from clog import cli

    words = [a for a in argv if not a.startswith("-")]

    def command(sub, name, help, level=0):
        """name's subparser if argv runs it, else None."""
        return sub.add_parser(name, help=help, runs=words[level:level + 1] == [name])

    parser = argparse.ArgumentParser(
        prog="clog",
        description="Continuous-logic toolkit: validity, proofs, random "
        "variables, randomised structures, mass allocation.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=cli._subparser)

    p = command(sub, "valid", "is the formula 0 everywhere?")
    if p is not None:
        _formula_arg_by_hand(p)
        p.set_defaults(handler=cli._cmd_valid, echo="valid")

    p = command(sub, "sat", "do the formulas share a zero?")
    if p is not None:
        _formula_arg_by_hand(p, many=True)
        p.set_defaults(handler=cli._cmd_sat, echo="sat")

    p = command(sub, "entail", "do the premises entail the goal?")
    if p is not None:
        p.add_argument("--premise", action="append", metavar="FORMULA")
        p.add_argument("--goal", required=True, metavar="FORMULA")
        p.add_argument("--witness", action="store_true",
                       help="also search for the finite witness m")
        p.add_argument("--cap", type=cli._nonnegative_int)
        p.set_defaults(handler=cli._cmd_entail, echo="entail")

    p = command(sub, "unsat-witness",
                "smallest n certifying the premises unsatisfiable")
    if p is not None:
        p.add_argument("--premise", action="append", metavar="FORMULA")
        p.add_argument("--cap", type=cli._nonnegative_int)
        p.set_defaults(handler=cli._cmd_unsat_witness, echo="unsat-witness")

    p = command(sub, "check-proof", "check a proof file")
    if p is not None:
        p.add_argument("proof", help="proof JSON file")
        p.add_argument("--premise", action="append", metavar="FORMULA")
        p.set_defaults(handler=cli._cmd_check_proof, echo="check-proof")

    p = command(sub, "find-proof", "search for a proof of the goal")
    if p is not None:
        _formula_arg_by_hand(p)
        p.add_argument("--premise", action="append", metavar="FORMULA")
        p.add_argument("--depth", type=cli._nonnegative_int, default=20,
                       help="largest proof length to consider")
        p.set_defaults(handler=cli._cmd_find_proof, echo="find-proof")

    p = command(sub, "elim-half", "rewrite premises and goal without half")
    if p is not None:
        p.add_argument("--premise", action="append", metavar="FORMULA")
        p.add_argument("--goal", required=True, metavar="FORMULA")
        p.set_defaults(handler=cli._cmd_elim_half, echo="elim-half")

    rv_p = command(sub, "rv", "random variables on finite spaces")
    if rv_p is not None:
        rv_sub = rv_p.add_subparsers(dest="rv_command", required=True,
                                     parser_class=cli._subparser)

        p = command(rv_sub, "check", "axiom residuals on random samples", 1)
        if p is not None:
            p.add_argument("space", help="probability space JSON file")
            p.add_argument("--samples", type=cli._nonnegative_int, default=12,
                           help="sample variables (2 to %d)"
                           % cli.LIMITS["rv check --samples"][0])
            p.add_argument("--seed", type=int, default=0)
            p.set_defaults(handler=cli._cmd_rv_check, echo="rv check")

        p = command(rv_sub, "arv-defect",
                    "distance from the variable's law to atomlessness", 1)
        if p is not None:
            p.add_argument("rv", help="random variable JSON file")
            p.add_argument("--witness", action="store_true")
            p.set_defaults(handler=cli._cmd_rv_arv_defect, echo="rv arv-defect")

        p = command(rv_sub, "dist", "L1 distance of two variables", 1)
        if p is not None:
            p.add_argument("x", help="random variable JSON file")
            p.add_argument("y", help="random variable JSON file")
            p.set_defaults(handler=cli._cmd_rv_dist, echo="rv dist")

        p = command(rv_sub, "joint", "joint law of the variables", 1)
        if p is not None:
            p.add_argument("rv", nargs="+", help="random variable JSON files")
            p.set_defaults(handler=cli._cmd_rv_joint, echo="rv joint")

        p = command(rv_sub, "condexp", "conditional expectation", 1)
        if p is not None:
            p.add_argument("rv", help="random variable JSON file")
            p.add_argument("--block", action="append", required=True,
                           metavar="ATOMS", help="partition block, comma-separated")
            p.set_defaults(handler=cli._cmd_rv_condexp, echo="rv condexp")

        p = command(rv_sub, "tauphi",
                    "staged integral approximation over an event", 1)
        if p is not None:
            p.add_argument("rv", help="random variable JSON file")
            p.add_argument("--n", type=int, required=True,
                           help="stage (1 to %d)" % cli.LIMITS["rv tauphi --n"][0])
            p.add_argument("--event", required=True, metavar="ATOMS",
                           help="event, comma-separated atom ids")
            p.set_defaults(handler=cli._cmd_rv_tauphi, echo="rv tauphi")

    rand_p = command(sub, "rand", "randomisations of finite structures")
    if rand_p is not None:
        rand_sub = rand_p.add_subparsers(dest="rand_command", required=True,
                                         parser_class=cli._subparser)

        p = command(rand_sub, "eval", "pointwise value of a formula", 1)
        if p is not None:
            p.add_argument("family", help="random family JSON file")
            _formula_arg_by_hand(p)
            p.add_argument("--section", action="append", metavar="NAME=V1,V2,...")
            p.set_defaults(handler=cli._cmd_rand_eval, echo="rand eval")

        p = command(rand_sub, "axioms", "axiom residuals on random sections", 1)
        if p is not None:
            p.add_argument("family", help="random family JSON file")
            p.add_argument("--samples", type=cli._nonnegative_int, default=8,
                           help="sample sections (2 to %d)"
                           % cli.LIMITS["rand axioms --samples"][0])
            p.add_argument("--seed", type=int, default=0)
            p.set_defaults(handler=cli._cmd_rand_axioms, echo="rand axioms")

        p = command(rand_sub, "los",
                    "expected truth value both ways: do they agree?", 1)
        if p is not None:
            p.add_argument("family", help="random family JSON file")
            _formula_arg_by_hand(p)
            p.add_argument("--section", action="append", metavar="NAME=V1,V2,...")
            p.add_argument("--weights", metavar="P/Q,P/Q,...",
                           help="reweighting of the atoms (defaults to the family's)")
            p.set_defaults(handler=cli._cmd_rand_los, echo="rand los")

        p = command(rand_sub, "glue", "combine two sections along an event", 1)
        if p is not None:
            p.add_argument("family", help="random family JSON file")
            p.add_argument("--event", required=True, metavar="ATOMS")
            p.add_argument("--a", required=True, metavar="V1,V2,...",
                           help="section used on the event")
            p.add_argument("--b", required=True, metavar="V1,V2,...",
                           help="section used off the event")
            p.set_defaults(handler=cli._cmd_rand_glue, echo="rand glue")

        p = command(rand_sub, "type-measure",
                    "pushforward law of formula values at sections", 1)
        if p is not None:
            p.add_argument("family", help="random family JSON file")
            _formula_arg_by_hand(p, many=True)
            p.add_argument("--section", action="append", metavar="V1,V2,...",
                           help="section values (repeatable)")
            p.add_argument("--name", action="append", metavar="NAME",
                           help="variable name bound per section tuple entry")
            p.set_defaults(handler=cli._cmd_rand_type_measure, echo="rand type-measure")

        p = command(rand_sub, "inf-witness",
                    "section attaining an inf at every atom", 1)
        if p is not None:
            p.add_argument("family", help="random family JSON file")
            _formula_arg_by_hand(p)
            p.add_argument("--var", required=True, help="the quantified variable")
            p.add_argument("--section", action="append", metavar="NAME=V1,V2,...")
            p.set_defaults(handler=cli._cmd_rand_inf_witness, echo="rand inf-witness")

    p = command(sub, "hall", "marriage condition and mass allocation")
    if p is not None:
        p.add_argument("instance", help="instance JSON file (up to %d items)"
                       % cli.LIMITS["hall items"][0])
        p.set_defaults(handler=cli._cmd_hall, echo="hall")

    return parser


def eliminate_half_by_steps(sigma, goal):
    """proofs.eliminate_half as it was before its one pass: a loop that
    lists the subformulas again and rebuilds the formulas for each Half.

    Innermost halvings go first: each step picks the first Half node with a
    Half-free body, replaces it everywhere by a fresh atom Q, and adds the
    companion premises (body - 2Q) and (Q - (body - Q)), whose common zeros
    force Q = body/2.  An assignment satisfies the originals exactly when its
    unique extension to the fresh atoms satisfies the results.
    """
    from clog import proofs

    formulas = list(sigma) + [goal]
    if not syntax.is_propositional(*formulas):
        raise TypeError("premises and goal must be propositional")
    used = set(syntax.atom_names(*formulas))
    fresh = {}
    companions = []
    counter = 0
    while True:
        # the first Half in subformula order has a Half-free body
        nodes, pos = syntax.subformulas(*formulas)
        at = next((p for p, f in enumerate(nodes) if type(f) is syntax.Half), None)
        if at is None:
            break
        target = nodes[at]
        while "Q%d" % counter in used:
            counter += 1
        name = "Q%d" % counter
        used.add(name)
        q = syntax.Atom(name)
        fresh[name] = target
        formulas = syntax.rebuild(
            formulas, pos, lambda f, p: q if p == at else None
        )
        body = target.body  # Half-free, so the companions are too
        companions.append(syntax.monus_chain(body, 2, q))
        companions.append(syntax.Monus(q, syntax.Monus(body, q)))
    return proofs.HalfElimResult(formulas[:-1] + companions, formulas[-1], fresh)


def abstract_shared_by_rebuild(formula, nodes, pos, atoms):
    """The formula with every repeated subtraction subformula replaced by a
    fresh atom (the same atom at all its occurrences), or None if no
    subtraction repeats; nodes and pos come from syntax.subformulas(formula)
    and atoms are its sorted atom names.

    The fresh atoms are named #0, #1, ..., skipping the formula's own atom
    names, in syntax.rebuild's order: outermost first, left to right.  Only
    subtraction nodes are replaced; neg and half are affine.
    """
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
    if all(occ[p] < 2 for p, f in enumerate(nodes) if type(f) is syntax.Monus):
        return None
    taken = set(atoms)
    fresh = (name for name in map("#{}".format, itertools.count())
             if name not in taken)

    def swap(f, p):
        if type(f) is syntax.Monus and occ[p] >= 2:
            return syntax.Atom(next(fresh))
        return None

    return syntax.rebuild([formula], pos, swap)[0]
