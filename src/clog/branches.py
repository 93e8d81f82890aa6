"""Branch enumeration for piecewise-linear terms over the unit box.

The one split node is truncated subtraction max(0, a - b); min, max and
absolute value are written with it and linear combinations.  Resolving each
split into its "zero" (a <= b) and "positive" (a >= b) side cuts the unit
box into cells, on each of which the whole term is a single affine
expression.  A term with k split nodes has at most 2^k sign vectors but only
polynomially many feasible cells (a hyperplane arrangement), so the sides
are explored depth-first with the current constraint set checked for
feasibility at every step: first against a witness point carried along the
search, then (on a miss) with an exact LP, which simplex.py pivots in
integers over one common denominator and turns into Fractions only at the
answer.  Each split's hyperplane is formed, keyed and signed once: the zero
side is the positive side negated, key included, and one evaluation at the
carried point tells which sides hold there.  A side that holds only on a
face of the box is skipped when it comes second: the positive side of 0 - a
holds only where a = 0, the zero side holds everywhere, and both take the
same value on that face.  So the chain 0 - a0 - ... - a(k-1) is one cell,
not 2^k.

Each affine row is integers: numerators by atom name and a constant
numerator over one positive denominator.  So the walk's sums, differences,
scalings and keys build no Fraction, and neither do its side, face and
midpoint-screen tests: each is the sign of Affine.at or Affine.box_max, an
integer sum over a row, and the point is carried beside its Fractions as
integer numerators over one denominator, made once per point.  solve_lp
is handed each row's rational values, built once per row: it weighs a row
in phase 1 by the lcm of the row's denominators, so a row rescaled to
integers could move the vertex it returns.

The depth-first search is one loop over an explicit stack of frames, one
per constraint on the current path: the key to delete on the way back and
the split's other side, if it is still to be tried.  No generator is built
per split and no cell climbs back through nested ones, so a term may hold
any number of splits and a search leaves no reference cycle behind.

A term is given as a list of nodes in the order they were built, children
before parents, each naming its children by position in the list; the
search walks that list as it is.  A shared subterm is one node, so a
repeated subformula is resolved consistently instead of multiplying cells.
No feasibility answer is cached: the constraint sets one search tries are
pairwise distinct, since two paths differ at the hyperplane where they
split, and a later node on that hyperplane is forced without adding a
constraint.
"""

import math
from fractions import Fraction
from types import MappingProxyType

from .rationals import ZERO, rat
from .simplex import OPTIMAL, POSITIVE, solve_lp

_new = object.__new__


class Affine:
    """Sum of coeff*var plus a constant, as integers over one denominator:
    numerators keyed by atom name (`nums`), a constant numerator (`num`) and
    a positive denominator (`den`).  `coeffs` and `const` are read-only
    Fraction views, built once per row; the walk's arithmetic, its keys and
    its sign tests never build a Fraction.  A row never changes once made,
    so rows may share their `nums` dict."""

    __slots__ = ("nums", "num", "den", "_view")

    def __init__(self, coeffs=None, const=ZERO):
        coeffs = {v: rat(c) for v, c in (coeffs or {}).items()}
        const = rat(const)
        den = math.lcm(const.denominator, *[c.denominator for c in coeffs.values()])
        self.nums = {
            v: c.numerator * (den // c.denominator) for v, c in coeffs.items()}
        self.num = const.numerator * (den // const.denominator)
        self.den = den

    @staticmethod
    def constant(c):
        c = rat(c)
        return _affine({}, c.numerator, c.denominator)

    @staticmethod
    def variable(name):
        return _affine({name: 1}, 0, 1)

    @property
    def coeffs(self):
        return self._fractions()[0]

    @property
    def const(self):
        return self._fractions()[1]

    def _fractions(self):
        try:
            return self._view
        except AttributeError:
            den = self.den
            coeffs = {v: Fraction(x, den) for v, x in self.nums.items()}
            self._view = view = (MappingProxyType(coeffs), Fraction(self.num, den))
            return view

    def scale(self, k):
        """k * self, k an int or a Fraction."""
        p, q = k.numerator, k.denominator
        if p == 0:
            return _affine({}, 0, 1)
        nums = self.nums if p == 1 else {v: p * x for v, x in self.nums.items()}
        return _affine(nums, p * self.num, q * self.den)

    def plus(self, other):
        return self._add(other, 1)

    def minus(self, other):
        return self._add(other, -1)

    # over the lcm of the two denominators; a numerator that self lacks is
    # copied (or negated), and one that cancels is dropped
    def _add(self, other, sign):
        d1, d2 = self.den, other.den
        if d1 == d2:
            den, a, b = d1, 1, sign
            nums = dict(self.nums)
        else:
            den = math.lcm(d1, d2)
            a, b = den // d1, sign * (den // d2)
            nums = {v: a * x for v, x in self.nums.items()}
        for v, x in other.nums.items():
            if v not in nums:
                nums[v] = b * x
            elif (s := nums[v] + b * x) == 0:
                del nums[v]
            else:
                nums[v] = s
        return _affine(nums, a * self.num + b * other.num, den)

    def negated(self):
        """-self; the same values as scale(-1)."""
        return _affine({v: -x for v, x in self.nums.items()}, -self.num, self.den)

    def at(self, ipoint):
        """The value at an integer point (numerators P over d, as
        _integer_point makes it) times den * d: its sign is the value's."""
        nums, d = ipoint
        return self.num * d + sum([x * nums[v] for v, x in self.nums.items()])

    def box_max(self):
        """Largest value on the unit box (an upper bound on any cell) times
        den: its sign is the value's."""
        return self.num + sum([x for x in self.nums.values() if x > 0])

    def key(self):
        """Canonical form of the constraint self >= 0: the numerators and
        constant numerator, gcd-reduced (den > 0 only scales them)."""
        nums, num = self.nums, self.num
        g = math.gcd(num, *nums.values())
        if g > 1:
            return tuple(sorted([(v, x // g) for v, x in nums.items()])), num // g
        return tuple(sorted(nums.items())), num

    def __repr__(self):
        parts = ["%s*%s" % (c, v) for v, c in sorted(self.coeffs.items())]
        parts.append(str(self.const))
        return " + ".join(parts)


def _affine(nums, num, den):
    """The row nums . x + num over den, from integers, den > 0."""
    a = _new(Affine)
    a.nums, a.num, a.den = nums, num, den
    return a


def _integer_point(point):
    """The Fraction point as (integer numerators by name, one denominator)."""
    d = math.lcm(*[q.denominator for q in point.values()])
    return {v: q.numerator * (d // q.denominator) for v, q in point.items()}, d


# --- term IR -----------------------------------------------------------------
# A leaf is an Affine; the other nodes name their children by position.

class PLComb:
    """Linear combination sum(k_i * node_i) + const."""

    __slots__ = ("terms", "const")

    def __init__(self, terms, const=ZERO):
        self.terms = tuple(terms)
        self.const = const


class PLMonus:
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right


class Cell:
    """A polytope (within the unit box) on which the term is one affine."""

    __slots__ = ("constraints", "values", "point", "ipoint")

    def __init__(self, constraints, values, point, ipoint=None):
        self.constraints = constraints  # dict: normalized key -> Affine (>= 0)
        self.values = values  # tuple of Affine, one per enumerated root
        self.point = point  # a feasible point (dict), or None if not yet known
        self.ipoint = ipoint  # the point as _integer_point gives it, if known


class CellEnumerator:
    """Enumerates feasible cells of piecewise-linear terms over [0,1]^vars."""

    def __init__(self, variables):
        self.variables = list(variables)
        self._center = dict.fromkeys(self.variables, rat(1, 2))
        self._icenter = (dict.fromkeys(self.variables, 1), 2)

    # ---- feasibility ----------------------------------------------------

    def _lp_rows(self, constraints):
        # the Affines' rational rows (their Fraction views, built once per
        # row), not their numerators or gcd-reduced keys: phase 1 weighs each
        # row's artificial by the lcm of that row's denominators, so a
        # rescaled row can leave phase 1 at another vertex, and the carried
        # witness point (hence the cell order and the countermodels) would move
        return [
            ([aff.coeffs.get(v, ZERO) for v in self.variables], aff.const)
            for aff in constraints.values()
        ]

    def feasible_point(self, constraints):
        """A point of the cell (plus unit box), or None."""
        # cheap single-variable interval screen before the LP, on the keys:
        # each bound is (numerator, positive denominator), compared crosswise
        lo = dict.fromkeys(self.variables, (0, 1))
        hi = dict.fromkeys(self.variables, (1, 1))
        for ints, const in constraints:
            if len(ints) == 1:
                ((v, c),) = ints
                if c > 0 and -const * lo[v][1] > lo[v][0] * c:  # v >= -const/c
                    lo[v] = (-const, c)
                elif c < 0 and const * hi[v][1] < hi[v][0] * -c:  # v <= const/-c
                    hi[v] = (const, -c)
            elif not ints and const < 0:
                return None
        # the midpoint of each interval, n/q, and in integers over their lcm
        mids = {}
        for v in self.variables:
            (a, b), (c, d) = lo[v], hi[v]
            if a * d > c * b:
                return None
            mids[v] = (a * d + c * b, 2 * b * d)
        den = math.lcm(*[q for _, q in mids.values()])
        imid = {v: n * (den // q) for v, (n, q) in mids.items()}, den
        if all(aff.at(imid) >= 0 for aff in constraints.values()):
            return {v: Fraction(n, q) for v, (n, q) in mids.items()}
        res = solve_lp(len(self.variables), self._lp_rows(constraints))
        return dict(zip(self.variables, res.point)) if res.status == OPTIMAL else None

    # ---- enumeration ----------------------------------------------------

    def iter_cells(self, term):
        """Yield the feasible cells on which every root term is affine.

        `term` is (nodes, roots): the IR nodes, children before parents, and
        the positions of the roots among them.  Each yielded Cell carries one
        value per root and a point inside the cell (which certifies it
        nonempty).  Cells are closed, so they overlap on boundaries; over
        each cell the value affines agree with the terms everywhere,
        boundaries included.

        The search is one loop over an explicit stack, so a term may hold
        any number of splits.  Going forward, each split that adds a
        constraint takes the side whose row is >= 0 at the carried point, an
        integer test, and pushes a frame: the key it added, and the other
        side with the point carried in, or None once that side is taken too.
        After a cell, the walk pops frames, deleting their keys, down to the
        deepest split whose other side is more than a face (its row's box
        maximum is positive) and feasible (at the point, the integer midpoint
        screen's point or an LP vertex), and goes forward from there.
        """
        nodes, roots = term
        values = [None] * len(nodes)  # each Affine under the current sides
        constraints = {}  # key -> Affine (each meaning affine >= 0)
        zero = Affine.constant(0)
        stack = []  # (key to delete, other side or None), one per split added
        i, point, ipoint = 0, dict(self._center), self._icenter
        while True:
            while i < len(nodes):
                n = nodes[i]
                t = type(n)
                if t is Affine:
                    values[i] = n
                elif t is PLComb:
                    if len(n.terms) == 1:  # neg or half: one scaled copy
                        ((k, j),) = n.terms
                        total = values[j]
                        total = total.negated() if k == -1 else total.scale(k)
                        c = n.const
                        if c.denominator == 1:  # a new row: add c in place
                            total.num += c.numerator * total.den
                        else:
                            total = total.plus(Affine.constant(c))
                    else:
                        total = Affine.constant(n.const)
                        for k, j in n.terms:
                            total = total.plus(values[j].scale(k))
                    values[i] = total
                else:  # a PLMonus: zero where diff <= 0, else diff
                    diff = values[n.left].minus(values[n.right])
                    if not diff.nums:  # constant difference: the side is forced
                        values[i] = zero if diff.num <= 0 else diff
                        i += 1
                        continue
                    # side 0 is diff <= 0 (value 0), side 1 diff >= 0 (value
                    # diff); the key of side 0 is side 1's negated
                    ints, const = diff.key()
                    key1 = (ints, const)
                    key0 = (tuple([(v, -x) for v, x in ints]), -const)
                    # this hyperplane may already be resolved on this path;
                    # the opposite side would only retrace the boundary,
                    # where both sides take equal values
                    if key0 in constraints:
                        values[i] = zero
                    elif key1 in constraints:
                        values[i] = diff
                    else:  # first the side holding at the carried point
                        d = diff.at(ipoint)
                        if d <= 0:
                            constraints[key0] = diff.negated()
                            values[i] = zero
                            stack.append((key0, (i, diff, 1, key1, point, ipoint, d)))
                        else:
                            constraints[key1] = diff
                            values[i] = diff
                            stack.append((key1, (i, diff, 0, key0, point, ipoint, d)))
                i += 1
            yield Cell(dict(constraints), tuple(values[r] for r in roots),
                       point, ipoint)
            while stack:
                key, other = stack.pop()
                del constraints[key]
                if other is None:
                    continue
                i, diff, si, key, point, ipoint, d = other
                guard = diff if si else diff.negated()
                if guard.box_max() <= 0:
                    continue  # only a face: the first side holds on the whole box
                if d != 0:  # the carried point is off this side
                    trial = dict(constraints)
                    trial[key] = guard
                    point = self.feasible_point(trial)
                    if point is None:
                        continue
                    ipoint = _integer_point(point)
                constraints[key] = guard
                values[i] = diff if si else zero
                stack.append((key, None))
                i += 1
                break
            else:
                return

    # ---- optimisation ----------------------------------------------------

    def maximum(self, nodes, limit):
        """(maximum of the last node's term over the box, a point attaining
        it); `nodes` as in iter_cells.

        The search stops as soon as the best value found reaches `limit`,
        which the caller passes as an upper bound the term cannot exceed.
        """
        best, best_point = None, None
        for cell in self.iter_cells((nodes, [len(nodes) - 1])):
            value = cell.values[0]
            if best is not None and Fraction(value.box_max(), value.den) <= best:
                continue
            if not value.nums:  # constant on the cell, any cell point attains it
                got = (value.const, cell.point)
            else:
                got = self.optimize_cell(cell, value)
            if got is None:
                continue
            if best is None or got[0] > best:
                best, best_point = got
                if best >= limit:
                    break
        assert best is not None, "a term always has at least one feasible cell"
        return best, best_point

    def optimize_cell(self, cell, objective, extra=(), stop_when_positive=False):
        """(exact maximum of an affine objective over one cell and the
        extra constraints, a point attaining it), or None if infeasible.
        With stop_when_positive, the first positive value seen is returned
        instead of the maximum."""
        cons = dict(cell.constraints)
        for aff in extra:
            key = aff.key()
            ints, const = key
            if not ints:
                if const < 0:
                    return None
                continue
            cons[key] = aff
        rows = self._lp_rows(cons)
        obj = [objective.coeffs.get(v, ZERO) for v in self.variables]
        res = solve_lp(
            len(self.variables),
            rows,
            objective=obj,
            positive_above=-objective.const if stop_when_positive else None,
        )
        if res.status not in (OPTIMAL, POSITIVE):
            return None
        point = dict(zip(self.variables, res.point))
        return res.value + objective.const, point
