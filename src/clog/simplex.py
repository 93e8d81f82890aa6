"""Exact two-phase simplex over rationals, on the unit box.

Small and dense on purpose: the decision procedures in this package solve
many tiny LPs (a handful of variables, a few dozen rows), and exactness is
non-negotiable.  Bland's rule guarantees termination.  Every LP has one
shape: find a point of [0,1]^n with coeffs . x + const >= 0 on each row,
maximizing an objective if one is given.  A box LP is never unbounded.

The pivots are fraction-free (Edmonds 1967; Bareiss 1968).  Each input row
is scaled by the lcm of its denominators, the objective likewise, and the
tableau holds integers over one positive common denominator d, the
absolute determinant of the current basis: a pivot on entry piv maps each
other row to (piv*a - f*b) // d, exactly, and piv becomes the new d.
Ratios are compared by cross-multiplying and reduced costs by their
integer numerators.  Scaling a row, or a slack or artificial column
together with its cost, by a positive number moves no ratio-test argmin,
no tie and no reduced-cost sign, so these are the pivots the textbook
rational tableau takes on the same rows, and Fractions are built only for
the result.
"""

import math
from fractions import Fraction

from .rationals import ZERO, rat

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
POSITIVE = "positive"  # early exit above positive_above, maybe not optimal

_EXACT = (int, Fraction)


class LPResult:
    def __init__(self, status, value=None, point=None):
        self.status = status
        self.value = value
        self.point = point

    def __repr__(self):
        return "LPResult(%s, %r, %r)" % (self.status, self.value, self.point)


def _integers(values):
    """(the rationals `values` times the lcm of their denominators, that
    lcm); a float is refused as rationals.rat refuses it."""
    values = [v if type(v) in _EXACT else rat(v) for v in values]
    lcm = math.lcm(*[v.denominator for v in values])
    return [v.numerator * (lcm // v.denominator) for v in values], lcm


def solve_lp(n_vars, rows, objective=None, positive_above=None):
    """Maximize objective . x over {x in [0,1]^n_vars : rows}, exactly.

    rows: iterable of (coeffs, const) with len(coeffs) == n_vars, each
    meaning coeffs . x + const >= 0.
    objective: coefficient list (None means pure feasibility).
    positive_above: if not None, phase 2 returns as soon as the running
    objective value exceeds it (status POSITIVE; the point is feasible and
    attains the reported value).
    Coefficients are ints or Fractions; the point and value are Fractions.
    """
    ints = []
    scales = []
    for coeffs, const in rows:
        row, scale = _integers([*coeffs, const])
        ints.append(row)
        scales.append(scale)
    n_rows = len(ints)
    m = n_rows + n_vars  # the rows, then x_j <= 1 for each variable
    real = n_vars + m  # variables and one slack per row
    # a row with const > 0 is negated and starts basic on its slack, so every
    # right-hand side is >= 0; each other row gets an artificial
    art_rows = [i for i, row in enumerate(ints) if row[-1] <= 0]
    width = real + len(art_rows)

    tab = []  # rows of integers over the common denominator d; rhs last
    basis = list(range(n_vars, real))
    for i, row in enumerate(ints):
        sign = -1 if row[-1] > 0 else 1  # sign*coeffs . x - sign*s = -sign*const
        t = [sign * c for c in row[:n_vars]] + [0] * (width + 1 - n_vars)
        t[n_vars + i] = -sign
        t[width] = -sign * row[-1]
        tab.append(t)
    for j in range(n_vars):  # x_j + s = 1
        t = [0] * (width + 1)
        t[j] = t[n_vars + n_rows + j] = t[width] = 1
        tab.append(t)
    for a, i in enumerate(art_rows, start=real):
        tab[i][a] = 1
        basis[i] = a
    d = 1

    def pivot(r, c):
        # fraction-free Gauss-Jordan step on column c, row r
        nonlocal d
        row = tab[r]
        piv = row[c]
        if piv < 0:  # keep d positive: negating the row keeps its equation
            row = tab[r] = [-a for a in row]
            piv = -piv
        for i in range(m):
            if i != r:
                ri = tab[i]
                f = ri[c]
                if f:
                    tab[i] = [(piv * a - f * b) // d for a, b in zip(ri, row)]
                elif piv != d:
                    tab[i] = [piv * a // d for a in ri]
        d = piv
        basis[r] = c

    def run_simplex(costs, active_width, above=None):
        """Maximize costs . x; returns (OPTIMAL or POSITIVE, the objective
        times d).  `above` is (p, q): stop once the objective exceeds p/q."""
        while True:
            # reduced costs are computed fresh each iteration (Bland; the
            # tableaux are tiny, clarity beats the usual bookkeeping)
            basic = [(costs[b], tab[i]) for i, b in enumerate(basis) if costs[b]]
            obj = sum(cb * row[-1] for cb, row in basic)
            if above is not None and obj * above[1] > above[0] * d:
                return POSITIVE, obj
            in_basis = set(basis)
            for enter in range(active_width):
                # c_j - z_j, times d
                if enter not in in_basis and costs[enter] * d - sum(
                    cb * row[enter] for cb, row in basic
                ) > 0:
                    break
            else:
                return OPTIMAL, obj
            leave = -1
            for i in range(m):
                a = tab[i][enter]
                if a > 0:
                    b = tab[i][-1]
                    # b/a < best_b/best_a, both denominators positive
                    if leave < 0 or b * best_a < best_b * a or (
                        b * best_a == best_b * a and basis[i] < basis[leave]
                    ):
                        best_b, best_a, leave = b, a, i
            if leave < 0:
                raise AssertionError("a box LP cannot be unbounded")
            pivot(leave, enter)

    # ---- phase 1: maximize minus the artificials' sum; an artificial of
    # the row scaled by s stands for s times the rational one, so its cost
    # is -L/s, with L the lcm of those scales
    if art_rows:
        lcm = math.lcm(*[scales[i] for i in art_rows])
        costs = [0] * real + [-(lcm // scales[i]) for i in art_rows]
        _, obj = run_simplex(costs, width)
        if obj != 0:
            return LPResult(INFEASIBLE)
        # drive leftover artificial basics out
        for i in range(m):
            if basis[i] >= real:
                for j in range(real):
                    if tab[i][j] != 0:
                        pivot(i, j)
                        break

    def extract_point():
        x = [ZERO] * n_vars
        for i in range(m):
            if basis[i] < n_vars:
                x[basis[i]] = Fraction(tab[i][-1], d)
        return x

    if objective is None:
        return LPResult(OPTIMAL, ZERO, extract_point())

    # ---- phase 2 (restricted to real + slack columns)
    obj_ints, scale = _integers(objective)
    costs = obj_ints + [0] * (width - n_vars)
    above = None
    if positive_above is not None:
        t = rat(positive_above)
        above = (t.numerator * scale, t.denominator)
    status, obj = run_simplex(costs, real, above)
    return LPResult(status, Fraction(obj, scale * d), extract_point())
