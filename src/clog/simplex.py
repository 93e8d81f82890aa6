"""Exact two-phase simplex over rationals, on the unit box.

Small and dense on purpose: the decision procedures in this package solve
many tiny LPs (a handful of variables, a few dozen rows), and exactness is
non-negotiable — every coefficient is a rational and every pivot is exact.
Bland's rule guarantees termination.  Every LP has one shape: find a point
of [0,1]^n with coeffs . x + const >= 0 on each row, maximizing an
objective if one is given.  A box LP is never unbounded.
"""

from .rationals import ZERO, ONE

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
POSITIVE = "positive"  # early exit above positive_above, maybe not optimal


class LPResult:
    def __init__(self, status, value=None, point=None):
        self.status = status
        self.value = value
        self.point = point

    def __repr__(self):
        return "LPResult(%s, %r, %r)" % (self.status, self.value, self.point)


def solve_lp(n_vars, rows, objective=None, positive_above=None):
    """Maximize objective . x over {x in [0,1]^n_vars : rows}, exactly.

    rows: iterable of (coeffs, const) with len(coeffs) == n_vars, each
    meaning coeffs . x + const >= 0.
    objective: coefficient list (None means pure feasibility).
    positive_above: if not None, phase 2 returns as soon as the running
    objective value exceeds it (status POSITIVE; the point is feasible and
    attains the reported value).
    """
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
        sign = -ONE if const > 0 else ONE  # sign*coeffs . x - sign*s = -sign*const
        row = [sign * c for c in coeffs] + [ZERO] * (width + 1 - n_vars)
        row[n_vars + i] = -sign
        row[width] = -sign * const
        tab.append(row)
    for j in range(n_vars):  # x_j + s = 1
        row = [ZERO] * (width + 1)
        row[j] = row[n_vars + len(rows) + j] = row[width] = ONE
        tab.append(row)
    for a, i in enumerate(art_rows, start=real):
        tab[i][a] = ONE
        basis[i] = a

    def pivot(r, c):
        # exact Gauss-Jordan step on column c, row r
        piv = tab[r][c]
        row = tab[r]
        inv = ONE / piv
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
        """Maximize costs . x; returns (OPTIMAL or POSITIVE, objective)."""
        # reduced costs: z_j - c_j computed fresh each iteration (Bland; the
        # tableaux are tiny, clarity beats the usual bookkeeping)
        while True:
            zrow = [ZERO] * active_width
            obj = ZERO
            for i in range(m):
                cb = costs[basis[i]]
                if cb != 0:
                    obj += cb * tab[i][width]
                    for j in range(active_width):
                        if tab[i][j] != 0:
                            zrow[j] += cb * tab[i][j]
            if threshold is not None and obj > threshold:
                return POSITIVE, obj
            enter = -1
            for j in range(active_width):
                if costs[j] - zrow[j] > 0 and j not in basis:
                    enter = j
                    break
            if enter < 0:
                return OPTIMAL, obj
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
            if leave < 0:
                raise AssertionError("a box LP cannot be unbounded")
            pivot(leave, enter)

    # ---- phase 1
    if art_rows:
        _, obj = run_simplex([ZERO] * real + [-ONE] * len(art_rows), width)
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
                x[basis[i]] = tab[i][width]
        return x

    if objective is None:
        return LPResult(OPTIMAL, ZERO, extract_point())

    # ---- phase 2 (restricted to real + slack columns)
    costs = list(objective) + [ZERO] * (width - n_vars)
    status, obj = run_simplex(costs, real, positive_above)
    return LPResult(status, obj, extract_point())
