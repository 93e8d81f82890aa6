"""Exact two-phase simplex over rationals.

Small and dense on purpose: the decision procedures in this package solve
many tiny LPs (a handful of variables, a few dozen rows), and exactness is
non-negotiable — every coefficient is a rational and every pivot is exact.
Bland's rule guarantees termination.  Variables are implicitly >= 0; callers
add their own upper bounds as rows.
"""

from .rationals import ZERO, ONE, rat

LE, GE, EQ = "<=", ">=", "=="

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
POSITIVE = "positive"  # early exit: objective seen > 0, not necessarily optimal


class LPResult:
    def __init__(self, status, value=None, point=None):
        self.status = status
        self.value = value
        self.point = point

    def __repr__(self):
        return "LPResult(%s, %r, %r)" % (self.status, self.value, self.point)


def solve_lp(n_vars, constraints, objective=None, maximize=True,
             stop_when_positive=False, positive_threshold=ZERO):
    """Optimize over {x >= 0 : constraints}, exactly.

    constraints: iterable of (coeffs, relation, rhs) with len(coeffs) == n_vars.
    objective: coefficient list (None means pure feasibility).
    stop_when_positive: during phase 2, return as soon as the running
    objective value exceeds positive_threshold (status POSITIVE, point is
    feasible and attains the reported value).  Only for maximization.
    """
    rows = []
    rels = []
    rhss = []
    for coeffs, rel, rhs in constraints:
        coeffs = [rat(c) for c in coeffs]
        rhs = rat(rhs)
        if rhs < 0:  # keep b >= 0 so phase 1 can start from the artificials
            coeffs = [-c for c in coeffs]
            rhs = -rhs
            rel = {LE: GE, GE: LE, EQ: EQ}[rel]
        rows.append(coeffs)
        rels.append(rel)
        rhss.append(rhs)

    m = len(rows)
    n_slack = sum(1 for r in rels if r != EQ)
    # artificials for >= and == rows
    art_rows = [i for i, r in enumerate(rels) if r != LE]
    n_art = len(art_rows)
    width = n_vars + n_slack + n_art

    tab = [[ZERO] * (width + 1) for _ in range(m)]
    basis = [-1] * m
    si = n_vars
    ai = n_vars + n_slack
    for i in range(m):
        for j in range(n_vars):
            tab[i][j] = rows[i][j]
        tab[i][width] = rhss[i]
        if rels[i] == LE:
            tab[i][si] = ONE
            basis[i] = si
            si += 1
        elif rels[i] == GE:
            tab[i][si] = -ONE
            si += 1
    for i in art_rows:
        tab[i][ai] = ONE
        basis[i] = ai
        ai += 1

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

    def run_simplex(costs, active_width, stop_positive=False, threshold=ZERO):
        """Maximize costs . x; returns final objective or POSITIVE early."""
        # reduced costs: z_j - c_j computed fresh each iteration (Bland; the
        # tableaux are tiny, clarity beats the usual bookkeeping)
        while True:
            zrow = [ZERO] * active_width
            obj = ZERO
            for i in range(m):
                cb = costs[basis[i]] if basis[i] < len(costs) else ZERO
                if cb != 0:
                    obj += cb * tab[i][width]
                    for j in range(active_width):
                        if tab[i][j] != 0:
                            zrow[j] += cb * tab[i][j]
            if stop_positive and obj > threshold:
                return POSITIVE, obj
            enter = -1
            for j in range(active_width):
                cj = costs[j] if j < len(costs) else ZERO
                if cj - zrow[j] > 0 and j not in basis:
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
                return UNBOUNDED, None
            pivot(leave, enter)

    # ---- phase 1
    if n_art:
        costs1 = [ZERO] * (n_vars + n_slack) + [-ONE] * n_art
        status, obj = run_simplex(costs1, width)
        if status != OPTIMAL:  # pragma: no cover - phase 1 is always bounded
            raise AssertionError("phase 1 cannot be unbounded")
        if obj != 0:
            return LPResult(INFEASIBLE)
        # drive leftover artificial basics out (or drop their rows if singular)
        for i in range(m):
            if basis[i] >= n_vars + n_slack:
                for j in range(n_vars + n_slack):
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
    sign = ONE if maximize else -ONE
    costs2 = [sign * rat(c) for c in objective] + [ZERO] * n_slack
    status, obj = run_simplex(
        costs2,
        n_vars + n_slack,
        stop_positive=stop_when_positive and maximize,
        threshold=rat(positive_threshold),
    )
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED)
    value = obj if maximize else -obj
    return LPResult(status, value, extract_point())
