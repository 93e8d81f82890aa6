"""Answer checks that do not depend on the code under test.

They work on the generator's own tuple ASTs and plain data (see inputs.py),
with exact rational arithmetic: Fractions for single points, and integers
scaled by a common denominator for grid sweeps, where every value is an
exact multiple of 1/scale.  The checks import nothing from clog.
"""

import itertools
from fractions import Fraction

from inputs import ATOMS3, ATOMS4, evaluate, monus

#: Denominator of the checking grid.  Fifths are off the grid pre-pass's
#: 1/8 steps, so a formula that reaches the cell search (no positive point
#: at 1/8 steps) is swept at new points.
CHECK_DENOM = 5


def _exact(x):
    return Fraction(int(x.numerator), int(x.denominator))


def _halvings(f, memo):
    got = memo.get(f)
    if got is None:
        tag = f[0]
        if tag in ("0", "atom"):
            got = 0
        elif tag == "half":
            got = 1 + _halvings(f[1], memo)
        elif tag == "neg":
            got = _halvings(f[1], memo)
        else:
            got = max(_halvings(f[1], memo), _halvings(f[2], memo))
        memo[f] = got
    return got


def grid_values(formulas, atoms, denom=CHECK_DENOM):
    """Each formula's values at every point of {0, 1/denom, ..., 1}^atoms,
    as integers over a common scale (one list per formula, points in
    odometer order).

    With H the most halvings on any root-to-leaf path, scaling by
    denom * 2^H keeps every value an integer: a node with k halvings below
    it is a multiple of 2^(H-k), so each halving divides an even number.
    """
    memo = {}
    scale = denom << max(_halvings(f, memo) for f in formulas)
    unit = scale // denom
    points = list(itertools.product(range(denom + 1), repeat=len(atoms)))
    columns = {a: [p[i] * unit for p in points] for i, a in enumerate(atoms)}
    zeros = [0] * len(points)
    values = {}

    def walk(g):
        got = values.get(g)
        if got is not None:
            return got
        tag = g[0]
        if tag == "0":
            got = zeros
        elif tag == "atom":
            got = columns[g[1]]
        elif tag == "neg":
            got = [scale - v for v in walk(g[1])]
        elif tag == "half":
            got = [v >> 1 for v in walk(g[1])]
        else:
            got = [a - b if a > b else 0 for a, b in zip(walk(g[1]), walk(g[2]))]
        values[g] = got
        return got

    return [walk(f) for f in formulas]


def _atoms_of(*formulas):
    names = set()
    stack = list(formulas)
    while stack:
        g = stack.pop()
        if g[0] == "atom":
            names.add(g[1])
        else:
            stack.extend(g[1:])
    return ATOMS4 if "s" in names else ATOMS3


def _in_box(point, atoms):
    return all(0 <= _exact(point.get(a, 0)) <= 1 for a in atoms)


def _counterexample(premises, goal, point, atoms):
    """Every premise is 0 and the goal positive at the (exact) point."""
    if point is None or not _in_box(point, atoms):
        return False
    at = {a: _exact(point.get(a, 0)) for a in atoms}
    return evaluate(goal, at) > 0 and all(evaluate(p, at) == 0 for p in premises)


def _no_grid_counterexample(premises, goal, atoms):
    rows = grid_values([goal] + list(premises), atoms)
    goal_row, premise_rows = rows[0], rows[1:]
    for k, g in enumerate(goal_row):
        if g > 0 and all(row[k] == 0 for row in premise_rows):
            return False
    return True


def check_decide(item, answer):
    kind = item["kind"]
    if kind in ("valid", "axiom"):
        f = item["f"]
        atoms = _atoms_of(f)
        ok, point = answer
        if ok is True:
            # axiom instances are valid; random formulas must have no
            # positive point on the checking grid
            return kind == "axiom" or _no_grid_counterexample((), f, atoms)
        return kind == "valid" and ok is False and _counterexample((), f, point, atoms)
    if kind == "entail":
        premises, goal = item["premises"], item["goal"]
        atoms = _atoms_of(goal, *premises)
        (ok, point), m = answer
        if ok is False:
            return (not item["entailed"] and m is None
                    and _counterexample(premises, goal, point, atoms))
        if ok is not True or not _no_grid_counterexample(premises, goal, atoms):
            return False
        if m is None:
            # goal - m*p with m = 1 is valid for the constructed goals
            return not item["entailed"]
        witness = goal
        for p in premises:
            for _ in range(m):
                witness = monus(witness, p)
        return (m <= 1 or not item["entailed"]) and _no_grid_counterexample(
            (), witness, atoms)
    if kind == "sat":
        return answer is item["sat"]
    raise ValueError("unknown decide item %r" % (kind,))


def _eval_structure(f, s, env):
    tag = f[0]
    if tag == "P":
        return s["P"][env[f[1]]]
    if tag == "d":
        return s["metric"][env[f[1]]][env[f[2]]]
    if tag == "neg":
        return 1 - _eval_structure(f[1], s, env)
    if tag == "half":
        return _eval_structure(f[1], s, env) / 2
    if tag == "-":
        return max(_eval_structure(f[1], s, env) - _eval_structure(f[2], s, env),
                   Fraction(0))
    pick = min if tag == "inf" else max
    inner = dict(env)
    values = []
    for u in range(len(s["universe"])):
        inner[f[1]] = u
        values.append(_eval_structure(f[2], s, inner))
    return pick(values)


def expected_expectation(item):
    """E of the formula's value with quantifiers over each atom's universe."""
    family = item["family"]
    total = Fraction(0)
    for w, s, name in zip(family["weights"], family["structures"], item["section"]):
        total += w * _eval_structure(item["f"], s, {"x": s["universe"].index(name)})
    return total


def check_sections(item, answer):
    """los_check must report equality, and both sides must equal the
    expectation computed here directly from the structures."""
    lhs, rhs, equal = answer
    want = expected_expectation(item)
    return equal is True and _exact(lhs) == want and _exact(rhs) == want


def check_hall(item, answer):
    holds, violating, masses, verified = answer
    weights = {a["id"]: a["w"] for a in item["atoms"]}
    by_id = {x["id"]: x for x in item["items"]}
    if holds is not item["feasible"]:
        return False
    if not holds:
        # the flow must find no allocation, and the reported set must
        # really ask for more than its joint event holds
        if masses is not None or verified is not None or not violating:
            return False
        need = sum((by_id[x]["w"] for x in violating), Fraction(0))
        union = set().union(*(by_id[x]["C"] for x in violating))
        return need > sum((weights[a] for a in union), Fraction(0))
    if masses is None or verified is not True:
        return False
    got_item = dict.fromkeys(by_id, Fraction(0))
    got_atom = dict.fromkeys(weights, Fraction(0))
    for (x, a), m in masses.items():
        m = _exact(m)
        if m < 0 or x not in by_id or a not in by_id[x]["C"]:
            return False
        got_item[x] += m
        got_atom[a] += m
    return (all(got_item[x] == by_id[x]["w"] for x in by_id)
            and all(got_atom[a] <= weights[a] for a in weights))
