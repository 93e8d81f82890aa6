"""Finite probability spaces and [0,1]-valued random variables.

Everything is exact rational arithmetic: expectation, the L1 metric,
residuals of the random-variable axioms, the atomlessness defect, the
staged interpretation of integrals over events, joint distributions as
quantifier-free types, and conditional expectation along finite
partitions.

Events are frozensets of atom ids.  Formulas are reused as terms over
random variables: each propositional atom names an RV and the connectives
act pointwise (rv_eval).
"""

import math

from .rationals import HALF, ONE, ZERO, format_rat, is_unit_interval, parse_rat, rat


def require_unit_sum(weights):
    """Refuse rational weights whose sum, taken in integers over their lcm,
    is not exactly 1."""
    den = math.lcm(*[w.denominator for w in weights])
    if sum([w.numerator * (den // w.denominator) for w in weights]) != den:
        raise ValueError("weights must sum to exactly 1")


class FiniteProbSpace:
    """Ordered atoms with positive rational weights that sum to exactly 1."""

    __slots__ = ("ids", "weights", "_index")

    def __init__(self, atoms):
        ids = []
        weights = []
        for atom_id, w in atoms:
            ids.append(str(atom_id))
            w = rat(w)
            if w <= 0:
                raise ValueError("atom %r has non-positive weight %s" % (atom_id, w))
            weights.append(w)
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate atom ids")
        if not ids:
            raise ValueError("a probability space needs at least one atom")
        require_unit_sum(weights)
        self.ids = tuple(ids)
        self.weights = tuple(weights)
        self._index = {a: i for i, a in enumerate(ids)}

    @classmethod
    def uniform(cls, ids):
        ids = list(ids)
        w = rat(1, len(ids))
        return cls([(a, w) for a in ids])

    def __len__(self):
        return len(self.ids)

    def __eq__(self, other):
        return (
            isinstance(other, FiniteProbSpace)
            and self.ids == other.ids
            and self.weights == other.weights
        )

    def __hash__(self):
        return hash((self.ids, self.weights))

    def index(self, atom_id):
        try:
            return self._index[atom_id]
        except KeyError:
            raise KeyError("no atom %r in the space" % (atom_id,)) from None

    def event(self, ids):
        """Validated event: a frozenset of this space's atom ids."""
        ev = frozenset(str(a) for a in ids)
        bad = ev.difference(self._index)  # no set of self.ids is built
        if bad:
            raise ValueError("not atoms of the space: %s" % sorted(bad))
        return ev

    def mu(self, event):
        ev = self.event(event)
        return sum((self.weights[self._index[a]] for a in ev), start=ZERO)

    def __repr__(self):
        parts = ", ".join(
            "%s:%s" % (a, w) for a, w in zip(self.ids, self.weights)
        )
        return "FiniteProbSpace(%s)" % parts


class RandomVariable:
    """A [0,1]-valued function on the atoms of a finite probability space."""

    __slots__ = ("space", "values")

    def __init__(self, space, values):
        values = tuple(map(rat, values))
        if len(values) != len(space):
            raise ValueError(
                "%d values for a %d-atom space" % (len(values), len(space))
            )
        for v in values:
            if not is_unit_interval(v):
                raise ValueError("value %s outside [0,1]" % (v,))
        self.space = space
        self.values = values

    def __eq__(self, other):
        return (
            isinstance(other, RandomVariable)
            and self.space == other.space
            and self.values == other.values
        )

    def __hash__(self):
        return hash((self.space, self.values))

    def __repr__(self):
        return "RandomVariable(%s)" % (", ".join(str(v) for v in self.values))


def _same_space(*rvs):
    space = rvs[0].space
    for rv in rvs[1:]:
        if rv.space != space:
            raise ValueError("random variables live on different spaces")
    return space


def expectation(x):
    """E(x) = sum of weight * value; equals l1_dist(x, 0)."""
    return sum(
        (w * v for w, v in zip(x.space.weights, x.values)), start=ZERO
    )


def l1_dist(x, y):
    """d(x,y) = E|x - y|."""
    space = _same_space(x, y)
    return sum(
        (w * abs(a - b) for w, a, b in zip(space.weights, x.values, y.values)),
        start=ZERO,
    )


def integral_over(x, event):
    """Integral of x over the event: sum of weight * value on its atoms."""
    ev = x.space.event(event)
    return sum(
        (
            x.space.weights[i] * x.values[i]
            for i, a in enumerate(x.space.ids)
            if a in ev
        ),
        start=ZERO,
    )


def rv_eval(term, env, space):
    """Interpret a propositional formula over random variables, pointwise.

    Atoms name entries of env; neg, half and (a - b) act coordinatewise.
    """
    from . import syntax

    for name, x in env.items():
        if x.space != space:
            raise ValueError("env entry %r lives on a different space" % (name,))

    def atom(f):
        try:
            return env[f.name].values
        except KeyError:
            raise KeyError("unbound variable %r" % (f.name,)) from None

    values = syntax.fold(*syntax.subformulas(term), {
        syntax.Const0: lambda f: (ZERO,) * len(space),
        syntax.Atom: atom,
        syntax.Neg: lambda f, v: tuple(ONE - x for x in v),
        syntax.Half: lambda f, v: tuple(x * HALF for x in v),
        syntax.Monus: lambda f, a, b: tuple(
            x - y if x > y else ZERO for x, y in zip(a, b)),
    })
    return RandomVariable(space, values[-1])


# --- axiom residuals ------------------------------------------------------------


def check_rv_axioms(space, samples):
    """Exact residuals of the random-variable axioms over the samples.

    Every pair (and triple, for the one three-variable scheme) drawn from
    samples is checked; the report maps axiom name to the largest residual
    seen, all of which must be 0 in a genuine model.  Also reports the
    linearity of expectation on non-overflowing sums and the two-sided
    expectation bound for truncated subtraction.
    """
    samples = list(samples)
    if len(samples) < 2:
        raise ValueError("need at least two sample random variables")
    for s in samples:
        if s.space != space:
            raise ValueError("sample on a different space")
    from . import syntax
    from .proofs import instantiate_axiom
    from .syntax import Atom, Half, Monus, conj

    X, Y = Atom("x"), Atom("y")
    # closed forms whose expectation must vanish in every finite model: the
    # axiom schemes A1-A6 at phi = x, psi = y (A2 at phi = z, psi = y, rho = x)
    terms = {"RV4.%d" % k: instantiate_axiom("A%d" % k, {
        "phi": Atom("z") if k == 2 else X, "psi": Y, "rho": X})
        for k in range(1, 7)}
    one_rv = rv_eval(syntax.one(), {}, space)
    report = {"RV2": abs(expectation(one_rv) - 1)}

    def term_residual(term, env):
        return expectation(rv_eval(term, env, space))

    pair_keys = [
        "RV1", "RV3", "RV4.1", "RV4.3", "RV4.4", "LinearE",
        "ExpectationDifference",
    ]
    for key in pair_keys + ["RV4.2", "RV4.5", "RV4.6", "RV5"]:
        report.setdefault(key, ZERO)

    for x in samples:
        env = {"x": x}
        report["RV4.5"] = max(
            report["RV4.5"], term_residual(terms["RV4.5"], env)
        )
        report["RV4.6"] = max(
            report["RV4.6"], term_residual(terms["RV4.6"], env)
        )
        # RV5 is the metric form of the same halving identity
        half_x = rv_eval(Half(X), env, space)
        x_minus_half = rv_eval(Monus(X, Half(X)), env, space)
        report["RV5"] = max(report["RV5"], l1_dist(half_x, x_minus_half))
        # scalar linearity at the only definable scalar, one half
        report["LinearE"] = max(
            report["LinearE"], abs(expectation(half_x) - expectation(x) * HALF)
        )

    for x in samples:
        for y in samples:
            env = {"x": x, "y": y}
            x_monus_y = rv_eval(Monus(X, Y), env, space)
            y_and_x = rv_eval(conj(Y, X), env, space)
            report["RV1"] = max(
                report["RV1"],
                abs(
                    expectation(x)
                    - expectation(x_monus_y)
                    - expectation(y_and_x)
                ),
            )
            y_monus_x = rv_eval(Monus(Y, X), env, space)
            report["RV3"] = max(
                report["RV3"],
                abs(
                    l1_dist(x, y)
                    - expectation(x_monus_y)
                    - expectation(y_monus_x)
                ),
            )
            for key in ("RV4.1", "RV4.3", "RV4.4"):
                report[key] = max(
                    report[key], term_residual(terms[key], env)
                )
            # additivity holds whenever the plain sum never overflows 1
            if all(a + b <= 1 for a, b in zip(x.values, y.values)):
                total = rv_eval(syntax.truncated_add(X, Y), env, space)
                report["LinearE"] = max(
                    report["LinearE"],
                    abs(expectation(total) - expectation(x) - expectation(y)),
                )
            gap_low = expectation(x) - expectation(y) - expectation(x_monus_y)
            gap_high = expectation(x_monus_y) - expectation(x)
            report["ExpectationDifference"] = max(
                report["ExpectationDifference"], gap_low, gap_high, ZERO
            )

    for x in samples:
        for y in samples:
            for z in samples:
                env = {"x": x, "y": y, "z": z}
                report["RV4.2"] = max(
                    report["RV4.2"], term_residual(terms["RV4.2"], env)
                )
    order = [
        "RV1", "RV2", "RV3", "RV4.1", "RV4.2", "RV4.3", "RV4.4", "RV4.5",
        "RV4.6", "RV5", "LinearE", "ExpectationDifference",
    ]
    return {key: report[key] for key in order}


# --- atomlessness defect ----------------------------------------------------------


def arv_defect(space, x, with_witness=False):
    """Exact infimum over random variables y of
    max(E(y and not-y), |E(y and x) - E(x)/2|).

    The body is piecewise affine in y's atom values, so the infimum is a
    minimum, found by branch-resolving the truncated subtractions that write
    min, abs and max, and solving an exact LP on each cell.  It is 0 only
    when some y splits x's mass in half while being two-valued {0,1}; finite
    spaces generally leave a positive defect.
    """
    from .branches import Affine, CellEnumerator, PLComb, PLMonus

    if x.space != space:
        raise ValueError("random variable on a different space")
    variables = ["y%d" % i for i in range(len(space))]
    nodes = []  # the term's IR, children before parents

    def add(node):
        nodes.append(node)
        return len(nodes) - 1

    def min_(a, b):  # min(a, b) = a - max(0, a - b)
        return add(PLComb([(1, a), (-1, add(PLMonus(a, b)))]))

    # E(y and not-y) = sum_i w_i * min(y_i, 1 - y_i)
    balance_terms = []
    for i, w in enumerate(space.weights):
        y_i = add(Affine.variable(variables[i]))
        neg_y_i = add(Affine({variables[i]: -ONE}, ONE))
        balance_terms.append((w, min_(y_i, neg_y_i)))
    balance = add(PLComb(balance_terms, ZERO))
    # |E(y and x) - E(x)/2| = |sum_i w_i * min(y_i, x_i) - E(x)/2|
    half_mass_terms = []
    for i, w in enumerate(space.weights):
        y_i = add(Affine.variable(variables[i]))
        x_i = add(Affine.constant(x.values[i]))
        half_mass_terms.append((w, min_(y_i, x_i)))
    centred = add(PLComb(half_mass_terms, -(expectation(x) * HALF)))
    # |c| = -c + 2 max(0, c), and max(a, b) = max(0, a - b) + b
    zero = add(Affine.constant(0))
    modulus = add(PLComb([(-1, centred), (2, add(PLMonus(centred, zero)))]))
    objective = add(PLComb([(1, add(PLMonus(balance, modulus))), (1, modulus)]))

    # the minimum is the negated maximum of -objective, which is at most 0
    add(PLComb([(-1, objective)]))
    best, best_point = CellEnumerator(variables).maximum(nodes, ZERO)
    witness = RandomVariable(space, [best_point[v] for v in variables])
    if with_witness:
        return -best, witness
    return -best


# --- staged interpretation of the integral -----------------------------------------


def _level_events(space, f):
    """r -> {f > r} builder; these strict upper level sets decrease in r."""

    def x_r(r):
        return frozenset(
            a for a, v in zip(space.ids, f.values) if v > r
        )

    return x_r


def tau_phi_interpretation(space, f, n, c):
    """Stage-n approximation of the integral of f over the event c.

    Builds the decreasing level events x_r = {f > r} for dyadic r, runs the
    clamped recursion tau_r = (x_r union tau_{r+step}) intersect
    tau_{r-step} from tau_0 = everything, tau_1 = nothing (checking that it
    reproduces x_r, as it must for a decreasing family), and returns
    phi_n = sum over k < 2^n of 2^-n * mu(c intersect tau_{k/2^n}).
    The result is within 2^-n of the true integral (strictly, unless f
    vanishes on all of c and mu(c) = 1).
    """
    if n < 1:
        raise ValueError("stage must be at least 1")
    if f.space != space:
        raise ValueError("random variable on a different space")
    ev_c = space.event(c)
    x_r = _level_events(space, f)
    top = frozenset(space.ids)
    bottom = frozenset()
    memo = {rat(0): top, rat(1): bottom}

    def tau(r):
        got = memo.get(r)
        if got is not None:
            return got
        step = rat(1, r.denominator)  # r reduced: denominator is 2^n(r)
        out = (x_r(r) | tau(r + step)) & tau(r - step)
        memo[r] = out
        return out

    scale = rat(1, 2**n)
    for k in range(1, 2**n):
        r = rat(k, 2**n)
        if tau(r) != x_r(r):  # pragma: no cover - guaranteed for decreasing x
            raise AssertionError("clamped recursion diverged from level sets")
    total = ZERO
    for k in range(2**n):
        total += scale * space.mu(ev_c & tau(rat(k, 2**n)))
    return total


# --- joint distributions ------------------------------------------------------------


class JointDistribution:
    """Pushforward measure of an RV tuple: value tuple -> positive mass."""

    __slots__ = ("masses",)

    def __init__(self, masses):
        self.masses = {
            tuple(rat(v) for v in values): rat(w)
            for values, w in masses.items()
            if w != 0
        }
        if sum(self.masses.values(), start=ZERO) != 1:
            raise ValueError("masses must sum to exactly 1")

    def __eq__(self, other):
        return (
            isinstance(other, JointDistribution) and self.masses == other.masses
        )

    def __repr__(self):
        entries = ", ".join(
            "%s: %s" % (tuple(str(v) for v in k), w)
            for k, w in sorted(self.masses.items())
        )
        return "JointDistribution({%s})" % entries


def joint_distribution(rvs):
    """The joint law of a nonempty tuple of RVs on one space."""
    rvs = list(rvs)
    if not rvs:
        raise ValueError("need at least one random variable")
    space = _same_space(*rvs)
    masses = {}
    for i, w in enumerate(space.weights):
        key = tuple(rv.values[i] for rv in rvs)
        masses[key] = masses.get(key, ZERO) + w
    return JointDistribution(masses)


def qf_type_equal(fbar, gbar):
    """Do the tuples realize the same quantifier-free type?

    By the joint-distribution characterization this is plain equality of
    their pushforward laws; the tuples may live on different spaces.
    """
    fbar, gbar = list(fbar), list(gbar)
    if len(fbar) != len(gbar):
        raise ValueError("tuples must have the same length")
    return joint_distribution(fbar) == joint_distribution(gbar)


# --- conditioning -------------------------------------------------------------------


def cond_expectation(x, partition):
    """Conditional expectation of x along a finite partition of the atoms.

    Constant on each block (the block's weighted mean of x); has the same
    expectation as x.
    """
    space = x.space
    blocks = [space.event(b) for b in partition]
    seen = set()
    for b in blocks:
        if not b:
            raise ValueError("empty partition block")
        if b & seen:
            raise ValueError("partition blocks overlap")
        seen |= b
    if seen != set(space.ids):
        raise ValueError("partition does not cover the space")
    out = [None] * len(space)
    for b in blocks:
        mass = space.mu(b)
        mean = integral_over(x, b) / mass
        for a in b:
            out[space.index(a)] = mean
    return RandomVariable(space, out)


# --- JSON forms -----------------------------------------------------------------


def space_to_json(space):
    return {
        "atoms": [
            {"id": a, "w": format_rat(w)}
            for a, w in zip(space.ids, space.weights)
        ]
    }


def space_from_json(data):
    try:
        atoms = [(entry["id"], parse_rat(entry["w"])) for entry in data["atoms"]]
    except (KeyError, TypeError) as e:
        raise ValueError("malformed space: %s" % (e,)) from None
    return FiniteProbSpace(atoms)


def rv_to_json(x):
    return {
        "space": space_to_json(x.space),
        "values": [format_rat(v) for v in x.values],
    }


def rv_from_json(data):
    try:
        space = space_from_json(data["space"])
        values = [parse_rat(v) for v in data["values"]]
    except (KeyError, TypeError) as e:
        raise ValueError("malformed random variable: %s" % (e,)) from None
    return RandomVariable(space, values)
