"""Random families of finite metric structures.

A random family attaches one finite L-structure to every atom of a finite
probability space.  Formulas over the family evaluate to random variables:
the bracket of a formula at an atom is its value in that atom's structure,
with the quantifiers ranging over the (finite) universe.  The module also
provides the inductive semantics where quantifiers range over whole
sections, gluing of sections along events, exact checks of the R axioms,
the expectation form of the Los theorem, and finite-support type measures.
"""

import itertools
import math

from . import syntax
from .rationals import ZERO, format_rat, is_unit_interval, parse_rat, rat
from .rv import FiniteProbSpace, RandomVariable, expectation, space_from_json, space_to_json
from .syntax import (
    METRIC_SYMBOL,
    Apply,
    Atom,
    Const0,
    Half,
    Inf,
    Monus,
    Neg,
    Pred,
    Signature,
    Sup,
    Var,
    free_variables,
    term_variables,
)


def _tuples(universe, arity):
    return itertools.product(universe, repeat=arity)


def _lipschitz_slacks(structure):
    """Every table's modulus slack, one argument slot changed at a time.

    Yields (kind, name, slot, key, swapped, slack), kind being "predicate"
    or "function": swapped is key with slot changed, and slack is the gap
    between the two table values (a distance, for a function) minus the
    slot's Lipschitz constant times the distance between the changed
    arguments.  The table is within its modulus there iff slack <= 0.
    """
    sig = structure.signature
    metric = structure.metric
    for kind, moduli, tables in (
        ("predicate", sig.predicates, structure.predicates),
        ("function", sig.functions, structure.functions),
    ):
        for name, lam in moduli.items():
            table = tables[name]
            for slot, bound in enumerate(lam):
                for key in _tuples(structure.universe, len(lam)):
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


class FiniteLStructure:
    """A finite metric structure: rational predicate tables, total function
    tables, and an exact metric, all validated against the signature's
    Lipschitz constants at construction time."""

    def __init__(self, signature, universe, predicates=None, functions=None,
                 metric=None):
        self.signature = signature
        self.universe = tuple(str(u) for u in universe)
        if not self.universe:
            raise ValueError("empty universe")
        if len(set(self.universe)) != len(self.universe):
            raise ValueError("duplicate universe elements")
        self.metric = self._check_metric(metric)
        self.predicates = {}
        for name, lam in signature.predicates.items():
            table = self._check_pred_table(name, len(lam), (predicates or {}).get(name))
            self.predicates[name] = table
        self.functions = {}
        for name, lam in signature.functions.items():
            table = self._check_func_table(name, len(lam), (functions or {}).get(name))
            self.functions[name] = table
        self._check_lipschitz()

    # ---- validation ------------------------------------------------------

    def _check_metric(self, metric):
        n = len(self.universe)
        if metric is None and n == 1:
            metric = [[0]]
        if metric is None or len(metric) != n or any(len(row) != n for row in metric):
            raise ValueError("metric must be an %dx%d table" % (n, n))
        d = {}
        for i, a in enumerate(self.universe):
            for j, b in enumerate(self.universe):
                v = rat(metric[i][j])
                if not is_unit_interval(v):
                    raise ValueError("metric value %s outside [0,1]" % (v,))
                d[a, b] = v
        for i, a in enumerate(self.universe):
            if d[a, a] != 0:
                raise ValueError("d(%s,%s) must be 0" % (a, a))
            for b in self.universe[i + 1:]:
                if d[a, b] != d[b, a]:
                    raise ValueError("metric not symmetric at (%s,%s)" % (a, b))
                if d[a, b] == 0:
                    raise ValueError("distinct elements %s,%s at distance 0" % (a, b))
        for a in self.universe:
            for b in self.universe:
                for c in self.universe:
                    if d[a, c] > d[a, b] + d[b, c]:
                        raise ValueError(
                            "triangle inequality fails on (%s,%s,%s)" % (a, b, c)
                        )
        return d

    def _check_pred_table(self, name, arity, table):
        if table is None:
            raise ValueError("missing table for predicate %r" % name)
        out = {}
        for key in _tuples(self.universe, arity):
            if key not in table:
                raise ValueError("predicate %r has no value at %r" % (name, key))
            v = rat(table[key])
            if not is_unit_interval(v):
                raise ValueError("predicate %r value %s outside [0,1]" % (name, v))
            out[key] = v
        if len(table) != len(out):
            raise ValueError("predicate %r table has stray entries" % name)
        return out

    def _check_func_table(self, name, arity, table):
        if table is None:
            raise ValueError("missing table for function %r" % name)
        out = {}
        for key in _tuples(self.universe, arity):
            if key not in table:
                raise ValueError("function %r has no value at %r" % (name, key))
            v = str(table[key])
            if v not in self.universe:
                raise ValueError("function %r maps %r outside the universe" % (name, key))
            out[key] = v
        if len(table) != len(out):
            raise ValueError("function %r table has stray entries" % name)
        return out

    def _check_lipschitz(self):
        """Exhaustive modulus check: vary one argument slot at a time."""
        for kind, name, slot, key, swapped, slack in _lipschitz_slacks(self):
            if slack > 0:
                raise ValueError(
                    "%s %r violates its modulus in slot %d between %r and %r"
                    % (kind, name, slot, key, swapped)
                )

    # ---- evaluation ------------------------------------------------------

    def eval_term(self, t, binding):
        if isinstance(t, Var):
            try:
                return binding[t.name]
            except KeyError:
                raise KeyError("unbound variable %r" % (t.name,)) from None
        if isinstance(t, Apply):
            args = tuple(self.eval_term(a, binding) for a in t.args)
            return self.functions[t.func][args]
        raise TypeError("not a term: %r" % (t,))

    def eval_formula(self, phi, binding):
        """Exact truth value of the formula in this structure, quantifiers
        ranging over the universe."""
        if isinstance(phi, Pred):
            args = tuple(self.eval_term(a, binding) for a in phi.args)
            if phi.name == METRIC_SYMBOL:
                return self.metric[args]
            return self.predicates[phi.name][args]
        if isinstance(phi, Const0):
            return ZERO
        if isinstance(phi, Neg):
            return 1 - self.eval_formula(phi.body, binding)
        if isinstance(phi, Half):
            return self.eval_formula(phi.body, binding) / 2
        if isinstance(phi, Monus):
            a = self.eval_formula(phi.left, binding)
            b = self.eval_formula(phi.right, binding)
            return a - b if a > b else ZERO
        if isinstance(phi, (Inf, Sup)):
            pick = min if isinstance(phi, Inf) else max
            inner = dict(binding)
            best = None
            for u in self.universe:
                inner[phi.var] = u
                v = self.eval_formula(phi.body, inner)
                best = v if best is None else pick(best, v)
            return best
        if isinstance(phi, Atom):
            raise TypeError(
                "propositional atom %r has no meaning in a structure" % (phi.name,)
            )
        raise TypeError("not a first-order formula: %r" % (phi,))

    def __eq__(self, other):
        return (
            isinstance(other, FiniteLStructure)
            and self.signature == other.signature
            and self.universe == other.universe
            and self.metric == other.metric
            and self.predicates == other.predicates
            and self.functions == other.functions
        )


class RandomFamily:
    """One structure per atom of a finite probability space, all sharing a
    signature."""

    def __init__(self, space, structures):
        structures = list(structures)
        if len(structures) != len(space):
            raise ValueError(
                "%d structures for a %d-atom space" % (len(structures), len(space))
            )
        sig = structures[0].signature
        for s in structures[1:]:
            if s.signature != sig:
                raise ValueError("structures use different signatures")
        self.space = space
        self.structures = tuple(structures)
        self.signature = sig

    def structure(self, atom_id):
        return self.structures[self.space.index(atom_id)]

    def __eq__(self, other):
        return (
            isinstance(other, RandomFamily)
            and self.space == other.space
            and self.structures == other.structures
        )


class Section:
    """A choice of one universe element per atom: the family's points."""

    __slots__ = ("family", "values")

    def __init__(self, family, values):
        values = tuple(str(v) for v in values)
        if len(values) != len(family.space):
            raise ValueError("section length does not match the space")
        for v, s in zip(values, family.structures):
            if v not in s.universe:
                raise ValueError("section value %r outside its universe" % (v,))
        self.family = family
        self.values = values

    def __eq__(self, other):
        return (
            isinstance(other, Section)
            and self.family == other.family
            and self.values == other.values
        )

    def __hash__(self):
        return hash(self.values)

    def __repr__(self):
        return "Section(%s)" % (", ".join(self.values))


def _check_env(env, family):
    for name, sec in env.items():
        if sec.family != family:
            raise ValueError("section %r belongs to a different family" % (name,))


def _require_bound(free, env):
    missing = sorted(free - set(env))
    if missing:
        raise KeyError("unbound variables: %s" % ", ".join(missing))


def bracket(phi, env, family):
    """The formula's value as a random variable: at each atom, evaluate in
    that atom's structure with quantifiers over its universe."""
    family.signature.validate_formula(phi)
    _check_env(env, family)
    _require_bound(free_variables(phi), env)
    values = []
    for i, s in enumerate(family.structures):
        binding = {name: sec.values[i] for name, sec in env.items()}
        values.append(s.eval_formula(phi, binding))
    return RandomVariable(family.space, values)


def _section_vectors(family):
    """The value tuple of every section, in universe-lexicographic order."""
    return list(itertools.product(*(s.universe for s in family.structures)))


def all_sections(family):
    """Every section of the family, in universe-lexicographic order."""
    return [Section(family, values) for values in _section_vectors(family)]


def _scan(phi):
    """Per position of syntax.subformulas(phi): the subformula's free
    variables (as a frozenset and as a sorted tuple) and the largest number
    of `half` nodes on a path from it down to a leaf; and the positions."""

    def facts(free, halvings):
        return free, tuple(sorted(free)), halvings

    return syntax.fold([phi], {
        Const0: lambda f: facts(frozenset(), 0),
        Atom: lambda f: facts(frozenset(), 0),
        Pred: lambda f: facts(term_variables(*f.args), 0),
        Neg: lambda f, body: body,
        Half: lambda f, body: facts(body[0], body[2] + 1),
        Monus: lambda f, l, r: facts(l[0] | r[0], max(l[2], r[2])),
        Inf: lambda f, body: facts(body[0] - {f.var}, body[2]),
        Sup: lambda f, body: facts(body[0] - {f.var}, body[2]),
    })


def bracket_by_sections(phi, env, family):
    """The inductive semantics: quantifiers range over whole sections and
    the connectives act on random variables.

    This is still the definition the satisfaction theorem reduces to the
    pointwise one: every `inf`/`sup` visit iterates over every section of
    the family and takes the componentwise minimum/maximum of the body's
    value vectors; no quantifier is split into per-atom extrema.  Within
    one call the section value tuples are enumerated once, and a
    subformula's vector is memoised on the section values bound to its free
    variables, stored only where it does not depend on some enclosing
    quantifier's variable (so it will be asked for again).  Values are
    integers scaled by S = L * 2^h, where L is the lcm of the family's
    metric and predicate denominators and h the largest number of `half`
    nodes on a root-to-leaf path; as in `kernel`, `neg` is S - v, `half`
    an exact halving, and the result is rat(v, S).  Nothing outlives the
    call.  The cost still grows as |sections|^(quantifier nesting), so keep
    universes and atom counts small.
    """
    family.signature.validate_formula(phi)
    _check_env(env, family)
    facts, pos = _scan(phi)
    _require_bound(facts[-1][0], env)
    structures = family.structures
    n = len(structures)
    exact = {METRIC_SYMBOL: [s.metric for s in structures]}
    for name in family.signature.predicates:
        exact[name] = [s.predicates[name] for s in structures]
    denominators = {
        int(v.denominator) for ts in exact.values() for t in ts for v in t.values()
    }
    scale = math.lcm(*denominators) << facts[-1][2]
    tables = {
        name: [
            {k: int(v.numerator) * (scale // int(v.denominator)) for k, v in t.items()}
            for t in ts
        ]
        for name, ts in exact.items()
    }
    sections = _section_vectors(family)
    memo = {}

    def per_atom(cols):
        """The argument tuple at each atom, from one value tuple per slot."""
        return zip(*cols) if cols else [()] * n

    def term(t, env):
        if isinstance(t, Var):
            return env[t.name]
        keys = per_atom([term(a, env) for a in t.args])
        return tuple(s.functions[t.func][k] for s, k in zip(structures, keys))

    def walk(f, env, bound):
        p = pos[id(f)]
        free, names, _ = facts[p]
        key = None
        if not bound <= free:
            key = (p,) + tuple(env[v] for v in names)
            got = memo.get(key)
            if got is not None:
                return got
        if isinstance(f, Pred):
            keys = per_atom([term(t, env) for t in f.args])
            out = tuple(table[k] for table, k in zip(tables[f.name], keys))
        elif isinstance(f, Const0):
            out = (0,) * n
        elif isinstance(f, Neg):
            out = tuple(scale - v for v in walk(f.body, env, bound))
        elif isinstance(f, Half):
            out = tuple(v >> 1 for v in walk(f.body, env, bound))
        elif isinstance(f, Monus):
            left = walk(f.left, env, bound)
            right = walk(f.right, env, bound)
            out = tuple(a - b if a > b else 0 for a, b in zip(left, right))
        elif isinstance(f, (Inf, Sup)):
            inner = dict(env)
            inner_bound = bound | {f.var}
            got = []
            for values in sections:
                inner[f.var] = values
                got.append(walk(f.body, inner, inner_bound))
            out = tuple(map(min if isinstance(f, Inf) else max, zip(*got)))
        elif isinstance(f, Atom):
            raise TypeError(
                "propositional atom %r has no meaning in a structure" % (f.name,)
            )
        else:
            raise TypeError("not a first-order formula: %r" % (f,))
        if key is not None:
            memo[key] = out
        return out

    try:
        top = walk(phi, {name: sec.values for name, sec in env.items()}, frozenset())
    finally:
        # the closures refer to themselves; breaking that cycle frees the
        # memo and tables now rather than at the next garbage collection
        del walk, term
    return RandomVariable(family.space, [rat(v, scale) for v in top])


def distance(a, b, family):
    """Expected pointwise distance; the metric the R axioms prescribe on
    sections."""
    phi = Pred(METRIC_SYMBOL, (Var("x"), Var("y")))
    return expectation(bracket(phi, {"x": a, "y": b}, family))


def glue(event, a, b):
    """The section equal to a on the event and to b elsewhere."""
    if a.family != b.family:
        raise ValueError("sections from different families")
    family = a.family
    ev = family.space.event(event)
    values = [
        av if atom in ev else bv
        for atom, av, bv in zip(family.space.ids, a.values, b.values)
    ]
    return Section(family, values)


def check_R_axioms(family, sections):
    """Exact residual report for the randomisation axioms.

    R1_P / R1_f: worst modulus violation over all predicate/function tables
    (recomputed from scratch, though construction already enforces them).
    R2: worst gap between the section distance and the direct weighted sum
    of pointwise distances, over sample pairs.  R3: worst failure of the
    gluing identities d(a,c)=0 on A, d(b,c)=0 off A, over sample pairs and
    every event of the algebra.  All must be exactly 0.
    """
    sections = list(sections)
    if len(sections) < 2:
        raise ValueError("need at least two sample sections")
    for sec in sections:
        if sec.family != family:
            raise ValueError("sample section from a different family")

    r1 = {"predicate": ZERO, "function": ZERO}
    for s in family.structures:
        for kind, _, _, _, _, slack in _lipschitz_slacks(s):
            if slack > r1[kind]:
                r1[kind] = slack

    r2 = ZERO
    weights = family.space.weights
    for a in sections:
        for b in sections:
            direct = sum(
                (
                    w * s.metric[av, bv]
                    for w, s, av, bv in zip(
                        weights, family.structures, a.values, b.values
                    )
                ),
                start=ZERO,
            )
            r2 = max(r2, abs(distance(a, b, family) - direct))

    r3 = ZERO
    atoms = family.space.ids
    for a, b in itertools.combinations(sections, 2):
        for k in range(len(atoms) + 1):
            for chosen in itertools.combinations(atoms, k):
                ev = frozenset(chosen)
                c = glue(ev, a, b)
                for atom, s, av, bv, cv in zip(
                    atoms, family.structures, a.values, b.values, c.values
                ):
                    gap = s.metric[av, cv] if atom in ev else s.metric[bv, cv]
                    if gap > r3:
                        r3 = gap
    return {
        "R1_P": r1["predicate"], "R1_f": r1["function"], "R2": r2, "R3": r3,
    }


def inf_witness(phi, var, env, family, epsilon=ZERO):
    """A section achieving the inner infimum of phi over the distinguished
    variable at every atom (the finite case needs no epsilon slack, but the
    tolerance stays in the contract); ties go to the earlier universe
    element."""
    if rat(epsilon) < 0:
        raise ValueError("epsilon must be >= 0")
    family.signature.validate_formula(phi)
    _check_env(env, family)
    _require_bound(free_variables(phi) - {var}, env)
    values = []
    for i, s in enumerate(family.structures):
        binding = {name: sec.values[i] for name, sec in env.items()}
        best_u = None
        best_v = None
        for u in s.universe:
            binding[var] = u
            v = s.eval_formula(phi, binding)
            if best_v is None or v < best_v:
                best_u, best_v = u, v
        values.append(best_u)
    return Section(family, values)


def los_check(phi, env, family, weighting=None):
    """Both sides of the expectation form of the Los theorem.

    lhs integrates the inductively-defined bracket (quantifiers over
    sections); rhs sums the weights against the direct per-atom values
    (quantifiers over each universe).  Returns (lhs, rhs, equal) — the two
    must agree exactly.  `weighting` replaces the space's own weights, e.g.
    a Dirac weight for the ultraproduct case; it must sum to 1.
    """
    if weighting is None:
        weights = family.space.weights
    else:
        weights = [rat(w) for w in weighting]
        if len(weights) != len(family.space):
            raise ValueError("weighting length does not match the space")
        if any(w < 0 for w in weights):
            raise ValueError("weights must be nonnegative")
        if sum(weights, start=ZERO) != 1:
            raise ValueError("weights must sum to exactly 1")
    inductive = bracket_by_sections(phi, env, family)
    pointwise = bracket(phi, env, family)
    lhs = sum((w * v for w, v in zip(weights, inductive.values)), start=ZERO)
    rhs = sum((w * v for w, v in zip(weights, pointwise.values)), start=ZERO)
    return lhs, rhs, lhs == rhs


class TypeMeasure:
    """Finite-support measure on realized value labels of a formula list."""

    __slots__ = ("masses",)

    def __init__(self, masses):
        self.masses = {
            tuple(rat(v) for v in label): rat(w)
            for label, w in masses.items()
            if w != 0
        }
        if sum(self.masses.values(), start=ZERO) != 1:
            raise ValueError("masses must sum to exactly 1")

    def __eq__(self, other):
        return isinstance(other, TypeMeasure) and self.masses == other.masses

    def __repr__(self):
        entries = ", ".join(
            "%s: %s" % (tuple(str(v) for v in k), w)
            for k, w in sorted(self.masses.items())
        )
        return "TypeMeasure({%s})" % entries


def type_measure(sections, family, formulas, names=None):
    """Pushforward of the space measure under the formula-value labels.

    The i-th section is bound to the variable names[i] (default x0, x1, ...);
    each atom is labelled by the tuple of formula values there, and atoms
    with equal labels pool their mass.
    """
    sections = list(sections)
    if names is None:
        names = ["x%d" % i for i in range(len(sections))]
    env = dict(zip(names, sections))
    value_rows = [bracket(phi, env, family).values for phi in formulas]
    masses = {}
    for i, w in enumerate(family.space.weights):
        label = tuple(row[i] for row in value_rows)
        masses[label] = masses.get(label, ZERO) + w
    return TypeMeasure(masses)


def pairing(measure, index):
    """<phi_index, nu>: integrate the index-th label coordinate against the
    measure; equals E(bracket(phi_index)) by construction of the labels."""
    return sum(
        (w * label[index] for label, w in measure.masses.items()), start=ZERO
    )


# --- JSON forms -----------------------------------------------------------------


def signature_to_json(sig):
    return {
        "functions": {
            name: [format_rat(l) for l in lam] for name, lam in sig.functions.items()
        },
        "predicates": {
            name: [format_rat(l) for l in lam] for name, lam in sig.predicates.items()
        },
    }


def signature_from_json(data):
    try:
        functions = {
            name: [parse_rat(l) for l in lam]
            for name, lam in data.get("functions", {}).items()
        }
        predicates = {
            name: [parse_rat(l) for l in lam]
            for name, lam in data.get("predicates", {}).items()
        }
    except (AttributeError, TypeError) as e:
        raise ValueError("malformed signature: %s" % (e,)) from None
    return Signature(functions=functions, predicates=predicates)


def _table_to_nested(universe, arity, lookup):
    if arity == 0:
        return lookup(())
    def build(prefix):
        if len(prefix) == arity:
            return lookup(prefix)
        return [build(prefix + (u,)) for u in universe]
    return build(())


def _table_from_nested(universe, arity, data, convert):
    out = {}
    def read(prefix, node):
        if len(prefix) == arity:
            out[prefix] = convert(node)
            return
        if not isinstance(node, list) or len(node) != len(universe):
            raise ValueError("table shape does not match the universe")
        for u, sub in zip(universe, node):
            read(prefix + (u,), sub)
    read((), data)
    return out


def structure_to_json(s):
    universe = s.universe
    return {
        "universe": list(universe),
        "pred": {
            name: _table_to_nested(
                universe, len(lam), lambda key, t=s.predicates[name]: format_rat(t[key])
            )
            for name, lam in s.signature.predicates.items()
        },
        "func": {
            name: _table_to_nested(
                universe, len(lam), lambda key, t=s.functions[name]: t[key]
            )
            for name, lam in s.signature.functions.items()
        },
        "metric": [
            [format_rat(s.metric[a, b]) for b in universe] for a in universe
        ],
    }


def structure_from_json(signature, data):
    try:
        universe = tuple(str(u) for u in data["universe"])
        predicates = {
            name: _table_from_nested(
                universe, len(lam), data["pred"][name], parse_rat
            )
            for name, lam in signature.predicates.items()
        }
        functions = {
            name: _table_from_nested(
                universe, len(lam), data["func"][name], str
            )
            for name, lam in signature.functions.items()
        }
        metric = data["metric"]
        metric = [[parse_rat(v) for v in row] for row in metric]
    except (KeyError, TypeError, AttributeError) as e:
        raise ValueError("malformed structure: %s" % (e,)) from None
    return FiniteLStructure(
        signature, universe, predicates=predicates, functions=functions,
        metric=metric,
    )


def family_to_json(family):
    return {
        "space": space_to_json(family.space),
        "signature": signature_to_json(family.signature),
        "structures": [structure_to_json(s) for s in family.structures],
    }


def family_from_json(data):
    try:
        space = space_from_json(data["space"])
        signature = signature_from_json(data["signature"])
        structures = [
            structure_from_json(signature, s) for s in data["structures"]
        ]
    except (KeyError, TypeError) as e:
        raise ValueError("malformed family: %s" % (e,)) from None
    return RandomFamily(space, structures)


def section_to_json(sec):
    return list(sec.values)


def section_from_json(family, data):
    return Section(family, data)
