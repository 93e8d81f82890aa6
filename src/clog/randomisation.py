"""Random families of finite metric structures.

A random family attaches one finite L-structure to every atom of a finite
probability space.  Formulas over the family evaluate to random variables:
the bracket of a formula at an atom is its value in that atom's structure,
with the quantifiers ranging over the (finite) universe.  The module also
provides the inductive semantics where quantifiers range over whole
sections, gluing of sections along events, exact checks of the R axioms,
the expectation form of the Los theorem, and finite-support type measures.
"""

import collections
import itertools
import math
import operator

from . import syntax
from .rationals import ZERO, format_rat, is_unit_interval, parse_rat, rat
from .rv import (
    RandomVariable, expectation, joint_distribution, require_unit_sum, space_from_json,
    space_to_json)
from .syntax import (
    METRIC_SYMBOL, Apply, Atom, Const0, Half, Inf, Monus, Neg, Pred, Signature, Sup, Var)


def _tuples(universe, arity):
    return itertools.product(universe, repeat=arity)


def _lipschitz_slacks(structure):
    """Every table's modulus slack, one argument slot changed at a time, on
    integers.

    Yields (kind, name, slot, key, swapped, slack, den), kind being
    "predicate" or "function": swapped is key with slot changed, and
    slack / den is the gap between the two table values (a distance, for a
    function) minus the slot's Lipschitz constant p/q times the distance
    between the changed arguments.  The metric and predicate tables are read
    as they are now, over one lcm L of their denominators, so slack is the
    integer q * gap - p * distance and den is q * L.  The table is within
    its modulus there iff slack <= 0.
    """
    sig = structure.signature
    metric, predicates = structure.metric, structure.predicates
    scale = math.lcm(*{v.denominator for v in metric.values()},
                     *{v.denominator for t in predicates.values() for v in t.values()})
    metric = {k: v.numerator * (scale // v.denominator) for k, v in metric.items()}
    for kind, moduli, tables in (
        ("predicate", sig.predicates, predicates),
        ("function", sig.functions, structure.functions),
    ):
        for name, lam in moduli.items():
            table = tables[name]
            if kind == "predicate":
                table = {k: v.numerator * (scale // v.denominator)
                         for k, v in table.items()}
            for slot, bound in enumerate(lam):
                p, q = bound.numerator, bound.denominator
                den = q * scale
                for key in _tuples(structure.universe, len(lam)):
                    for other in structure.universe:
                        if other == key[slot]:
                            continue  # slack 0: no gap, no distance
                        swapped = key[:slot] + (other,) + key[slot + 1:]
                        if kind == "predicate":
                            gap = abs(table[key] - table[swapped])
                        else:
                            gap = metric[table[key], table[swapped]]
                        slack = q * gap - p * metric[key[slot], other]
                        yield kind, name, slot, key, swapped, slack, den


class FiniteLStructure:
    """A finite metric structure: rational predicate tables, total function
    tables, and an exact metric.

    Construction checks, in this order, and raises ValueError at the first
    failure (TypeError at a float value): metric values in [0,1]; a zero
    diagonal, symmetry and separation; the triangle inequality, over
    (a, b, c) in universe order; each predicate table's keys and values in
    [0,1], then each function table's keys and values in the universe; and
    every slot's modulus (the signature's Lipschitz constant).  The checks
    are exact, on integers over one common denominator of the structure's
    values; the tables are kept as dicts of Fractions."""

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
        """The metric as a dict of Fractions, once the metric checks of the
        class docstring pass on integer rows over its denominators' lcm."""
        universe = self.universe
        n = len(universe)
        if metric is None and n == 1:
            metric = [[0]]
        if metric is None or len(metric) != n or any(len(row) != n for row in metric):
            raise ValueError("metric must be an %dx%d table" % (n, n))
        values = []
        for row in metric:
            for v in row:
                v = rat(v)
                if not is_unit_interval(v):
                    raise ValueError("metric value %s outside [0,1]" % (v,))
                values.append(v)
        ratios = [v.as_integer_ratio() for v in values]
        scale = math.lcm(*{den for _, den in ratios})
        rows = [[num * (scale // den) for num, den in ratios[i:i + n]]
                for i in range(0, n * n, n)]
        for i, row in enumerate(rows):
            a = universe[i]
            if row[i]:
                raise ValueError("d(%s,%s) must be 0" % (a, a))
            for j in range(i + 1, n):
                if row[j] != rows[j][i]:
                    raise ValueError(
                        "metric not symmetric at (%s,%s)" % (a, universe[j]))
                if not row[j]:
                    raise ValueError(
                        "distinct elements %s,%s at distance 0" % (a, universe[j]))
        for i, row in enumerate(rows):
            for j, ab in enumerate(row):
                # d(a,c) > d(a,b) + d(b,c) for some c iff d(a,c) - d(b,c) > d(a,b)
                if max(map(operator.sub, row, rows[j])) > ab:
                    k = next(k for k, (ac, bc) in enumerate(zip(row, rows[j]))
                             if ac > ab + bc)
                    raise ValueError("triangle inequality fails on (%s,%s,%s)"
                                     % (universe[i], universe[j], universe[k]))
        return dict(zip(_tuples(universe, 2), values))

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
        for kind, name, slot, key, swapped, slack, _ in _lipschitz_slacks(self):
            if slack > 0:
                raise ValueError(
                    "%s %r violates its modulus in slot %d between %r and %r"
                    % (kind, name, slot, key, swapped)
                )

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


def _positions(phi, env, family, ranging=frozenset()):
    """Checks phi against family and env, and returns what both evaluation
    routes read off it: the positions of syntax.subformulas(phi), each one's
    free variables as a sorted tuple (its table's key order), and the
    variables ranging over all values (`ranging` and any a quantifier binds;
    others take their env value).  Raises ValueError (symbol, arity, section
    family), then KeyError (unbound variable not in `ranging`), then
    TypeError (propositional atom)."""
    nodes, pos = syntax.subformulas(phi)
    family.signature.validate_subformulas(nodes)
    for name, sec in env.items():
        if sec.family is not family and sec.family != family:
            raise ValueError("section %r belongs to a different family" % (name,))
    free = syntax.free_variables_at(nodes, pos)
    missing = sorted(free[-1].difference(ranging, env))
    if missing:
        raise KeyError("unbound variables: %s" % ", ".join(missing))
    bound = []
    for f in nodes:
        t = type(f)
        if t is Inf or t is Sup:
            bound.append(f.var)
        elif t is Atom:
            raise TypeError(
                "propositional atom %r has no meaning in a structure" % (f.name,))
    return nodes, pos, [tuple(sorted(v)) for v in free], ranging.union(bound)


def table_sizes(phi, env, family, ranging=frozenset()):
    """How many cells the two routes' tables would hold for phi, read off
    its positions before any table is built: (the sum over positions of
    |sections|^k, the sum over positions and atoms i of |U_i|^k), k being
    the number of the position's free variables that range.  Raises what
    _positions raises."""
    _, _, names, ranging = _positions(phi, env, family, ranging)
    ks = collections.Counter(sum(v in ranging for v in keyed) for keyed in names)
    sizes = [len(s.universe) for s in family.structures]
    sections = math.prod(sizes)
    return (sum(count * sections ** k for k, count in ks.items()),
            sum(count * n ** k for k, count in ks.items() for n in sizes))


def _keys(names, domain):
    """Every key over the variables (one value from each one's domain), in
    the row-major order in which a table lists its values."""
    return itertools.product(*(domain[v] for v in names))


def _rows(names, sub, domain):
    """For each key over `names`, in order, the row of its restriction to
    the variables in `sub` in a table over them."""
    if sub == names:
        return range(math.prod(len(domain[v]) for v in names))
    strides, stride = {}, 1
    for v in reversed(sub):
        strides[v] = stride
        stride *= len(domain[v])
    return map(sum, itertools.product(
        *([strides.get(v, 0) * i for i in range(len(domain[v]))] for v in names)))


def _blocks(names, var, domain):
    """The rows of a table over `names` that a quantifier on var takes
    together: a (start, stop, step) slice per key over the other names."""
    k = names.index(var)
    step = math.prod(len(domain[v]) for v in names[k + 1:])
    span = step * len(domain[var])
    size = span * math.prod(len(domain[v]) for v in names[:k])
    return [(start, block + span, step) for block in range(0, size, span)
            for start in range(block, block + step)]


def _term_value(t, binding, s):
    """A term's element of structure s (terms are read recursively)."""
    if type(t) is Var:
        return binding[t.name]
    return s.functions[t.func][tuple(_term_value(a, binding, s) for a in t.args)]


def _pointwise(phi, env, family, ranging=frozenset(), positions=None):
    """The pointwise route, one pass over phi's positions, children first:
    at each atom, a position's table holds its values in that atom's
    structure, its free variables ranging over universe elements, and
    `inf`/`sup` take the minimum/maximum over the universe.

    Each atom i has its own scale S_i = L_i * 2^h: L_i is the lcm of the
    denominators of the values that atom looked up (the Pred leaves are
    built first) and h the number of `half` positions.  Values are
    integers over S_i: `neg` is S_i - v, `half` an exact halving, and
    truncated `-` and `inf`/`sup` compare integers.  Nothing outlives the
    call.  Returns the root's key names, and each atom's variable domains,
    scale and root table."""
    nodes, pos, names, ranging = positions or _positions(phi, env, family, ranging)
    structures = family.structures
    domains = []  # at each atom, the values each variable takes
    for i, s in enumerate(structures):
        domain = {name: (sec.values[i],) for name, sec in env.items()}
        for name in ranging:
            domain[name] = s.universe
        domains.append(domain)
    tables = [None] * len(nodes)  # per position, one table per atom
    halvings = 0
    for p, f in enumerate(nodes):  # the leaves: the values each atom looks up
        if type(f) is Half:
            halvings += 1
        if type(f) is not Pred:
            continue
        keyed, args = names[p], f.args
        looked_up = [s.metric if f.name == METRIC_SYMBOL else s.predicates[f.name]
                     for s in structures]
        if not args or Apply in map(type, args):  # bind the key, read the terms
            tables[p] = [
                [values[tuple(_term_value(a, dict(zip(keyed, key)), s) for a in args)]
                 for key in _keys(keyed, domain)]
                for s, values, domain in zip(structures, looked_up, domains)]
        elif ranging.isdisjoint(keyed):  # one key: the sections' values
            tables[p] = [[values[key]] for values, key in zip(
                looked_up, zip(*[env[a.name].values for a in args]))]
        else:  # the key is the lookup
            keys = [_keys(keyed, domain) for domain in domains]
            slots = [keyed.index(a.name) for a in args]
            if slots != list(range(len(keyed))):  # d(x, x), d(y, x): reordered
                keys = [map(operator.itemgetter(*slots), k) for k in keys]
            tables[p] = [list(map(values.__getitem__, k))
                         for values, k in zip(looked_up, keys)]
    leaves = [t for t in tables if t is not None]
    scales = [math.lcm(*{v.denominator for t in leaves for v in t[i]}) << halvings
              for i in range(len(structures))]
    for p, f in enumerate(nodes):
        t = type(f)
        keyed = names[p]
        if t is Pred:
            out = [[v.numerator * (scale // v.denominator) for v in table]
                   for scale, table in zip(scales, tables[p])]
        elif t is Const0:
            out = [[0]] * len(structures)
        elif t is Neg:
            out = [[scale - v for v in table]
                   for scale, table in zip(scales, tables[pos[id(f.body)]])]
        elif t is Half:
            out = [[v >> 1 for v in table] for table in tables[pos[id(f.body)]]]
        elif t is Monus:
            left, right = pos[id(f.left)], pos[id(f.right)]
            spread = names[left] != names[right]
            out = []
            for domain, lt, rt in zip(domains, tables[left], tables[right]):
                if len(lt) == 1:  # one cell meets every cell of the other side
                    lt = lt * len(rt)
                elif len(rt) == 1:
                    rt = rt * len(lt)
                elif spread:
                    lt = [lt[i] for i in _rows(keyed, names[left], domain)]
                    rt = [rt[j] for j in _rows(keyed, names[right], domain)]
                out.append([a - b if a > b else 0 for a, b in zip(lt, rt)])
        else:  # Inf or Sup: over the universe, one atom at a time
            body = pos[id(f.body)]
            out = tables[body]  # a body free of the variable is constant
            if f.var in names[body]:
                pick = min if t is Inf else max
                out = []
                for domain, table in zip(domains, tables[body]):
                    if len(table) == len(domain[f.var]):  # one key here
                        out.append([pick(table)])
                    else:
                        out.append([pick(table[a:b:c]) for a, b, c
                                    in _blocks(names[body], f.var, domain)])
        tables[p] = out
    return names[-1], domains, scales, tables[-1]


def bracket(phi, env, family, positions=None):
    """The formula's value as a random variable: at each atom, evaluate in
    that atom's structure with quantifiers over its universe.  `positions`
    is _positions' result when the caller has it already."""
    names, domains, scales, tables = _pointwise(phi, env, family, positions=positions)
    values = []
    for i, (domain, scale, table) in enumerate(zip(domains, scales, tables)):
        row = 0
        if len(table) > 1:
            row = list(_keys(names, domain)).index(
                tuple(env[v].values[i] for v in names))
        values.append(rat(table[row], scale))
    return RandomVariable(family.space, values)


def _section_vectors(family):
    """The value tuple of every section, in universe-lexicographic order."""
    return list(itertools.product(*(s.universe for s in family.structures)))


def all_sections(family):
    """Every section of the family, in universe-lexicographic order."""
    return [Section(family, values) for values in _section_vectors(family)]


def _per_atom(terms, binding, structures):
    """The terms' argument tuple at each atom, every variable bound to a
    section's value tuple (terms are read recursively)."""
    cols = [
        binding[t.name] if type(t) is Var else tuple(
            s.functions[t.func][k]
            for s, k in zip(structures, _per_atom(t.args, binding, structures)))
        for t in terms
    ]
    return zip(*cols) if cols else [()] * len(structures)


def bracket_by_sections(phi, env, family, positions=None):
    """The inductive semantics: quantifiers range over whole sections and
    the connectives act on random variables.

    This is still the definition the satisfaction theorem reduces to the
    pointwise one: every `inf`/`sup` takes the componentwise minimum/maximum
    of its body's value vectors over every section of the family; no
    quantifier is split into per-atom extrema.  One pass over phi's
    positions, children first, gives each a table of value vectors, its free
    variables ranging over section value tuples.  Values are integers over
    one family scale S = L * 2^h, where L is the lcm of the denominators in
    the tables the formula reads (every atom's, whole) and h the number of
    `half` subformulas: `neg` is S - v, `half` an exact halving, and the
    result is rat(v, S).  Nothing outlives the call.  A subformula costs
    |sections|^(its free variables).  `positions` is _positions' result
    when the caller has it already.
    """
    nodes, pos, names, ranging = positions or _positions(phi, env, family)
    structures = family.structures
    exact = {f.name: [s.metric if f.name == METRIC_SYMBOL else s.predicates[f.name]
                      for s in structures]
             for f in nodes if type(f) is Pred}
    denominators = {v.denominator for ts in exact.values() for t in ts
                    for v in t.values()}
    scale = math.lcm(*denominators) << sum(type(f) is Half for f in nodes)
    scaled = {name: [{k: v.numerator * (scale // v.denominator) for k, v in t.items()}
                     for t in ts] for name, ts in exact.items()}
    domain = {name: [sec.values] for name, sec in env.items()}
    keyed_on = ranging.intersection(itertools.chain(*names))
    if keyed_on:  # every section, listed only when some table keys on one
        domain.update(dict.fromkeys(keyed_on, _section_vectors(family)))
    tables = []  # per position, its value vectors
    for p, f in enumerate(nodes):
        t = type(f)
        keyed = names[p]
        if t is Pred:
            lookups, args = scaled[f.name], f.args
            if not args or Apply in map(type, args):  # bind the key, read the terms
                out = [tuple(map(dict.__getitem__, lookups,
                                 _per_atom(args, dict(zip(keyed, key)), structures)))
                       for key in _keys(keyed, domain)]
            elif ranging.isdisjoint(keyed):  # one key: the sections' values
                out = [tuple(map(dict.__getitem__, lookups,
                                 zip(*[env[a.name].values for a in args])))]
            else:  # a key holds a value tuple per variable: zipped, the lookups
                slots = [keyed.index(a.name) for a in args]
                out = [tuple(map(dict.__getitem__, lookups,
                                 zip(*[key[j] for j in slots])))
                       for key in _keys(keyed, domain)]
        elif t is Const0:
            out = [(0,) * len(structures)]
        elif t is Neg:
            out = [tuple([scale - v for v in vec]) for vec in tables[pos[id(f.body)]]]
        elif t is Half:
            out = [tuple([v >> 1 for v in vec]) for vec in tables[pos[id(f.body)]]]
        elif t is Monus:
            left, right = pos[id(f.left)], pos[id(f.right)]
            lt, rt = tables[left], tables[right]
            if len(lt) == 1:  # one vector meets every vector of the other side
                lt = lt * len(rt)
            elif len(rt) == 1:
                rt = rt * len(lt)
            elif names[left] != names[right]:
                lt = [lt[i] for i in _rows(keyed, names[left], domain)]
                rt = [rt[j] for j in _rows(keyed, names[right], domain)]
            out = [tuple([a - b if a > b else 0 for a, b in zip(u, w)])
                   for u, w in zip(lt, rt)]
        else:  # Inf or Sup: over every section, componentwise
            body = pos[id(f.body)]
            out = tables[body]  # a body free of the variable is constant
            if f.var in names[body]:
                pick = min if t is Inf else max
                out = [tuple(map(pick, zip(*tables[body][a:b:c])))
                       for a, b, c in _blocks(names[body], f.var, domain)]
        tables.append(out)
    root = 0
    if len(tables[-1]) > 1:
        root = list(_keys(names[-1], domain)).index(
            tuple(env[v].values for v in names[-1]))
    return RandomVariable(family.space, [rat(v, scale) for v in tables[-1][root]])


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
    (recomputed from the tables as they are now, though construction
    already enforces the moduli): the same integer slacks as the load
    check, compared exactly, and only the two maxima made Fractions.
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

    r1 = {"predicate": (0, 1), "function": (0, 1)}  # slack, den of the worst
    for s in family.structures:
        for kind, _, _, _, _, slack, den in _lipschitz_slacks(s):
            worst, worst_den = r1[kind]
            if slack * worst_den > worst * den:
                r1[kind] = slack, den

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
        "R1_P": rat(*r1["predicate"]), "R1_f": rat(*r1["function"]),
        "R2": r2, "R3": r3,
    }


def inf_witness(phi, var, env, family):
    """A section achieving the inner infimum of phi over the distinguished
    variable at every atom (universes are finite, so the infimum is
    attained); ties go to the earlier universe element."""
    names, domains, _, tables = _pointwise(phi, env, family, frozenset([var]))
    values = []
    for i, (s, domain, table) in enumerate(zip(family.structures, domains, tables)):
        keys = list(_keys(names, domain))
        values.append(min(s.universe, key=lambda u: table[keys.index(tuple(
            u if v == var else env[v].values[i] for v in names))]))
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
        require_unit_sum(weights)
    positions = _positions(phi, env, family)
    inductive = bracket_by_sections(phi, env, family, positions)
    pointwise = bracket(phi, env, family, positions)
    lhs = _weighted_sum(weights, inductive.values)
    rhs = _weighted_sum(weights, pointwise.values)
    return lhs, rhs, lhs == rhs


def _weighted_sum(weights, values):
    """The sum of w * v over the pairs, exactly: integers over the lcm of
    the products' denominators."""
    dens = [w.denominator * v.denominator for w, v in zip(weights, values)]
    den = math.lcm(*dens)
    return rat(sum([w.numerator * v.numerator * (den // d)
                    for w, v, d in zip(weights, values, dens)]), den)


def type_measure(sections, family, formulas, names=None):
    """Pushforward of the space measure under the formula-value labels, as
    the joint_distribution of the formulas' values (at least one formula).

    The i-th section is bound to the variable names[i] (default x0, x1, ...);
    each atom is labelled by the tuple of formula values there, and atoms
    with equal labels pool their mass.
    """
    sections = list(sections)
    if names is None:
        names = ["x%d" % i for i in range(len(sections))]
    env = dict(zip(names, sections))
    return joint_distribution([bracket(phi, env, family) for phi in formulas])


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
