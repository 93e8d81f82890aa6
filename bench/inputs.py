"""Seeded input generators for the benchmark workloads.

Nothing here imports clog or the repository's tests: the inputs depend only
on the seed and on this file, so editing the program or a test cannot shift
them.  Formulas are produced twice over, as the text the program parses and
as a small tuple AST that the benchmark's own checkers evaluate:

    ("0",)  ("atom", name)  ("neg", f)  ("half", f)  ("-", f, g)

and, for first-order formulas, ("P", var), ("d", var, var),
("inf", var, f), ("sup", var, f).

Every workload's inputs are a list of blocks.  Blocks of one workload have
the same composition (the same number of items of each kind and size) and
differ only in their random content, so a run that completes whole blocks
measures the same mix whatever the seed.
"""

import hashlib
import json
import random
from fractions import Fraction

# --- formulas ----------------------------------------------------------------------


def text(f):
    """Concrete syntax of a tuple AST, in the form clog's parser reads."""
    tag = f[0]
    if tag == "0":
        return "0"
    if tag == "atom":
        return f[1]
    if tag in ("neg", "half"):
        return "%s %s" % (tag, text(f[1]))
    if tag == "-":
        return "(%s - %s)" % (text(f[1]), text(f[2]))
    if tag == "P":
        return "P(%s)" % f[1]
    if tag == "d":
        return "d(%s, %s)" % (f[1], f[2])
    if tag in ("inf", "sup"):
        return "%s %s. %s" % (tag, f[1], text(f[2]))
    raise ValueError("unknown node %r" % (tag,))


def neg(f):
    return ("neg", f)


def half(f):
    return ("half", f)


def monus(f, g):
    return ("-", f, g)


def conj(f, g):
    """min(f, g), as the parser expands `(f /\\ g)`."""
    return monus(f, monus(f, g))


def monus_nodes(f, seen=None):
    """Distinct subtraction subtrees: the decision procedures' branching."""
    seen = set() if seen is None else seen
    if f in seen:
        return seen
    if f[0] == "-":
        seen.add(f)
        monus_nodes(f[1], seen)
        monus_nodes(f[2], seen)
    elif f[0] in ("neg", "half"):
        monus_nodes(f[1], seen)
    return seen


def random_core(rng, atoms, depth, monus_cap=None):
    """A random core formula: leaves 0 or an atom; neg, half, and subtraction
    (twice as likely) inside; redrawn until it has at most monus_cap distinct
    subtraction nodes."""

    def gen(d):
        if d == 0 or rng.random() < 0.25:
            pick = rng.randrange(len(atoms) + 1)
            return ("0",) if pick == len(atoms) else ("atom", atoms[pick])
        kind = rng.randrange(4)
        if kind == 0:
            return neg(gen(d - 1))
        if kind == 1:
            return half(gen(d - 1))
        return monus(gen(d - 1), gen(d - 1))

    while True:
        f = gen(depth)
        if monus_cap is None or len(monus_nodes(f)) <= monus_cap:
            return f


#: A1-A6 over metavariables phi, psi, rho (conj written out as the parser
#: expands it); every instance is valid.
AXIOMS = {
    "A1": lambda a, b, c: monus(monus(a, b), a),
    "A2": lambda a, b, c: monus(monus(monus(c, a), monus(c, b)), monus(b, a)),
    "A3": lambda a, b, c: monus(conj(a, b), conj(b, a)),
    "A4": lambda a, b, c: monus(monus(a, b), monus(neg(b), neg(a))),
    "A5": lambda a, b, c: monus(half(a), monus(a, half(a))),
    "A6": lambda a, b, c: monus(monus(a, half(a)), half(a)),
}


def evaluate(f, point):
    """Exact value of a propositional tuple AST at an assignment (Fractions)."""
    memo = {}

    def walk(g):
        got = memo.get(g)
        if got is not None:
            return got
        tag = g[0]
        if tag == "0":
            v = Fraction(0)
        elif tag == "atom":
            v = Fraction(point[g[1]])
        elif tag == "neg":
            v = 1 - walk(g[1])
        elif tag == "half":
            v = walk(g[1]) / 2
        else:
            v = max(walk(g[1]) - walk(g[2]), Fraction(0))
        memo[g] = v
        return v

    return walk(f)


# --- decide ------------------------------------------------------------------------

ATOMS3 = ("p", "q", "r")
ATOMS4 = ("p", "q", "r", "s")
#: entails_witness cap; the goals built to follow from their premise need
#: m <= 1.
WITNESS_CAP = 1

#: Items of each kind in one decide block.  Random formulas have 3 atoms and
#: depth 4 or 4 atoms and depth 5, with at most 5 distinct subtractions:
#: most are refuted by the grid pre-pass, the rest go through cells and the
#: simplex.  (Up to 10 subtractions, a few valid formulas cost a hundred
#: times the mean, and a run's throughput would follow the seed.)  Axiom
#: instances are all valid, so the grid sweeps in vain.
DECIDE_BLOCK = (("valid3", 12), ("valid4", 8), ("axiom", 8), ("entail", 2), ("sat", 2))


def _decide_item(rng, kind, index):
    if kind == "valid3":
        return {"kind": "valid", "f": random_core(rng, ATOMS3, 4, monus_cap=5)}
    if kind == "valid4":
        return {"kind": "valid", "f": random_core(rng, ATOMS4, 5, monus_cap=5)}
    if kind == "axiom":
        scheme = sorted(AXIOMS)[index % len(AXIOMS)]
        a, b, c = (random_core(rng, ATOMS3, 3, monus_cap=3) for _ in range(3))
        return {"kind": "axiom", "f": AXIOMS[scheme](a, b, c)}
    if kind == "entail":
        premises = [random_core(rng, ATOMS3, 3, monus_cap=2)]
        other = random_core(rng, ATOMS3, 3, monus_cap=2)
        # half the goals follow from the first premise by construction
        # (min(p, g), p - g and p/2 all vanish where p does)
        entailed = rng.random() < 0.5
        if entailed:
            p = premises[0]
            goal = rng.choice([conj(p, other), monus(p, other), half(p)])
        else:
            goal = other
        return {"kind": "entail", "premises": premises, "goal": goal,
                "entailed": entailed}
    # sat: planted common zero, or a set that cannot vanish together
    if rng.random() < 0.5:
        point = {a: Fraction(rng.randint(0, 4), 4) for a in ATOMS3}
        fs = []
        while len(fs) < 2:
            f = random_core(rng, ATOMS3, 3, monus_cap=3)
            if evaluate(f, point) == 0:
                fs.append(f)
        return {"kind": "sat", "fs": fs, "sat": True, "point": point}
    # f = 0 forces neg f = 1
    f = random_core(rng, ATOMS3, 4, monus_cap=4)
    return {"kind": "sat", "fs": [f, neg(f)], "sat": False}


def decide_blocks(seed, n_blocks):
    rng = random.Random("decide:%d" % seed)
    blocks = []
    for _ in range(n_blocks):
        block = []
        for kind, count in DECIDE_BLOCK:
            block.extend(_decide_item(rng, kind, i) for i in range(count))
        rng.shuffle(block)
        blocks.append(block)
    return blocks


# --- sections ----------------------------------------------------------------------

#: Universe sizes per probability-space atom for the families of one block:
#: 2-4 atoms, universes of 1-4 elements, 4 to 64 sections per family.
SECTION_PROFILES = (
    (2, 2), (1, 4), (3, 3), (4, 4),
    (2, 1, 3), (2, 2, 2), (3, 1, 4), (4, 4, 4),
    (1, 2, 2, 1), (2, 2, 1, 3), (2, 2, 2, 2), (2, 3, 3, 3),
)
#: Formulas per family in one block: (quantifier budget, count).
SECTION_FORMULAS = ((0, 1), (1, 3), (2, 2))


def _random_weights(rng, n, grain=8):
    """n positive rationals summing to exactly 1, multiples of 1/(grain*n)."""
    total = grain * n
    cuts = sorted(rng.sample(range(1, total), n - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [total])]
    return [Fraction(p, total) for p in parts]


def _random_structure(rng, size):
    """Universe on the 1/8 grid of [0,1]; d is max(|a-b|, 1/8) off the
    diagonal; P is the largest 1-Lipschitz function below random values."""
    names = ["e%d" % i for i in range(size)]
    pos = rng.sample(range(9), size)
    metric = [
        [Fraction(0) if i == j else Fraction(max(abs(pos[i] - pos[j]), 1), 8)
         for j in range(size)]
        for i in range(size)
    ]
    base = [Fraction(rng.randint(0, 8), 8) for _ in range(size)]
    pred = [min(base[j] + metric[i][j] for j in range(size)) for i in range(size)]
    return {"universe": names, "metric": metric, "P": pred}


def random_lformula(rng, depth, quants):
    """A first-order formula over P and d with free variable x, depth at
    most `depth` and at most `quants` (nested) quantifiers."""
    fresh = iter(range(1000))

    def gen(scope, d, q):
        if d == 0 or rng.random() < 0.2:
            if rng.random() < 0.6:
                return ("P", rng.choice(scope))
            return ("d", rng.choice(scope), rng.choice(scope))
        roll = rng.random()
        if q > 0 and roll < 0.4:
            var = "y%d" % next(fresh)
            body = gen(scope + [var], d - 1, q - 1)
            return ("inf" if rng.random() < 0.5 else "sup", var, body)
        if roll < 0.6:
            return ("neg" if rng.random() < 0.5 else "half", gen(scope, d - 1, q))
        return ("-", gen(scope, d - 1, q), gen(scope, d - 1, q))

    return gen(["x"], depth, quants)


def quantifier_count(f):
    tag = f[0]
    if tag in ("inf", "sup"):
        return 1 + quantifier_count(f[2])
    if tag in ("neg", "half"):
        return quantifier_count(f[1])
    if tag == "-":
        return max(quantifier_count(f[1]), quantifier_count(f[2]))
    return 0


def sections_blocks(seed, n_blocks):
    rng = random.Random("sections:%d" % seed)
    blocks = []
    for _ in range(n_blocks):
        block = []
        for profile in SECTION_PROFILES:
            family = {
                "weights": _random_weights(rng, len(profile)),
                "structures": [_random_structure(rng, k) for k in profile],
            }
            section = [rng.choice(s["universe"]) for s in family["structures"]]
            for quants, count in SECTION_FORMULAS:
                for _ in range(count):
                    # exactly `quants` nested quantifiers, depth <= 4
                    while True:
                        f = random_lformula(rng, 4, quants)
                        if quantifier_count(f) == quants:
                            break
                    block.append({"family": family, "section": section, "f": f})
        rng.shuffle(block)
        blocks.append(block)
    return blocks


# --- hall --------------------------------------------------------------------------

#: (items, atoms) of the feasible and of the infeasible instances in one
#: block.  Both kinds enumerate about all 2^n item subsets, so an instance's
#: cost is set by n; the extra 11 puts the median inside one size class and
#: the two 13s do the same for the 90th percentile.
HALL_FEASIBLE = ((8, 4), (9, 5), (10, 6), (11, 7), (11, 5), (12, 8), (13, 6))
HALL_INFEASIBLE = ((8, 5), (9, 6), (10, 7), (11, 8), (12, 4), (13, 6))


def _hall_instance(rng, n_items, n_atoms, feasible):
    """An instance whose answer is known by construction.

    Masses come in whole units of 1/(128 * atoms).  Every item's weight is
    what a planted allocation gives it: at most a quarter of what each atom
    of its event still has, so every atom keeps at least one unit.  An
    infeasible instance ends with two items on one or two atoms of their own
    whose weights exceed those atoms' mass by half a unit, less than any
    other set of items leaves free; so those two are the only violating set,
    and the lexicographic search meets them only after all subsets of the
    other items.
    """
    unit = 128 * n_atoms
    atoms = ["a%d" % i for i in range(n_atoms)]
    weights = _random_weights(rng, n_atoms)
    reserved = [] if feasible else rng.sample(atoms, rng.randint(1, 2))
    shared = [a for a in atoms if a not in reserved]
    left = {a: int(w * unit) for a, w in zip(atoms, weights)}
    items = []
    for i in range(n_items if feasible else n_items - 2):
        event = sorted(rng.sample(shared, rng.randint(1, min(3, len(shared)))))
        total = 0
        for a in event:
            take = rng.randint(0, left[a] // 4)
            left[a] -= take
            total += take
        items.append({"id": "x%d" % i, "w": Fraction(total, unit), "C": event})
    if not feasible:
        mass = sum(w for a, w in zip(atoms, weights) if a in reserved)
        need = (mass + Fraction(1, 2 * unit)) / 2
        for i in (n_items - 2, n_items - 1):
            items.append({"id": "x%d" % i, "w": need, "C": sorted(reserved)})
    return {
        "atoms": [{"id": x, "w": w} for x, w in zip(atoms, weights)],
        "items": items,
        "feasible": feasible,
    }


def hall_blocks(seed, n_blocks):
    rng = random.Random("hall:%d" % seed)
    blocks = []
    for _ in range(n_blocks):
        block = [_hall_instance(rng, n, k, True) for n, k in HALL_FEASIBLE]
        block += [_hall_instance(rng, n, k, False) for n, k in HALL_INFEASIBLE]
        rng.shuffle(block)
        blocks.append(block)
    return blocks


# --- digest ------------------------------------------------------------------------


def _plain(x):
    if isinstance(x, Fraction):
        return "%d/%d" % (x.numerator, x.denominator)
    if isinstance(x, dict):
        return {k: _plain(v) for k, v in sorted(x.items())}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    return x


def digest(parts):
    """sha256 over a canonical JSON form of every generated input, fed one
    part at a time (a block, say) so no copy of the whole is held."""
    h = hashlib.sha256()
    for part in parts:
        h.update(json.dumps(_plain(part), sort_keys=True,
                            separators=(",", ":")).encode())
    return h.hexdigest()
