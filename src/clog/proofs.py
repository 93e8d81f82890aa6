"""Hilbert-style proof objects: axiom schemes A1-A6, modus ponens, a line
checker, halving elimination, and a bounded best-effort proof search.

Modus ponens here is "from phi and (psi - phi) conclude psi": if phi is 0 and
psi - phi is 0 then psi is 0.  A proof is a list of ProofLine; the checker
validates each justification syntactically, so proofs are certificates that
need no search to re-verify.

The search (find_proof) is forward chaining from premises, all axiom
instances over the problem's subformulas, and a small recorded-derivation
library (data/monus_self.json, a 9-line derivation of phi - phi).  It is
deliberately not complete: a None result refutes nothing.
"""

import itertools
import json
from collections import deque

from . import syntax
from .syntax import (
    Atom,
    Const0,
    Half,
    Monus,
    Neg,
    conj,
    monus_chain,
    parse_formula,
    print_formula,
    substitute,
)

_PHI = Atom("phi")
_PSI = Atom("psi")
_RHO = Atom("rho")

#: scheme name -> (template over metavariable atoms, required metavariables)
AXIOM_SCHEMES = {
    "A1": (Monus(Monus(_PHI, _PSI), _PHI), ("phi", "psi")),
    "A2": (
        Monus(
            Monus(Monus(_RHO, _PHI), Monus(_RHO, _PSI)),
            Monus(_PSI, _PHI),
        ),
        ("phi", "psi", "rho"),
    ),
    "A3": (Monus(conj(_PHI, _PSI), conj(_PSI, _PHI)), ("phi", "psi")),
    "A4": (
        Monus(Monus(_PHI, _PSI), Monus(Neg(_PSI), Neg(_PHI))),
        ("phi", "psi"),
    ),
    "A5": (Monus(Half(_PHI), Monus(_PHI, Half(_PHI))), ("phi",)),
    "A6": (Monus(Monus(_PHI, Half(_PHI)), Half(_PHI)), ("phi",)),
}


def instantiate_axiom(scheme, substitution):
    """The scheme tree with its metavariables (phi, psi, rho) replaced.

    Extra keys in the substitution are ignored; missing ones are an error.
    """
    try:
        template, needed = AXIOM_SCHEMES[scheme]
    except KeyError:
        raise ValueError("unknown axiom scheme %r" % (scheme,)) from None
    missing = [v for v in needed if v not in substitution]
    if missing:
        raise ValueError(
            "missing metavariable(s) %s for %s" % (", ".join(missing), scheme)
        )
    return substitute(template, {v: substitution[v] for v in needed})


class ProofLine:
    """One proof step: a formula and why it may be asserted.

    by is ("premise", k), ("axiom", name) or ("mp", i, j); axiom lines carry
    the substitution used (metavariable name -> formula).
    """

    __slots__ = ("formula", "by", "subst")

    def __init__(self, formula, by, subst=None):
        self.formula = formula
        self.by = tuple(by)
        self.subst = subst

    def __repr__(self):
        return "ProofLine(%s, by=%r)" % (print_formula(self.formula), self.by)


def _line_offense(lines, k, premises):
    """Reason the k-th line is unjustified, or None if it checks out."""
    line = lines[k]
    if not syntax.is_propositional(line.formula):
        return "not a propositional formula"
    by = line.by
    tag = by[0] if by else None
    if tag == "premise":
        idx = by[1]
        if not 0 <= idx < len(premises):
            return "premise index %r out of range" % (idx,)
        if line.formula != premises[idx]:
            return "formula differs from premise %d" % idx
    elif tag == "axiom":
        try:
            want = instantiate_axiom(by[1], line.subst or {})
        except ValueError as e:
            return str(e)
        if line.formula != want:
            return "formula is not that instance of %s" % by[1]
    elif tag == "mp":
        i, j = by[1], by[2]
        if not (0 <= i < k and 0 <= j < k):
            return "mp must cite earlier lines, got %r, %r" % (i, j)
        if lines[j].formula != Monus(line.formula, lines[i].formula):
            return "line %d is not (this formula - line %d)" % (j, i)
    else:
        return "unknown justification %r" % (by,)
    return None


def check_proof(proof, premises=(), explain=False):
    """True iff every line is a premise, an axiom instance, or modus ponens
    from earlier lines.

    With explain=True returns (ok, offense) where offense is None or
    (line index, reason) for the first bad line.
    """
    lines = list(proof)
    premises = list(premises)
    offense = None
    for k in range(len(lines)):
        reason = _line_offense(lines, k, premises)
        if reason is not None:
            offense = (k, reason)
            break
    if explain:
        return offense is None, offense
    return offense is None


# --- halving elimination ------------------------------------------------------


class HalfElimResult:
    """Outcome of eliminating every Half node from a premise set and a goal.

    premises: the rewritten premise list followed by the two companion
    premises per fresh atom (these pin each fresh atom Q to half the value of
    the formula it replaced); goal: the rewritten goal; fresh: ordered map
    fresh atom name -> eliminated Half subformula as it looked when replaced
    (later entries may mention earlier fresh atoms).
    """

    __slots__ = ("premises", "goal", "fresh")

    def __init__(self, premises, goal, fresh):
        self.premises = premises
        self.goal = goal
        self.fresh = fresh


def eliminate_half(sigma, goal):
    """Rewrite the premises and goal without Half, using fresh atoms.

    Innermost halvings go first: one pass over the distinct subformulas,
    children first, replaces each Half node, whose body is Half-free by
    then, with a fresh atom Q everywhere, and adds the companion premises
    (body - 2Q) and (Q - (body - Q)), whose common zeros force Q = body/2.
    An assignment satisfies the originals exactly when its unique extension
    to the fresh atoms satisfies the results.
    """
    formulas = list(sigma) + [goal]
    if not syntax.is_propositional(*formulas):
        raise TypeError("premises and goal must be propositional")
    used = set(syntax.atom_names(*formulas))
    names = (n for n in ("Q%d" % k for k in itertools.count()) if n not in used)
    fresh = {}
    companions = []

    def halve(f, body):
        q = Atom(next(names))
        fresh[q.name] = Half(body)
        companions.extend((monus_chain(body, 2, q), Monus(q, Monus(body, q))))
        return q

    nodes, pos = syntax.subformulas(*formulas)
    new = syntax.fold(nodes, pos, {
        Const0: lambda f: f,
        Atom: lambda f: f,
        Neg: lambda f, body: Neg(body),
        Half: halve,
        Monus: lambda f, left, right: Monus(left, right),
    })
    formulas = [new[pos[id(f)]] for f in formulas]
    return HalfElimResult(formulas[:-1] + companions, formulas[-1], fresh)


# --- proof search ---------------------------------------------------------------

_SEED_POOL = 24  # subformulas eligible as metavariable values
_A2_POOL = 8  # the three-variable scheme is capped harder (cubic seeding)
_MAX_LINES = 6000  # hard work bound for the forward chaining
#: len(print_formula(f)) from its children's: "neg ", "half " and "( - )"
_PRINTED_LENGTH = {
    Const0: lambda f: 1,
    Atom: lambda f: len(f.name),
    Neg: lambda f, n: n + 4,
    Half: lambda f, n: n + 5,
    Monus: lambda f, a, b: a + b + 5,
}

_MONUS_SELF = None


def recorded_monus_self():
    """The shipped 9-line derivation of (p - p) from no premises."""
    global _MONUS_SELF
    if _MONUS_SELF is None:
        from importlib import resources

        data = resources.files("clog").joinpath("data/monus_self.json")
        text = data.read_text(encoding="utf-8")
        _MONUS_SELF = proof_from_json(json.loads(text))
    return _MONUS_SELF


def find_proof(goal, premises=(), depth=20):
    """A checked proof of the goal with at most `depth` lines, or None.

    Forward chaining: premises, every axiom instance whose metavariables are
    subformulas of the problem, and the recorded (phi - phi) derivation for
    each such subformula feed a modus-ponens closure (breadth first, so
    shallow derivations are preferred).  None means "not found", never
    "refuted".
    """
    if not syntax.is_propositional(goal):
        raise TypeError("goal must be a propositional formula")
    premises = list(premises)
    if not syntax.is_propositional(*premises):
        raise TypeError("premises must be propositional formulas")
    lines = []
    index_of = {}
    monus_by_right = {}
    queue = deque()

    def add_line(formula, by, subst=None):
        got = index_of.get(formula)
        if got is not None:
            return got
        k = len(lines)
        lines.append(ProofLine(formula, by, subst))
        index_of[formula] = k
        queue.append(formula)
        if isinstance(formula, Monus):
            monus_by_right.setdefault(formula.right, []).append(
                (formula.left, k)
            )
        return k

    for k, p in enumerate(premises):
        add_line(p, ("premise", k))

    # the _SEED_POOL shortest subformulas in print, ties by their text; only
    # those no longer than the _SEED_POOL-th shortest are printed
    nodes, pos = syntax.subformulas(goal, *premises)
    lengths = syntax.fold(nodes, pos, _PRINTED_LENGTH)
    cut = sorted(lengths)[:_SEED_POOL][-1]
    pool = [f for f, n in zip(nodes, lengths) if n <= cut]
    pool.sort(key=lambda f: (len(print_formula(f)), print_formula(f)))
    pool = pool[:_SEED_POOL]

    for a in pool:
        for name in ("A5", "A6"):
            add_line(
                instantiate_axiom(name, {"phi": a}), ("axiom", name), {"phi": a}
            )
    for a in pool:
        for b in pool:
            subst = {"phi": a, "psi": b}
            for name in ("A1", "A3", "A4"):
                add_line(instantiate_axiom(name, subst), ("axiom", name), subst)
    for a in pool[:_A2_POOL]:
        for b in pool[:_A2_POOL]:
            for c in pool[:_A2_POOL]:
                subst = {"phi": a, "psi": b, "rho": c}
                add_line(
                    instantiate_axiom("A2", subst), ("axiom", "A2"), subst
                )
    template = recorded_monus_self()
    for a in pool:
        remap = {}
        for t, tline in enumerate(template):
            formula = substitute(tline.formula, {"p": a})
            subst = None
            by = tline.by
            if by[0] == "axiom":
                subst = {
                    k: substitute(v, {"p": a}) for k, v in tline.subst.items()
                }
            elif by[0] == "mp":
                by = ("mp", remap[by[1]], remap[by[2]])
            remap[t] = add_line(formula, by, subst)

    while queue and goal not in index_of and len(lines) < _MAX_LINES:
        f = queue.popleft()
        i = index_of[f]
        # f closes any proved (a - f); a freshly proved (a - b) closes with b
        for a, j in list(monus_by_right.get(f, ())):
            if a not in index_of:
                add_line(a, ("mp", i, j))
        if isinstance(f, Monus):
            right = index_of.get(f.right)
            if right is not None and f.left not in index_of:
                add_line(f.left, ("mp", right, i))

    if goal not in index_of:
        return None
    needed = set()
    stack = [index_of[goal]]
    while stack:
        k = stack.pop()
        if k in needed:
            continue
        needed.add(k)
        by = lines[k].by
        if by[0] == "mp":
            stack.append(by[1])
            stack.append(by[2])
    order = sorted(needed)
    if len(order) > depth:
        return None
    renumber = {old: new for new, old in enumerate(order)}
    out = []
    for old in order:
        line = lines[old]
        by = line.by
        if by[0] == "mp":
            by = ("mp", renumber[by[1]], renumber[by[2]])
        out.append(ProofLine(line.formula, by, line.subst))
    return out


# --- JSON form ------------------------------------------------------------------


def proof_to_json(proof):
    """Proof as a JSON-ready list of {"formula", "by"[, "subst"]} dicts."""
    out = []
    for line in proof:
        entry = {"formula": print_formula(line.formula)}
        tag = line.by[0]
        if tag == "premise":
            entry["by"] = "premise:%d" % line.by[1]
        elif tag == "axiom":
            entry["by"] = "axiom:%s" % line.by[1]
            if line.subst:
                entry["subst"] = {
                    k: print_formula(v) for k, v in sorted(line.subst.items())
                }
        elif tag == "mp":
            entry["by"] = "mp:%d,%d" % (line.by[1], line.by[2])
        else:
            raise ValueError("unknown justification %r" % (line.by,))
        out.append(entry)
    return out


def proof_from_json(data):
    """Parse what proof_to_json produces (the proof file format)."""
    lines = []
    for k, entry in enumerate(data):
        try:
            formula = parse_formula(entry["formula"])
            by_str = entry["by"]
            tag, _, rest = by_str.partition(":")
            subst = None
            if tag == "premise":
                by = ("premise", int(rest))
            elif tag == "axiom":
                by = ("axiom", rest)
                subst = {
                    name: parse_formula(text)
                    for name, text in entry.get("subst", {}).items()
                }
            elif tag == "mp":
                i, j = rest.split(",")
                by = ("mp", int(i), int(j))
            else:
                raise ValueError("unknown justification %r" % (by_str,))
        except (KeyError, ValueError, TypeError, AttributeError) as e:
            raise ValueError("proof line %d: %s" % (k, e)) from None
        lines.append(ProofLine(formula, by, subst))
    return lines
