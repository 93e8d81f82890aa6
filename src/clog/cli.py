"""Command line front end.

Every operation is a subcommand printing a single-line JSON report:
{"cmd": <subcommand echo>, "status": "ok"|"fail"|"infeasible", ...payload}.
Exit code is 0 exactly when the status is "ok"; domain errors (bad files,
unparsable formulas, module ValueErrors, inputs over a cap in LIMITS, terms
or JSON files nested deeper than Python's stack) exit 1 with an "error"
field, and usage errors exit 2 via argparse.  Rationals are printed reduced
as "p/q" with an explicit positive denominator so reports are byte-stable.

Commands that assert a property (valid, sat, entail, check-proof, rand los,
hall, ...) report status "ok" when the property holds and "fail" (or
"infeasible" for hall) when it does not; pure computations (dist, joint,
glue, ...) are "ok" whenever the input was well-formed.

Every command is declared once, in the COMMANDS table: its path (such as
"rand los", which is also the report's "cmd"), its handler, its help line
and its arguments, arguments shared by several commands being module
constants.  One recursive builder makes the parser from the table.  Each
handler imports the library modules it runs, so a process loads only what
its subcommand needs; building the parser imports none of them, and gives
arguments only to the subcommand that runs.
"""

import argparse
import json
import os
import sys

from .rationals import format_rat, parse_rat, rat

DEFAULT_BRANCH_BUDGET = 24
# The CLI's work limits; the library runs unbounded.  Each entry is
# (cap, reason, error text), the text formatted with the cap and reason.
LIMITS = {
    # stage 16 takes a few seconds
    "rv tauphi --n": (
        16, "the stage loops 2^n times", "--n is at most %d (%s)"),
    # a few seconds at the cap on a space of three or four atoms
    "rv check --samples": (
        24, "the check is cubic in it", "--samples is at most %d (%s)"),
    # 5 atoms take seconds
    "rv arv-defect atoms": (
        5, "the search grows about 4.5x per atom",
        "rv arv-defect takes at most %d atoms (%s)"),
    # quadratic times the 2^n events of an n-atom space: a few seconds at
    # the cap on a space of three or four atoms
    "rand axioms --samples": (
        128, "the check is quadratic in it", "--samples is at most %d (%s)"),
    # at 128 samples on 3-element universes 5 atoms took about 6 s and
    # 6 atoms 11 s on 2 vCPUs
    "rand axioms atoms": (
        5, "R3 checks all 2^n events per sample pair",
        "rand axioms takes at most %d atoms (%s)"),
    # the condition itself needs no cap.  On 2 vCPUs the slowest of six
    # seeded infeasible 16-atom instances took 0.08 s at 100 items, 0.27 s
    # at 200 and 0.54 s at 500 and 1,000; a whole `clog hall` run at 200
    # items took at most 0.5 s infeasible and 0.17 s feasible
    "hall items": (
        200, "pinning the least violator takes up to n + 1 min-cuts",
        "hall takes at most %d items (%s)"),
    # randomisation.table_sizes, checked before any table is built: for
    # `los` the section route's sum of |sections|^k and the pointwise sum of
    # |U_i|^k, for `eval`, `inf-witness` and `type-measure` the pointwise
    # one.  On 2 vCPUs the section route took 0.6 s and 51 MB at 196,609
    # cells (16 atoms of 2 elements), 0.9 s and 59 MB at 177,148 (11 of 3),
    # and 3.3 s and 195 MB at 531,442 (12 of 3)
    "rand cells": (
        250_000, "a subformula's table has a cell per value of its free variables",
        "a formula's tables may hold at most %d cells (%s)"),
}


def _within(limit, value):
    """Refuse value above the cap of LIMITS[limit] with its error text."""
    cap, reason, text = LIMITS[limit]
    if value > cap:
        raise ValueError(text % (cap, reason))


def _budget():
    """Monus-node budget for the semantic procedures.

    The library itself runs unbounded; the CLI defaults to 24 and honours
    CLOG_BRANCH_BUDGET (an integer, 0 or less meaning "no budget").
    """
    text = os.environ.get("CLOG_BRANCH_BUDGET")
    if text is None:
        return DEFAULT_BRANCH_BUDGET
    try:
        value = int(text)
    except ValueError:
        raise ValueError("CLOG_BRANCH_BUDGET must be an integer, got %r" % text)
    return value if value > 0 else None


def _nonnegative_int(text):
    """argparse type for counts and caps: an integer >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0, got %d" % value)
    return value


def _fmt_point(point):
    return {name: format_rat(point[name]) for name in sorted(point)}


def _load_json(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _read_formulas(args, parser, many=False):
    if (args.expr is None) == (args.file is None):
        parser.error("provide a formula with -e or a file, not both")
    if args.expr is not None:
        texts = args.expr
    else:
        with open(args.file, "r", encoding="utf-8") as handle:
            texts = [line for line in handle.read().splitlines() if line.strip()]
    if not texts:
        raise ValueError("no formula given")
    if not many and len(texts) != 1:
        parser.error("this command takes exactly one formula")
    return texts


def _parse_sections(family, pairs):
    """--section NAME=v1,v2,... occurrences into an environment dict."""
    from .randomisation import Section

    env = {}
    for pair in pairs or ():
        name, eq, body = pair.partition("=")
        if not eq:
            raise ValueError("--section expects NAME=v1,v2,..., got %r" % pair)
        values = tuple(v.strip() for v in body.split(",")) if body else ()
        env[name.strip()] = Section(family, values)
    return env


def _parse_event(text):
    """Comma-separated atom ids; an empty string is the empty event."""
    if not text.strip():
        return ()
    return tuple(part.strip() for part in text.split(","))


def _random_rvs(space, count, seed):
    import random

    from .rv import RandomVariable

    rng = random.Random(seed)
    out = []
    for _ in range(count):
        values = tuple(rat(rng.randint(0, 8), 8) for _ in space.ids)
        out.append(RandomVariable(space, values))
    return out


# --- propositional commands ---------------------------------------------------


def _cmd_valid(args, parser):
    from . import semantics, syntax

    (text,) = _read_formulas(args, parser)
    formula = syntax.parse_formula(text)
    ok, point = semantics.is_valid(formula, budget=_budget())
    if ok:
        return "ok", {"valid": True}
    return "fail", {
        "valid": False,
        "countermodel": _fmt_point(point),
        "value": format_rat(semantics.evaluate(formula, point)),
    }


def _cmd_sat(args, parser):
    from . import semantics, syntax

    texts = _read_formulas(args, parser, many=True)
    formulas = [syntax.parse_formula(t) for t in texts]
    ok = semantics.is_satisfiable(formulas, budget=_budget())
    return ("ok" if ok else "fail"), {"satisfiable": bool(ok)}


def _cmd_entail(args, parser):
    from . import semantics, syntax

    premises = [syntax.parse_formula(t) for t in args.premise or ()]
    goal = syntax.parse_formula(args.goal)
    cap = None
    if args.witness:
        cap = semantics.DEFAULT_WITNESS_CAP if args.cap is None else args.cap
    point, m = semantics.entailment(premises, goal, cap=cap, budget=_budget())
    payload = {"valid": point is None}
    if args.witness:
        payload["m"] = m
    if point is not None:
        payload["countermodel"] = _fmt_point(point)
    return ("ok" if point is None else "fail"), payload


def _cmd_unsat_witness(args, parser):
    from . import semantics, syntax

    premises = [syntax.parse_formula(t) for t in args.premise or ()]
    cap = semantics.DEFAULT_WITNESS_CAP if args.cap is None else args.cap
    n = semantics.unsat_witness(premises, cap=cap, budget=_budget())
    return ("fail" if n is None else "ok"), {"n": n}


def _cmd_check_proof(args, parser):
    from . import proofs, syntax

    proof = proofs.proof_from_json(_load_json(args.proof))
    premises = [syntax.parse_formula(t) for t in args.premise or ()]
    ok, offense = proofs.check_proof(proof, premises, explain=True)
    if ok:
        return "ok", {"checked": True, "lines": len(proof)}
    line, reason = offense
    return "fail", {"checked": False, "line": line, "reason": reason}


def _cmd_find_proof(args, parser):
    from . import proofs, syntax

    (text,) = _read_formulas(args, parser)
    goal = syntax.parse_formula(text)
    premises = [syntax.parse_formula(t) for t in args.premise or ()]
    proof = proofs.find_proof(goal, premises, depth=args.depth)
    if proof is None:
        return "fail", {"found": False, "proof": None}
    return "ok", {
        "found": True,
        "lines": len(proof),
        "proof": proofs.proof_to_json(proof),
    }


def _cmd_elim_half(args, parser):
    from . import proofs, syntax

    premises = [syntax.parse_formula(t) for t in args.premise or ()]
    goal = syntax.parse_formula(args.goal)
    res = proofs.eliminate_half(premises, goal)
    return "ok", {
        "premises": [syntax.print_formula(f) for f in res.premises],
        "goal": syntax.print_formula(res.goal),
        "fresh": {
            name: syntax.print_formula(f) for name, f in res.fresh.items()
        },
    }


# --- random-variable commands ---------------------------------------------------


def _cmd_rv_check(args, parser):
    _within("rv check --samples", args.samples)
    from . import rv

    space = rv.space_from_json(_load_json(args.space))
    samples = _random_rvs(space, args.samples, args.seed)
    residuals = rv.check_rv_axioms(space, samples)
    ok = all(v == 0 for v in residuals.values())
    payload = {
        "samples": args.samples,
        "residuals": {k: format_rat(v) for k, v in residuals.items()},
    }
    return ("ok" if ok else "fail"), payload


def _cmd_rv_arv_defect(args, parser):
    from . import rv

    x = rv.rv_from_json(_load_json(args.rv))
    _within("rv arv-defect atoms", len(x.space))
    if args.witness:
        value, witness = rv.arv_defect(x.space, x, with_witness=True)
        return "ok", {
            "defect": format_rat(value),
            "witness": [format_rat(v) for v in witness.values],
        }
    value = rv.arv_defect(x.space, x)
    return "ok", {"defect": format_rat(value)}


def _cmd_rv_dist(args, parser):
    from . import rv

    x = rv.rv_from_json(_load_json(args.x))
    y = rv.rv_from_json(_load_json(args.y))
    return "ok", {"d": format_rat(rv.l1_dist(x, y))}


def _cmd_rv_joint(args, parser):
    from . import rv

    rvs = [rv.rv_from_json(_load_json(path)) for path in args.rv]
    law = rv.joint_distribution(rvs)
    masses = [
        {"values": [format_rat(v) for v in key], "w": format_rat(w)}
        for key, w in sorted(law.masses.items())
    ]
    return "ok", {"masses": masses}


def _cmd_rv_condexp(args, parser):
    from . import rv

    x = rv.rv_from_json(_load_json(args.rv))
    partition = [x.space.event(_parse_event(b)) for b in args.block]
    out = rv.cond_expectation(x, partition)
    return "ok", {"values": [format_rat(v) for v in out.values]}


def _cmd_rv_tauphi(args, parser):
    _within("rv tauphi --n", args.n)
    from . import rv

    f = rv.rv_from_json(_load_json(args.rv))
    event = _parse_event(args.event)
    phi = rv.tau_phi_interpretation(f.space, f, args.n, event)
    integral = rv.integral_over(f, f.space.event(event))
    bound = rat(1, 2**args.n)
    gap = abs(phi - integral)
    within = gap <= bound
    return ("ok" if within else "fail"), {
        "n": args.n,
        "phi": format_rat(phi),
        "integral": format_rat(integral),
        "bound": format_rat(bound),
        "within": bool(within),
    }


# --- randomisation commands ------------------------------------------------------


def _cmd_rand_eval(args, parser):
    from . import randomisation, syntax

    family = randomisation.family_from_json(_load_json(args.family))
    (text,) = _read_formulas(args, parser)
    phi = syntax.parse_lformula(text)
    env = _parse_sections(family, args.section)
    _within("rand cells", randomisation.table_sizes(phi, env, family)[1])
    out = randomisation.bracket(phi, env, family)
    return "ok", {"values": [format_rat(v) for v in out.values]}


def _cmd_rand_axioms(args, parser):
    _within("rand axioms --samples", args.samples)
    import random

    from . import randomisation

    family = randomisation.family_from_json(_load_json(args.family))
    _within("rand axioms atoms", len(family.space))
    rng = random.Random(args.seed)
    sections = []
    for _ in range(args.samples):
        values = tuple(
            rng.choice(s.universe) for s in family.structures
        )
        sections.append(randomisation.Section(family, values))
    residuals = randomisation.check_R_axioms(family, sections)
    ok = all(v == 0 for v in residuals.values())
    payload = {
        "samples": args.samples,
        "residuals": {k: format_rat(v) for k, v in residuals.items()},
    }
    return ("ok" if ok else "fail"), payload


def _cmd_rand_los(args, parser):
    from . import randomisation, syntax

    family = randomisation.family_from_json(_load_json(args.family))
    (text,) = _read_formulas(args, parser)
    phi = syntax.parse_lformula(text)
    env = _parse_sections(family, args.section)
    weighting = None
    if args.weights is not None:
        weighting = [parse_rat(w.strip()) for w in args.weights.split(",")]
    for cells in randomisation.table_sizes(phi, env, family):  # both routes
        _within("rand cells", cells)
    lhs, rhs, equal = randomisation.los_check(phi, env, family, weighting)
    return ("ok" if equal else "fail"), {
        "lhs": format_rat(lhs),
        "rhs": format_rat(rhs),
        "equal": bool(equal),
    }


def _cmd_rand_glue(args, parser):
    from . import randomisation

    family = randomisation.family_from_json(_load_json(args.family))
    a = randomisation.Section(family, _parse_event(args.a))
    b = randomisation.Section(family, _parse_event(args.b))
    event = frozenset(_parse_event(args.event))
    out = randomisation.glue(event, a, b)
    return "ok", {"section": list(out.values)}


def _cmd_rand_type_measure(args, parser):
    from . import randomisation, syntax

    family = randomisation.family_from_json(_load_json(args.family))
    texts = _read_formulas(args, parser, many=True)
    formulas = [syntax.parse_lformula(t) for t in texts]
    if not args.section:
        raise ValueError("need at least one --section")
    sections = [
        randomisation.Section(family, _parse_event(body))
        for body in args.section
    ]
    names = args.name or None
    env = dict(zip(names or ["x%d" % i for i in range(len(sections))], sections))
    _within("rand cells", sum(
        randomisation.table_sizes(phi, env, family)[1] for phi in formulas))
    measure = randomisation.type_measure(sections, family, formulas, names)
    masses = [
        {"label": [format_rat(v) for v in key], "w": format_rat(w)}
        for key, w in sorted(measure.masses.items())
    ]
    pairings = [
        format_rat(randomisation.pairing(measure, i)) for i in range(len(formulas))
    ]
    return "ok", {"masses": masses, "pairings": pairings}


def _cmd_rand_inf_witness(args, parser):
    from . import randomisation, syntax

    family = randomisation.family_from_json(_load_json(args.family))
    (text,) = _read_formulas(args, parser)
    phi = syntax.parse_lformula(text)
    env = _parse_sections(family, args.section)
    _within("rand cells", randomisation.table_sizes(
        phi, env, family, frozenset([args.var]))[1])
    sec = randomisation.inf_witness(phi, args.var, env, family)
    bound = dict(env)
    bound[args.var] = sec
    at = randomisation.bracket(phi, bound, family)
    return "ok", {
        "section": list(sec.values),
        "values": [format_rat(v) for v in at.values],
    }


# --- hall ------------------------------------------------------------------------


def _cmd_hall(args, parser):
    from . import hall

    instance = hall.instance_from_json(_load_json(args.instance))
    _within("hall items", len(instance))
    holds, violating = hall.hall_condition(instance)
    if not holds:
        return "infeasible", {"holds": False, "violating": list(violating)}
    allocation = hall.solve_allocation(instance)
    if allocation is None:  # cannot happen when the condition holds
        return "fail", {"holds": True, "error": "no allocation found"}
    labels = hall.realizable_labels(instance, allocation)
    return "ok", {
        "holds": True,
        "allocation": hall.allocation_to_json(allocation)["masses"],
        "realizable": {k: labels[k] for k in sorted(labels)},
    }


# --- the command table ------------------------------------------------------------
# Each command maps to (handler, help, arguments), an argument being (flags,
# add_argument options); a group's handler is None and its third field is
# its own table.  A command's report echoes its path, such as "rand los".

_PREMISE = (("--premise",), dict(action="append", metavar="FORMULA"))
_GOAL = (("--goal",), dict(required=True, metavar="FORMULA"))
_CAP = (("--cap",), dict(type=_nonnegative_int))
_SEED = (("--seed",), dict(type=int, default=0))
_RV = (("rv",), dict(help="random variable JSON file"))
_FAMILY = (("family",), dict(help="random family JSON file"))
_SECTION = (("--section",), dict(action="append", metavar="NAME=V1,V2,..."))


def _formula_arg(many=False):
    """The shared formula input: -e TEXT or a file path."""
    more, lines = (" (repeatable)", ", one per line") if many else ("", "")
    return [(("-e", "--expr"), dict(action="append", default=None, metavar="FORMULA",
                                    help="formula text" + more)),
            (("file",), dict(nargs="?", default=None,
                             help="file with the formula text" + lines))]


COMMANDS = {
    "valid": (_cmd_valid, "is the formula 0 everywhere?", _formula_arg()),
    "sat": (_cmd_sat, "do the formulas share a zero?", _formula_arg(many=True)),
    "entail": (_cmd_entail, "do the premises entail the goal?", [
        _PREMISE, _GOAL,
        (("--witness",), dict(action="store_true",
                              help="also search for the finite witness m")),
        _CAP]),
    "unsat-witness": (_cmd_unsat_witness,
                      "smallest n certifying the premises unsatisfiable",
                      [_PREMISE, _CAP]),
    "check-proof": (_cmd_check_proof, "check a proof file", [
        (("proof",), dict(help="proof JSON file")), _PREMISE]),
    "find-proof": (_cmd_find_proof, "search for a proof of the goal", [
        *_formula_arg(), _PREMISE,
        (("--depth",), dict(type=_nonnegative_int, default=20,
                            help="largest proof length to consider"))]),
    "elim-half": (_cmd_elim_half, "rewrite premises and goal without half",
                  [_PREMISE, _GOAL]),
    "rv": (None, "random variables on finite spaces", {
        "check": (_cmd_rv_check, "axiom residuals on random samples", [
            (("space",), dict(help="probability space JSON file")),
            (("--samples",), dict(type=_nonnegative_int, default=12,
                                  help="sample variables (2 to %d)"
                                  % LIMITS["rv check --samples"][0])),
            _SEED]),
        "arv-defect": (_cmd_rv_arv_defect,
                       "distance from the variable's law to atomlessness",
                       [_RV, (("--witness",), dict(action="store_true"))]),
        "dist": (_cmd_rv_dist, "L1 distance of two variables", [
            (("x",), dict(help="random variable JSON file")),
            (("y",), dict(help="random variable JSON file"))]),
        "joint": (_cmd_rv_joint, "joint law of the variables", [
            (("rv",), dict(nargs="+", help="random variable JSON files"))]),
        "condexp": (_cmd_rv_condexp, "conditional expectation", [
            _RV, (("--block",), dict(action="append", required=True, metavar="ATOMS",
                                     help="partition block, comma-separated"))]),
        "tauphi": (_cmd_rv_tauphi, "staged integral approximation over an event", [
            _RV,
            (("--n",), dict(type=int, required=True,
                            help="stage (1 to %d)" % LIMITS["rv tauphi --n"][0])),
            (("--event",), dict(required=True, metavar="ATOMS",
                                help="event, comma-separated atom ids"))]),
    }),
    "rand": (None, "randomisations of finite structures", {
        "eval": (_cmd_rand_eval, "pointwise value of a formula",
                 [_FAMILY, *_formula_arg(), _SECTION]),
        "axioms": (_cmd_rand_axioms, "axiom residuals on random sections", [
            _FAMILY,
            (("--samples",), dict(type=_nonnegative_int, default=8,
                                  help="sample sections (2 to %d)"
                                  % LIMITS["rand axioms --samples"][0])),
            _SEED]),
        "los": (_cmd_rand_los, "expected truth value both ways: do they agree?", [
            _FAMILY, *_formula_arg(), _SECTION,
            (("--weights",), dict(
                metavar="P/Q,P/Q,...",
                help="reweighting of the atoms (defaults to the family's)"))]),
        "glue": (_cmd_rand_glue, "combine two sections along an event", [
            _FAMILY, (("--event",), dict(required=True, metavar="ATOMS")),
            (("--a",), dict(required=True, metavar="V1,V2,...",
                            help="section used on the event")),
            (("--b",), dict(required=True, metavar="V1,V2,...",
                            help="section used off the event"))]),
        "type-measure": (_cmd_rand_type_measure,
                         "pushforward law of formula values at sections", [
            _FAMILY, *_formula_arg(many=True),
            (("--section",), dict(action="append", metavar="V1,V2,...",
                                  help="section values (repeatable)")),
            (("--name",), dict(action="append", metavar="NAME",
                               help="variable name bound per section tuple entry"))]),
        "inf-witness": (_cmd_rand_inf_witness,
                        "section attaining an inf at every atom", [
            _FAMILY, *_formula_arg(),
            (("--var",), dict(required=True, help="the quantified variable")),
            _SECTION]),
    }),
    "hall": (_cmd_hall, "marriage condition and mass allocation", [
        (("instance",), dict(help="instance JSON file (up to %d items)"
                             % LIMITS["hall items"][0]))]),
}


def _subparser(runs, **kwargs):
    """The parser_class of every subparsers action: the parser of a command
    that runs, and None for one that is only named."""
    return argparse.ArgumentParser(**kwargs) if runs else None


def _add_commands(parser, table, words, path=()):
    """Name every command of the table under parser, and build the one that
    words (argv's words not starting with "-") runs: its arguments, or the
    commands of its group.  At each level the command is argparse's first
    positional, and no option before it takes a value, so it is the word at
    its path's depth."""
    sub = parser.add_subparsers(dest="_".join(path + ("command",)), required=True,
                                parser_class=_subparser)
    for name, (handler, help, arguments) in table.items():
        p = sub.add_parser(name, help=help,
                           runs=words[len(path):len(path) + 1] == [name])
        if p is None:
            continue
        if handler is None:
            _add_commands(p, arguments, words, path + (name,))
            continue
        for flags, options in arguments:
            p.add_argument(*flags, **options)
        p.set_defaults(handler=handler, echo=" ".join(path + (name,)))


def _build_parser(argv):
    """The parser for argv: every command is named, so the usage, help and
    invalid-choice texts are the same whichever runs, but only the one that
    runs gets its arguments."""
    parser = argparse.ArgumentParser(
        prog="clog",
        description="Continuous-logic toolkit: validity, proofs, random "
        "variables, randomised structures, mass allocation.",
    )
    _add_commands(parser, COMMANDS, [a for a in argv if not a.startswith("-")])
    return parser


def _error_text(e):
    if isinstance(e, KeyError) and e.args:
        return str(e.args[0])
    return str(e)


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser(argv)
    args = parser.parse_args(argv)
    try:
        status, payload = args.handler(args, parser)
    except (ValueError, KeyError, TypeError, OSError, RecursionError) as e:
        report = {"cmd": args.echo, "status": "fail", "error": _error_text(e)}
        print(json.dumps(report, separators=(",", ":")))
        return 1
    report = {"cmd": args.echo, "status": status}
    report.update(payload)
    print(json.dumps(report, separators=(",", ":")))
    return 0 if status == "ok" else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
