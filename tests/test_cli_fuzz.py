"""A seeded fuzz of the command line, built from cli.COMMANDS.

Each command's row gives a well-formed argv (test_cli.well_formed).  The
cases are derived from those: token soup, formulas mutated or nested deep,
fixture JSON files mutated or nested deep, and inputs just over each LIMITS
cap.  Every case runs in process through cli.main and must exit 0, 1 or 2,
print exactly one report line starting {"cmd": when it exits 0 or 1 (and
nothing on stdout when it exits 2), raise nothing, and take under a second.
"""

import contextlib
import io
import json
import random
import time

import pytest

from clog import cli, hall, rv
from clog.rationals import rat

import test_hall
from test_cli import FIXTURES, command_paths, three_point_family_file, well_formed
from test_cli import write_fixtures

SEED = 27
CASES_PER_KIND = 20
DEPTHS = [3, 40, 1_500, 3_000]  # the last two past Python's default stack

#: Tokens the soup is drawn from besides every flag of the table: edge
#: values for counts, sections, events, weights and formulas.
EDGES = ["", " ", "-", "--", "-1", "0", "1", "2", "x", "x=", "=", ",", "w1,,w2",
         "u,a,b", "((", ")", "neg", "half", "inf x.", "P(", "1/0", "-1/2", "nan",
         "9" * 40, "\x00", "é", "nope"]
ALPHABET = "()pqPdxy-., 0=/é" + "neg half inf sup"


def flags(table=cli.COMMANDS):
    """Every flag in the table; argparse's -h is none of them, as a help
    page is no report."""
    for _, _, arguments in table.values():
        if isinstance(arguments, dict):
            yield from flags(arguments)
        else:
            for names, _ in arguments:
                yield from (n for n in names if n.startswith("-"))


def random_formula(rng, depth, first_order):
    """A formula text from the grammar: propositional, or first-order over
    the fixture family's signature (with an undeclared function f)."""
    if depth == 0 or rng.random() < 0.3:
        if first_order:
            return rng.choice(["P(x)", "P(y)", "d(x, y)", "P(f(x))", "0"])
        return rng.choice(["p", "q", "0"])
    sub = [random_formula(rng, depth - 1, first_order) for _ in range(2)]
    forms = ["neg %s" % sub[0], "half %s" % sub[0], "(%s - %s)" % tuple(sub)]
    if first_order:
        forms += ["inf %s. %s" % (rng.choice("xyz"), sub[0]),
                  "sup %s. %s" % (rng.choice("xyz"), sub[0])]
    return rng.choice(forms)


def mutate_formula(rng, text, first_order):
    """The formula text stacked or nested deep, replaced by a grammar
    formula, or edited character by character."""
    depth = rng.choice(DEPTHS)
    kind = rng.randrange(5)
    if kind == 0:  # a connective or quantifier stacked deep
        stack = ["neg ", "half "] + (["inf x. ", "sup z. "] if first_order else [])
        return rng.choice(stack) * depth + text
    if kind == 1:  # subtractions nested deep
        leaf = "P(x)" if first_order else "q"
        return "(" * depth + text + (" - %s)" % leaf) * depth
    if kind == 2:  # terms nested deep (f is undeclared) or grammar formulas
        if first_order and rng.random() < 0.5:
            return "P(%sx%s)" % ("f(" * depth, ")" * depth)
        return random_formula(rng, 6, first_order)
    for _ in range(rng.randint(1, 4)):  # character edits
        at = rng.randint(0, len(text))
        cut = at + rng.randint(0, 3)
        text = text[:at] + "".join(rng.choices(ALPHABET, k=rng.randint(0, 3))) + text[cut:]
    return text


_DEEP = "<deep>"  # stands for a deeply nested list until dumped


def mutate_json(rng, data):
    """The JSON text of data with one node dropped, duplicated, replaced by
    another JSON value or by lists nested deep."""
    slots = []  # (container, key)
    todo = [data]
    while todo:
        node = todo.pop()
        keys = node if isinstance(node, dict) else range(len(node))
        for key in keys:
            slots.append((node, key))
            if isinstance(node[key], (dict, list)):
                todo.append(node[key])
    kind = rng.randrange(4)
    if not slots or kind == 3:
        data = rng.choice([None, 0, "1/2", [], [data], _DEEP])
    else:
        node, key = rng.choice(slots)
        if kind == 0:
            del node[key]
        elif kind == 1 and isinstance(node, list):
            node.append(node[key])
        else:
            node[key] = rng.choice([
                None, 0, -1, 0.5, True, "", "x", "1/2", "-1/2", "2/1", "1/0",
                "9" * 40 + "/7", [], {}, ["1/2"], {"id": "w1"}, _DEEP])
    depth = rng.choice(DEPTHS[2:] + [100_000])
    return json.dumps(data).replace(json.dumps(_DEEP), "[" * depth + "]" * depth)


def over_each_cap(tmp_path, files):
    """One argv per LIMITS entry whose input is just over its cap: the
    option one over it, or a file with one atom or item more; for the table
    cells, a family whose section route would tabulate more cells."""
    argvs = []
    for name, (cap, _, _) in cli.LIMITS.items():
        *path, what = name.split()
        given = dict(files)
        if what == "atoms" and path == ["rv", "arv-defect"]:
            given["x"] = tmp_path / "rv_over.json"
            space = rv.FiniteProbSpace.uniform(["a%d" % i for i in range(cap + 1)])
            given["x"].write_text(json.dumps(rv.rv_to_json(rv.RandomVariable(
                space, [rat(i % 5, 4) for i in range(cap + 1)]))), encoding="utf-8")
        elif what == "atoms":
            given["family"] = three_point_family_file(tmp_path, cap + 1)
        elif what == "items":
            given["hall_ok"] = tmp_path / "hall_over.json"
            instance, _ = test_hall.planted_instance(random.Random(SEED), cap + 1, 40, False)
            given["hall_ok"].write_text(
                json.dumps(hall.instance_to_json(instance)), encoding="utf-8")
        elif what == "cells":  # 6,561 sections, each paired with each
            path = ["rand", "los"]
            given["family"] = three_point_family_file(tmp_path, 8)
        argv = well_formed(path, given)
        if what.startswith("--"):
            argv[argv.index(what) + 1] = str(cap + 1)
        elif what == "cells":
            argv[argv.index("-e") + 1] = "sup z. inf y. d(z, y)"
        argvs.append(argv)
    return argvs


def cases(rng, tmp_path, files):
    """(argv, the text of the JSON file it reads, if mutated) for every case."""
    vocabulary = sorted(set(flags())) + EDGES + [str(f) for f in files.values()]
    for path in command_paths():
        base = well_formed(path, files)
        first_order = path[0] == "rand"
        formulas = [i + 1 for i, a in enumerate(base) if a in ("-e", "--premise", "--goal")]
        positionals = [i for i, a in enumerate(base)
                       if any(a == str(files[f]) for f in FIXTURES.values())]
        for _ in range(CASES_PER_KIND):  # soup after the path
            yield list(path) + rng.choices(vocabulary, k=rng.randint(0, 8)), None
        for _ in range(CASES_PER_KIND):  # edits of the well-formed argv
            argv = base[:]
            for _ in range(rng.randint(1, 3)):
                at = rng.randrange(len(path), len(argv) + 1)
                edit = rng.randrange(3)
                if edit == 0 and at < len(argv):
                    del argv[at]
                elif edit == 1 and at < len(argv):
                    argv.insert(at, argv[at])
                else:
                    argv.insert(at, rng.choice(vocabulary))
            yield argv, None
        for _ in range(CASES_PER_KIND if formulas else 0):
            argv = base[:]
            at = rng.choice(formulas)
            argv[at] = mutate_formula(rng, argv[at], first_order)
            yield argv, None
        for case in range(CASES_PER_KIND if positionals else 0):
            argv = base[:]
            at = rng.choice(positionals)
            with open(argv[at], encoding="utf-8") as handle:
                text = mutate_json(rng, json.load(handle))
            argv[at] = str(tmp_path / ("mutated_%d.json" % case))
            with open(argv[at], "w", encoding="utf-8") as handle:
                handle.write(text)
            yield argv, text
    for argv in over_each_cap(tmp_path, files):
        yield argv, None


def shown(argv):
    """The argv for a failure message, long words cut."""
    return [a if len(a) <= 80 else "%s...(%d chars)" % (a[:60], len(a)) for a in argv]


def test_every_case_ends_in_one_report_or_a_usage_error(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("CLOG_BRANCH_BUDGET", raising=False)
    files = write_fixtures(tmp_path)
    for path in command_paths():  # the cases start from working commands
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(well_formed(path, files)) in (0, 1), path
        assert "error" not in json.loads(out.getvalue()), path
    rng = random.Random(SEED)
    count = 0
    for count, (argv, text) in enumerate(cases(rng, tmp_path, files), 1):
        where = "seed %d, case %d: %r%s" % (
            SEED, count, shown(argv), "" if text is None else
            " reading %r" % (text if len(text) < 300 else text[:300] + "..."))
        out, err = io.StringIO(), io.StringIO()
        started = time.monotonic()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except SystemExit as e:
                rc = e.code
            except Exception as e:  # any exception escaping main fails the case
                pytest.fail("%s raised %r" % (where, e))
        took = time.monotonic() - started
        out = out.getvalue()
        assert rc in (0, 1, 2), where
        if rc == 2:
            assert out == "", where
        else:
            assert out.count("\n") == 1 and out.endswith("\n"), where
            assert out.startswith('{"cmd":'), where
        assert took < 1, "%s took %.2f s" % (where, took)
    assert count > 1000
