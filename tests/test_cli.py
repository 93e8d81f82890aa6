"""End-to-end checks of the command line: exact report bytes and exit codes."""

import argparse
import contextlib
import io
import json
import os
import random
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from clog import branches, cli, hall, proofs, randomisation, rv, syntax
from clog.cli import main
from clog.rationals import rat

import oracles
import test_hall
import test_randomisation
import test_semantics

ROOT = Path(__file__).resolve().parent.parent


def run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, out


def write_fixtures(tmp_path):
    paths = {}

    sp = rv.FiniteProbSpace(
        [("w1", rat(1, 2)), ("w2", rat(1, 4)), ("w3", rat(1, 4))]
    )
    paths["space"] = tmp_path / "space.json"
    paths["space"].write_text(json.dumps(rv.space_to_json(sp)), encoding="utf-8")
    x = rv.RandomVariable(sp, (rat(1, 2), rat(1), rat(0)))
    paths["x"] = tmp_path / "x.json"
    paths["x"].write_text(json.dumps(rv.rv_to_json(x)), encoding="utf-8")
    y = rv.RandomVariable(sp, (rat(1, 4), rat(1), rat(1, 2)))
    paths["y"] = tmp_path / "y.json"
    paths["y"].write_text(json.dumps(rv.rv_to_json(y)), encoding="utf-8")
    ind = rv.RandomVariable(
        rv.FiniteProbSpace.uniform(["a", "b"]), (rat(1), rat(0))
    )
    paths["ind"] = tmp_path / "ind.json"
    paths["ind"].write_text(json.dumps(rv.rv_to_json(ind)), encoding="utf-8")

    fam = test_randomisation.two_point_family()
    paths["family"] = tmp_path / "family.json"
    paths["family"].write_text(
        json.dumps(randomisation.family_to_json(fam)), encoding="utf-8")

    sp2 = rv.FiniteProbSpace([("w1", rat(1, 2)), ("w2", rat(1, 2))])
    fine = hall.HallInstance(
        sp2, [("x", rat(1, 2), ["w1"]), ("y", rat(1, 2), ["w2"])]
    )
    paths["hall_ok"] = tmp_path / "hall_ok.json"
    paths["hall_ok"].write_text(
        json.dumps(hall.instance_to_json(fine)), encoding="utf-8")
    # both items want w1; singletons fit but the pair cannot
    pair = hall.HallInstance(
        sp2, [("x", rat(1, 2), ["w1"]), ("y", rat(1, 4), ["w1"])]
    )
    paths["hall_pair"] = tmp_path / "hall_pair.json"
    paths["hall_pair"].write_text(
        json.dumps(hall.instance_to_json(pair)), encoding="utf-8")

    paths["proof"] = tmp_path / "proof.json"
    paths["proof"].write_text(json.dumps(proofs.proof_to_json(
        proofs.recorded_monus_self())), encoding="utf-8")

    return paths


def command_paths(table=cli.COMMANDS, path=()):
    """The path of every command in the table, each group's opened."""
    for name, (handler, _, arguments) in table.items():
        if handler is None:
            yield from command_paths(arguments, path + (name,))
        else:
            yield path + (name,)


#: A sample value for each option of cli.COMMANDS, by its flag; an entry
#: under a command's path, or its group's, overrides it there.
SAMPLES = {
    "-e": "(p - half q)", "--premise": "half p", "--goal": "p", "--cap": "3",
    "--depth": "9", "--samples": "3", "--seed": "1", "--block": "w1,w2,w3",
    "--n": "3", "--event": "w1", "--weights": "1/4,3/4", "--a": "u,a",
    "--b": "v,b", "--var": "y", "--name": "x", "--section": "x=u,a",
    "find-proof -e": "(p - p)",
    "rand -e": "(P(x) - inf y. d(x, y))",
    "rand inf-witness -e": "(P(x) - d(x, y))",
    "rand type-measure --section": "u,a",
}
#: The write_fixtures file each positional argument takes, by its name.
FIXTURES = {"proof": "proof", "space": "space", "rv": "x", "x": "x", "y": "y",
            "family": "family", "instance": "hall_ok"}


def well_formed(path, files, optional=True):
    """A well-formed argv for the command at path, built from its row of
    cli.COMMANDS: each option with its sample value (a store_true flag
    alone), each positional with its fixture file (two for nargs="+"), and
    the formula given with -e, so the formula file is left out.  Without
    optional, only the positionals and the required options."""
    table = cli.COMMANDS
    for name in path:
        _, _, table = table[name]
    argv = list(path)
    for flags, options in table:
        flag = flags[0]
        if not flag.startswith("-"):
            if flag != "file":
                argv += [str(files[FIXTURES[flag]])] * (
                    2 if options.get("nargs") == "+" else 1)
        elif not (optional or options.get("required")):
            continue
        elif options.get("action") == "store_true":
            argv.append(flag)
        else:
            keys = [" ".join(path) + " " + flag, path[0] + " " + flag, flag]
            argv += [flag, next(SAMPLES[k] for k in keys if k in SAMPLES)]
    return argv


# --- propositional ----------------------------------------------------------------


def test_valid_golden(capsys):
    rc, out = run(capsys, ["valid", "-e", "( (p - q) - p )"])
    assert rc == 0
    assert out == '{"cmd":"valid","status":"ok","valid":true}\n'


def test_valid_counterexample_golden(capsys):
    # the integer-grid pre-pass finds p = 1/8 first, so the bytes are stable
    rc, out = run(capsys, ["valid", "-e", "p"])
    assert rc == 1
    assert out == (
        '{"cmd":"valid","status":"fail","valid":false,'
        '"countermodel":{"p":"1/8"},"value":"1/8"}\n'
    )


def test_valid_from_file(capsys, tmp_path):
    f = tmp_path / "formula.txt"
    f.write_text("(p - p)\n", encoding="utf-8")
    rc, out = run(capsys, ["valid", str(f)])
    assert rc == 0
    assert json.loads(out)["valid"] is True


def test_sat(capsys):
    rc, out = run(capsys, ["sat", "-e", "p", "-e", "(half q - p)"])
    assert rc == 0
    assert json.loads(out)["satisfiable"] is True
    rc, out = run(capsys, ["sat", "-e", "p", "-e", "neg p"])
    assert rc == 1
    assert out == '{"cmd":"sat","status":"fail","satisfiable":false}\n'


def test_entail_golden(capsys):
    rc, out = run(
        capsys,
        ["entail", "--premise", "p", "--goal", "half p", "--witness",
         "--cap", "8"],
    )
    assert rc == 0
    assert out == '{"cmd":"entail","status":"ok","valid":true,"m":1}\n'


def test_entail_countermodel(capsys):
    rc, out = run(capsys, ["entail", "--goal", "p"])
    assert rc == 1
    report = json.loads(out)
    assert report["status"] == "fail"
    assert report["valid"] is False
    # entailment checks work cell by cell, so the countermodel is the
    # probe point of the (single) cell rather than a grid point
    assert report["countermodel"] == {"p": "1/2"}


def test_entail_witness_on_a_non_entailment(capsys):
    rc, out = run(capsys, ["entail", "--premise", "(p - q)", "--goal", "p",
                           "--witness", "--cap", "100"])
    assert rc == 1
    assert out == (
        '{"cmd":"entail","status":"fail","valid":false,"m":null,'
        '"countermodel":{"p":"1/2","q":"1/2"}}\n'
    )


def test_entail_witness_walks_the_cells_once(capsys, monkeypatch):
    """One search gives the verdict, the countermodel and m: the goal and
    premises are traversed once and their cells walked once."""
    traversals = test_semantics.count_traversals(monkeypatch)
    walks = []
    iter_cells = branches.CellEnumerator.iter_cells

    def counting(self, term):
        walks.append(term)
        return iter_cells(self, term)

    monkeypatch.setattr(branches.CellEnumerator, "iter_cells", counting)
    for premise, goal, tail in [
        ("p", "half p", '"ok","valid":true,"m":1}'),
        ("(p - q)", "p",
         '"fail","valid":false,"m":null,"countermodel":{"p":"1/2","q":"1/2"}}'),
    ]:
        traversals.clear()
        walks.clear()
        rc, out = run(capsys, ["entail", "--premise", premise, "--goal", goal,
                               "--witness"])
        assert out == '{"cmd":"entail","status":%s\n' % tail
        assert (len(traversals), len(walks)) == (1, 1)


def test_unsat_witness(capsys):
    rc, out = run(
        capsys, ["unsat-witness", "--premise", "p", "--premise", "neg p"]
    )
    assert rc == 0
    assert out == '{"cmd":"unsat-witness","status":"ok","n":1}\n'
    for cap in ("4", "100"):
        rc, out = run(capsys, ["unsat-witness", "--premise", "p", "--cap", cap])
        assert rc == 1
        assert out == '{"cmd":"unsat-witness","status":"fail","n":null}\n'


def test_witness_budget_charges_the_set_only(capsys, monkeypatch):
    # the answers need 64 subtractions of a premise, far past the default
    # budget of 24; the sets themselves have no truncated subtraction
    monkeypatch.delenv("CLOG_BRANCH_BUDGET", raising=False)
    half6 = "half " * 6 + "p"
    rc, out = run(capsys, ["entail", "--premise", half6, "--goal", "p",
                           "--witness", "--cap", "100"])
    assert (rc, out) == (0, '{"cmd":"entail","status":"ok","valid":true,"m":64}\n')
    rc, out = run(capsys, ["unsat-witness", "--premise", half6,
                           "--premise", "neg p", "--cap", "100"])
    assert (rc, out) == (0, '{"cmd":"unsat-witness","status":"ok","n":64}\n')


def test_witness_work_is_bounded_by_the_cells_not_the_cap(capsys):
    cases = [
        (["entail", "--premise", "half " * 10 + "p", "--goal", "p",
          "--witness", "--cap", "1000000000"],
         '{"cmd":"entail","status":"ok","valid":true,"m":1024}\n'),
        (["unsat-witness", "--premise", "half " * 20 + "p",
          "--premise", "neg p", "--cap", "1000000000"],
         '{"cmd":"unsat-witness","status":"ok","n":1048576}\n'),
    ]
    for argv, want in cases:
        started = time.monotonic()
        rc, out = run(capsys, argv)
        assert time.monotonic() - started < 1
        assert (rc, out) == (0, want)


def test_find_and_check_proof(capsys, tmp_path):
    rc, out = run(capsys, ["find-proof", "-e", "(p - p)", "--depth", "9"])
    assert rc == 0
    report = json.loads(out)
    assert report["found"] is True and report["lines"] == 9

    proof_file = tmp_path / "proof.json"
    proof_file.write_text(json.dumps(report["proof"]), encoding="utf-8")
    rc, out = run(capsys, ["check-proof", str(proof_file)])
    assert rc == 0
    assert out == '{"cmd":"check-proof","status":"ok","checked":true,"lines":9}\n'

    broken = list(report["proof"])
    broken[0] = {"formula": "q", "by": "axiom:A1", "subst": {}}
    proof_file.write_text(json.dumps(broken), encoding="utf-8")
    rc, out = run(capsys, ["check-proof", str(proof_file)])
    assert rc == 1
    report = json.loads(out)
    assert report["checked"] is False and report["line"] == 0


def test_find_proof_not_found(capsys):
    rc, out = run(capsys, ["find-proof", "-e", "(p - p)", "--depth", "1"])
    assert rc == 1
    assert out == '{"cmd":"find-proof","status":"fail","found":false,"proof":null}\n'


def test_elim_half_golden(capsys):
    rc, out = run(capsys, ["elim-half", "--goal", "half p"])
    assert rc == 0
    assert out == (
        '{"cmd":"elim-half","status":"ok",'
        '"premises":["((p - Q0) - Q0)","(Q0 - (p - Q0))"],'
        '"goal":"Q0","fresh":{"Q0":"half p"}}\n'
    )


# --- rv -----------------------------------------------------------------------------


def test_rv_check(capsys, tmp_path):
    paths = write_fixtures(tmp_path)
    rc, out = run(capsys, ["rv", "check", str(paths["space"]), "--samples", "6"])
    assert rc == 0
    report = json.loads(out)
    assert report["status"] == "ok"
    assert all(v == "0/1" for v in report["residuals"].values())
    assert list(report["residuals"]) == [
        "RV1", "RV2", "RV3", "RV4.1", "RV4.2", "RV4.3", "RV4.4", "RV4.5",
        "RV4.6", "RV5", "LinearE", "ExpectationDifference",
    ]


def test_rv_arv_defect_golden(capsys, tmp_path):
    paths = write_fixtures(tmp_path)
    rc, out = run(
        capsys, ["rv", "arv-defect", str(paths["ind"]), "--witness"]
    )
    assert rc == 0
    assert out == (
        '{"cmd":"rv arv-defect","status":"ok",'
        '"defect":"1/8","witness":["1/4","0/1"]}\n'
    )


def test_rv_dist_and_joint_golden(capsys, tmp_path):
    paths = write_fixtures(tmp_path)
    rc, out = run(capsys, ["rv", "dist", str(paths["x"]), str(paths["y"])])
    assert rc == 0
    assert out == '{"cmd":"rv dist","status":"ok","d":"1/4"}\n'

    rc, out = run(capsys, ["rv", "joint", str(paths["x"]), str(paths["y"])])
    assert rc == 0
    assert out == (
        '{"cmd":"rv joint","status":"ok","masses":['
        '{"values":["0/1","1/2"],"w":"1/4"},'
        '{"values":["1/2","1/4"],"w":"1/2"},'
        '{"values":["1/1","1/1"],"w":"1/4"}]}\n'
    )


def test_rv_condexp_golden(capsys, tmp_path):
    paths = write_fixtures(tmp_path)
    rc, out = run(
        capsys,
        ["rv", "condexp", str(paths["x"]), "--block", "w1,w2", "--block", "w3"],
    )
    assert rc == 0
    assert out == '{"cmd":"rv condexp","status":"ok","values":["2/3","2/3","0/1"]}\n'


def test_rv_tauphi_golden(capsys, tmp_path):
    paths = write_fixtures(tmp_path)
    rc, out = run(
        capsys,
        ["rv", "tauphi", str(paths["x"]), "--n", "4", "--event", "w1,w2"],
    )
    assert rc == 0
    assert out == (
        '{"cmd":"rv tauphi","status":"ok","n":4,"phi":"1/2",'
        '"integral":"1/2","bound":"1/16","within":true}\n'
    )


def test_rv_tauphi_stage_cap(capsys, tmp_path):
    paths = write_fixtures(tmp_path)
    rc, out = run(
        capsys,
        ["rv", "tauphi", str(paths["x"]), "--n", "17", "--event", "w1"],
    )
    assert rc == 1
    assert "at most %d" % cli.LIMITS["rv tauphi --n"][0] in json.loads(out)["error"]


# --- rand ---------------------------------------------------------------------------


def test_rand_eval_golden(capsys, tmp_path):
    paths = write_fixtures(tmp_path)
    rc, out = run(
        capsys, ["rand", "eval", str(paths["family"]), "-e", "inf q. P(q)"]
    )
    assert rc == 0
    assert out == '{"cmd":"rand eval","status":"ok","values":["1/4","0/1"]}\n'


def test_readme_quick_start(capsys, tmp_path):
    """Each `$ clog` line of the README's first example block prints the
    line shown under it; its Hall instance is the blocked pair."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = next(b for b in re.findall(r"```\n(.*?)```", readme, re.S)
                 if b.startswith("$ clog"))
    examples = re.findall(r"^\$ clog (.*)\n(.*)$", block, re.M)
    assert len(examples) == 4
    instance = str(write_fixtures(tmp_path)["hall_pair"])
    for command, expected in examples:
        argv = [instance if a == "instance.json" else a
                for a in shlex.split(command, comments=True)]
        rc, out = run(capsys, argv)
        assert out == expected + "\n", command
        assert rc == (0 if '"status":"ok"' in expected else 1)


def test_readme_family_example(capsys, tmp_path):
    """The README's random-family example loads exactly as printed, and the
    command shown under it prints the line shown under it."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (example,) = re.findall(r"```json\n(.*?)```", readme, re.S)
    command, expected = re.search(
        r"^\$ clog (rand eval family\.json .*)\n(.*)$", readme, re.M
    ).groups()
    path = tmp_path / "family.json"
    path.write_text(example, encoding="utf-8")
    argv = shlex.split(command)
    argv[argv.index("family.json")] = str(path)
    rc, out = run(capsys, argv)
    assert rc == 0
    assert out == expected + "\n"


def test_rand_axioms(capsys, tmp_path):
    paths = write_fixtures(tmp_path)
    rc, out = run(
        capsys, ["rand", "axioms", str(paths["family"]), "--samples", "4"]
    )
    assert rc == 0
    report = json.loads(out)
    assert list(report["residuals"]) == ["R1_P", "R1_f", "R2", "R3"]
    assert all(v == "0/1" for v in report["residuals"].values())


def test_rand_los_golden(capsys, tmp_path):
    paths = write_fixtures(tmp_path)
    rc, out = run(
        capsys, ["rand", "los", str(paths["family"]), "-e", "sup q. P(q)"]
    )
    assert rc == 0
    assert out == (
        '{"cmd":"rand los","status":"ok","lhs":"7/8","rhs":"7/8","equal":true}\n'
    )
    # Dirac weighting pins the first structure
    rc, out = run(
        capsys,
        ["rand", "los", str(paths["family"]), "-e", "P(x)",
         "--section", "x=u,a", "--weights", "1/1,0/1"],
    )
    assert rc == 0
    assert json.loads(out)["lhs"] == "1/4"


def test_rand_glue_golden(capsys, tmp_path):
    paths = write_fixtures(tmp_path)
    rc, out = run(
        capsys,
        ["rand", "glue", str(paths["family"]), "--event", "w1",
         "--a", "u,c", "--b", "v,a"],
    )
    assert rc == 0
    assert out == '{"cmd":"rand glue","status":"ok","section":["u","a"]}\n'


def test_rand_type_measure_golden(capsys, tmp_path):
    paths = write_fixtures(tmp_path)
    rc, out = run(
        capsys,
        ["rand", "type-measure", str(paths["family"]), "-e", "P(x0)",
         "--section", "u,a", "--section", "v,c"],
    )
    assert rc == 0
    assert out == (
        '{"cmd":"rand type-measure","status":"ok","masses":['
        '{"label":["0/1"],"w":"1/2"},{"label":["1/4"],"w":"1/2"}],'
        '"pairings":["1/8"]}\n'
    )


def test_rand_inf_witness_golden(capsys, tmp_path):
    paths = write_fixtures(tmp_path)
    rc, out = run(
        capsys,
        ["rand", "inf-witness", str(paths["family"]), "-e", "P(q)",
         "--var", "q"],
    )
    assert rc == 0
    assert out == (
        '{"cmd":"rand inf-witness","status":"ok",'
        '"section":["u","a"],"values":["1/4","0/1"]}\n'
    )


# --- hall ---------------------------------------------------------------------------


def test_hall_feasible_golden(capsys, tmp_path):
    paths = write_fixtures(tmp_path)
    rc, out = run(capsys, ["hall", str(paths["hall_ok"])])
    assert rc == 0
    assert out == (
        '{"cmd":"hall","status":"ok","holds":true,"allocation":['
        '{"item":"x","atom":"w1","m":"1/2"},'
        '{"item":"y","atom":"w2","m":"1/2"}],'
        '"realizable":{"x":true,"y":true}}\n'
    )


def test_hall_infeasible_golden(capsys, tmp_path):
    paths = write_fixtures(tmp_path)
    rc, out = run(capsys, ["hall", str(paths["hall_pair"])])
    assert rc == 1
    assert out == (
        '{"cmd":"hall","status":"infeasible","holds":false,'
        '"violating":["x","y"]}\n'
    )


def test_hall_allocation_ignores_string_hashing(tmp_path):
    """Multi-atom events are frozensets, whose order follows the string
    hash seed; the printed allocation must not."""
    sp = rv.FiniteProbSpace.uniform(["a1", "a2", "a3", "a4"])
    inst = hall.HallInstance(sp, [("x", rat(1, 4), ["a1", "a2", "a3"]),
                                  ("y", rat(1, 4), ["a2", "a3", "a4"]),
                                  ("z", rat(1, 4), ["a1", "a4"])])
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(hall.instance_to_json(inst)), encoding="utf-8")
    outs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                   PYTHONHASHSEED=seed)
        outs.append(subprocess.run(
            [sys.executable, "-m", "clog", "hall", str(path)], env=env,
            capture_output=True, check=True).stdout)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["allocation"] == [
        {"item": "x", "atom": "a1", "m": "1/4"},
        {"item": "y", "atom": "a2", "m": "1/4"},
        {"item": "z", "atom": "a4", "m": "1/4"},
    ]


@pytest.mark.parametrize("feasible", [True, False])
def test_hall_answers_at_the_item_cap(capsys, tmp_path, feasible):
    cap = cli.LIMITS["hall items"][0]
    inst, violator = test_hall.planted_instance(
        random.Random(43), cap, 40, feasible)
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(hall.instance_to_json(inst)), encoding="utf-8")
    rc, out = run(capsys, ["hall", str(path)])
    if not feasible:
        assert rc == 1
        assert out == (
            '{"cmd":"hall","status":"infeasible","holds":false,'
            '"violating":%s}\n' % json.dumps(list(violator), separators=(",", ":")))
        return
    assert rc == 0
    report = json.loads(out)
    assert report["status"] == "ok" and report["holds"]
    allocation = hall.allocation_from_json({"masses": report["allocation"]})
    assert hall.verify_allocation(inst, allocation)


# --- plumbing -----------------------------------------------------------------------


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["valid"])  # neither -e nor a file
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["valid", "-e", "p", "somefile"])  # both
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    for argv in [
        ["entail", "--premise", "p", "--goal", "half p", "--witness", "--cap", "-2"],
        ["unsat-witness", "--premise", "p", "--cap", "-1"],
        ["find-proof", "-e", "p", "--depth", "-1"],
        ["rv", "check", "space.json", "--samples", "-1"],
        ["rand", "axioms", "family.json", "--samples", "-3"],
        ["hall", "instance.json", "--bound", "5"],  # no such option
    ]:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    capsys.readouterr()


def test_domain_errors_exit_1(capsys, tmp_path):
    rc, out = run(capsys, ["valid", "-e", "((("])
    assert rc == 1
    report = json.loads(out)
    assert report["status"] == "fail" and "error" in report

    rc, out = run(capsys, ["rv", "dist", "/nonexistent.json", "/also-not.json"])
    assert rc == 1
    assert "error" in json.loads(out)

    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    rc, out = run(capsys, ["hall", str(bad)])
    assert rc == 1
    assert "error" in json.loads(out)

    # a JSON number where a "p/q" string belongs
    floats = tmp_path / "floats.json"
    floats.write_text('{"atoms": [{"id": "a", "w": 0.5}, {"id": "b", "w": "1/2"}]}',
                      encoding="utf-8")
    rc, out = run(capsys, ["rv", "check", str(floats)])
    assert rc == 1
    assert "error" in json.loads(out)



#: The error of each LIMITS entry, pinned byte for byte.
LIMIT_ERRORS = {
    "rv tauphi --n": "--n is at most 16 (the stage loops 2^n times)",
    "rv check --samples": "--samples is at most 24 (the check is cubic in it)",
    "rv arv-defect atoms": "rv arv-defect takes at most 5 atoms "
                           "(the search grows about 4.5x per atom)",
    "rand axioms --samples": "--samples is at most 128 "
                             "(the check is quadratic in it)",
    "rand axioms atoms": "rand axioms takes at most 5 atoms "
                         "(R3 checks all 2^n events per sample pair)",
    "hall items": "hall takes at most 200 items "
                  "(pinning the least violator takes up to n + 1 min-cuts)",
    "rand cells": "a formula's tables may hold at most 250000 cells "
                  "(a subformula's table has a cell per value of its free variables)",
}


def three_point_family_file(tmp_path, atoms):
    """A family JSON file of `atoms` copies of one 3-element structure."""
    path = tmp_path / ("family_%d.json" % atoms)
    path.write_text(json.dumps(randomisation.family_to_json(
        randomisation.RandomFamily(
            rv.FiniteProbSpace.uniform(["w%d" % i for i in range(atoms)]),
            test_randomisation.two_point_family().structures[1:] * atoms))),
        encoding="utf-8")
    return path


def test_every_limit_is_enforced_and_documented(capsys, tmp_path):
    """One over each cap exits 1 with its entry's error, and README's
    command table states the cap."""
    paths = write_fixtures(tmp_path)

    def over(name):
        return cli.LIMITS[name][0] + 1

    rv_file = tmp_path / "rv.json"
    atoms = ["a%d" % i for i in range(over("rv arv-defect atoms"))]
    rv_file.write_text(json.dumps(rv.rv_to_json(rv.RandomVariable(
        rv.FiniteProbSpace.uniform(atoms), [rat(i, 5) for i in range(len(atoms))]))),
        encoding="utf-8")
    family_file = tmp_path / "wide_family.json"
    atoms = ["w%d" % i for i in range(over("rand axioms atoms"))]
    family_file.write_text(json.dumps(randomisation.family_to_json(
        randomisation.RandomFamily(
            rv.FiniteProbSpace.uniform(atoms),
            test_randomisation.two_point_family().structures[:1] * len(atoms)))),
        encoding="utf-8")
    hall_file = tmp_path / "big_instance.json"
    inst, _ = test_hall.planted_instance(
        random.Random(43), over("hall items"), 40, False)
    hall_file.write_text(json.dumps(hall.instance_to_json(inst)), encoding="utf-8")
    argvs = {
        "rv tauphi --n": ["rv", "tauphi", str(paths["x"]), "--event", "w1",
                          "--n", str(over("rv tauphi --n"))],
        "rv check --samples": ["rv", "check", str(paths["space"]), "--samples",
                               str(over("rv check --samples"))],
        "rv arv-defect atoms": ["rv", "arv-defect", str(rv_file)],
        "rand axioms --samples": ["rand", "axioms", str(paths["family"]),
                                  "--samples", str(over("rand axioms --samples"))],
        "rand axioms atoms": ["rand", "axioms", str(family_file)],
        "hall items": ["hall", str(hall_file)],
        # 6,561 sections: the section route would tabulate 6,561^2 vectors
        "rand cells": ["rand", "los", str(three_point_family_file(tmp_path, 8)),
                       "-e", "sup z. inf y. d(z, y)"],
    }
    assert set(argvs) == set(cli.LIMITS) == set(LIMIT_ERRORS)
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    rows = [line for line in readme.splitlines()
            if line.startswith("| `")]
    for name, (cap, reason, text) in cli.LIMITS.items():
        started = time.monotonic()
        rc, out = run(capsys, argvs[name])
        assert time.monotonic() - started < 1, name
        assert rc == 1, name
        assert json.loads(out)["error"] == text % (cap, reason) == LIMIT_ERRORS[name]
        *command, what = name.split()
        (row,) = [r for r in rows if r.startswith("| `" + command[0])]
        assert command[-1] in row, name
        if what.startswith("--"):
            assert "`%s %s` is at most %d" % (command[-1], what, cap) in row, name
        else:
            assert "at most %d %s" % (cap, what) in row, name


def chained_sups(n):
    """sup v0. ... sup v(n-1). (((P(v0) - P(v1)) - ...) - P(v(n-1)))"""
    body = "P(v0)"
    for i in range(1, n):
        body = "(%s - P(v%d))" % (body, i)
    return "".join("sup v%d. " % i for i in range(n)) + body


def test_rand_cells_cap_per_command(capsys, tmp_path):
    """`los` checks both routes' table sizes; `eval`, `inf-witness` and
    `type-measure` (its formulas together) check the pointwise route's."""
    cap, reason, text = cli.LIMITS["rand cells"]
    error = text % (cap, reason)
    wide = str(three_point_family_file(tmp_path, 8))
    one = str(three_point_family_file(tmp_path, 1))
    fam = randomisation.family_from_json(
        json.loads(Path(one).read_text(encoding="utf-8")))
    small, big = (syntax.parse_lformula(chained_sups(n)) for n in (10, 11))
    sizes = [randomisation.table_sizes(phi, {}, fam) for phi in (small, big)]
    assert 2 * sizes[0][1] <= cap < 3 * sizes[0][1] and sizes[1][1] > cap
    argvs = [
        ["rand", "los", wide, "-e", "sup z. inf y. d(z, y)"],
        ["rand", "eval", one, "-e", chained_sups(11)],
        ["rand", "inf-witness", one, "--var", "y", "-e", chained_sups(11)],
        ["rand", "type-measure", one, "--section", "a"]
        + ["-e", chained_sups(10)] * 3,
    ]
    for argv in argvs:
        started = time.monotonic()
        rc, out = run(capsys, argv)
        assert time.monotonic() - started < 1, argv
        assert (rc, json.loads(out)["error"]) == (1, error), argv
    # the section route alone is over the cap: the pointwise commands answer
    rc, out = run(capsys, ["rand", "eval", wide, "-e", "sup z. inf y. d(z, y)"])
    assert (rc, out) == (0, '{"cmd":"rand eval","status":"ok","values":[%s]}\n'
                         % ",".join(['"0/1"'] * 8))
    rc, out = run(capsys, ["rand", "type-measure", one, "--section", "a"]
                  + ["-e", "P(x0)"] * 2)
    assert rc == 0


def cli_texts(argv):
    """main(argv)'s exit code, stdout and stderr, usage errors included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as e:
            rc = e.code
    return rc, out.getvalue(), err.getvalue()


def test_parser_builds_only_the_command_that_runs(monkeypatch):
    """Every usage, help and invalid-choice text is the one a parser with
    every command built gives, while only the running command is built."""
    monkeypatch.setenv("COLUMNS", "80")
    built = []

    def counting(runs, **kwargs):
        built.append((kwargs["prog"].split()[1:], runs))
        return lazy(runs, **kwargs)

    def full(runs, **kwargs):
        return argparse.ArgumentParser(**kwargs)

    def choices(group):  # the commands an invalid choice lists
        return re.findall(r"[a-z][a-z-]*",
                          cli_texts(group + ["nope"])[2].split("choose from")[1])

    lazy = cli._subparser
    paths = [[name] for name in choices([]) if name not in ("rv", "rand")]
    paths += [[group, name] for group in ("rv", "rand") for name in choices([group])]
    assert len(paths) == 20
    argvs = [[], ["-h"], ["nope"], ["rv"], ["rand", "-h"], ["rand", "nope"],
             ["valid", "-e", "p"], ["valid", "-e", "p", "--bogus"], ["sat", "-e", "rand"]]
    for path in paths:
        argvs += [path + ["-h"], path, path + ["--bogus"]]
    for argv in argvs:
        monkeypatch.setattr(cli, "_subparser", full)
        want = cli_texts(argv)
        monkeypatch.setattr(cli, "_subparser", counting)
        built.clear()
        assert cli_texts(argv) == want, argv
        # a command gets its parser exactly when argv starts with its path
        assert all(runs == (argv[:len(path)] == path) for path, runs in built), argv
        assert len(built) == 10 + 6 * (argv[:1] in (["rv"], ["rand"])), argv


def test_the_table_builds_the_parser_by_hand(monkeypatch, tmp_path):
    """The parser built from cli.COMMANDS gives oracles.parser_by_hand's
    usage, help and error texts and exit codes on every command path and
    group, and its parsed arguments (defaults, types, handler and echo) on
    two well-formed argvs per command, one with every option given and one
    with only the required ones.  README's command table names exactly
    the table's paths."""
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)
    files = write_fixtures(tmp_path)
    paths = [list(path) for path in command_paths()]
    assert len(paths) == 20
    argvs = []
    for path in [[], ["rv"], ["rand"]] + paths:
        argvs += [path + ["-h"], path, path + ["--bogus"], path + ["nope"],
                  path + ["-1"], path + ["--"]]
    for path in paths:  # every option given, and only the required ones
        for argv in well_formed(path, files), well_formed(path, files, False):
            argvs.append(argv)
            got = cli._build_parser(argv).parse_args(argv)
            want = oracles.parser_by_hand(argv).parse_args(argv)
            assert vars(got) == vars(want), argv
            assert got.echo == " ".join(path), argv
    for argv in argvs:
        got = cli_texts(argv)
        with monkeypatch.context() as m:
            m.setattr(cli, "_build_parser", oracles.parser_by_hand)
            assert cli_texts(argv) == got, argv
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    named = []
    for row in readme.splitlines():
        if row.startswith("| `"):
            words = row[3:row.index("`", 3)].split()
            subcommands = [None]
            if len(words) > 1 and words[1][0] not in "[-":
                subcommands = words[1].split("\\|")
            named += [" ".join(filter(None, (words[0], s))) for s in subcommands]
    assert sorted(named) == sorted(" ".join(path) for path in paths)


def test_branch_budget_env(capsys, monkeypatch):
    text = "p"
    for _ in range(29):
        text = "(%s - p)" % text
    monkeypatch.setenv("CLOG_BRANCH_BUDGET", "3")
    rc, out = run(capsys, ["valid", "-e", text])
    assert rc == 1
    assert "budget" in json.loads(out)["error"]
    # 0 or negative lifts the cap
    monkeypatch.setenv("CLOG_BRANCH_BUDGET", "0")
    rc, out = run(capsys, ["valid", "-e", text])
    assert rc == 0
    monkeypatch.setenv("CLOG_BRANCH_BUDGET", "three")
    rc, out = run(capsys, ["valid", "-e", "p"])
    assert rc == 1
    assert "CLOG_BRANCH_BUDGET" in json.loads(out)["error"]


def test_face_chain_is_one_cell(capsys):
    """((0 - a0) - a1) ... - a15 is 0 on the whole box; the positive side of
    each split is only a face of it, and the search is no longer 2^16
    cells long (16 atoms, so the grid pre-pass does not run either)."""
    text = "0"
    for j in range(16):
        text = "(%s - a%d)" % (text, j)
    started = time.monotonic()
    rc, out = run(capsys, ["valid", "-e", text])
    assert time.monotonic() - started < 5
    assert (rc, out) == (0, '{"cmd":"valid","status":"ok","valid":true}\n')


def test_deeply_nested_formulas(capsys, tmp_path):
    """Propositional formulas nest to any depth: an answer with its
    countermodel, or the branch-budget error, each well within 10 s."""
    cases = [
        ("neg " * 100_000 + "p", '"countermodel":{"p":"1/8"},"value":"1/8"}'),
        ("neg " * 100_001 + "p", '"countermodel":{"p":"0/1"},"value":"1/1"}'),
        ("half " * 10_000 + "p",
         '"countermodel":{"p":"1/2"},"value":"1/%d"}' % 2**10_001),
        ("(" * 100_000 + "p" + " - q)" * 100_000,
         '"error":"formula set has 100000 branching nodes, budget is 24"}'),
    ]
    for text, tail in cases:
        started = time.monotonic()
        rc, out = run(capsys, ["valid", "-e", text])
        assert time.monotonic() - started < 10
        assert rc == 1
        assert out.startswith('{"cmd":"valid","status":"fail",')
        assert out.endswith(tail + "\n")


def test_cell_search_beyond_the_stack(capsys, monkeypatch):
    """With the budget lifted, the 10,000-split chain ((0 - a0) - a1) ...
    - a9999 reaches the cell search, which nests to any depth: valid,
    well within 10 s."""
    monkeypatch.setenv("CLOG_BRANCH_BUDGET", "0")
    text = "(" * 10_000 + "0" + "".join(" - a%d)" % i for i in range(10_000))
    started = time.monotonic()
    rc, out = run(capsys, ["valid", "-e", text])
    assert time.monotonic() - started < 10
    assert (rc, out) == (0, '{"cmd":"valid","status":"ok","valid":true}\n')


def test_first_order_nesting_beyond_the_stack(capsys, tmp_path):
    """First-order formulas nest to any depth: both routes answer on 5,000
    nested `neg`, each run well within 10 s."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (example,) = re.findall(r"```json\n(.*?)```", readme, re.S)
    family = tmp_path / "family.json"
    family.write_text(example, encoding="utf-8")
    cases = [
        (["rand", "eval"], 5000, '"values":["1/4","1/2"]}'),
        (["rand", "eval"], 5001, '"values":["3/4","1/2"]}'),
        (["rand", "los"], 5000, '"lhs":"3/8","rhs":"3/8","equal":true}'),
    ]
    for cmd, depth, tail in cases:
        started = time.monotonic()
        rc, out = run(
            capsys, cmd + [str(family), "-e", "neg " * depth + "inf x. P(x)"])
        assert time.monotonic() - started < 10
        assert rc == 0
        assert out == '{"cmd":"%s","status":"ok",%s\n' % (" ".join(cmd), tail)


def test_json_nested_beyond_the_stack(capsys, tmp_path):
    """JSON files are still read recursively: one nested past the stack is
    one clean error line."""
    family = tmp_path / "family.json"
    family.write_text("[" * 100_000, encoding="utf-8")
    rc, out = run(capsys, ["rand", "eval", str(family), "-e", "inf x. P(x)"])
    assert rc == 1
    assert out.count("\n") == 1
    report = json.loads(out)
    assert report["status"] == "fail" and "recursion" in report["error"]


def test_reports_start_with_cmd_and_status(capsys, tmp_path):
    paths = write_fixtures(tmp_path)
    for argv in [
        ["valid", "-e", "p"],
        ["sat", "-e", "p"],
        ["rv", "dist", str(paths["x"]), str(paths["y"])],
        ["hall", str(paths["hall_pair"])],
        ["rand", "eval", str(paths["family"]), "-e", "P(x)",
         "--section", "x=u,a"],
    ]:
        run_rc, out = run(capsys, argv)
        report = json.loads(out)
        assert list(report)[:2] == ["cmd", "status"]
        assert report["status"] in ("ok", "fail", "infeasible")
        assert (run_rc == 0) == (report["status"] == "ok")


def _loaded_by(*argvs):
    """Run the commands in one fresh interpreter: their output lines, and
    the modules that importing clog.cli and running them loaded."""
    code = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "from clog.cli import main\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    main(argv)\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("CLOG_BRANCH_BUDGET", None)
    out = subprocess.run(
        [sys.executable, "-c", code, json.dumps(argvs)], env=env,
        capture_output=True, encoding="utf-8", check=True,
    ).stdout.splitlines()
    return out[:-1], set(json.loads(out[-1]))


def test_valid_imports_only_the_standard_library(tmp_path):
    """Each subcommand loads only the library modules it runs."""
    out, new = _loaded_by(
        ["valid", "-e", "p"], ["sat", "-e", "p"],
        ["entail", "--premise", "p", "--goal", "half p", "--witness"])
    assert out == [
        '{"cmd":"valid","status":"fail","valid":false,'
        '"countermodel":{"p":"1/8"},"value":"1/8"}',
        '{"cmd":"sat","status":"ok","satisfiable":true}',
        '{"cmd":"entail","status":"ok","valid":true,"m":1}',
    ]
    outside = {m.split(".")[0] for m in new} - set(sys.stdlib_module_names)
    assert outside == {"clog"}
    assert not new & {"clog.rv", "clog.hall", "clog.randomisation",
                      "clog.proofs", "dataclasses"}

    paths = write_fixtures(tmp_path)
    out, new = _loaded_by(["hall", str(paths["hall_pair"])])
    assert out == ['{"cmd":"hall","status":"infeasible","holds":false,'
                   '"violating":["x","y"]}']
    assert not new & {"clog.semantics", "clog.kernel", "clog.branches",
                      "clog.simplex", "clog.proofs", "clog.randomisation",
                      "clog.syntax"}

    out, new = _loaded_by(["rv", "dist", str(paths["x"]), str(paths["y"])])
    assert out == ['{"cmd":"rv dist","status":"ok","d":"1/4"}']
    assert {m for m in new if m.startswith("clog")} == {
        "clog", "clog.cli", "clog.rationals", "clog.rv"}

    out, new = _loaded_by(["find-proof", "-e", "(p - p)", "--depth", "9"])
    assert json.loads(out[0])["lines"] == 9
    cli_own = {"clog", "clog.cli", "clog.rationals"}
    assert {m for m in new if m.startswith("clog")} - cli_own == {
        "clog.proofs", "clog.syntax"}


def test_a_grid_refutation_loads_no_cell_layer():
    """`valid -e p` is refuted by the integer grid pre-pass, so neither the
    cell search nor the simplex is imported."""
    out, new = _loaded_by(["valid", "-e", "p"])
    assert out == ['{"cmd":"valid","status":"fail","valid":false,'
                   '"countermodel":{"p":"1/8"},"value":"1/8"}']
    assert "clog.semantics" in new
    assert not new & {"clog.branches", "clog.simplex"}


def test_the_benchmark_mix_runs_clean_under_encoding_warnings(
        tmp_path, monkeypatch):
    """Every command of the benchmark's command mix, each in its own
    process with EncodingWarning on and raised as an error: the pinned line
    and exit code, and nothing on stderr.  A file read in the locale's
    encoding fails here."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import workloads

    for name, data in workloads.Cli.fixed_inputs.items():
        (tmp_path / name).write_text(json.dumps(data), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONWARNDEFAULTENCODING="1",
               PYTHONWARNINGS="error::EncodingWarning")
    env.pop("CLOG_BRANCH_BUDGET", None)
    for argv, line, code in workloads.CLI_MIX:
        argv = [str(tmp_path / a[1:-1]) if a.startswith("{") else a
                for a in argv]
        done = subprocess.run([sys.executable, "-m", "clog", *argv], env=env,
                              capture_output=True, encoding="utf-8")
        assert (done.stdout.splitlines(), done.returncode, done.stderr) == (
            [line], code, ""), argv

