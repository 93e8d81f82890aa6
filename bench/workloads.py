"""The four workloads: how each prepares its inputs, runs one item, and
checks the answer.

clog is imported inside `prepare`, never at module level, so that the
benchmark's set-up time includes the program's imports.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import checks
import inputs


class Decide:
    """Formula texts parsed with syntax.parse_formula, then decided by
    is_valid, entails_semantic + entails_witness, or is_satisfiable."""

    pool_blocks = 1000

    def generate(self, seed, n_blocks):
        return inputs.decide_blocks(seed, n_blocks)

    def warm_item(self, block):
        """An axiom instance: grid sweep (with numpy's import), cells and
        the simplex all run."""
        return next(item for item in block if item["kind"] == "axiom")

    def prepare(self, blocks):
        from clog import semantics, syntax

        self.syntax = syntax
        self.semantics = semantics
        out = []
        for block in blocks:
            prepared = []
            for item in block:
                if item["kind"] == "entail":
                    texts = [inputs.text(p) for p in item["premises"]]
                    texts.append(inputs.text(item["goal"]))
                elif item["kind"] == "sat":
                    texts = [inputs.text(f) for f in item["fs"]]
                else:
                    texts = [inputs.text(item["f"])]
                prepared.append((item, texts))
            out.append(prepared)
        return out

    def run(self, prepared):
        item, texts = prepared
        formulas = [self.syntax.parse_formula(t) for t in texts]
        kind = item["kind"]
        if kind == "entail":
            premises, goal = formulas[:-1], formulas[-1]
            verdict = self.semantics.entails_semantic(premises, goal)
            m = self.semantics.entails_witness(
                premises, goal, cap=inputs.WITNESS_CAP)
            return verdict, m
        if kind == "sat":
            return self.semantics.is_satisfiable(formulas)
        return self.semantics.is_valid(formulas[0])

    def check(self, prepared, answer):
        return checks.check_decide(prepared[0], answer)


class Sections:
    """randomisation.los_check on seeded families with a bound section, so
    both the section route and the pointwise route run."""

    pool_blocks = 80

    def generate(self, seed, n_blocks):
        return inputs.sections_blocks(seed, n_blocks)

    def warm_item(self, block):
        """A quantifier-free formula: both routes run, briefly."""
        return next(item for item in block
                    if inputs.quantifier_count(item["f"]) == 0)

    def prepare(self, blocks):
        from clog import randomisation, rv, syntax

        self.randomisation = randomisation
        signature = syntax.Signature(predicates={"P": [1]})
        families = {}
        out = []
        for block in blocks:
            prepared = []
            for item in block:
                key = id(item["family"])
                family = families.get(key)
                if family is None:
                    data = item["family"]
                    space = rv.FiniteProbSpace(
                        [("w%d" % i, w) for i, w in enumerate(data["weights"])])
                    structures = [
                        randomisation.FiniteLStructure(
                            signature, s["universe"],
                            predicates={"P": {(u,): v for u, v in
                                              zip(s["universe"], s["P"])}},
                            metric=s["metric"])
                        for s in data["structures"]
                    ]
                    family = families[key] = randomisation.RandomFamily(
                        space, structures)
                section = randomisation.Section(family, item["section"])
                formula = syntax.parse_lformula(inputs.text(item["f"]))
                prepared.append((item, formula, {"x": section}, family))
            out.append(prepared)
        return out

    def run(self, prepared):
        _, formula, env, family = prepared
        return self.randomisation.los_check(formula, env, family)

    def check(self, prepared, answer):
        return checks.check_sections(prepared[0], answer)


class Hall:
    """hall_condition, solve_allocation and verify_allocation per instance."""

    pool_blocks = 50

    def generate(self, seed, n_blocks):
        return inputs.hall_blocks(seed, n_blocks)

    def warm_item(self, block):
        """The smallest instance."""
        return min(block, key=lambda item: len(item["items"]))

    def prepare(self, blocks):
        from clog import hall, rv

        self.hall = hall
        out = []
        for block in blocks:
            prepared = []
            for item in block:
                space = rv.FiniteProbSpace(
                    [(a["id"], a["w"]) for a in item["atoms"]])
                instance = hall.HallInstance(
                    space, [(x["id"], x["w"], x["C"]) for x in item["items"]])
                prepared.append((item, instance))
            out.append(prepared)
        return out

    def run(self, prepared):
        _, instance = prepared
        hall = self.hall
        holds, violating = hall.hall_condition(instance)
        allocation = hall.solve_allocation(instance)
        if allocation is None:
            return holds, violating, None, None
        verified = hall.verify_allocation(instance, allocation)
        return holds, violating, dict(allocation.masses), verified

    def check(self, prepared, answer):
        return checks.check_hall(prepared[0], answer)


# --- cli ----------------------------------------------------------------------------

_SPACE = {"atoms": [{"id": "w1", "w": "1/2"}, {"id": "w2", "w": "1/4"},
                    {"id": "w3", "w": "1/4"}]}
_HALF_HALF = {"atoms": [{"id": "w1", "w": "1/2"}, {"id": "w2", "w": "1/2"}]}
_FILES = {
    "x.json": {"space": _SPACE, "values": ["1/2", "1/1", "0/1"]},
    "y.json": {"space": _SPACE, "values": ["1/4", "1/1", "1/2"]},
    "ind.json": {"space": {"atoms": [{"id": "a", "w": "1/2"},
                                     {"id": "b", "w": "1/2"}]},
                 "values": ["1/1", "0/1"]},
    "family.json": {
        "space": {"atoms": [{"id": "w1", "w": "1/2"}, {"id": "w2", "w": "1/2"}]},
        "signature": {"functions": {}, "predicates": {"P": ["1/1"]}},
        "structures": [
            {"universe": ["u", "v"], "pred": {"P": ["1/4", "3/4"]}, "func": {},
             "metric": [["0/1", "1/2"], ["1/2", "0/1"]]},
            {"universe": ["a", "b", "c"], "pred": {"P": ["0/1", "1/2", "1/1"]},
             "func": {},
             "metric": [["0/1", "1/2", "1/1"], ["1/2", "0/1", "1/2"],
                        ["1/1", "1/2", "0/1"]]},
        ],
    },
    "hall_ok.json": {"space": _HALF_HALF, "items": [
        {"id": "x", "w": "1/2", "C": ["w1"]}, {"id": "y", "w": "1/2", "C": ["w2"]}]},
    "hall_pair.json": {"space": _HALF_HALF, "items": [
        {"id": "x", "w": "1/2", "C": ["w1"]}, {"id": "y", "w": "1/4", "C": ["w1"]}]},
}

#: The command mix: argv after `python -m clog`, the exact line it must
#: print and its exit code.  The expected lines are the ones the
#: repository's own command-line tests pin, or follow from the inputs by
#: hand (an axiom A2 instance is valid; p and neg p have no common zero;
#: find-proof prints the 9-line derivation of (p - p) shipped in
#: clog/data/monus_self.json).
CLI_MIX = (
    (["valid", "-e", "( (p - q) - p )"],
     '{"cmd":"valid","status":"ok","valid":true}', 0),
    (["valid", "-e", "(((r - p) - (r - q)) - (q - p))"],
     '{"cmd":"valid","status":"ok","valid":true}', 0),
    (["valid", "-e", "p"],
     '{"cmd":"valid","status":"fail","valid":false,"countermodel":{"p":"1/8"},'
     '"value":"1/8"}', 1),
    (["sat", "-e", "p", "-e", "(half q - p)"],
     '{"cmd":"sat","status":"ok","satisfiable":true}', 0),
    (["sat", "-e", "p", "-e", "neg p"],
     '{"cmd":"sat","status":"fail","satisfiable":false}', 1),
    (["entail", "--premise", "p", "--goal", "half p", "--witness", "--cap", "8"],
     '{"cmd":"entail","status":"ok","valid":true,"m":1}', 0),
    (["hall", "{hall_ok.json}"],
     '{"cmd":"hall","status":"ok","holds":true,"allocation":['
     '{"item":"x","atom":"w1","m":"1/2"},{"item":"y","atom":"w2","m":"1/2"}],'
     '"realizable":{"x":true,"y":true}}', 0),
    (["hall", "{hall_pair.json}"],
     '{"cmd":"hall","status":"infeasible","holds":false,"violating":["x","y"]}', 1),
    (["rand", "los", "{family.json}", "-e", "sup q. P(q)"],
     '{"cmd":"rand los","status":"ok","lhs":"7/8","rhs":"7/8","equal":true}', 0),
    (["rand", "eval", "{family.json}", "-e", "inf q. P(q)"],
     '{"cmd":"rand eval","status":"ok","values":["1/4","0/1"]}', 0),
    (["rv", "arv-defect", "{ind.json}", "--witness"],
     '{"cmd":"rv arv-defect","status":"ok","defect":"1/8","witness":["1/4","0/1"]}',
     0),
    (["rv", "dist", "{x.json}", "{y.json}"],
     '{"cmd":"rv dist","status":"ok","d":"1/4"}', 0),
    (["find-proof", "-e", "(p - p)", "--depth", "9"],
     '{"cmd":"find-proof","status":"ok","found":true,"lines":9,"proof":[{"formula":"((p - p) - p)",'
     '"by":"axiom:A1","subst":{"phi":"p","psi":"p"}},{"formula":"((((p - p) - p) - (((p - p) - p) - p)) - ((p - p) - p))",'
     '"by":"axiom:A1","subst":{"phi":"((p - p) - p)","psi":"(((p - p) - p) - p)"}},'
     '{"formula":"(((p - p) - p) - (((p - p) - p) - p))","by":"mp:0,1"},{"formula":"((p - (p - ((p - p) - p))) - (((p - p) - p) - (((p - p) - p) - p)))",'
     '"by":"axiom:A3","subst":{"phi":"p","psi":"((p - p) - p)"}},{"formula":"(p - (p - ((p - p) - p)))",'
     '"by":"mp:2,3"},{"formula":"((p - ((p - p) - p)) - p)","by":"axiom:A1",'
     '"subst":{"phi":"p","psi":"((p - p) - p)"}},{"formula":"(((p - p) - (p - (p - ((p - p) - p)))) - ((p - ((p - p) - p)) - p))",'
     '"by":"axiom:A2","subst":{"phi":"p","psi":"(p - ((p - p) - p))","rho":"p"}},'
     '{"formula":"((p - p) - (p - (p - ((p - p) - p))))","by":"mp:5,6"},{"formula":"(p - p)",'
     '"by":"mp:4,7"}]}', 0),
)


class Cli:
    """Sequential `python -m clog ...` processes over a fixed command mix,
    in a seeded order; each block runs every command once.

    With `child` set to "plain" or "traced", each command runs under
    cli_child.py instead, which reports its import and main() times (and
    spans); `reports` collects them and `rss_kib` each process's peak RSS.
    """

    pool_blocks = 12
    fixed_inputs = _FILES

    def __init__(self, root):
        self.root = Path(root)
        self.env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        self.env.pop("CLOG_BRANCH_BUDGET", None)
        self.workdir = None
        self.child = None
        self.reports = []
        self.rss_kib = []

    def generate(self, seed, n_blocks):
        rng = random.Random("cli:%d" % seed)
        blocks = []
        for _ in range(n_blocks):
            order = list(range(len(CLI_MIX)))
            rng.shuffle(order)
            blocks.append([{"argv": CLI_MIX[i][0], "expected": CLI_MIX[i][1],
                            "rc": CLI_MIX[i][2]} for i in order])
        return blocks

    def warm_item(self, block):
        """The first command of the mix, `valid`, which imports numpy."""
        return next(item for item in block if item["argv"] == CLI_MIX[0][0])

    def prepare(self, blocks):
        self.workdir = self.root / ".bench_work" / ("cli-%d" % os.getpid())
        self.workdir.mkdir(parents=True, exist_ok=True)
        for name, data in _FILES.items():
            (self.workdir / name).write_text(json.dumps(data), encoding="utf-8")
        out = []
        for block in blocks:
            prepared = []
            for item in block:
                argv = [str(self.workdir / a[1:-1]) if a.startswith("{") else a
                        for a in item["argv"]]
                prepared.append((item, argv))
            out.append(prepared)
        return out

    def command(self, argv):
        if self.child is None:
            return [sys.executable, "-m", "clog"] + argv
        return [sys.executable, str(Path(__file__).with_name("cli_child.py")),
                str(self.workdir / "report.json"), self.child, "--"] + argv

    def spawn(self, cmd):
        """Run one process to the end: (stdout, exit code, max RSS in KiB)."""
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL, env=self.env,
                                cwd=str(self.root))
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return out.decode("utf-8", "replace"), proc.returncode, usage.ru_maxrss

    def run(self, prepared):
        item, argv = prepared
        out, rc, rss = self.spawn(self.command(argv))
        self.rss_kib.append(rss)
        if self.child is not None:
            report = self.workdir / "report.json"
            self.reports.append(json.loads(report.read_text(encoding="utf-8")))
            report.unlink()
        return out, rc

    def check(self, prepared, answer):
        item, _ = prepared
        out, rc = answer
        lines = out.split("\n")
        if len(lines) != 2 or lines[1] != "" or rc != item["rc"]:
            return False
        return lines[0] == item["expected"]

    def cleanup(self):
        if self.workdir is not None:
            for p in self.workdir.iterdir():
                p.unlink()
            self.workdir.rmdir()
            try:
                self.workdir.parent.rmdir()
            except OSError:
                pass


def make(name, root):
    if name == "decide":
        return Decide()
    if name == "sections":
        return Sections()
    if name == "hall":
        return Hall()
    if name == "cli":
        return Cli(root)
    raise ValueError("unknown workload %r" % (name,))


WORKLOADS = ("decide", "sections", "hall", "cli")
