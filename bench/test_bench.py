"""Tests of the benchmark itself: python3 -m pytest bench -q"""

import json
import subprocess
import sys

import pytest

import inputs
import run
import workloads

sys.path.insert(0, str(run.SRC))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke(name, trace):
    """One block of each workload through the command line; the last line
    is the result object with every metric of the mode."""
    out = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", name,
         "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        cwd=str(run.ROOT), stdout=subprocess.PIPE, check=True, timeout=300,
    ).stdout.decode()
    details, result = (json.loads(line) for line in out.splitlines()[-2:])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == details["items"] >= 1
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_inputs(name):
    w = workloads.make(name, run.ROOT)
    first = inputs.digest(w.generate(5, 3))
    assert first == inputs.digest(w.generate(5, 3))
    assert first != inputs.digest(w.generate(6, 3))


def _one_block_failures(name, patch):
    w, blocks, _, _ = run.setup(name, 1)
    try:
        patch(w)
        _, lat, _, failed, _ = run.timed_phase(w, blocks, count=1)
        return failed, len(lat)
    finally:
        if name == "cli":
            w.cleanup()


WRONG_ANSWERS = {
    "decide": lambda w, mp: mp.setattr(w.semantics, "is_valid",
                                       lambda f, budget=None: (True, None)),
    "sections": lambda w, mp: mp.setattr(w.randomisation, "los_check",
                                         lambda *a: (0, 0, True)),
    "hall": lambda w, mp: mp.setattr(w.hall, "hall_condition",
                                     lambda inst: (True, None)),
    # a budget of one branching node turns most valid commands into errors
    "cli": lambda w, mp: mp.setitem(w.env, "CLOG_BRANCH_BUDGET", "1"),
}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_wrong_answer_counts_as_failed(name, monkeypatch):
    failed, attempted = _one_block_failures(name, lambda w: None)
    assert failed == 0
    failed, attempted = _one_block_failures(
        name, lambda w: WRONG_ANSWERS[name](w, monkeypatch))
    assert 0 < failed <= attempted
