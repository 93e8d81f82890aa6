"""Seeded end-to-end benchmark for clog.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: it imports clog from ./src (there is
nothing to build) and exits with code 2 when the sources are missing.

Workloads (inputs.py makes their inputs from the seed, workloads.py runs
them):

  decide    formula texts parsed, then decided: validity of random formulas
            and of axiom instances, entailment with a witness, satisfiability
  sections  randomisation.los_check on seeded random families, so both the
            section route and the pointwise route run
  hall      Hall's condition, the max-flow allocation and its verification
  cli       one `python -m clog` process per command over a fixed mix

One caller drives each workload in a closed loop: the next item starts when
the previous one has returned.  The timed phase runs whole blocks (a fixed
mix of items) until the items have taken --seconds.  After each block,
outside the timing, checks.py checks every answer; an item that raised or
failed its check counts as failed.

With --trace 0 the metrics are end to end: setup_s (imports, input
generation and one warm-up call; the median of three set-ups, two of them
in fresh processes), items_per_s (items over the sum of their times),
item_ms_p50, item_ms_p90 and peak_rss_mb (of this process, or for cli the
largest command process).  Times are scaled to a nominal processor speed:
the process and its children share one core, a fixed reference loop of the
benchmark's own code is timed on it between items, and each item's time is
multiplied by REFERENCE_NOMINAL_S over the reference time around it.  The
speed of a core of a shared host drifts by tens of percent for seconds at a
time; the scaled times do not.  The unscaled figures are in the details.

With --trace 1 the timed phase runs untraced, then the next as many blocks
with spans.py's wrappers installed, and the metrics are per layer (unscaled
span totals and counts), plus trace.overhead_s (traced minus untraced
phase).  The spans go to .bench_out/.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The line before it gives the details: the
digest of the generated inputs, machine facts, failed_ratio and the sample
counts.
"""

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 3
INTERP_SAMPLES = 11
REFERENCE_EVERY_S = 0.05
#: About the reference loop's time on a quiet core of the machine the bounds
#: were set on (2 vCPUs, Python 3.11.7).  Scaled times are seconds of a
#: processor running that loop in this time.
REFERENCE_NOMINAL_S = 0.0008

import checks  # noqa: E402  (bench/ is on sys.path as the script's directory)
import inputs  # noqa: E402
import workloads  # noqa: E402

REFERENCE_FORMULAS = [
    inputs.random_core(random.Random(0), inputs.ATOMS3, 4) for _ in range(6)
]
REFERENCE_POINT = {"p": Fraction(1, 3), "q": Fraction(2, 7), "r": Fraction(5, 9)}


def reference():
    """Time a fixed piece of pure-Python exact arithmetic (the benchmark's
    own evaluator and grid sweep, never the program under test)."""
    t0 = perf_counter()
    for f in REFERENCE_FORMULAS:
        checks.grid_values([f], inputs.ATOMS3, 4)
        inputs.evaluate(f, REFERENCE_POINT)
    return perf_counter() - t0


def setup(name, seed):
    """Imports, input generation and preparation, and one warm-up call.
    The time is scaled by reference readings taken just before and after
    (the best of three each, as the code is cold in a fresh process)."""
    before = min(reference() for _ in range(3))
    t0 = perf_counter()
    w = workloads.make(name, ROOT)
    blocks = w.generate(seed, w.pool_blocks + 1)
    warm = [w.warm_item(blocks.pop())]
    prepared = w.prepare(blocks + [warm])
    w.run(prepared.pop()[0])
    elapsed = perf_counter() - t0
    after = min(reference() for _ in range(3))
    scaled = elapsed * REFERENCE_NOMINAL_S * 2 / (before + after)
    digest = inputs.digest(blocks + [warm, getattr(w, "fixed_inputs", None)])
    return w, prepared, scaled, digest


def timed_phase(w, blocks, seconds=None, first=0, count=None, recorder=None):
    """Run whole blocks from `first` on, until `seconds` of item time have
    passed or `count` blocks are done.

    At the start of each block and then at least every REFERENCE_EVERY_S,
    the reference loop is timed; each item's time is scaled by
    REFERENCE_NOMINAL_S over the mean of the readings just before and just
    after it.  On a shared host the speed of a core drifts by tens of
    percent for seconds at a time; the scaled times follow the program, not
    the drift.

    Each block's answers are checked when the block is done, outside the
    item times and the `seconds` budget, and then dropped, so memory does
    not grow with the number of items run.  Returns (seconds spent on
    items, latencies, scaled latencies, items failed, blocks run).
    """
    latencies = []
    readings = []
    reading_before = []
    failed = 0
    spent = 0.0
    b = first
    while True:
        block = blocks[b % len(blocks)]
        answers = []
        readings.append(reference())
        start = last = perf_counter()
        for item in block:
            if recorder is not None:
                recorder.item_id = len(latencies)
            s = perf_counter()
            try:
                result, error = w.run(item), None
            except Exception as e:  # a raising item counts as failed
                result, error = None, repr(e)
            done = perf_counter()
            latencies.append(done - s)
            reading_before.append(len(readings) - 1)
            answers.append((result, error))
            if done - last >= REFERENCE_EVERY_S:
                readings.append(reference())
                last = perf_counter()
        spent += perf_counter() - start
        failed += sum(error is not None or not w.check(item, result)
                      for item, (result, error) in zip(block, answers))
        b += 1
        if (count is not None and b - first >= count) or (
                count is None and spent >= seconds):
            break
    readings.append(reference())
    scaled = [
        lat * REFERENCE_NOMINAL_S * 2 / (readings[k] + readings[k + 1])
        for lat, k in zip(latencies, reading_before)
    ]
    return spent, latencies, scaled, failed, b - first


def machine_facts(nproc):
    from clog import kernel

    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "kernel_backend": kernel.active_backend(),
        "nproc": nproc,
    }


def setup_probe(name, seed):
    """One set-up in a fresh process, as the main run does it."""
    cmd = [sys.executable, str(Path(__file__)), "--workload", name,
           "--seed", str(seed), "--setup-probe"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, check=True, cwd=str(ROOT),
                         timeout=120).stdout
    return json.loads(out.decode().splitlines()[-1])["setup_s"]


def end_to_end(name, seed, seconds):
    w, blocks, setup_s, digest = setup(name, seed)
    try:
        elapsed, raw, lat, failed, n_blocks = timed_phase(w, blocks, seconds)
        if name == "cli":
            peak_kib = max(w.rss_kib)
        else:
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    finally:
        if name == "cli":
            w.cleanup()
    samples = [setup_s] + [setup_probe(name, seed)
                           for _ in range(SETUP_SAMPLES - 1)]
    metrics = {
        "setup_s": (statistics.median(samples), "s"),
        "items_per_s": (len(lat) / sum(lat), "1/s"),
        "item_ms_p50": (statistics.median(lat) * 1e3, "ms"),
        "item_ms_p90": (statistics.quantiles(lat, n=10)[-1] * 1e3, "ms"),
        "peak_rss_mb": (peak_kib / 1024, "MB"),
    }
    details = {"blocks": n_blocks, "setup_samples_s": samples,
               "timed_s": elapsed, "unscaled_items_per_s": len(raw) / sum(raw),
               "unscaled_item_ms_p50": statistics.median(raw) * 1e3}
    return digest, len(lat), failed, metrics, details


def traced(name, seed, seconds):
    import spans

    w, blocks, _, digest = setup(name, seed)
    metrics = {}
    try:
        if name == "cli":
            interp = []
            for _ in range(INTERP_SAMPLES):
                s = perf_counter()
                w.spawn([sys.executable, "-c", "pass"])
                interp.append(perf_counter() - s)
            w.child = "plain"
        plain_s, lat, _, failed, n_blocks = timed_phase(w, blocks, seconds)
        rec = spans.Recorder()
        if name == "cli":
            plain_reports = w.reports
            w.child, w.reports = "traced", []
            uninstall = None
        else:
            uninstall = spans.install(rec)
        try:
            traced_s, lat2, _, failed2, _ = timed_phase(
                w, blocks, first=n_blocks, count=n_blocks, recorder=rec)
        finally:
            if uninstall is not None:
                uninstall()
        if name == "cli":
            for item_id, report in enumerate(w.reports):
                rec.extend(report["spans"], item_id)
            metrics["cli.interp_ms"] = statistics.median(interp) * 1e3
            metrics["cli.import_ms"] = statistics.median(
                r["import_ms"] for r in plain_reports)
            metrics["cli.main_ms"] = statistics.median(
                r["main_ms"] for r in plain_reports)
        failed += failed2
    finally:
        if name == "cli":
            w.cleanup()
    metrics = {**spans.layer_metrics(rec), **metrics}
    for key in ("cli.interp_ms", "cli.import_ms", "cli.main_ms"):
        metrics.setdefault(key, 0.0)
    metrics["trace.overhead_s"] = traced_s - plain_s
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    trace_file = out_dir / ("trace-%s.json.gz" % name)
    rec.write(trace_file)
    units = {"_s": "s", "_ms": "ms", "_ratio": "ratio"}
    metrics = {
        key: (value, next((u for suffix, u in units.items()
                           if key.endswith(suffix)), "count"))
        for key, value in metrics.items()
    }
    details = {"blocks": n_blocks, "spans": len(rec),
               "trace_file": str(trace_file.relative_to(ROOT)),
               "untraced_s": plain_s, "traced_s": traced_s}
    return digest, len(lat) + len(lat2), failed, metrics, details


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "clog" / "__init__.py").is_file():
        print("bench: no clog sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # one core for this process and every process it starts, so the
    # reference readings and the work they scale share a processor
    cores = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cores)})

    if args.setup_probe:
        w, _, setup_s, _ = setup(args.workload, args.seed)
        if args.workload == "cli":
            w.cleanup()
        print(json.dumps({"setup_s": setup_s}))
        return 0

    run = traced if args.trace else end_to_end
    digest, attempted, failed, metrics, details = run(
        args.workload, args.seed, args.seconds)
    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "input_digest": digest, "machine": machine_facts(len(cores)),
        "items": attempted, "failed_ratio": failed / attempted, **details,
    }
    print(json.dumps(details))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
