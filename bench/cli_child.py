"""Run one clog command line in this process and report where its time went.

    python3 bench/cli_child.py REPORT plain|traced -- ARGV...

Prints what `python -m clog ARGV...` prints and exits with its code.  It
writes to the REPORT file the time `import clog.cli` took and the time
`clog.cli.main(ARGV)` took, in ms, and with `traced` also the spans recorded
around the program's entry points (see spans.py).
"""

import json
import sys
from time import perf_counter


def main():
    report_path, mode, sep, *argv = sys.argv[1:]
    if sep != "--" or mode not in ("plain", "traced"):
        raise SystemExit("usage: cli_child.py REPORT plain|traced -- ARGV...")
    t0 = perf_counter()
    import clog.cli

    t1 = perf_counter()
    rec = None
    if mode == "traced":
        import spans

        rec = spans.Recorder()
        spans.install(rec)
    t2 = perf_counter()
    rc = clog.cli.main(argv)
    t3 = perf_counter()
    report = {
        "import_ms": (t1 - t0) * 1e3,
        "main_ms": (t3 - t2) * 1e3,
        "spans": rec.to_json() if rec is not None else None,
    }
    with open(report_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return rc


if __name__ == "__main__":
    sys.exit(main())
