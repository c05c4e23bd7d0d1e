"""Run one twistlab CLI job in this fresh interpreter and write a report on it.

    python3 perfbench/job.py REPORT TRACE -- CLI-ARGS...

The report is a JSON object: the monotonic time at which `twistlab.cli` was
imported and its parser built (the job's set-up), the exit code, the
exception if one escaped `main`, the process's peak RSS, and, with TRACE=1,
the tracer's per-function totals.  The exit code is the CLI's own.
"""
from __future__ import annotations

import json
import os
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _peak_rss_mb() -> float | None:
    """VmHWM of this process, which unlike ru_maxrss excludes the parent's pages before exec."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


def main() -> int:
    report_path, trace, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: job.py REPORT TRACE -- CLI-ARGS...")
    sys.path.insert(0, SRC)
    import twistlab.cli as cli
    cli.build_parser()
    report = {"ready": time.monotonic(), "twistlab_file": cli.__file__}
    tracer = None
    if trace == "1":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:
        traceback.print_exc()
        report["exception"] = f"{type(exc).__name__}: {exc}"
        code = 1
    report["exit"] = code
    report["peak_rss_mb"] = _peak_rss_mb()
    if tracer is not None:
        report["trace"] = tracer.summary()
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
