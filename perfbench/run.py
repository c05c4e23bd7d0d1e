"""twistlab benchmark: seeded workloads of real CLI jobs, each in a fresh interpreter.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ./src.  A run
makes the seed's job list (perfbench/workloads.py) and runs it in passes,
one job at a time, as a user scripting the CLI would.  Every job's output is
checked (perfbench/checks.py) once the timed passes are over.

--trace 0 makes max(2, S // 15) untraced passes, two at the 30 s the
benchmark is run for, and reports the end-to-end metrics.  --trace 1 makes
one untraced and one traced pass and reports the per-layer metrics.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

from workloads import WORKLOADS, job_list_hash

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
JOB = os.path.join(HERE, "job.py")

# One pass per this many seconds of --seconds, at least two; a pass over an
# 8-job list takes 10 to 15 s on a 2-core machine.
PASS_SECONDS = 15
JOB_TIMEOUT_S = 60

TAIL_BEYOND = 10        # job_tail_s is the highest percentile with this many jobs above it

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("job_p50_s", "s"), ("job_tail_s", "s"),
              ("peak_rss_mb", "MB"), ("cpu_s", "s"))

# name, unit; see README.md for the end-to-end metric each one should move
PER_LAYER = (
    ("spin_core.rotate.calls", "count"),
    ("spin_core.rotate.self_s", "s"),
    ("spin_core.rotate.new_direction_share", "share"),
    ("spin_core.collective_operator.calls", "count"),
    ("spin_core.collective_operator.self_s", "s"),
    ("spin_core.collective_operator.bytes_computed", "B"),
    ("spin_core.variance.self_s", "s"),
    ("spin_core.coherent_state.self_s", "s"),
    ("spin_core.husimi_q.self_s", "s"),
    ("oat_metrology.mom_reciprocal_error.calls", "count"),
    ("oat_metrology.mom_reciprocal_error.self_s", "s"),
    ("oat_metrology.protocol_state.per_mom", "count"),
    ("oat_metrology.qfi_closed_form.calls", "count"),
    ("oat_metrology.qfi_numeric.self_s", "s"),
    ("oat_metrology.max_qfi_over_directions.self_s", "s"),
    ("oat_metrology.indeterminate", "count"),
    ("numerics.richardson_derivative.calls", "count"),
    ("numerics.richardson_derivative.self_s", "s"),
    ("numerics.richardson_limit.divergent", "count"),
    ("optimizer.maximize_on_sphere.calls", "count"),
    ("optimizer.maximize_on_sphere.self_s", "s"),
    ("optimizer.maximize_on_sphere.evals", "count"),
    ("optimizer.maximize_on_sphere.converged_share", "share"),
    ("optimizer.maximize_on_sphere.skipped", "count"),
    ("optimizer.maximize_joint.calls", "count"),
    ("optimizer.maximize_joint.self_s", "s"),
    ("optimizer.maximize_joint.evals", "count"),
    ("optimizer.maximize_joint.converged_share", "share"),
    ("lattice_fr.fr_mom_reciprocal.calls", "count"),
    ("lattice_fr.fr_mom_reciprocal.self_s", "s"),
    ("lattice_fr.fr_mom_reciprocal.bytes_computed", "B"),
    ("lattice_fr.build_system.self_s", "s"),
    ("lattice_fr.fr_evolve.self_s", "s"),
    ("lattice_fr.lattice_variance.self_s", "s"),
    ("lattice_fr.fr_max_qfi.self_s", "s"),
    ("lattice_fr.moment_table.calls", "count"),
    ("lattice_fr.moment_table.self_s", "s"),
    ("lattice_fr.moment_table.first_call_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.rows", "count"),
    ("spin_core.self_s", "s"),
    ("oat_metrology.self_s", "s"),
    ("lattice_fr.self_s", "s"),
    ("optimizer.self_s", "s"),
    ("numerics.self_s", "s"),
    ("trace.overhead_s", "s"),
)
LAYER_MODULES = ("spin_core", "oat_metrology", "lattice_fr", "optimizer", "numerics")


@dataclass
class Outcome:
    job: object
    output: str
    wall_s: float
    setup_s: float | None
    cpu_s: float
    peak_rss_mb: float
    failure: str | None = None      # "exit 2", "exit 3", "exception", "check", ...
    message: str = ""
    rows: int = 0
    trace: dict | None = None


@dataclass
class Pass:
    traced: bool
    wall_s: float = 0.0
    outcomes: list[Outcome] = field(default_factory=list)


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def run_job(job, env: dict, rundir: str, tag: str, trace: bool) -> Outcome:
    output = os.path.join(rundir, tag + ".json")
    report = os.path.join(rundir, tag + ".report")
    log = os.path.join(rundir, tag + ".log")
    argv = [sys.executable, JOB, report, "1" if trace else "0", "--",
            *job.argv, "--format", "json", "--output", output]
    with open(log, "wb") as fh:
        start = time.monotonic()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=fh, stderr=fh,
                                env=env, cwd=ROOT)
        timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        end = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
    info = {}
    if os.path.exists(report):
        with open(report) as fh:
            info = json.load(fh)
    imported = info.get("twistlab_file")
    if imported and not os.path.abspath(imported).startswith(SRC + os.sep):
        raise BenchError(f"twistlab was imported from {info['twistlab_file']}, not from {SRC}")
    outcome = Outcome(job=job, output=output, wall_s=end - start,
                      setup_s=info["ready"] - start if "ready" in info else None,
                      cpu_s=usage.ru_utime + usage.ru_stime,
                      peak_rss_mb=info.get("peak_rss_mb") or usage.ru_maxrss / 1024.0,
                      trace=info.get("trace"))
    if proc.returncode != 0:
        with open(log, errors="replace") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
        outcome.message = lines[-1] if lines else ""
        if "exception" in info:
            outcome.failure, outcome.message = "exception", info["exception"]
        elif proc.returncode in (2, 3):
            outcome.failure = f"exit {proc.returncode}"
        elif proc.returncode < 0:
            outcome.failure = f"signal {-proc.returncode}"
        else:
            outcome.failure = f"exit {proc.returncode}"
    return outcome


def check(outcome: Outcome, verdicts: dict) -> None:
    """Fill in the output check of a job that exited 0.

    verdicts caches results by job and output, since every pass repeats the jobs.
    """
    from checks import check_output  # imports twistlab, so only once src is on the path
    if outcome.failure is not None:
        return
    try:
        with open(outcome.output) as fh:
            text = fh.read()
    except OSError as exc:
        outcome.failure, outcome.message = "check", f"no output: {exc}"
        return
    key = (outcome.job.argv, text)
    if key not in verdicts:
        verdicts[key] = check_output(outcome.job.command, outcome.job.rows, text)
    bad, outcome.rows = verdicts[key]
    if bad:
        outcome.failure, outcome.message = "check", bad


def run_pass(jobs, env, rundir, index: int, traced: bool) -> Pass:
    result = Pass(traced)
    start = time.monotonic()
    for j, job in enumerate(jobs):
        result.outcomes.append(run_job(job, env, rundir, f"p{index}-j{j}", traced))
    result.wall_s = time.monotonic() - start
    return result


def _tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND values above it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def _job_time(o: Outcome) -> float:
    return float("inf") if o.failure else o.wall_s


def _job_list_sum(passes: list[Pass], value) -> float:
    """Sum over the job list of each job's median across passes.

    Machine noise comes in bursts of a few seconds; a per-job median drops a
    burst that hits one job in one pass, where a median of pass totals keeps it.
    """
    return sum(statistics.median(value(p.outcomes[j]) for p in passes)
               for j in range(len(passes[0].outcomes)))


def end_to_end(passes: list[Pass]) -> tuple[dict[str, float], str]:
    outcomes = [o for p in passes for o in p.outcomes]
    times = [_job_time(o) for o in outcomes]
    tail, pct = _tail(times)
    metrics = {
        "setup_s": statistics.median(o.setup_s for o in outcomes if o.setup_s is not None),
        "wall_s": _job_list_sum(passes, lambda o: o.wall_s),
        "job_p50_s": statistics.median(times),
        "job_tail_s": tail,
        "peak_rss_mb": statistics.median(max(o.peak_rss_mb for o in p.outcomes) for p in passes),
        "cpu_s": _job_list_sum(passes, lambda o: o.cpu_s),
    }
    return metrics, f"job_tail_s is p{pct:.1f} of {len(times)} job runs"


def _merge(outcomes: list[Outcome]):
    calls, self_s, counts = Counter(), defaultdict(float), Counter()
    for o in outcomes:
        if o.trace:
            calls.update(o.trace["calls"])
            counts.update(o.trace["counts"])
            for name, value in o.trace["self_s"].items():
                self_s[name] += value
    return calls, self_s, counts


def per_layer(traced: Pass, untraced: Pass) -> dict[str, float]:
    calls, self_s, counts = _merge(traced.outcomes)

    def share(num: float, den: float) -> float:
        return num / den if den else 0.0

    special = {
        "spin_core.rotate.new_direction_share":
            share(counts["spin_core.rotate.new_directions"], calls["spin_core.rotate"]),
        "oat_metrology.protocol_state.per_mom":
            share(counts["oat_metrology.protocol_state.in_mom"],
                  calls["oat_metrology.mom_reciprocal_error"]),
        "optimizer.maximize_on_sphere.converged_share":
            share(counts["optimizer.maximize_on_sphere.converged"],
                  calls["optimizer.maximize_on_sphere"]),
        "optimizer.maximize_joint.converged_share":
            share(counts["optimizer.maximize_joint.converged"], calls["optimizer.maximize_joint"]),
        "cli.main.self_s": sum(v for k, v in self_s.items() if k.startswith("cli.")),
        "cli.rows": sum(o.rows for o in traced.outcomes),
        "trace.overhead_s": traced.wall_s - untraced.wall_s,
    }
    for module in LAYER_MODULES:
        special[f"{module}.self_s"] = sum(v for k, v in self_s.items()
                                          if k.startswith(module + "."))
    metrics = {}
    for name, _unit in PER_LAYER:
        if name in special:
            metrics[name] = special[name]
        elif name.endswith(".calls"):
            metrics[name] = calls[name[:-len(".calls")]]
        elif name.endswith(".self_s"):
            metrics[name] = self_s[name[:-len(".self_s")]]
        else:
            metrics[name] = counts[name]
    return metrics


def provenance(workload) -> list[str]:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return [f"python {platform.python_version()}, numpy {numpy.__version__}, "
            f"scipy {scipy.__version__}, BLAS {blas.get('name', '?')} {blas.get('version', '?')}",
            f"nproc {os.cpu_count()}, BLAS threads {workload.blas_threads}, "
            f"TWISTLAB_THREADS {workload.twistlab_threads}"]


def run(args) -> tuple[bool, int, int, dict[str, float], list[str]]:
    workload = WORKLOADS[args.workload]
    jobs = workload.jobs(args.seed)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(workload.env())
    lines = [f"workload {workload.name}, seed {args.seed}, {len(jobs)} jobs per pass, "
             f"job list {job_list_hash(jobs)}", *provenance(workload)]
    large = sum(j.large_n for j in jobs) / len(jobs)
    edge = sum(j.edge for j in jobs) / len(jobs)
    lines.append(f"input: large-N (N >= 1000) share {large:.3f}, edge-point (t = 0 or t <= 1e-3) "
                 f"share {edge:.3f}")

    rundir = os.path.join(ROOT, ".perfbench_run", f"{workload.name}-{os.getpid()}")
    os.makedirs(rundir, exist_ok=True)
    try:
        red = [run_job(k.job, env, rundir, f"red{i}", False)
               for i, k in enumerate(workload.known_red)]
        if args.trace:
            passes = [run_pass(jobs, env, rundir, 0, False), run_pass(jobs, env, rundir, 1, True)]
        else:
            passes = [run_pass(jobs, env, rundir, i, False)
                      for i in range(max(2, args.seconds // PASS_SECONDS))]
        verdicts: dict = {}
        outcomes = [o for p in passes for o in p.outcomes]
        for o in red + outcomes:
            check(o, verdicts)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    failed = [o for o in outcomes if o.failure]
    by_class = Counter(o.failure for o in failed)
    lines.append(f"fail_share {len(failed) / len(outcomes):.4f} ({len(failed)} of {len(outcomes)} "
                 f"job runs{''.join(f'; {c}: {n}' for c, n in sorted(by_class.items()))})")
    for o in failed[:10]:
        lines.append(f"  FAILED [{o.failure}] {' '.join(o.job.argv)}: {o.message}")
    for k, o in zip(workload.known_red, red):
        status = ("fails as recorded" if o.failure == k.failure and k.message in o.message
                  else "DIFFERS from the record" if o.failure else "no longer fails")
        lines.append(f"known-red {' '.join(k.job.argv)}: {status} "
                     f"[{o.failure or 'ok'}] {o.message}")
    if red:
        all_runs = len(outcomes) + len(red)
        all_failed = len(failed) + sum(1 for o in red if o.failure)
        lines.append(f"fail_share with known-red jobs {all_failed / all_runs:.4f} "
                     f"({all_failed} of {all_runs})")

    strata = defaultdict(list)
    for o in outcomes:
        strata[o.job.stratum].append(o)
    for name, runs in sorted(strata.items()):
        median = statistics.median(o.wall_s for o in runs)
        lines.append(f"  stratum {name:20s} {len(runs):3d} runs, median {median:6.3f} s, "
                     f"max {max(o.wall_s for o in runs):6.3f} s, "
                     f"peak RSS {max(o.peak_rss_mb for o in runs):7.1f} MB")

    if args.trace:
        metrics = per_layer(passes[1], passes[0])
        units = dict(PER_LAYER)
    else:
        metrics, note = end_to_end(passes)
        lines.append(note)
        units = dict(END_TO_END)
    lines.append("passes: " + ", ".join(f"{p.wall_s:.2f} s" + (" traced" if p.traced else "")
                                        for p in passes))
    for name, value in metrics.items():
        lines.append(f"  {name:48s} {value:14.6g} {units[name]}")
    correct = not failed
    with_units = {k: (v, units[k]) for k, v in metrics.items()}
    return correct, len(outcomes), len(failed), with_units, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so the running job is killed and reaped and the run directory removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(SRC, "twistlab", "cli.py")):
        print(f"perfbench: no twistlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    try:
        correct, attempted, failed, metrics, lines = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
