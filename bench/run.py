#!/usr/bin/env python3
"""torsionlab benchmark: a single-process, single-thread, closed-loop driver.

    python3 bench/run.py --workload catalog --seed 1 --seconds 30 --trace 0

Run from the repository root.  One client issues the next task only after
the previous one returns.  The workload's seeded pool of tasks is repeated in
rounds until ``--seconds`` have passed (and at least MIN_TASKS ran).

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of the same pool, traced from this directory's wrappers (see
tracing.py).  Stdout carries an ``env`` line, a ``detail`` line and, last,
the result object ``{"correct", "attempted", "failed", "metrics"}``.
bench/README.md lists the metrics and what each should move.
"""

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent

# ten tasks must lie beyond the p90
MIN_TASKS = 100
SETUP_SAMPLES = 3
WORKLOADS = ("catalog", "grid_scan", "winding_track")
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="internal: time one fresh set-up and exit")
    return p.parse_args(argv)


def setup(workload: str, seed: int, workdir: Path):
    """Import torsionlab, generate the inputs and run the warm-up task.

    Returns (workload, rng, seconds).  The warm-up covers lazy set-up such
    as the Ex5Field value table.
    """
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import torsionlab  # noqa: F401  (timed: the import is part of set-up)
    import workloads

    loaded = Path(torsionlab.__file__).resolve()
    if SRC.resolve() not in loaded.parents:
        raise SystemExit(f"torsionlab imported from {loaded}, not {SRC}")
    rng = random.Random(seed)
    wl = workloads.WORKLOADS[workload](rng, workdir)
    verdict = execute(wl.warmup)
    if verdict[1] is not None:
        raise SystemExit(f"warm-up task {wl.warmup.kind} failed: {verdict}")
    return wl, rng, time.perf_counter() - t0


def execute(task):
    """Run one task; returns (seconds, failure kind or None, detail)."""
    from workloads import CliRun, OracleMiss

    t0 = time.perf_counter()
    try:
        out = task.call()
    except Exception as exc:  # a crash is a counted failure, not a stop
        dt = time.perf_counter() - t0
        return dt, "raised", f"{type(exc).__name__}: {exc}"
    dt = time.perf_counter() - t0
    if isinstance(out, CliRun) and out.rc != 0 and not task.check_exit:
        return dt, "exit_code", f"rc {out.rc}: {out.stdout[-300:]}{out.stderr[-300:]}"
    try:
        task.check(out)
    except OracleMiss as exc:
        return dt, "oracle", str(exc)
    except (KeyError, TypeError, ValueError, IndexError, OSError) as exc:
        return dt, "oracle", f"malformed output: {type(exc).__name__}: {exc}"
    return dt, None, None


def environment(threads_env) -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists() and shutil.which("git"):
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = out.stdout.strip() or commit
    src_lines = sum(len(p.read_bytes().splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {"nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "git_commit": commit,
            "src_lines": src_lines,
            # the value found at start; the run itself unsets it
            "TORSIONLAB_THREADS": threads_env,
            "blas_threads": {v: os.environ[v] for v in BLAS_VARS}}


def setup_probes(args, first: float) -> list:
    """Set-up times of fresh interpreters: this process plus children."""
    times = [first]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0"]
    for _ in range(SETUP_SAMPLES - 1):
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=170,
                             check=True)
        times.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return times


class Tally:
    def __init__(self):
        self.times = []
        self.failures = {}
        self.examples = []
        self.by_kind = {}

    def add(self, kind, verdict):
        dt, failure, detail = verdict
        self.times.append(dt)
        self.by_kind.setdefault(kind, []).append(dt)
        if failure is not None:
            self.failures[failure] = self.failures.get(failure, 0) + 1
            if len(self.examples) < 5:
                self.examples.append(f"{kind}: {failure}: {detail}"[:400])

    @property
    def failed(self):
        return sum(self.failures.values())

    @property
    def correct(self):
        # a raised error or an error exit is a failure the user can see; an
        # output that misses its oracle is a wrong answer
        return "oracle" not in self.failures


def run_round(order, tally):
    t = 0.0
    for task in order:
        verdict = execute(task)
        tally.add(task.kind, verdict)
        t += verdict[0]
    return t


def measure(wl, rng, seconds, tally):
    """Closed loop over shuffled rounds; returns the summed task seconds."""
    busy = 0.0
    t0 = time.perf_counter()
    while True:
        busy += run_round(wl.round_order(rng), tally)
        if time.perf_counter() - t0 >= seconds and len(tally.times) >= MIN_TASKS:
            return busy


def measure_traced(wl, rng, seconds, tally):
    """Alternate untraced and traced passes over the same shuffled round.

    Returns the per-layer metrics (medians over traced rounds, plus the
    tracing overhead) and the number of traced rounds.
    """
    import tracing
    from torsionlab import fixtures

    tracer = tracing.Tracer()
    names = fixtures.fixture_names()
    plain, traced, rows = [], [], []
    t0 = time.perf_counter()
    while not rows or time.perf_counter() - t0 < seconds:
        order = wl.round_order(rng)
        plain.append(run_round(order, tally))
        tracer.reset()
        tracer.install()
        try:
            traced.append(run_round(order, tally))
        finally:
            tracer.remove()
        rows.append(tracer.metrics(names))
    metrics = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
    metrics["trace.overhead_frac"] = (statistics.median(traced)
                                      / statistics.median(plain) - 1.0)
    return metrics, len(rows)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "torsionlab" / "__init__.py").is_file():
        sys.stderr.write(f"error: no torsionlab sources under {SRC}\n")
        return 2
    # pin BLAS threads and unset the fan-out knob in this process (and the
    # set-up probes it starts) before numpy is imported
    for var in BLAS_VARS:
        os.environ[var] = "1"
    threads_env = os.environ.pop("TORSIONLAB_THREADS", None)
    if args.workload not in WORKLOADS:
        sys.stderr.write(f"error: unknown workload {args.workload!r}; "
                         f"expected one of {list(WORKLOADS)}\n")
        return 2
    sys.path.insert(0, str(BENCH))
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH) as tmp:
        wl, rng, setup_s = setup(args.workload, args.seed, Path(tmp))
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        env = environment(threads_env)
        tally = Tally()
        detail = {"workload": args.workload, "seed": args.seed,
                  "pool_tasks": len(wl.tasks)}
        if args.trace:
            metrics, rounds = measure_traced(wl, rng, args.seconds, tally)
            detail["traced_rounds"] = rounds
        else:
            busy = measure(wl, rng, args.seconds, tally)
            setups = setup_probes(args, setup_s)
            metrics = end_to_end(tally, busy, setups)
            detail["setup_samples_s"] = setups
    out = with_units(metrics, "per_layer" if args.trace else "end_to_end")
    n = len(tally.times)
    detail.update({
        "attempted": n, "failed": tally.failed,
        "failed_frac": tally.failed / n, "failures": tally.failures,
        "failure_examples": tally.examples,
        "tasks_by_kind": {k: {"n": len(v), "median_ms": 1e3 * statistics.median(v)}
                          for k, v in sorted(tally.by_kind.items())}})
    print(json.dumps({"env": env}))
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": tally.correct, "attempted": n,
                      "failed": tally.failed, "metrics": out}))
    return 0


def end_to_end(tally, busy, setups) -> dict:
    ts = tally.times
    # linear interpolation between ranks, as numpy's default percentile
    deciles = statistics.quantiles(ts, n=10, method="inclusive")
    return {
        "tasks_per_s": (len(ts) - tally.failed) / busy,
        "task_ms_p50": 1e3 * statistics.median(ts),
        "task_ms_p90": 1e3 * deciles[8],
        "setup_s": statistics.median(setups),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def with_units(metrics: dict, kind: str) -> dict:
    """Attach the units that BENCHMARK.json declares; the metric names must
    match its list exactly."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        raise SystemExit(f"metrics differ from BENCHMARK.json {kind}: "
                         f"{sorted(set(units) ^ set(metrics))}")
    return {name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()}


if __name__ == "__main__":
    sys.exit(main())
