"""bilop benchmark: time-to-solution of the public calls, checked answers.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Runs one workload (spectrum-gaussian, schmidt-planted or cli-gallery) in
this process as a closed loop with one client: first a correctness gate
that runs every task once and checks its answer, then timed cycles over
the same tasks, in the same order, for about S seconds. Every answer,
gated or timed, is checked; a failed one is counted and its time dropped.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics from spans with --trace 1. The line
before it is the full record: environment, per-call sums, sample counts.
README.md in this directory describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKDIR = BENCH_DIR / ".work"

#: BLAS threads for this process and every child. One thread keeps runs
#: steady on a small shared machine; it is never more than nproc.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Fresh-process set-ups per run; setup_s is their median.
SETUP_PROBES = 5
#: Reference samples taken before each set-up probe.
SETUP_REFS = 3
#: A set-up probe is killed after this long.
SETUP_TIMEOUT_S = 120
#: A run stops starting new cycles after this long, whatever --seconds says.
RUN_LIMIT_S = 150
#: The tail latency is the highest percentile with this many samples beyond it.
TAIL_BEYOND = 10
#: Size labels of workloads.GAUSSIAN_SIZES, for the per-size layer metrics.
SIZES = ["n4", "n5", "n6", "rect"]

E2E_UNITS = {
    "wall_s": "s",
    "peak_rss_mb": "MiB",
    "orbits_found": "count",
    "setup_s": "s",
}

LAYER_UNITS = {
    "spectra.als_s": "s",
    "spectra.newton_s": "s",
    **{f"spectra.norm_s.{s}": "s" for s in SIZES},
    **{f"spectra.enumerate_s.{s}": "s" for s in SIZES},
    "spectra.starts": "count",
    "spectra.orbits": "count",
    "spectra.orbits_per_kstart": "1/kstart",
    "spectra.is_ordered_calls": "count",
    "spectra.is_ordered_s": "s",
    "schmidt.steps": "count",
    "schmidt.search_self_s": "s",
    "schmidt.step_ms": "ms",
    "schmidt.verify_representation_s": "s",
    "tensor_core.deflate_s": "s",
    "tensor_core.parse_ms": "ms",
    "schur.convert_s": "s",
    "cli.import_ms": "ms",
    "cli.main_ms": "ms",
    "cli.process_ms": "ms",
    "cli.library_ms": "ms",
    "cli.report_ms": "ms",
    "oracle.fd_check_ms": "ms",
    "trace.overhead_pct": "%",
    "trace.absent_spans": "count",
}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="smallest inputs, one timed cycle")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    return args


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_version = None
    try:
        # Only a git checkout rooted here names the commit being measured.
        top, commit = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.split() or (None, None)
        commit = commit if top and Path(top).resolve() == ROOT else None
    except (OSError, subprocess.SubprocessError, ValueError):
        commit = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": commit,
    }


def median(values):
    return statistics.median(values) if values else 0.0


def tail(values) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return (ordered[-1] if ordered else 0.0), 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


class Reference:
    """A fixed batch of small contractions, timed to follow the machine's speed.

    A shared machine runs the same code up to ~2x slower, in spells that
    last from a fraction of a second to minutes. This kernel slows down
    with it while depending on nothing in bilop, so dividing a time by
    the slowness measured right before and right after it removes most of
    the machine's state and keeps the program's. It follows in-process
    library calls.
    """

    #: Median time of sample() on the 2-CPU x86 machine the baseline was
    #: measured on. Times are reported at this reference speed (see
    #: Calibration in README.md).
    nominal_s = 0.011

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._arrays = rng.standard_normal((6, 6, 6)), rng.standard_normal((300, 6)), rng.standard_normal((300, 6))
        self.sample()

    def sample(self) -> float:
        np = self._np
        A, X, Y = self._arrays
        start = time.perf_counter()
        for _ in range(50):
            np.linalg.norm(np.einsum("ijk,si,sj->sk", A, X, Y)[0])
        return time.perf_counter() - start

    def slowness(self, samples: int = 1) -> float:
        """Machine slowness relative to nominal, from the median of this
        many samples: >1 means slower."""
        return median([self.sample() for _ in range(samples)]) / self.nominal_s


class ProcessReference(Reference):
    """A bare interpreter start (``python -I -S -c pass``), timed to follow
    the machine's speed at starting processes.

    Starting a process, loading shared libraries and importing modules
    slow down differently from arithmetic, so this reference follows the
    CLI invocations and the set-up probes; it imports nothing, bilop
    included.
    """

    nominal_s = 0.012

    def __init__(self):
        self.sample()

    def sample(self) -> float:
        # No timeout: with one, subprocess polls for the child's exit at
        # growing intervals, and the time comes out rounded up to ~16 ms.
        start = time.perf_counter()
        subprocess.run([sys.executable, "-I", "-S", "-c", "pass"], check=True)
        return time.perf_counter() - start


def measure_setup(args, reference: ProcessReference) -> tuple[list[float], list[float]]:
    """Wall times of SETUP_PROBES fresh processes that import bilop,
    generate this workload's inputs and warm up on its smallest tasks,
    and the machine's slowness just before each of them."""
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"] + (["--smoke"] if args.smoke else [])
    times, speeds = [], []
    for _ in range(SETUP_PROBES if not args.smoke else 1):
        speeds.append(reference.slowness(SETUP_REFS))
        start = time.perf_counter()
        probe = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        # A blocking wait, and a timer for a hung probe: waiting with a
        # timeout polls, which rounds the time up to the polling interval.
        killer = threading.Timer(SETUP_TIMEOUT_S, probe.kill)
        killer.start()
        try:
            _, err = probe.communicate()
        finally:
            killer.cancel()
        times.append(time.perf_counter() - start)
        if probe.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {err.strip()}")
    return times, speeds


class Runner:
    """Executes tasks, checks every answer and keeps the samples.

    Each timed execution is bracketed by reference samples: one taken just
    before it, and the next one taken (before the following execution, or
    by ``close``) just after it and its check.
    """

    def __init__(self, workload, traced_cli: dict, tracer, reference: Reference):
        self.workload = workload
        self.traced_cli = traced_cli
        self.tracer = tracer
        self.reference = reference
        self.execs: list[dict] = []
        self.gate_counts: dict[int, dict] = {}

    def execute(self, index: int, phase: str, cycle: int, traced: bool) -> dict:
        task = self.workload.tasks[index]
        exec_id = len(self.execs)
        spans = []
        slow_before = self.sample_reference() if phase == "timed" else None
        if traced and task.cli:
            self.traced_cli[task.name] = True
        first = len(self.tracer.spans) if self.tracer else 0
        start = time.perf_counter()
        try:
            if traced and not task.cli:
                with self.tracer:
                    self.tracer.task = exec_id
                    result = task.run()
            else:
                result = task.run()
            elapsed = time.perf_counter() - start
            problems, counts = task.check(result)
        except Exception as exc:  # a crashing call is a failed task, not a crashed run
            elapsed = time.perf_counter() - start
            result, problems, counts = None, [f"{type(exc).__name__}: {exc}"], {}
        finally:
            self.traced_cli[task.name] = False
        if traced and not task.cli:
            spans = [dict(s, parent=None if s["parent"] is None else s["parent"] - first)
                     for s in self.tracer.spans[first:]]
        extra = {}
        if task.cli and result is not None:
            elapsed = result["wall_s"]
            extra["maxrss_kb"] = result["maxrss_kb"]
            if result.get("spans_path"):
                child = json.loads(Path(result["spans_path"]).read_text())
                spans = child["spans"]
                extra.update(import_s=child["import_s"], main_s=child["main_s"], absent=child["absent"])
        if phase == "gate":
            self.gate_counts[index] = counts
        elif not problems and counts != self.gate_counts.get(index):
            problems = [f"answer counts changed between repeats: {counts} != {self.gate_counts.get(index)}"]
        record = {"task": index, "phase": phase, "cycle": cycle, "traced": traced, "time_s": elapsed,
                  "slow_before": slow_before, "slow_after": None, "problems": problems, "counts": counts, "spans": spans, **extra}
        self.execs.append(record)
        return record

    def sample_reference(self) -> float:
        """The slowness from one reference sample; it is also the
        after-sample of the previous timed execution."""
        slow = self.reference.slowness()
        if self.execs and self.execs[-1]["phase"] == "timed":
            self.execs[-1]["slow_after"] = slow
        return slow

    def close(self) -> None:
        """Takes the after-sample of the last execution."""
        self.sample_reference()


def exec_speed(record: dict) -> float:
    """Machine slowness around one timed execution: the geometric mean of
    the slowness before and after it."""
    return math.sqrt(record["slow_before"] * record["slow_after"])


def calibrated(record: dict) -> float:
    """An execution's time at the reference speed."""
    return record["time_s"] / exec_speed(record)


def run_workload(args) -> dict:
    import workloads
    from spans import API_BOUNDARIES, LIBRARY_BOUNDARIES, Tracer

    WORKDIR.mkdir(parents=True, exist_ok=True)
    traced_cli: dict = {}
    workload = workloads.build(args.workload, args.seed, ROOT, WORKDIR, traced_cli, smoke=args.smoke)
    reference = ProcessReference() if all(t.cli for t in workload.tasks) else Reference()
    tracer = Tracer(API_BOUNDARIES + LIBRARY_BOUNDARIES) if args.trace else None
    runner = Runner(workload, traced_cli, tracer, reference)
    n = len(workload.tasks)

    gate_start = time.perf_counter()
    for i in range(n):
        runner.execute(i, "gate", 0, traced=False)
    gate_s = time.perf_counter() - gate_start
    failed_in_gate = {r["task"] for r in runner.execs if r["problems"]}

    if args.smoke:
        cycles = 1
    elif args.trace:
        # Each task runs twice per traced cycle, so half as many cycles.
        cycles = max(1, round(args.seconds / workload.cycle_s / 2))
    else:
        cycles = max(1, round(args.seconds / workload.cycle_s))
    timed_start = time.perf_counter()
    cycle = 0
    while cycle < cycles:
        for i in range(n):
            if i in failed_in_gate:
                continue
            if args.trace:
                # Each task twice, traced and untraced, alternating which
                # goes first; the pairs give the tracing overhead.
                order = (True, False) if (i + cycle) % 2 == 0 else (False, True)
                for traced in order:
                    runner.execute(i, "timed", cycle, traced)
            else:
                runner.execute(i, "timed", cycle, traced=False)
        cycle += 1
        elapsed = time.perf_counter() - gate_start
        if elapsed + elapsed / (cycle + 1) > RUN_LIMIT_S:
            break
    runner.close()
    timed_s = time.perf_counter() - timed_start
    return {"workload": workload, "runner": runner, "gate_s": gate_s, "timed_s": timed_s, "cycles": cycle,
            "absent": tracer.absent if tracer else []}


def end_to_end(run: dict) -> tuple[dict, dict]:
    workload, runner = run["workload"], run["runner"]
    timed = [r for r in runner.execs if r["phase"] == "timed" and not r["traced"] and not r["problems"]]
    per_task: dict[int, list[float]] = {}
    per_task_raw: dict[int, list[float]] = {}
    for r in timed:
        per_task.setdefault(r["task"], []).append(calibrated(r))
        per_task_raw.setdefault(r["task"], []).append(r["time_s"])
    task_median = {i: median(v) for i, v in per_task.items()}
    by_call: dict[str, float] = {}
    for i, m in task_median.items():
        call = workload.tasks[i].call
        by_call[f"{call}_s"] = by_call.get(f"{call}_s", 0.0) + m
    samples_ms = [calibrated(r) * 1e3 for r in timed]
    tail_ms, tail_pct = tail(samples_ms)
    gate = [r for r in runner.execs if r["phase"] == "gate"]
    orbits = sum(r["counts"].get("orbits", 0) + r["counts"].get("terms", 0) for r in gate)
    cli_rss = [r["maxrss_kb"] for r in timed if "maxrss_kb" in r]
    rss_kb = max(cli_rss) if cli_rss else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "wall_s": sum(task_median.values()),
        "peak_rss_mb": rss_kb / 1024.0,
        "orbits_found": orbits,
    }
    extra = dict(by_call, call_p50_ms=median(samples_ms), call_tail_ms=tail_ms,
                 call_tail_percentile=tail_pct, call_samples=len(samples_ms),
                 wall_s_raw=sum(median(v) for v in per_task_raw.values()),
                 speed_quartiles=speed_quartiles(timed))
    return metrics, extra


def speed_quartiles(records) -> list[float]:
    """First quartile, median and third quartile of the slowness around
    the given executions."""
    speeds = [exec_speed(r) for r in records]
    return statistics.quantiles(speeds, n=4) if len(speeds) > 1 else speeds * 3


def _span_sum(spans, names, caller=None) -> float:
    return sum(s["end"] - s["start"] for s in spans
               if s["name"] in names and (caller is None or s["caller"] == caller))


def per_layer(run: dict) -> tuple[dict, dict]:
    from spans import self_times

    workload, runner = run["workload"], run["runner"]
    traced = [r for r in runner.execs if r["phase"] == "timed" and r["traced"] and not r["problems"]]
    cycles: dict[int, dict] = {}
    invocations: dict[str, list[float]] = {}
    for r in traced:
        task, spans = workload.tasks[r["task"]], r["spans"]
        # Span times of this execution, at the reference speed.
        f = 1.0 / exec_speed(r)
        acc = cycles.setdefault(r["cycle"], {"norm_by_key": {}, "enum_by_key": {}})
        norm = _span_sum(spans, {"spectra.operator_norm"}) * f
        enum = _span_sum(spans, {"spectra.enumerate_triples"}) * f
        acc["norm_by_key"][task.key] = acc["norm_by_key"].get(task.key, 0.0) + norm
        acc["enum_by_key"][task.key] = acc["enum_by_key"].get(task.key, 0.0) + enum
        own = self_times(spans)
        values = {
            "spectra.als_s": norm,
            f"spectra.norm_s.{task.size}": norm,
            f"spectra.enumerate_s.{task.size}": enum,
            "spectra.starts": r["counts"]["starts"],
            "spectra.orbits": r["counts"]["orbits"],
            "enumerate_starts": r["counts"]["starts"] if task.call == "spectrum" else 0,
            "spectra.is_ordered_calls": sum(s["name"] == "spectra.is_ordered" for s in spans),
            "spectra.is_ordered_s": _span_sum(spans, {"spectra.is_ordered"}) * f,
            "schmidt.steps": r["counts"]["steps"],
            "schmidt.search_self_s": sum(
                t for s, t in zip(spans, own) if s["name"] == "schmidt.schmidt_decompose") * f,
            "decompose_s": _span_sum(spans, {"schmidt.schmidt_decompose"}) * f,
            "schmidt.verify_representation_s": _span_sum(spans, {"schmidt.verify_representation"}) * f,
            "tensor_core.deflate_s": _span_sum(
                spans, {"tensor_core.deflate_term", "tensor_core.hs_norm"}, caller="bilop.schmidt") * f,
            "schur.convert_s": sum(s["end"] - s["start"] for s in spans if s["name"].startswith("schur.")) * f,
        }
        for name, v in values.items():
            acc[name] = acc.get(name, 0) + v
        if task.cli:
            library = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
            inv = {
                "cli.import_ms": r["import_s"] * 1e3 * f,
                "cli.main_ms": r["main_s"] * 1e3 * f,
                "cli.process_ms": (r["time_s"] - r["main_s"]) * 1e3 * f,
                "cli.library_ms": library * 1e3 * f,
                "cli.report_ms": (r["main_s"] - library) * 1e3 * f,
                "tensor_core.parse_ms": _span_sum(spans, {"tensor_core.tensor_from_json_dict"}) * 1e3 * f,
            }
            if task.call == "verify":
                inv["oracle.fd_check_ms"] = _span_sum(spans, {"oracle.stationarity_fd_check"}) * 1e3 * f
            for name, v in inv.items():
                invocations.setdefault(name, []).append(v)
    for acc in cycles.values():
        both = set(acc["norm_by_key"]) & set(acc["enum_by_key"])
        acc["spectra.newton_s"] = sum(
            acc["enum_by_key"][k] - acc["norm_by_key"][k] for k in both if acc["norm_by_key"][k] > 0 and acc["enum_by_key"][k] > 0)

    def cycle_median(name):
        return median([acc.get(name, 0) for acc in cycles.values()])

    metrics = {name: cycle_median(name) for name in LAYER_UNITS}
    steps = cycle_median("schmidt.steps")
    metrics["schmidt.step_ms"] = cycle_median("decompose_s") / steps * 1e3 if steps else 0.0
    enum_starts = cycle_median("enumerate_starts")
    metrics["spectra.orbits_per_kstart"] = metrics["spectra.orbits"] / (enum_starts / 1e3) if enum_starts else 0.0
    for name, values in invocations.items():
        metrics[name] = median(values)

    pairs: dict[tuple[int, int], dict] = {}
    timed = [r for r in runner.execs if r["phase"] == "timed" and not r["problems"]]
    for r in timed:
        pairs.setdefault((r["task"], r["cycle"]), {})[r["traced"]] = calibrated(r)
    on = sum(p[True] for p in pairs.values() if len(p) == 2)
    off = sum(p[False] for p in pairs.values() if len(p) == 2)
    metrics["trace.overhead_pct"] = 100.0 * (on - off) / off if off else 0.0
    absent = sorted(set(run["absent"]) | {a for r in traced for a in r.get("absent", [])})
    metrics["trace.absent_spans"] = len(absent)
    extra = {"absent_spans": absent, "orbits_per_kstart_base": enum_starts, "speed_quartiles": speed_quartiles(timed),
             "traced_execs": len(traced), "spans": sum(len(r["spans"]) for r in traced)}
    return metrics, extra


def write_spans(run: dict, args) -> Path:
    """All spans of the traced executions, grouped by execution."""
    path = WORKDIR / f"spans-{args.workload}-seed{args.seed}.json"
    tasks = run["workload"].tasks
    execs = [{"task": tasks[r["task"]].name, "cycle": r["cycle"], "spans": r["spans"]}
             for r in run["runner"].execs if r["traced"]]
    path.write_text(json.dumps(execs))
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "bilop" / "__init__.py").is_file():
        sys.stderr.write(f"error: no bilop sources under {ROOT / 'src'}; run from a full checkout\n")
        return 2
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import workloads  # noqa: F401  (imports numpy and bilop)
    except ImportError as exc:
        sys.stderr.write(f"error: cannot import bilop: {exc}\n")
        return 2
    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"error: unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}\n")
        return 2

    if args.setup_only:
        WORKDIR.mkdir(parents=True, exist_ok=True)
        w = workloads.build(args.workload, args.seed, ROOT, WORKDIR, {}, smoke=args.smoke)
        bad = [t.name for t in w.warmup if t.check(t.run())[0]]
        if bad:
            sys.stderr.write(f"error: warm-up answers failed their checks: {bad}\n")
            return 1
        return 0

    setup_times, setup_speeds = ([], []) if args.trace else measure_setup(args, ProcessReference())
    run = run_workload(args)
    execs = run["runner"].execs
    failed = sum(1 for r in execs if r["problems"])
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "environment": environment(),
        "gate_s": run["gate_s"],
        "timed_s": run["timed_s"],
        "cycles": run["cycles"],
        "ops_total": len(execs),
        "ops_failed": failed,
        "ops_failed_ratio": failed / len(execs),
        "failures": [{"task": run["workload"].tasks[r["task"]].name, "phase": r["phase"], "problems": r["problems"]}
                     for r in execs if r["problems"]][:20],
    }
    if args.trace:
        metrics, extra = per_layer(run)
        units = LAYER_UNITS
        record["spans_file"] = str(write_spans(run, args).relative_to(ROOT))
    else:
        metrics, extra = end_to_end(run)
        metrics["setup_s"] = median([t / v for t, v in zip(setup_times, setup_speeds)])
        extra.update(setup_s_raw=median(setup_times), setup_samples_s=setup_times, setup_speeds=setup_speeds)
        units = E2E_UNITS
    record.update(extra)
    record["metrics"] = metrics
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(execs),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
