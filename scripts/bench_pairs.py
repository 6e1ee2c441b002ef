"""Run the benchmark in alternating base/change pairs and write the comparison to BENCH_<label>.json.

Usage: python scripts/bench_pairs.py --base REV --label L

Both sides run from fresh copies in one temporary directory outside the repository, removed at exit: the
base side from a detached git worktree of REV (pruned at exit), the change side from a copy of this
checkout as it stands, without .git and without any __pycache__ or bench/.work, so neither side reads
bytecode compiled by an earlier run. Each of BENCHMARK.json's workloads runs in 10 pairs; pair i runs
both sides with `python3 bench/run.py --workload W --seed i --seconds S` (the command and run length
BENCHMARK.json declares), the base first in odd pairs and the change first in even ones, and keeps each
run's last two JSON lines, the record and the result. Both sides run with PYTHONDONTWRITEBYTECODE=1, so
neither caches bytecode from one run to the next.

BENCH_<label>.json, at the repository root, holds both commits, the environment, the bounds of
BENCHMARK.json's end-to-end metrics, every run's two lines and, for each workload and end-to-end
metric, each side's median and quartiles, the pairs the change won (ties count for neither) and a
verdict. The file is indented by one space a level, except that each run is one line of the runs list:

  gain met       the change won at least 9 of 10 pairs, and the medians differ, in its favour, by more
                 than the base's interquartile range
  regression     the change's median is worse than the base's by more than the metric's relative bound
  unresolved     the base's interquartile range, relative to its median, is wider than the bound, and not
                 every change run reads better than every base run
  no regression  otherwise

No file is written, and the exit status is 1, when a run exits non-zero, fails an operation or its
correctness gate (ops_failed > 0 or correct: false), or finds another orbits_found than its partner;
the message names the run. A --base that names no commit exits 2 before any run.

With --large, the pairs run the large-n list instead of the benchmark: operator_norm, then
enumerate_triples, on default_rng([s, n]).standard_normal((n, n, n)) for n = 16, 24, 32 and s = 1, 2,
through public calls only, in a fresh process per task and side at one BLAS thread. Each task runs
this script's large_task, from this checkout, on each side's src/ (the base commit need not have it).
A run's time counts only when every listed triple passes that side's verify_triple and the norm equals
the top tau; it records wall_s, the two calls' time, and orbits_found. The same refusals and verdicts
apply to these two metrics. The list takes about 3 minutes per pair on 2 CPUs, so 30 minutes in all.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Iterator, Optional

ROOT = Path(__file__).resolve().parent.parent
#: Where the benchmark's first committed medians live; the trajectory starts there.
ORIGIN = "bench/baseline.json"
#: A run that takes longer is stopped and counts as failed; bench/run.py stops its own cycles by 150 s.
RUN_TIMEOUT_S = 900
#: Pairs per workload; pair i runs seed i. The simplicity-review rules judge a gain on ten.
PAIRS = 10
#: What the change side's copy leaves out: git's store, and what building, testing and running leave behind.
UNCOPIED = (".git", "__pycache__", ".work", ".pytest_cache", ".hypothesis", "BENCH_*.json")
SIDES = ("base", "change")
#: The large-n list: (n, s) runs Gaussian n^3 drawn from default_rng([s, n]).
LARGE = tuple((n, s) for n in (16, 24, 32) for s in (1, 2))
#: BLAS threads of each large task, as bench/run.py sets them for its runs.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class Refused(Exception):
    """A run at fault: no comparison is written."""


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()


def fault(run: dict) -> Optional[str]:
    """Why one run cannot be compared, or None: a non-zero exit, missing JSON lines, a failed operation or
    a failed correctness gate."""
    if run["returncode"] is None:
        return f"ran past {RUN_TIMEOUT_S} s"
    if run["returncode"] != 0:
        return f"exited {run['returncode']}"
    if run["record"] is None or run["result"] is None:
        return "printed no record and result lines"
    if run["record"].get("ops_failed", 0) > 0 or run["result"].get("correct") is not True:
        return f"failed {run['record'].get('ops_failed')} operation(s), correct: {run['result'].get('correct')}"
    return None


def value(run: dict, metric: str) -> float:
    return run["result"]["metrics"][metric]["value"]


def measure(workloads: list[str], pairs: int, run: Callable[[str, str, int], dict], seeded: bool = True) -> list[dict]:
    """Every run of every pair, each as {workload, pair, seed, side, first, returncode, record, result};
    run(side, workload, pair) runs one side. Pair i runs seed i when seeded; a large task carries its own
    seed, and its runs no seed key. Refused names the first run at fault."""
    runs = []
    for workload in workloads:
        for pair in range(1, pairs + 1):
            seed = {"seed": pair} if seeded else {}
            where = f"{workload} pair {pair}" + (f" (seed {pair})" if seeded else "")
            got = {}
            for side in SIDES if pair % 2 else SIDES[::-1]:
                got[side] = {"workload": workload, "pair": pair, **seed, "side": side, "first": not got}
                got[side].update(run(side, workload, pair))
                problem = fault(got[side])
                if problem:
                    raise Refused(f"{where}, {side} side: {problem}")
            base, change = (value(got[side], "orbits_found") for side in SIDES)
            if base != change:
                raise Refused(f"{where}, change side: orbits_found {change}, base {base}")
            runs += [got[side] for side in SIDES]
    return runs


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def relative(delta: float, base: float) -> float:
    """delta as a share of |base|; a nonzero delta from a zero base is infinite."""
    if base:
        return delta / abs(base)
    return 0.0 if delta == 0 else math.copysign(math.inf, delta)


def compare(base: list[float], change: list[float], better: str, bound: float) -> dict:
    """One metric of one workload: each side's median and quartiles over its pairs, the change's wins and
    the verdict; base[i] and change[i] are pair i's."""
    sign = 1.0 if better == "lower" else -1.0  # sign * (a - b) > 0: a reads worse than b
    b, c = quartiles(base), quartiles(change)
    wins = sum(sign * (y - x) < 0 for x, y in zip(base, change))
    spread = b["q3"] - b["q1"]
    if 10 * wins >= 9 * len(base) and sign * (b["median"] - c["median"]) > spread:
        verdict = "gain met"
    elif relative(sign * (c["median"] - b["median"]), b["median"]) > bound:
        verdict = "regression"
    elif relative(spread, b["median"]) > bound and not max(sign * v for v in change) < min(sign * v for v in base):
        verdict = "unresolved"
    else:
        verdict = "no regression"
    return {"base": b, "change": c, "wins": wins, "pairs": len(base), "verdict": verdict}


def summarize(runs: list[dict], bounds: dict) -> dict:
    """compare() for each workload and end-to-end metric, over the runs in pair order."""
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        side = {s: sorted((r for r in runs if r["workload"] == workload and r["side"] == s), key=lambda r: r["pair"]) for s in SIDES}
        out[workload] = {
            metric: compare(*([value(r, metric) for r in side[s]] for s in SIDES), rule["better"], rule["bound"])
            for metric, rule in bounds.items()
        }
    return out


def large_name(n: int, s: int) -> str:
    return f"gaussian-{n}^3-s{s}"


def large_task(n: int, s: int) -> None:
    """One large task on the bilop this process imports, which must come from the current directory: prints
    a record line and a result line in bench/run.py's form. Its operations are the listed triples' verify_triple
    checks and the check that the norm equals the top tau; the result is correct when none fails."""
    import numpy as np

    import bilop

    if not Path(bilop.__file__).resolve().is_relative_to(Path.cwd().resolve()):
        raise SystemExit(f"bilop imported from {bilop.__file__}, outside {Path.cwd()}")
    T = bilop.Tensor3.from_array(np.random.default_rng([s, n]).standard_normal((n, n, n)))
    cfg = bilop.SearchConfig()
    start = time.perf_counter()
    norm, _ = bilop.operator_norm(T, cfg)
    spectrum = bilop.enumerate_triples(T, cfg)
    wall_s = time.perf_counter() - start
    checks = [bilop.verify_triple(T, t, cfg.residual_tol).verified for t in spectrum.triples]
    checks.append(bool(spectrum.triples) and norm == spectrum.triples[0].tau)
    metrics = {"wall_s": wall_s, "orbits_found": len(spectrum.triples)}
    environment = {"python": sys.version.split()[0], "numpy": np.__version__,
                   "threads": {v: os.environ.get(v) for v in THREAD_VARS}, "nproc": len(os.sched_getaffinity(0))}
    record = {"workload": large_name(n, s), "environment": environment, "norm": norm, "ops_total": len(checks),
              "ops_failed": checks.count(False), "metrics": metrics}
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": all(checks), "metrics": {k: {"value": v} for k, v in metrics.items()}}))


def render(report: dict) -> str:
    """The report as written: json.dumps(report, indent=1), but each entry of its last key, runs, on one line."""
    head = json.dumps({k: v for k, v in report.items() if k != "runs"}, indent=1)
    runs = ",\n".join("  " + json.dumps(run) for run in report["runs"])
    return f'{head[:-2]},\n "runs": [\n{runs}\n ]\n}}\n'


def launch(argv: list[str], cwd: Path, env: dict) -> dict:
    """One run of argv in cwd: its exit status and its last two JSON lines (None where they do not parse)."""
    try:
        proc = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"returncode": None, "record": None, "result": None}
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
    try:
        record, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
        record = record["record"]
    except (ValueError, KeyError, TypeError):
        record = result = None
    return {"returncode": proc.returncode, "record": record, "result": result}


def run_large(cwd: Path, n: int, s: int, env: dict) -> dict:
    """large_task(n, s) in a fresh process on cwd's src/, at one BLAS thread, run from this checkout's script."""
    code = f"import sys; sys.path.append({str(Path(__file__).resolve().parent)!r}); import bench_pairs; "
    env = env | {v: "1" for v in THREAD_VARS} | {"PYTHONPATH": str(cwd / "src")}
    return launch([sys.executable, "-c", code + f"bench_pairs.large_task({n}, {s})"], cwd, env)


def run_once(cwd: Path, command: list[str], workload: str, seed: int, seconds: float, env: dict) -> dict:
    """One benchmark run in cwd."""
    return launch([*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)], cwd, env)


def copy_change(dest: Path) -> Path:
    """This checkout, as it stands, copied to dest without the entries UNCOPIED names."""
    shutil.copytree(ROOT, dest, ignore=shutil.ignore_patterns(*UNCOPIED))
    return dest


@contextlib.contextmanager
def checkouts(commit: str) -> Iterator[dict]:
    """Each side's fresh copy in one temporary directory: a detached worktree of commit for the base and
    copy_change's for the change, removed (and the worktree pruned) on the way out."""
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        base = Path(tmp) / "base"
        git("worktree", "add", "--detach", str(base), commit)
        try:
            yield {"base": base, "change": copy_change(Path(tmp) / "change")}
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", str(base)], cwd=ROOT, capture_output=True)
            subprocess.run(["git", "worktree", "prune"], cwd=ROOT, capture_output=True)


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, help="the commit to compare against")
    p.add_argument("--label", required=True, help="the output is BENCH_<label>.json at the repository root")
    p.add_argument("--large", action="store_true", help="run the large-n list instead of the benchmark")
    args = p.parse_args(argv)
    if not args.label.replace("-", "").replace("_", "").isalnum():
        p.error("--label must be letters, digits, '-' and '_'")
    return args


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv)
    bounds = {m["name"]: {"better": m["better"], "bound": m["bound"]} for m in bench["end_to_end"]}
    if args.large:
        tasks = {large_name(n, s): (n, s) for n, s in LARGE}
        workloads, seconds, bounds = list(tasks), None, {m: bounds[m] for m in ("wall_s", "orbits_found")}
    else:
        workloads, seconds = [w["name"] for w in bench["workloads"]], bench["run_seconds"]
    try:
        commits = {"base": git("rev-parse", "--verify", f"{args.base}^{{commit}}"), "change": git("rev-parse", "HEAD")}
    except subprocess.CalledProcessError:
        sys.stderr.write(f"error: {args.base} names no commit\n")
        return 2
    edited = bool(git("status", "--porcelain", "--untracked-files=no"))
    # No run writes bytecode, so every process of either side compiles bilop's source as in a fresh checkout.
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    with checkouts(commits["base"]) as cwd:
        def run(side: str, workload: str, pair: int) -> dict:
            if args.large:
                return run_large(cwd[side], *tasks[workload], env)
            return run_once(cwd[side], bench["command"], workload, pair, seconds, env)

        try:
            runs = measure(workloads, PAIRS, run, seeded=not args.large)
        except Refused as exc:
            sys.stderr.write(f"error: {exc}; no file written\n")
            return 1
    report = {
        "label": args.label,
        "command": " ".join(["python3", "scripts/bench_pairs.py", *(argv if argv is not None else sys.argv[1:])]),
        "commits": commits,
        "change_has_uncommitted_edits": edited,
        "origin": None if args.large else ORIGIN,
        "environment": {k: v for k, v in runs[0]["record"]["environment"].items() if k != "commit"},
        "pairs": PAIRS,
        "seconds": seconds,
        "bounds": bounds,
        "summary": summarize(runs, bounds),
        "runs": runs,
    }
    (ROOT / f"BENCH_{args.label}.json").write_text(render(report))
    for workload, metrics in report["summary"].items():
        for metric, row in metrics.items():
            print(f"{workload:18} {metric:12} base {row['base']['median']:.6g}  change {row['change']['median']:.6g}  "
                  f"wins {row['wins']}/{row['pairs']}  {row['verdict']}")
    return 0


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # so a kill, too, removes both copies
    sys.exit(main())
