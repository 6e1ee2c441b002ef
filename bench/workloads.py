"""The benchmark's three workloads: inputs, tasks and answer checks.

Every input is generated here from the workload seed; bilop only receives
the finished tensors (and, for the CLI, JSON files written from them).
Each task is one public call, or one CLI invocation, with a check that
uses only public bilop calls and invariants any correct answer satisfies.
The calls use the default SearchConfig.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import bilop
from bilop import FailureReason, SchmidtStatus, SearchConfig, Tensor3, gallery

CFG = SearchConfig()
TOL = CFG.residual_tol
#: Planted tau's and Schur lambda's must come back to this accuracy.
PLANTED_TOL = 1e-8
#: CLI report numbers must match the committed expectations to this.
CLI_TOL = 1e-9
#: Wall-clock limit for one CLI child, far above its normal 0.3 s.
CLI_TIMEOUT_S = 120

BENCH_DIR = Path(__file__).resolve().parent
EXPECTED_CLI = BENCH_DIR / "expected" / "cli_gallery.json"

# Gaussian tensors of spectrum-gaussian: (dims, count). Many small tensors
# rather than a few large ones: one Gaussian tensor's search time varies
# by 30-50% with the draw (a long right tail), so the sum over a pass
# moves from seed to seed by about cv / sqrt(count). For the same time, a
# 4^3 draw adds a sixth of the variance of a 6^3 draw and an eighth of
# that of an 8^3 draw, so the list is mostly 4^3 and 5^3 and stops at 6.
GAUSSIAN_SIZES = [((4, 4, 4), 44), ((5, 5, 5), 12), ((6, 6, 6), 3), ((4, 8, 6), 1)]
# Planted Schmidt tensors of schmidt-planted (full rank), and Schur cubics.
PLANTED_SIZES = [((4, 4, 4), 2), ((8, 8, 8), 1), ((12, 12, 12), 1), ((6, 10, 8), 1)]
SCHUR_SIZES = [3, 5, 8]
# Nominal time of one cycle over each workload's tasks on a 2-CPU x86
# machine, at the reference speed; --seconds / CYCLE_S sets the number of
# timed cycles, so every run of a workload collects the same number of
# samples.
CYCLE_S = {"spectrum-gaussian": 13.0, "schmidt-planted": 5.0, "cli-gallery": 4.0}
GALLERY = {
    "diagonal_pair": gallery.diagonal_pair,
    "overlapping_slices": gallery.overlapping_slices,
    "orthonormal_triad": gallery.orthonormal_triad,
    "signed_diagonal": gallery.signed_diagonal,
}
CLI_COMMANDS = ["norm", "spectrum", "schmidt", "schur"]


@dataclass
class Task:
    """One timed unit: a public call (or CLI invocation) and its check.

    ``run`` returns the answer; ``check`` returns (problems, counts), where
    an empty problem list means the answer is correct and counts holds the
    exact work counts of the answer: ``orbits`` (verified orbits returned by
    enumerate_triples), ``terms`` (Schmidt terms), ``steps`` (deflation
    steps) and ``starts`` (multi-start searches times their start count).
    """

    name: str
    call: str  # norm | spectrum | schmidt | schur | verify
    key: str  # the input; pairs norm and spectrum of one tensor
    size: str  # n<k> for cubes, rect otherwise
    run: Callable[[], object]
    check: Callable[[object], tuple[list[str], dict]]
    cli: bool = False


@dataclass
class Workload:
    name: str
    tasks: list[Task]
    warmup: list[Task]

    @property
    def cycle_s(self) -> float:
        return CYCLE_S[self.name]


def _size_label(dims) -> str:
    return f"n{dims[0]}" if len(set(dims)) == 1 else "rect"


def _search_starts(dims) -> int:
    """Starts of one multi-start search: every basis pair plus the random set."""
    return dims[0] * dims[1] + CFG.resolved_starts(tuple(dims))


def _counts(orbits=0, terms=0, steps=0, starts=0) -> dict:
    return {"orbits": orbits, "terms": terms, "steps": steps, "starts": starts}


def _orthonormal(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random orthogonal matrix, each column's largest entry made positive.

    A Schur term lam x(x)x(x)x equals -lam (-x)(x)(-x)(x)(-x), so a signed
    weight is only defined with its vector's orientation; bilop reports
    vectors peak-positive, and so are the planted ones.
    """
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    peaks = Q[np.argmax(np.abs(Q), axis=0), np.arange(n)]
    return Q * np.where(peaks < 0, -1.0, 1.0)


def _gapped(rng: np.random.Generator, r: int) -> np.ndarray:
    """r descending weights >= 0.5 with consecutive gaps of at least 0.1."""
    gaps = rng.uniform(0.1, 1.0, size=r)
    return np.cumsum(gaps[::-1])[::-1] + 0.5


# ---------------------------------------------------------------------------
# spectrum-gaussian


def _norm_task(T: Tensor3, key: str, norms: dict) -> Task:
    def check(result):
        value, attained = result
        problems = []
        if attained is None or not value > 0:
            problems.append("no attaining triple")
        elif not bilop.verify_triple(T, attained, TOL).verified or attained.tau != value:
            problems.append("attaining triple does not verify")
        norms[key] = value
        return problems, _counts(starts=_search_starts(T.dims))

    return Task(f"{key}/norm", "norm", key, _size_label(T.dims), lambda: bilop.operator_norm(T, CFG), check)


def _spectrum_task(T: Tensor3, key: str, norms: dict) -> Task:
    def check(spectrum):
        problems = []
        taus = [tr.tau for tr in spectrum.triples]
        if not taus:
            problems.append("empty spectrum")
        for tr in spectrum.triples:
            if not bilop.verify_triple(T, tr, TOL).verified:
                problems.append(f"triple tau={tr.tau!r} does not verify")
        # Near-equal tau's (within dedup_tol) are ordered by their vectors.
        for a, b in zip(taus, taus[1:]):
            if b > a + CFG.dedup_tol * (1.0 + a):
                problems.append("tau's not sorted descending")
        norm = norms.get(key)
        if taus and norm is not None:
            if max(taus) > norm + TOL * (1.0 + norm):
                problems.append(f"a verified tau exceeds the operator norm {norm!r}")
            if abs(max(taus) - norm) > TOL * (1.0 + norm):
                problems.append(f"top tau {max(taus)!r} disagrees with the norm {norm!r}")
        return problems, _counts(orbits=len(taus), starts=_search_starts(T.dims))

    return Task(
        f"{key}/spectrum", "spectrum", key, _size_label(T.dims), lambda: bilop.enumerate_triples(T, CFG), check
    )


def spectrum_gaussian(seed: int, sizes=GAUSSIAN_SIZES) -> Workload:
    norms: dict = {}
    tasks = []
    index = 0
    for dims, count in sizes:
        for _ in range(count):
            rng = np.random.default_rng([seed, 1, index])
            key = "gauss-{}x{}x{}-{}".format(*dims, index)
            T = Tensor3.from_array(rng.standard_normal(dims), name=key)
            tasks += [_norm_task(T, key, norms), _spectrum_task(T, key, norms)]
            index += 1
    return Workload("spectrum-gaussian", tasks, warmup=tasks[:2])


# ---------------------------------------------------------------------------
# schmidt-planted


def _schmidt_task(T: Tensor3, key: str, planted_taus) -> Task:
    def check(result):
        rep, report = result
        steps = len(report.steps)
        counts = _counts(terms=len(rep.terms), steps=steps, starts=steps * _search_starts(T.dims))
        problems = []
        if rep.status is not SchmidtStatus.COMPLETE:
            problems.append(f"status {rep.status.value}")
        elif len(rep.terms) != len(planted_taus):
            problems.append(f"{len(rep.terms)} terms, planted {len(planted_taus)}")
        else:
            got = np.array([t.tau for t in rep.terms])
            if np.max(np.abs(got - planted_taus)) > PLANTED_TOL:
                problems.append("planted tau's not recovered")
            if not bilop.verify_representation(T, rep, TOL).all_ok:
                problems.append("representation does not verify")
        return problems, counts

    return Task(f"{key}/schmidt", "schmidt", key, _size_label(T.dims), lambda: bilop.schmidt_decompose(T, CFG), check)


def _failing_schmidt_task(T: Tensor3, key: str) -> Task:
    """An input with no Schmidt representation: it must fail at step 1."""

    def check(result):
        rep, report = result
        steps = len(report.steps)
        counts = _counts(steps=steps, starts=steps * _search_starts(T.dims))
        f = report.failure
        if rep.status is not SchmidtStatus.FAILED or f is None:
            return [f"status {rep.status.value}, expected an honest failure"], counts
        if f.step != 1 or f.reason is not FailureReason.NOT_ORDERED:
            return [f"failed at step {f.step} ({f.reason.value}), expected NotOrdered at 1"], counts
        return [], counts

    return Task(f"{key}/schmidt", "schmidt", key, _size_label(T.dims), lambda: bilop.schmidt_decompose(T, CFG), check)


def _schur_pipeline(T: Tensor3):
    symmetric = bilop.is_symmetric(T, TOL)
    self_adjoint = bilop.is_self_adjoint(T, TOL)
    rep, report = bilop.schmidt_decompose(T, CFG)
    schur = bilop.schur_from_schmidt(T, rep, TOL)
    return symmetric, self_adjoint, rep, report, schur, bilop.verify_schur(T, schur, TOL)


def _schur_task(T: Tensor3, key: str, lams) -> Task:
    order = np.argsort(-np.abs(lams), kind="stable")
    planted = np.asarray(lams)[order]

    def check(result):
        symmetric, self_adjoint, rep, report, schur, schur_check = result
        steps = len(report.steps)
        counts = _counts(terms=len(rep.terms), steps=steps, starts=steps * _search_starts(T.dims))
        problems = []
        if not (symmetric and self_adjoint):
            problems.append("planted cubic not recognised as symmetric and self-adjoint")
        if not bilop.verify_representation(T, rep, TOL).all_ok:
            problems.append("Schmidt representation does not verify")
        got = np.array([t.lam for t in schur.terms])
        if got.shape != planted.shape or np.max(np.abs(got - planted)) > PLANTED_TOL:
            problems.append("planted lambda's not recovered")
        if not schur_check.all_ok:
            problems.append("Schur form does not verify")
        return problems, counts

    return Task(f"{key}/schur", "schur", key, _size_label(T.dims), lambda: _schur_pipeline(T), check)


def schmidt_planted(seed: int, sizes=PLANTED_SIZES, schur_sizes=SCHUR_SIZES) -> Workload:
    tasks = []
    index = 0
    for dims, count in sizes:
        for _ in range(count):
            rng = np.random.default_rng([seed, 2, index])
            taus = _gapped(rng, min(dims))
            U, V, W = (_orthonormal(rng, n) for n in dims)
            key = "planted-{}x{}x{}-{}".format(*dims, index)
            terms = [(taus[i], U[:, i], V[:, i], W[:, i]) for i in range(len(taus))]
            tasks.append(_schmidt_task(bilop.from_schmidt(terms, dims=dims, name=key), key, taus))
            index += 1
    for n in schur_sizes:
        rng = np.random.default_rng([seed, 3, index])
        lams = _gapped(rng, n) * rng.choice([-1.0, 1.0], size=n)
        Q = _orthonormal(rng, n)
        key = f"cubic-{n}-{index}"
        T = Tensor3.from_array(np.einsum("m,im,jm,km->ijk", lams, Q, Q, Q), name=key)
        tasks.append(_schur_task(T, key, lams))
        index += 1
    # The two honest failures are fixed inputs, whatever the seed. A
    # Gaussian 8^3 draw's search time varies by half from draw to draw,
    # so a seeded one would make every seed a different workload.
    tasks.append(_failing_schmidt_task(gallery.overlapping_slices(), "overlapping_slices"))
    rng = np.random.default_rng([0, 4])
    tasks.append(_failing_schmidt_task(Tensor3.from_array(rng.standard_normal((8, 8, 8))), "gauss-8x8x8"))
    warmup = [tasks[0]] + [t for t in tasks if t.call == "schur"][:1]
    return Workload("schmidt-planted", tasks, warmup)


# ---------------------------------------------------------------------------
# cli-gallery


def diagonal_pair_triples() -> dict:
    """The six known singular triples of gallery.diagonal_pair, by hand."""
    a, b = 3.0 / np.sqrt(13.0), 2.0 / np.sqrt(13.0)
    saddle = 6.0 / np.sqrt(13.0)
    rows = [
        (3.0, [0, 1, 0], [0, 1], [0, 1, 0, 0]),
        (2.0, [1, 0, 0], [1, 0], [1, 0, 0, 0]),
        (saddle, [a, -b, 0], [a, -b], [a, b, 0, 0]),
        (saddle, [a, -b, 0], [a, b], [a, -b, 0, 0]),
        (saddle, [a, b, 0], [a, b], [a, b, 0, 0]),
        (saddle, [a, b, 0], [a, -b], [a, -b, 0, 0]),
    ]
    return {
        "triples": [
            {"tau": float(t), "x": [float(v) for v in x], "y": [float(v) for v in y], "z": [float(v) for v in z]}
            for t, x, y, z in rows
        ]
    }


def cli_invocations() -> list[tuple[str, list[str]]]:
    """(name, CLI arguments) of the 17 invocations, in their fixed order."""
    out = []
    for stem in GALLERY:
        for cmd in CLI_COMMANDS:
            out.append((f"{stem}/{cmd}", [cmd, f"{stem}.json", "--json"]))
    out.append(("diagonal_pair/verify", ["verify", "diagonal_pair.json", "diagonal_pair_triples.json", "--json"]))
    return out


def cli_argv(workdir: Path, args: list[str]) -> list[str]:
    """CLI arguments with the input file names resolved in workdir."""
    return [str(workdir / a) if a.endswith(".json") else a for a in args]


def write_cli_inputs(workdir: Path) -> None:
    from bilop import tensor_to_json_dict

    workdir.mkdir(parents=True, exist_ok=True)
    for stem, build in GALLERY.items():
        (workdir / f"{stem}.json").write_text(json.dumps(tensor_to_json_dict(build())))
    (workdir / "diagonal_pair_triples.json").write_text(json.dumps(diagonal_pair_triples()))


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], cwd: Path, env: dict, stdout_path: Path) -> dict:
    """Run a child to completion; return its exit code, output, wall time
    and peak RSS. Output goes through a file so the child can be reaped
    with os.wait4, which reports that child's own resource usage."""
    with open(stdout_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=subprocess.DEVNULL)
        killer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "code": proc.returncode,
        "stdout": stdout_path.read_text(),
        "wall_s": wall,
        "maxrss_kb": usage.ru_maxrss,
    }


def _close(got, want, path="") -> list[str]:
    """Differences between two parsed JSON values: same keys, same
    strings and flags, numbers within CLI_TOL."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or list(got) != list(want):
            return [f"{path}: keys differ"]
        return [p for k in want for p in _close(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: length differs"]
        return [p for i, (g, w) in enumerate(zip(got, want)) for p in _close(g, w, f"{path}[{i}]")]
    if isinstance(want, (int, float)) and not isinstance(want, bool):
        if isinstance(got, bool) or not isinstance(got, (int, float)) or abs(got - want) > CLI_TOL:
            return [f"{path}: {got!r} != {want!r}"]
        return []
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


def _cli_counts(cmd: str, report) -> dict:
    if report is None:
        return _counts()
    dims = report["input"]["dims"]
    per_search = dims[0] * dims[1] + report["config"]["starts"]
    result = report["result"]
    if cmd == "norm":
        return _counts(starts=per_search)
    if cmd == "spectrum":
        return _counts(orbits=result["count"], starts=per_search)
    if cmd == "schmidt":
        steps = len(result["deflation"]["steps"])
        return _counts(terms=len(result["terms"]), steps=steps, starts=steps * per_search)
    if cmd == "schur":
        steps = len(result["terms"])
        return _counts(terms=steps, steps=steps, starts=steps * per_search)
    return _counts()


def cli_gallery(root: Path, workdir: Path, traced: dict) -> Workload:
    """The CLI tasks. ``traced`` maps task name to a flag the runner sets
    to send that invocation through cli_child.py instead of ``-m bilop``."""
    expected = json.loads(EXPECTED_CLI.read_text())
    env = child_env(root)
    tasks = []
    for name, args in cli_invocations():
        want = expected[name]
        cmd = args[0]
        argv = cli_argv(workdir, args)

        def run(name=name, argv=argv):
            stem = name.replace("/", "-")
            if traced.get(name):
                spans = workdir / f"{stem}.spans.json"
                full = [sys.executable, str(BENCH_DIR / "cli_child.py"), str(spans), *argv]
            else:
                spans = None
                full = [sys.executable, "-m", "bilop", *argv]
            result = run_child(full, root, env, workdir / f"{stem}.out")
            result["spans_path"] = spans
            return result

        def check(result, want=want, cmd=cmd):
            report = json.loads(result["stdout"]) if result["stdout"].strip() else None
            problems = []
            if result["code"] != want["code"]:
                problems.append(f"exit code {result['code']}, expected {want['code']}")
            problems += _close(report, want["report"], "report")
            return problems, _cli_counts(cmd, report)

        tasks.append(Task(name, cmd, name.split("/")[0], "gallery", run, check, cli=True))
    return Workload("cli-gallery", tasks, warmup=tasks[:1])


def build(name: str, seed: int, root: Path, workdir: Path, traced: dict, smoke: bool = False) -> Workload:
    """The named workload; ``smoke`` keeps only its smallest inputs."""
    if name == "spectrum-gaussian":
        return spectrum_gaussian(seed, [((4, 4, 4), 1)] if smoke else GAUSSIAN_SIZES)
    if name == "schmidt-planted":
        if smoke:
            return schmidt_planted(seed, [((4, 4, 4), 1)], SCHUR_SIZES[:1])
        return schmidt_planted(seed)
    if name == "cli-gallery":
        write_cli_inputs(workdir)
        w = cli_gallery(root, workdir, traced)
        if smoke:
            keep = {"diagonal_pair/spectrum", "overlapping_slices/schmidt", "overlapping_slices/schur", "diagonal_pair/verify"}
            w.tasks = [t for t in w.tasks if t.name in keep]
            w.warmup = w.tasks[:1]
        return w
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ["spectrum-gaussian", "schmidt-planted", "cli-gallery"]
