"""scripts/bench_pairs.py's summary, verdicts and refusals, on canned benchmark record lines; no benchmark runs."""

import contextlib
import importlib.util
import json
import pathlib
import re
from types import SimpleNamespace

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
BOUNDS = {
    "wall_s": {"better": "lower", "bound": 0.25},
    "peak_rss_mb": {"better": "lower", "bound": 0.1},
    "orbits_found": {"better": "higher", "bound": 0.2},
    "setup_s": {"better": "lower", "bound": 0.25},
}


@pytest.fixture(scope="module")
def pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def lines(wall_s=2.0, orbits=3889, ops_failed=0, correct=True, seed=1) -> str:
    """The last two stdout lines of one `bench/run.py --trace 0` run, as it prints them."""
    metrics = {"wall_s": wall_s, "peak_rss_mb": 42.5, "orbits_found": orbits, "setup_s": 0.27}
    units = {"wall_s": "s", "peak_rss_mb": "MiB", "orbits_found": "count", "setup_s": "s"}
    record = {
        "workload": "spectrum-gaussian", "seed": seed, "seconds": 15, "trace": 0, "smoke": False,
        "environment": {"python": "3.11.7", "numpy": "2.4.6", "nproc": 2, "commit": "0" * 40},
        "cycles": 6, "ops_total": 720, "ops_failed": ops_failed, "metrics": metrics,
    }
    result = {"correct": correct, "attempted": 720, "failed": ops_failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    return json.dumps({"record": record}) + "\n" + json.dumps(result) + "\n"


def parsed(text: str, returncode: int = 0) -> dict:
    """What run_once keeps of a run that printed text."""
    record, result = (json.loads(line) for line in text.splitlines()[-2:])
    return {"returncode": returncode, "record": record["record"], "result": result}


def canned(walls: dict, **faults):
    """A run(side, workload, seed) that answers from canned lines, walls[side][seed - 1] seconds, with the faults
    given by "<side>_<seed>" as keyword arguments of lines() or {"returncode": n}; it logs its calls."""
    calls = []

    def run(side, workload, seed):
        calls.append((side, seed))
        fault = dict(faults.get(f"{side}_{seed}", {}))
        returncode = fault.pop("returncode", 0)
        return parsed(lines(walls[side][seed - 1], seed=seed, **fault), returncode)

    return run, calls


class TestCompare:
    def test_quartiles_medians_and_wins(self, pairs):
        base = [2.0, 2.2, 2.1, 2.3, 2.0, 2.4, 2.2, 2.1, 2.5, 2.2]
        change = [1.9, 2.2, 2.0, 2.4, 1.9, 2.3, 2.1, 2.0, 2.4, 2.1]
        row = pairs.compare(base, change, "lower", 0.25)
        assert row["base"] == {"median": 2.2, "q1": pytest.approx(2.1), "q3": pytest.approx(2.275)}
        assert row["change"]["median"] == pytest.approx(2.1)
        # Pair 2 is a tie and pair 4 a loss.
        assert (row["wins"], row["pairs"]) == (8, 10)
        assert row["verdict"] == "no regression"

    def test_a_gain_needs_nine_wins_and_a_gap_beyond_the_base_spread(self, pairs):
        base = [2.0, 2.1, 2.2, 2.3, 2.4, 2.0, 2.1, 2.2, 2.3, 2.4]
        assert pairs.compare(base, [v - 0.5 for v in base], "lower", 0.25)["verdict"] == "gain met"
        # Ten wins, but by less than the base's interquartile range.
        assert pairs.compare(base, [v - 0.01 for v in base], "lower", 0.25)["verdict"] == "no regression"
        # Eight wins by far.
        change = [v - 0.5 for v in base[:8]] + base[8:]
        assert pairs.compare(base, change, "lower", 0.25)["wins"] == 8
        assert pairs.compare(base, change, "lower", 0.25)["verdict"] == "no regression"

    def test_higher_is_better_counts_the_other_way(self, pairs):
        base = [3800.0, 3850.0, 3900.0, 3820.0, 3880.0, 3810.0, 3870.0, 3830.0, 3860.0, 3840.0]
        assert pairs.compare(base, [v + 500 for v in base], "higher", 0.2)["verdict"] == "gain met"
        assert pairs.compare(base, [v - 1000 for v in base], "higher", 0.2)["verdict"] == "regression"
        assert pairs.compare(base, base, "higher", 0.2) | {"base": None, "change": None} == {
            "base": None, "change": None, "wins": 0, "pairs": 10, "verdict": "no regression"
        }

    def test_a_median_worse_by_more_than_the_bound_is_a_regression(self, pairs):
        base = [40.0, 40.1, 40.2, 40.0, 40.1, 40.2, 40.0, 40.1, 40.2, 40.1]
        assert pairs.compare(base, [v * 1.09 for v in base], "lower", 0.1)["verdict"] == "no regression"
        assert pairs.compare(base, [v * 1.11 for v in base], "lower", 0.1)["verdict"] == "regression"

    def test_a_base_spread_wider_than_the_bound_is_unresolved_unless_every_change_run_is_better(self, pairs):
        base = [1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0]
        assert pairs.compare(base, list(base), "lower", 0.25)["verdict"] == "unresolved"
        # Every change run reads better than every base run, but by less than the base's interquartile range: not
        # a gain, and not unresolved either.
        change = [0.9] * 10
        row = pairs.compare(base, change, "lower", 0.25)
        assert row["wins"] == 10 and row["verdict"] == "no regression"

    def test_a_zero_base_median(self, pairs):
        assert pairs.compare([0.0] * 10, [0.0] * 10, "lower", 0.25)["verdict"] == "no regression"
        assert pairs.compare([0.0] * 10, [1.0] * 10, "lower", 0.25)["verdict"] == "regression"


class TestMeasure:
    WALLS = {"base": [2.0 + 0.01 * i for i in range(4)], "change": [1.9 + 0.01 * i for i in range(4)]}

    def test_pairs_alternate_and_keep_every_run(self, pairs):
        run, calls = canned(self.WALLS)
        runs = pairs.measure(["spectrum-gaussian"], 4, run)
        assert calls == [("base", 1), ("change", 1), ("change", 2), ("base", 2),
                         ("base", 3), ("change", 3), ("change", 4), ("base", 4)]
        assert [(r["pair"], r["seed"], r["side"], r["first"]) for r in runs[:4]] == [
            (1, 1, "base", True), (1, 1, "change", False), (2, 2, "base", False), (2, 2, "change", True)
        ]
        assert runs[3]["record"]["seed"] == 2 and runs[3]["result"]["metrics"]["wall_s"]["value"] == 1.91
        summary = pairs.summarize(runs, BOUNDS)["spectrum-gaussian"]
        assert summary["wall_s"]["wins"] == 4 and summary["orbits_found"]["wins"] == 0
        assert summary["wall_s"]["base"]["median"] == pytest.approx(2.015)

    @pytest.mark.parametrize(
        "faults, message",
        [
            ({"change_2": {"returncode": 1}}, "spectrum-gaussian pair 2 (seed 2), change side: exited 1"),
            ({"base_3": {"ops_failed": 2}}, "spectrum-gaussian pair 3 (seed 3), base side: failed 2 operation(s)"),
            ({"base_1": {"correct": False}}, "spectrum-gaussian pair 1 (seed 1), base side: failed 0 operation(s), correct: False"),
            ({"change_3": {"orbits": 3888}}, "spectrum-gaussian pair 3 (seed 3), change side: orbits_found 3888, base 3889"),
        ],
        ids=["exit", "ops-failed", "incorrect", "orbits"],
    )
    def test_a_run_at_fault_is_refused_and_named(self, pairs, faults, message):
        run, calls = canned(self.WALLS, **faults)
        with pytest.raises(pairs.Refused, match=re.escape(message)):
            pairs.measure(["spectrum-gaussian"], 4, run)

    def test_a_run_that_printed_no_lines_is_refused(self, pairs):
        with pytest.raises(pairs.Refused, match="base side: printed no record and result lines"):
            pairs.measure(["cli-gallery"], 2, lambda side, w, seed: {"returncode": 0, "record": None, "result": None})


class TestRender:
    def test_each_run_is_one_line_and_the_file_loads_to_the_report(self, pairs):
        runs = pairs.measure(["spectrum-gaussian"], 3, canned(TestMeasure.WALLS)[0])
        report = {"label": "t", "bounds": BOUNDS, "summary": pairs.summarize(runs, BOUNDS), "runs": runs}
        text = pairs.render(report)
        assert json.loads(text) == report and text.endswith("\n ]\n}\n")
        # The header and summary as json.dumps lays them out at indent=1, then the runs, one line each.
        head = json.dumps({k: v for k, v in report.items() if k != "runs"}, indent=1).splitlines()
        lines = text.splitlines()
        assert lines[: len(head) - 1] == [*head[:-2], head[-2] + ","] and lines[len(head) - 1] == ' "runs": ['
        assert lines[len(head) : -2] == [f"  {json.dumps(run)}," for run in runs[:-1]] + [f"  {json.dumps(runs[-1])}"]


class TestMain:
    def test_the_file_is_written_only_when_every_run_passes(self, pairs, monkeypatch, tmp_path, capsys):
        (tmp_path / "BENCHMARK.json").write_text((SCRIPT.parent.parent / "BENCHMARK.json").read_text())
        monkeypatch.setattr(pairs, "ROOT", tmp_path)
        monkeypatch.setattr(pairs, "PAIRS", 3)
        monkeypatch.setattr(pairs, "git", lambda *args: "" if args[0] == "status" else "f" * 40)
        sides = {side: tmp_path / side for side in pairs.SIDES}
        monkeypatch.setattr(pairs, "checkouts", lambda commit: contextlib.nullcontext(sides))
        walls = {side: [2.0] * 3 for side in pairs.SIDES}
        run, _ = canned(walls, change_2={"ops_failed": 1})
        seen = []

        def run_once(cwd, command, w, seed, seconds, env):
            seen.append((w, seconds, env["PYTHONDONTWRITEBYTECODE"]))
            return run(cwd.name, w, seed)

        monkeypatch.setattr(pairs, "run_once", run_once)
        argv = ["--base", "HEAD~1", "--label", "t"]
        assert pairs.main(argv) == 1
        assert not (tmp_path / "BENCH_t.json").exists()
        assert "spectrum-gaussian pair 2 (seed 2), change side: failed 1 operation(s)" in capsys.readouterr().err
        run, _ = canned(walls)
        seen.clear()
        assert pairs.main(argv) == 0
        text = (tmp_path / "BENCH_t.json").read_text()
        report = json.loads(text)
        assert text == pairs.render(report) and sum(line.startswith('  {"workload": ') for line in text.splitlines()) == 18
        assert report["commits"] == {"base": "f" * 40, "change": "f" * 40} and report["origin"] == "bench/baseline.json"
        assert report["bounds"] == BOUNDS and "commit" not in report["environment"]
        # Every workload of BENCHMARK.json, at its run length, in PAIRS pairs.
        workloads = ["spectrum-gaussian", "schmidt-planted", "cli-gallery"]
        assert list(report["summary"]) == workloads and (report["pairs"], report["seconds"]) == (3, 15)
        assert sorted(set(seen)) == sorted((w, 15, "1") for w in workloads) and len(seen) == 18
        assert len(report["runs"]) == 18 and report["summary"]["schmidt-planted"]["wall_s"]["verdict"] == "no regression"

    def test_the_options_are_the_base_and_the_label(self, pairs):
        args = pairs.parse_args(["--base", "HEAD~1", "--label", "pr-1_a"])
        assert (args.base, args.label) == ("HEAD~1", "pr-1_a")
        for argv in (["--base", "HEAD", "--label", "a/b"], ["--base", "HEAD", "--label", "t", "--pairs", "3"]):
            with pytest.raises(SystemExit):
                pairs.parse_args(argv)


class TestCopyChange:
    def test_the_change_side_reads_no_stale_bytecode(self, pairs, monkeypatch, tmp_path):
        root = tmp_path / "repo"
        for name, text in {
            "src/bilop/__init__.py": "", "src/bilop/__pycache__/__init__.cpython-311.pyc": "stale",
            "bench/run.py": "", "bench/__pycache__/workloads.cpython-311.pyc": "stale", "bench/.work/t.json": "{}",
            ".git/HEAD": "ref", ".github/workflows/tier1.yml": "", "BENCH_pr1.json": "{}", "BENCHMARK.json": "{}",
        }.items():
            (root / name).parent.mkdir(parents=True, exist_ok=True)
            (root / name).write_text(text)
        monkeypatch.setattr(pairs, "ROOT", root)
        copy = pairs.copy_change(tmp_path / "change")
        assert sorted(str(p.relative_to(copy)) for p in copy.rglob("*") if p.is_file()) == [
            ".github/workflows/tier1.yml", "BENCHMARK.json", "bench/run.py", "src/bilop/__init__.py"
        ]


class TestLarge:
    """--large: the six Gaussian tasks from n = 16 to 32, run by large_task on each side's src/."""

    def test_the_task_list(self, pairs):
        assert [pairs.large_name(n, s) for n, s in pairs.LARGE] == [
            "gaussian-16^3-s1", "gaussian-16^3-s2", "gaussian-24^3-s1", "gaussian-24^3-s2",
            "gaussian-32^3-s1", "gaussian-32^3-s2",
        ]

    def task_lines(self, pairs, capsys, n=3, s=1) -> tuple[dict, dict]:
        pairs.large_task(n, s)
        record, result = (json.loads(line) for line in capsys.readouterr().out.splitlines())
        return record["record"], result

    def test_a_task_prints_bench_lines_after_its_checks(self, pairs, capsys, monkeypatch):
        # A small cube, in process: the same calls and checks as the large tasks, whose runs tier-1 never starts.
        monkeypatch.chdir(SCRIPT.parent.parent)
        record, result = self.task_lines(pairs, capsys)
        orbits = result["metrics"]["orbits_found"]["value"]
        assert result["correct"] is True and pairs.fault({"returncode": 0, "record": record, "result": result}) is None
        assert record["workload"] == "gaussian-3^3-s1" and orbits > 0
        assert (record["ops_total"], record["ops_failed"]) == (orbits + 1, 0)
        assert result["metrics"]["wall_s"]["value"] == record["metrics"]["wall_s"] > 0

    @pytest.mark.parametrize("spoil", ["verify_triple", "operator_norm"])
    def test_a_failed_check_makes_the_run_incorrect(self, pairs, capsys, monkeypatch, spoil):
        import bilop

        monkeypatch.chdir(SCRIPT.parent.parent)
        real = getattr(bilop, spoil)

        def fake(T, *args):
            if spoil == "verify_triple":  # the top triple, the only one with tau > 3, fails
                return SimpleNamespace(verified=False) if args[0].tau > 3 else real(T, *args)
            return real(T, *args)[0] * (1 + 1e-15), None  # a norm a few ulps off the top tau

        monkeypatch.setattr(bilop, spoil, fake)
        record, result = self.task_lines(pairs, capsys)
        assert result["correct"] is False and record["ops_failed"] == 1
        assert pairs.fault({"returncode": 0, "record": record, "result": result}).startswith("failed 1 operation(s)")

    def test_a_bilop_from_outside_the_side_is_refused(self, pairs, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit, match="outside"):
            pairs.large_task(3, 1)

    def test_each_side_runs_this_checkouts_large_task_on_its_own_src(self, pairs, monkeypatch, tmp_path):
        seen = []
        monkeypatch.setattr(pairs, "launch", lambda argv, cwd, env: seen.append((argv, cwd, env)))
        pairs.run_large(tmp_path / "base", 24, 2, {"OPENBLAS_NUM_THREADS": "2", "PYTHONDONTWRITEBYTECODE": "1"})
        [(argv, cwd, env)] = seen
        assert cwd == tmp_path / "base" and env["PYTHONPATH"] == str(tmp_path / "base" / "src")
        assert {env[v] for v in pairs.THREAD_VARS} == {"1"} and env["PYTHONDONTWRITEBYTECODE"] == "1"
        assert argv[1] == "-c" and repr(str(SCRIPT.parent)) in argv[2] and argv[2].endswith("large_task(24, 2)")

    @pytest.mark.parametrize(
        "faults, message",
        [
            ({"change_2": {"orbits": 58}}, "gaussian-16^3-s1 pair 2, change side: orbits_found 58, base 3889"),
            ({"base_1": {"ops_failed": 1, "correct": False}}, "gaussian-16^3-s1 pair 1, base side: failed 1 operation(s)"),
        ],
        ids=["orbits", "check"],
    )
    def test_a_run_at_fault_is_refused_and_named_without_a_seed(self, pairs, faults, message):
        run, _ = canned(TestMeasure.WALLS, **faults)
        with pytest.raises(pairs.Refused, match="^" + re.escape(message)):
            pairs.measure(["gaussian-16^3-s1"], 4, run, seeded=False)
        run, _ = canned(TestMeasure.WALLS)
        runs = pairs.measure(["gaussian-16^3-s1"], 4, run, seeded=False)
        assert all("seed" not in r for r in runs) and [r["pair"] for r in runs] == [1, 1, 2, 2, 3, 3, 4, 4]

    def test_main_writes_wall_time_and_orbits_for_the_six_tasks(self, pairs, monkeypatch, tmp_path, capsys):
        (tmp_path / "BENCHMARK.json").write_text((SCRIPT.parent.parent / "BENCHMARK.json").read_text())
        monkeypatch.setattr(pairs, "ROOT", tmp_path)
        monkeypatch.setattr(pairs, "PAIRS", 2)
        monkeypatch.setattr(pairs, "git", lambda *args: "" if args[0] == "status" else "f" * 40)
        sides = {side: tmp_path / side for side in pairs.SIDES}
        monkeypatch.setattr(pairs, "checkouts", lambda commit: contextlib.nullcontext(sides))
        tasks = []

        def run_large(cwd, n, s, env):
            tasks.append((cwd.name, n, s))
            return parsed(lines(30.0 if cwd.name == "base" else 29.0, orbits=n + s))

        monkeypatch.setattr(pairs, "run_large", run_large)
        assert pairs.main(["--base", "HEAD~1", "--label", "t-large", "--large"]) == 0
        report = json.loads((tmp_path / "BENCH_t-large.json").read_text())
        assert list(report["summary"]) == [pairs.large_name(n, s) for n, s in pairs.LARGE]
        assert report["bounds"] == {m: BOUNDS[m] for m in ("wall_s", "orbits_found")}
        assert (report["origin"], report["seconds"], len(report["runs"])) == (None, None, 24)
        assert sorted(set(tasks)) == sorted((side, n, s) for side in pairs.SIDES for n, s in pairs.LARGE)
        row = report["summary"]["gaussian-32^3-s2"]
        assert (row["wall_s"]["wins"], row["orbits_found"]["base"]["median"]) == (2, 34)
