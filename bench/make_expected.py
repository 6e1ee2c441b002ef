"""Regenerate bench/expected/cli_gallery.json from the current code.

Usage: python3 bench/make_expected.py

Runs the 17 cli-gallery invocations once and stores, for each, the exit
code and the parsed JSON report (null when the command prints none).
Run it only when a change to the CLI's answers is intended, and say so in
the change: the benchmark fails every cli-gallery task whose exit code or
report (keys, strings, numbers to 1e-9) differs from this file.
"""

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def main() -> int:
    workdir = BENCH_DIR / ".work"
    workloads.write_cli_inputs(workdir)
    env = workloads.child_env(ROOT)
    expected = {}
    for name, args in workloads.cli_invocations():
        result = workloads.run_child(
            [sys.executable, "-m", "bilop", *workloads.cli_argv(workdir, args)], ROOT, env, workdir / "expected.out"
        )
        report = json.loads(result["stdout"]) if result["stdout"].strip() else None
        expected[name] = {"code": result["code"], "report": report}
        print(f"{name}: exit {result['code']}")
    workloads.EXPECTED_CLI.parent.mkdir(exist_ok=True)
    workloads.EXPECTED_CLI.write_text(json.dumps(expected, indent=1) + "\n")
    print(f"wrote {workloads.EXPECTED_CLI.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
