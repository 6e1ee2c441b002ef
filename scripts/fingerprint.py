"""Print one SHA-256 per benchmark workload family over the bytes of every answer.

Usage: python scripts/fingerprint.py [--seeds 1-10,7919]

Two checkouts whose answers are bit-identical print the same four lines;
a refactor that must not change results can be checked by running this at
the old and the new commit and comparing. The families:

  spectrum-gaussian  operator_norm and enumerate_triples on the benchmark's
                     seeded Gaussian tensors, every seed
  schmidt-planted    the benchmark's Schmidt and Schur tasks, every seed
  gallery            enumerate_triples, operator_norm, schmidt_decompose,
                     schur_from_schmidt (symmetric self-adjoint inputs) and
                     exhaustive_small_spectrum on the four gallery tensors,
                     with SearchConfig(seed=s) for every seed
  cli-gallery        stdout bytes and exit code of the benchmark's 17
                     `bilop ... --json` invocations (seed-independent)

Each hash covers the exact bytes of every float, vector, flag, status and
string in the answers (dataclasses field by field), so any last-digit change
shows. The inputs come from bench/workloads.py, which is only read.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import struct
import subprocess
import sys
import tempfile
from enum import Enum
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import bilop  # noqa: E402
import workloads  # noqa: E402
from bilop import SearchConfig  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    """'1-3,7' -> [1, 2, 3, 7]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def feed(h, obj) -> None:
    """Hash obj's exact bytes, tagged by type so no two values collide."""
    if dataclasses.is_dataclass(obj):
        h.update(b"D" + type(obj).__name__.encode())
        for f in dataclasses.fields(obj):
            feed(h, getattr(obj, f.name))
    elif isinstance(obj, Enum):
        feed(h, obj.value)
    elif isinstance(obj, (bool, np.bool_)):
        h.update(b"T" if obj else b"F")
    elif isinstance(obj, (int, np.integer)):
        h.update(b"i%d;" % int(obj))
    elif isinstance(obj, (float, np.floating)):
        h.update(b"f" + struct.pack("<d", float(obj)))
    elif isinstance(obj, (str, bytes)):
        data = obj.encode() if isinstance(obj, str) else obj
        h.update(b"s%d;" % len(data) + data)
    elif obj is None:
        h.update(b"N")
    elif isinstance(obj, np.ndarray):
        h.update(b"a" + repr(obj.shape).encode() + np.ascontiguousarray(obj, dtype=float).tobytes())
    elif isinstance(obj, (tuple, list)):
        h.update(b"(%d;" % len(obj))
        for item in obj:
            feed(h, item)
    else:
        raise TypeError(f"cannot fingerprint {type(obj).__name__}")


def gallery_answers(cfg: SearchConfig):
    for name, build in workloads.GALLERY.items():
        T = build()
        rep, report = bilop.schmidt_decompose(T, cfg)
        yield name, bilop.operator_norm(T, cfg), bilop.enumerate_triples(T, cfg), rep, report
        tol = cfg.residual_tol
        cubic = len(set(T.dims)) == 1
        if cubic and bilop.is_symmetric(T, tol) and bilop.is_self_adjoint(T, tol) and rep.status is bilop.SchmidtStatus.COMPLETE:
            yield bilop.schur_from_schmidt(T, rep, tol)
        yield bilop.exhaustive_small_spectrum(T, cfg)


def cli_answers(workdir: Path):
    workloads.write_cli_inputs(workdir)
    env = workloads.child_env(ROOT)
    for name, args in workloads.cli_invocations():
        argv = [sys.executable, "-m", "bilop", *workloads.cli_argv(workdir, args)]
        proc = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        yield name, proc.returncode, proc.stdout


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10,7919", help="seed list, e.g. 1-10,7919 (default)")
    seeds = parse_seeds(parser.parse_args(argv).seeds)
    families = {name: hashlib.sha256() for name in ("spectrum-gaussian", "schmidt-planted", "gallery", "cli-gallery")}
    for seed in seeds:
        for family, workload in (
            ("spectrum-gaussian", workloads.spectrum_gaussian(seed)),
            ("schmidt-planted", workloads.schmidt_planted(seed)),
        ):
            for task in workload.tasks:
                feed(families[family], (seed, task.name, task.run()))
        for answer in gallery_answers(SearchConfig(seed=seed)):
            feed(families["gallery"], (seed, answer))
    with tempfile.TemporaryDirectory() as tmp:
        for answer in cli_answers(Path(tmp)):
            feed(families["cli-gallery"], answer)
    for family, h in families.items():
        print(f"{family:18s} {h.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
