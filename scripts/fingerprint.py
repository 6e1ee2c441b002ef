"""Print one SHA-256 per benchmark workload family over the bytes of every answer.

Usage: python scripts/fingerprint.py [--seeds 1-10,7919] [--families F,...]
                                     [--save DIR] [--compare DIR [--atol X]] [--diff DIR]

Two checkouts whose answers are bit-identical print the same four lines;
a refactor that must not change results can be checked by running this at
the old and the new commit and comparing. --families hashes only the named
families (default: all four), e.g. spectrum-gaussian,gallery to skip the
17 CLI processes in a quick loop. The families:

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

A change that is meant to move answers reports how far they moved: --save
DIR writes the hashed answers, one JSON line each, to DIR/<family>.jsonl,
and --compare DIR (the same seeds, usually saved at another commit) prints
per family every structural change (a status, flag, string or count, a
list's length or order) and the largest absolute float difference, with
where it occurs; a zero whose sign flipped counts as the least positive
difference, 5e-324, so it fails the default --atol. CLI reports are compared as parsed JSON. --diff DIR reads
the same saved answers and prints, for every spectrum (the spectrum-gaussian
spectra, the gallery spectra and lattice oracle) whose sign orbits changed,
the orbits lost and gained: an orbit matches when tau lies within 1e-9 and,
for one of the four sign variants, each of x, y and z lies within 1e-9 in
norm. Spectra whose orbits all match print nothing.

Exit status: 1 when --compare reports a structural change or a float
difference above --atol (default 0), or --diff an orbit lost or gained (a
missing or extra answer counts for both); 0 otherwise. So a change that must
keep every bit is checked by one command, --compare DIR against answers saved
at its parent, and a change that may only drift by rounding by --compare DIR
--atol 1e-12.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import math
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
from bilop.spectra import _orbit_distance  # noqa: E402

FAMILIES = ("spectrum-gaussian", "schmidt-planted", "gallery", "cli-gallery")
#: Two lists whose elements differ by more than this are tried for a reordering.
ORDER_TOL = 1e-6
#: Structural changes printed per family.
SHOWN = 10
#: Two triples are one orbit when tau and, for some sign variant, x, y and z lie this close.
ORBIT_TOL = 1e-9


def parse_seeds(text: str) -> list[int]:
    """'1-3,7' -> [1, 2, 3, 7]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def plain(obj):
    """obj as JSON values: a dataclass as {"dataclass", "fields"}, an array as {"shape", "data"}."""
    if dataclasses.is_dataclass(obj):
        fields = {f.name: plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
        return {"dataclass": type(obj).__name__, "fields": fields}
    if isinstance(obj, Enum):
        return plain(obj.value)
    if isinstance(obj, np.ndarray):
        return {"shape": list(obj.shape), "data": np.asarray(obj, dtype=float).ravel().tolist()}
    if isinstance(obj, (tuple, list)):
        return [plain(item) for item in obj]
    if isinstance(obj, bytes):
        return obj.decode()
    if isinstance(obj, (np.bool_, np.integer, np.floating)):
        return obj.item()
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise TypeError(f"cannot fingerprint {type(obj).__name__}")


def feed(h, obj) -> None:
    """Hash a plain() value's exact bytes, tagged by type so no two values collide."""
    if isinstance(obj, dict) and "dataclass" in obj:
        h.update(b"D" + obj["dataclass"].encode())
        for value in obj["fields"].values():
            feed(h, value)
    elif isinstance(obj, dict):
        h.update(b"a" + repr(tuple(obj["shape"])).encode() + np.asarray(obj["data"], dtype=float).tobytes())
    elif isinstance(obj, bool):
        h.update(b"T" if obj else b"F")
    elif isinstance(obj, int):
        h.update(b"i%d;" % obj)
    elif isinstance(obj, float):
        h.update(b"f" + struct.pack("<d", obj))
    elif isinstance(obj, str):
        data = obj.encode()
        h.update(b"s%d;" % len(data) + data)
    elif obj is None:
        h.update(b"N")
    else:
        h.update(b"(%d;" % len(obj))
        for item in obj:
            feed(h, item)


class Drift:
    """Structural changes and the largest float difference between two plain() values."""

    def __init__(self) -> None:
        self.changes: list[str] = []
        self.max_diff = 0.0
        self.where = ""

    def float_diff(self, a: float, b: float, path: str) -> None:
        d = 0.0 if a == b or (a != a and b != b) else abs(a - b)
        if a == b == 0.0 and math.copysign(1.0, a) != math.copysign(1.0, b):
            d = math.ulp(0.0)  # a flipped zero sign: the least difference, so only a positive --atol forgives it
        if not d <= self.max_diff:  # NaN against a number counts as inf
            self.max_diff, self.where = (d if d == d else float("inf")), path

    def walk(self, old, new, path: str) -> None:
        if isinstance(old, float) or isinstance(new, float):
            # A JSON report writes an integral float as an int.
            if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (old, new)):
                self.float_diff(float(old), float(new), path)
            else:
                self.changes.append(f"{path}: {old!r} -> {new!r}")
        elif type(old) is not type(new):
            self.changes.append(f"{path}: {type(old).__name__} -> {type(new).__name__}")
        elif isinstance(old, str) and old != new and old[:1] == new[:1] == "{":
            self.walk(json.loads(old), json.loads(new), path + " (json)")
        elif isinstance(old, dict) and "dataclass" in old:
            if old["dataclass"] != new.get("dataclass") or old["fields"].keys() != new["fields"].keys():
                self.changes.append(f"{path}: {old['dataclass']} -> {new.get('dataclass')}")
                return
            for name in old["fields"]:
                self.walk(old["fields"][name], new["fields"][name], f"{path}.{name}")
        elif isinstance(old, dict) and "shape" in old and "data" in old:
            if old["shape"] != new.get("shape"):
                self.changes.append(f"{path}: shape {old['shape']} -> {new.get('shape')}")
                return
            for i, (a, b) in enumerate(zip(old["data"], new["data"])):
                self.float_diff(a, b, f"{path}[{i}]")
        elif isinstance(old, dict):
            if old.keys() != new.keys():
                self.changes.append(f"{path}: keys {sorted(old)} -> {sorted(new)}")
                return
            for key in old:
                self.walk(old[key], new[key], f"{path}.{key}")
        elif isinstance(old, list):
            self.walk_list(old, new, path)
        elif old != new:
            self.changes.append(f"{path}: {old!r} -> {new!r}")

    def walk_list(self, old: list, new: list, path: str) -> None:
        if len(old) != len(new):
            self.changes.append(f"{path}: length {len(old)} -> {len(new)}")
            return
        order = list(range(len(new)))
        nested = bool(old) and all(isinstance(a, (dict, list)) for a in old)
        if nested and any(distance(a, b) > ORDER_TOL for a, b in zip(old, new)):
            # Match each old element to its nearest new one; a permutation
            # of close matches is a reordering, not a drift.
            match = [min(range(len(new)), key=lambda j: distance(a, new[j])) for a in old]
            close = all(distance(a, new[j]) <= ORDER_TOL for a, j in zip(old, match))
            if close and sorted(match) == order and match != order:
                self.changes.append(f"{path}: order {match}")
                order = match
        for i, j in enumerate(order):
            self.walk(old[i], new[j], f"{path}[{i}]")


def distance(old, new) -> float:
    """Largest float difference between two plain() values, inf if their structure differs."""
    drift = Drift()
    drift.walk(old, new, "")
    return float("inf") if drift.changes else drift.max_diff


def gallery_answers(cfg: SearchConfig):
    """(label, answer) for each gallery answer; only the answer is hashed."""
    for name, build in workloads.GALLERY.items():
        T = build()
        rep, report = bilop.schmidt_decompose(T, cfg)
        yield name, (name, bilop.operator_norm(T, cfg), bilop.enumerate_triples(T, cfg), rep, report)
        tol = cfg.residual_tol
        cubic = len(set(T.dims)) == 1
        if cubic and bilop.is_symmetric(T, tol) and bilop.is_self_adjoint(T, tol) and rep.status is bilop.SchmidtStatus.COMPLETE:
            yield f"{name}/schur", bilop.schur_from_schmidt(T, rep, tol)
        yield f"{name}/oracle", bilop.exhaustive_small_spectrum(T, cfg)


def cli_answers(workdir: Path):
    workloads.write_cli_inputs(workdir)
    env = workloads.child_env(ROOT)
    for name, args in workloads.cli_invocations():
        argv = [sys.executable, "-m", "bilop", *workloads.cli_argv(workdir, args)]
        proc = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        yield name, proc.returncode, proc.stdout


def answers(seeds: list[int], families=FAMILIES):
    """(family, label, plain answer) for every answer the named families hash, in order."""
    for seed in seeds:
        for family, workload in (
            ("spectrum-gaussian", workloads.spectrum_gaussian),
            ("schmidt-planted", workloads.schmidt_planted),
        ):
            if family in families:
                for task in workload(seed).tasks:
                    yield family, f"{seed}/{task.name}", plain((seed, task.name, task.run()))
        if "gallery" in families:
            for name, answer in gallery_answers(SearchConfig(seed=seed)):
                yield "gallery", f"{seed}/{name}", plain((seed, answer))
    if "cli-gallery" in families:
        with tempfile.TemporaryDirectory() as tmp:
            for answer in cli_answers(Path(tmp)):
                yield "cli-gallery", answer[0], plain(answer)


def parse_families(text: str) -> tuple[str, ...]:
    """'gallery,spectrum-gaussian' -> the named families, in FAMILIES order."""
    names = set(text.split(","))
    unknown = names - set(FAMILIES)
    if unknown:
        raise argparse.ArgumentTypeError(f"unknown families: {', '.join(sorted(unknown))}")
    return tuple(f for f in FAMILIES if f in names)


def spectra_in(obj):
    """Every Spectrum in a plain() value (itself or in its lists), as a list of (tau, x, y, z) per triple."""
    if isinstance(obj, dict) and obj.get("dataclass") == "Spectrum":
        triples = [t["fields"] for t in obj["fields"]["triples"]]
        yield [(t["tau"], *(np.array(t[f]["data"]) for f in "xyz")) for t in triples]
    elif isinstance(obj, list):
        for item in obj:
            yield from spectra_in(item)


def same_orbit(a, b) -> bool:
    """tau within ORBIT_TOL, and x, y, z each within ORBIT_TOL in norm for one sign variant."""
    if abs(a[0] - b[0]) > ORBIT_TOL or any(u.shape != v.shape for u, v in zip(a[1:], b[1:])):
        return False
    return bool(_orbit_distance(tuple(u[None] for u in a[1:]), b[1:])[0] <= ORBIT_TOL)


def orbit_diff(old, new, where: str) -> list[str]:
    """The orbits lost and gained between the spectra of two plain() answers; empty when they all match."""
    lines = []
    for before, after in zip(spectra_in(old), spectra_in(new)):
        lost = [a for a in before if not any(same_orbit(a, b) for b in after)]
        gained = [b for b in after if not any(same_orbit(a, b) for a in before)]
        if lost or gained:
            lines.append(f"{where}: {len(lost)} orbit(s) lost, {len(gained)} gained ({len(before)} -> {len(after)})")
            lines += [f"    lost   tau={t[0]!r}" for t in lost] + [f"    gained tau={t[0]!r}" for t in gained]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10,7919", help="seed list, e.g. 1-10,7919 (default)")
    parser.add_argument(
        "--families", type=parse_families, default=FAMILIES, help="comma-separated families (default: all four)"
    )
    parser.add_argument("--save", type=Path, help="write the answers to DIR/<family>.jsonl")
    parser.add_argument("--compare", type=Path, help="report drift against answers saved in DIR")
    parser.add_argument("--diff", type=Path, help="report the sign orbits each spectrum lost and gained against DIR")
    parser.add_argument("--atol", type=float, default=0.0, help="largest float difference --compare accepts (default 0)")
    args = parser.parse_args(argv)
    if args.compare and args.diff and args.compare != args.diff:
        parser.error("--compare and --diff read the same saved answers")
    families = args.families
    base_dir = args.compare or args.diff
    hashes = {family: hashlib.sha256() for family in families}
    counts = dict.fromkeys(families, 0)
    drift = {family: Drift() for family in families}
    orbits = {family: [] for family in families}
    with contextlib.ExitStack() as files:
        saved, baseline = {}, {}
        if args.save:
            args.save.mkdir(parents=True, exist_ok=True)
            saved = {f: files.enter_context(open(args.save / f"{f}.jsonl", "w")) for f in families}
        if base_dir:
            baseline = {f: files.enter_context(open(base_dir / f"{f}.jsonl")) for f in families}
        for family, where, answer in answers(parse_seeds(args.seeds), families):
            feed(hashes[family], answer)
            counts[family] += 1
            if saved:
                saved[family].write(json.dumps(answer) + "\n")
            if baseline:
                line = baseline[family].readline()
                if not line:
                    drift[family].changes.append(f"{where}: not in {base_dir}")
                    orbits[family].append(f"{where}: not in {base_dir}")
                else:
                    old = json.loads(line)
                    if args.compare:
                        drift[family].walk(old, answer, where)
                    if args.diff:
                        orbits[family] += orbit_diff(old, answer, where)
        for family, f in baseline.items():
            left = sum(1 for _ in f)
            if left:
                drift[family].changes.append(f"{left} saved answer(s) not produced")
                orbits[family].append(f"{left} saved answer(s) not produced")
    for family, h in hashes.items():
        print(f"{family:18s} {h.hexdigest()}")
    failed = bool(args.diff) and any(orbits.values())
    if args.diff:
        for family in families:
            for line in orbits[family]:
                print(f"{family:18s} {line}")
    if args.compare:
        failed |= any(d.changes or not d.max_diff <= args.atol for d in drift.values())
        for family in families:
            d = drift[family]
            print(
                f"{family:18s} {counts[family]} answers, {len(d.changes)} structural change(s), "
                f"max |float diff| {d.max_diff:.3g}" + (f" at {d.where}" if d.max_diff else "")
            )
            for change in d.changes[:SHOWN]:
                print(f"    {change}")
            if len(d.changes) > SHOWN:
                print(f"    ... {len(d.changes) - SHOWN} more")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
