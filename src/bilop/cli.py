"""Command-line interface: norm / spectrum / schmidt / schur / verify.

Reads tensors (and, for verify, triples) from JSON files, runs the
corresponding library operations, and prints either a human-readable
summary or a machine-readable JSON report. Exit codes are stable:

    0  success
    2  input error (unreadable file, malformed JSON, dimension mismatch)
    3  Schmidt decomposition failed (no representation exists at tolerance)
    4  Schur precondition failed (not symmetric/self-adjoint, or inconsistent)

JSON reports are byte-identical across runs for identical inputs and
flags: floats are rendered with repr-faithful 17 significant digits, key
order is fixed, and no timestamps or paths are embedded.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import sys
from typing import Any, Optional, Sequence

import numpy as np

from .tensor_core import Tensor3, hs_norm, tensor_from_json_dict
from .spectra import (
    SearchConfig,
    SingularTriple,
    canonicalize,
    enumerate_triples,
    is_ordered,
    operator_norm,
    verify_triple,
)

__all__ = ["main"]

# Names that only some commands run, loaded from the package on first use (PEP 562), so norm and
# spectrum start with the search core alone. The commands call them as attributes of this module,
# _this, because a bare global name would not reach __getattr__; that is also where the benchmark's
# spans and monkeypatch find them.
_LAZY = frozenset({
    "SchmidtStatus", "schmidt_decompose", "schmidt_sum_sq", "verify_representation",
    "SchurInconsistencyError", "is_self_adjoint", "is_symmetric", "schur_from_schmidt", "verify_schur",
    "stationarity_fd_check",
})
_this = sys.modules[__name__]


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(__package__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})

_EXIT_OK = 0
_EXIT_INPUT = 2
_EXIT_SCHMIDT = 3
_EXIT_SCHUR = 4

#: Step used for the finite-difference stationarity probe in `verify`.
_FD_STEP = 1e-5


class _InputError(Exception):
    """Raised for any problem with user-supplied files or their contents."""


# ---------------------------------------------------------------------------
# deterministic JSON rendering


def _render_json(value: Any, indent: int = 0) -> str:
    """Serialize with stable key order and 17-significant-digit floats.

    json.dumps rounds floats through repr, which is stable, but it cannot
    be told to format numpy scalars, and a custom float subclass loses its
    formatting inside the C encoder; rendering by hand keeps the output
    format under this module's control.
    """
    pad = "  " * indent
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if not np.isfinite(v):
            raise ValueError("non-finite value in report")
        return format(v, ".17g")
    if isinstance(value, str):
        return json.dumps(value)
    if value is None:
        return "null"
    if isinstance(value, (list, tuple)):
        if len(value) == 0:
            return "[]"
        inner = ",\n".join(
            "  " * (indent + 1) + _render_json(v, indent + 1) for v in value
        )
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = ",\n".join(
            "  " * (indent + 1) + json.dumps(str(k)) + ": " + _render_json(v, indent + 1)
            for k, v in value.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    raise TypeError(f"cannot render {type(value).__name__} in a report")


# ---------------------------------------------------------------------------
# input loading


def _load_json_file(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _InputError(f"{path} is not valid JSON: {exc}") from exc


def _load_tensor(path: str) -> Tensor3:
    data = _load_json_file(path)
    try:
        return tensor_from_json_dict(data)
    except ValueError as exc:
        raise _InputError(f"{path}: {exc}") from exc


def _vector_list(obj: Any, what: str) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise _InputError(f"{what} must be a nonempty list of numbers")
    for v in obj:
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise _InputError(f"{what} must contain only numbers")
    return np.asarray(obj, dtype=float)


def _load_triples(path: str, dims: tuple[int, int, int]) -> list[SingularTriple]:
    data = _load_json_file(path)
    if not isinstance(data, dict) or "triples" not in data:
        raise _InputError(f'{path}: expected an object with a "triples" list')
    entries = data["triples"]
    if not isinstance(entries, list):
        raise _InputError(f'{path}: "triples" must be a list')
    out = []
    for pos, item in enumerate(entries):
        where = f"{path}: triple {pos + 1}"
        if not isinstance(item, dict):
            raise _InputError(f"{where} must be an object")
        missing = {"tau", "x", "y", "z"} - set(item)
        if missing:
            raise _InputError(f"{where} is missing {sorted(missing)}")
        tau = item["tau"]
        if isinstance(tau, bool) or not isinstance(tau, (int, float)):
            raise _InputError(f"{where}: tau must be a number")
        x = _vector_list(item["x"], f"{where}: x")
        y = _vector_list(item["y"], f"{where}: y")
        z = _vector_list(item["z"], f"{where}: z")
        if (x.size, y.size, z.size) != dims:
            raise _InputError(
                f"{where}: vector lengths {(x.size, y.size, z.size)} "
                f"do not match tensor dims {dims}"
            )
        out.append(
            SingularTriple(tau=float(tau), x=x, y=y, z=z, residuals=(0.0, 0.0, 0.0))
        )
    return out


# ---------------------------------------------------------------------------
# report assembly


def _config_from_args(args: argparse.Namespace) -> SearchConfig:
    try:
        return SearchConfig(
            starts=args.starts,
            max_iter=args.max_iter,
            residual_tol=args.tol,
            dedup_tol=args.dedup_tol,
            seed=args.seed,
        )
    except ValueError as exc:
        raise _InputError(str(exc)) from exc


def _config_dict(cfg: SearchConfig, dims: tuple[int, int, int]) -> dict:
    return {
        "starts": cfg.resolved_starts(dims),
        "max_iter": cfg.max_iter,
        "iter_tol": cfg.iter_tol,
        "residual_tol": cfg.residual_tol,
        "dedup_tol": cfg.dedup_tol,
        "seed": cfg.seed,
    }


def _report_skeleton(command: str, T: Tensor3, cfg: SearchConfig) -> dict:
    return {
        "command": command,
        "input": {
            "name": T.name,
            "dims": list(T.dims),
            "hs_norm": hs_norm(T),
        },
        "config": _config_dict(cfg, T.dims),
        "status": "Ok",
    }


def _vec(v: np.ndarray) -> list[float]:
    return [float(e) for e in v]


def _triple_dict(tr: SingularTriple) -> dict:
    return {
        "tau": tr.tau,
        "x": _vec(tr.x),
        "y": _vec(tr.y),
        "z": _vec(tr.z),
        "residuals": [float(r) for r in tr.residuals],
    }


def _fmt_vec(v: np.ndarray) -> str:
    return "[" + ", ".join(format(float(e), ".6f") for e in v) + "]"


def _emit(report: dict, args: argparse.Namespace, human_lines: Sequence[str]) -> None:
    if args.json:
        sys.stdout.write(_render_json(report) + "\n")
    else:
        sys.stdout.write("\n".join(human_lines) + "\n")


def _human_header(T: Tensor3) -> list[str]:
    name = T.name if T.name is not None else "(unnamed)"
    n1, n2, n3 = T.dims
    return [
        f"tensor: {name}  dims: {n1}x{n2}x{n3}  hs_norm: {hs_norm(T):.12f}"
    ]


# ---------------------------------------------------------------------------
# subcommands


def _cmd_norm(args: argparse.Namespace, T: Tensor3, cfg: SearchConfig) -> int:
    value, attained = operator_norm(T, cfg)
    report = _report_skeleton("norm", T, cfg)
    report["result"] = {
        "bilinear_norm": value,
        "hs_norm": hs_norm(T),
        "attained": _triple_dict(attained) if attained is not None else None,
    }
    lines = _human_header(T)
    lines.append(f"bilinear_norm: {value:.12f}")
    lines.append(f"hs_norm: {hs_norm(T):.12f}")
    if attained is not None:
        lines.append(f"attained at x = {_fmt_vec(attained.x)}, y = {_fmt_vec(attained.y)}")
    _emit(report, args, lines)
    return _EXIT_OK


def _cmd_spectrum(args: argparse.Namespace, T: Tensor3, cfg: SearchConfig) -> int:
    spectrum = enumerate_triples(T, cfg)
    entries = []
    lines = _human_header(T)
    lines.append(f"spectrum: {len(spectrum.triples)} triple(s), complete: no")
    for pos, tr in enumerate(spectrum.triples):
        oc = is_ordered(T, tr, cfg.residual_tol)
        entry = _triple_dict(tr)
        entry["ordered"] = oc.ordered
        entry["slice_residuals"] = [float(r) for r in oc.slice_residuals]
        entry["adjoint_slice_residual"] = oc.adjoint_slice_residual
        entries.append(entry)
        lines.append(
            f"  [{pos + 1}] tau = {tr.tau:.12f}  ordered = "
            + ("yes" if oc.ordered else "no")
        )
        lines.append(f"      x = {_fmt_vec(tr.x)}")
        lines.append(f"      y = {_fmt_vec(tr.y)}")
        lines.append(f"      z = {_fmt_vec(tr.z)}")
    report = _report_skeleton("spectrum", T, cfg)
    report["result"] = {"count": len(entries), "complete": spectrum.complete, "triples": entries}
    _emit(report, args, lines)
    return _EXIT_OK


def _cmd_schmidt(args: argparse.Namespace, T: Tensor3, cfg: SearchConfig) -> int:
    rep, deflation = _this.schmidt_decompose(T, cfg)
    complete = rep.status is _this.SchmidtStatus.COMPLETE
    result: dict = {
        "status": rep.status.value,
        "terms": [
            {"tau": t.tau, "x": _vec(t.x), "y": _vec(t.y), "z": _vec(t.z)}
            for t in rep.terms
        ],
        "reconstruction_residual": rep.reconstruction_residual,
    }
    if complete:
        check = deflation.check
        if check is None:
            check = _this.verify_representation(T, rep, cfg.residual_tol)
        result["sum_tau_sq"] = _this.schmidt_sum_sq(rep)
        result["verification"] = dataclasses.asdict(check)
    result["deflation"] = {
        "steps": [
            {
                "index": s.index,
                "tau": s.tau,
                "slice_residuals": [float(r) for r in s.slice_residuals],
                "transfer_residuals": [float(r) for r in s.transfer_residuals],
                "remaining_hs": s.remaining_hs,
            }
            for s in deflation.steps
        ],
        "failure": None
        if deflation.failure is None
        else {
            "step": deflation.failure.step,
            "reason": deflation.failure.reason.value,
            "diagnostics": deflation.failure.diagnostics,
        },
    }
    report = _report_skeleton("schmidt", T, cfg)
    report["status"] = "Ok" if complete else "Failed"
    report["result"] = result
    lines = _human_header(T)
    lines.append(f"schmidt: {rep.status.value}, {len(rep.terms)} term(s)")
    for pos, t in enumerate(rep.terms):
        lines.append(f"  [{pos + 1}] tau = {t.tau:.12f}")
        lines.append(f"      x = {_fmt_vec(t.x)}")
        lines.append(f"      y = {_fmt_vec(t.y)}")
        lines.append(f"      z = {_fmt_vec(t.z)}")
    if complete:
        lines.append(f"reconstruction residual: {rep.reconstruction_residual:.3e}")
        lines.append(f"sum of tau^2: {result['sum_tau_sq']:.12f}")
    else:
        f = deflation.failure
        lines.append(f"failed at step {f.step} ({f.reason.value}): {f.diagnostics}")
    _emit(report, args, lines)
    return _EXIT_OK if complete else _EXIT_SCHMIDT


def _cmd_schur(args: argparse.Namespace, T: Tensor3, cfg: SearchConfig) -> int:
    n1, n2, n3 = T.dims
    if not (n1 == n2 == n3):
        sys.stderr.write(
            f"error: schur requires equal dims, got {n1}x{n2}x{n3}\n"
        )
        return _EXIT_SCHUR
    tol = cfg.residual_tol
    symmetric = _this.is_symmetric(T, tol)
    self_adjoint = _this.is_self_adjoint(T, tol)
    if not (symmetric and self_adjoint):
        sys.stderr.write(
            "error: operator is not "
            + ("symmetric" if not symmetric else "self-adjoint")
            + f" at tolerance {tol:g}\n"
        )
        return _EXIT_SCHUR
    rep, deflation = _this.schmidt_decompose(T, cfg)
    if rep.status is not _this.SchmidtStatus.COMPLETE:
        f = deflation.failure
        sys.stderr.write(
            f"error: Schmidt decomposition failed at step {f.step} "
            f"({f.reason.value}); no Schur form\n"
        )
        return _EXIT_SCHMIDT
    try:
        schur = _this.schur_from_schmidt(T, rep, tol)
    except _this.SchurInconsistencyError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return _EXIT_SCHUR
    check = _this.verify_schur(T, schur, tol)
    report = _report_skeleton("schur", T, cfg)
    report["result"] = {
        "symmetric": symmetric,
        "self_adjoint": self_adjoint,
        "terms": [{"lambda": t.lam, "x": _vec(t.x)} for t in schur.terms],
        "verification": dataclasses.asdict(check),
    }
    lines = _human_header(T)
    lines.append(f"schur: {len(schur.terms)} term(s)")
    for pos, t in enumerate(schur.terms):
        lines.append(f"  [{pos + 1}] lambda = {t.lam:+.12f}  x = {_fmt_vec(t.x)}")
    lines.append(f"reconstruction residual: {check.reconstruction_residual:.3e}")
    _emit(report, args, lines)
    return _EXIT_OK


def _cmd_verify(args: argparse.Namespace, T: Tensor3, cfg: SearchConfig) -> int:
    triples = _load_triples(args.triples, T.dims)
    entries = []
    lines = _human_header(T)
    lines.append(f"verify: {len(triples)} triple(s)")
    for pos, raw in enumerate(triples):
        try:
            check = verify_triple(T, raw, cfg.residual_tol)
        except ValueError as exc:
            raise _InputError(f"triple {pos + 1}: {exc}") from exc
        entry: dict = {
            "tau": raw.tau,
            "verified": check.verified,
            "residuals": [check.r1, check.r2, check.r3],
            "ordered": None,
            "slice_residuals": None,
            "stationarity": None,
        }
        line = f"  [{pos + 1}] tau = {raw.tau:.12f}  verified = " + (
            "yes" if check.verified else "no"
        )
        if check.verified:
            triple = canonicalize(
                SingularTriple(
                    tau=raw.tau,
                    x=raw.x / np.linalg.norm(raw.x),
                    y=raw.y / np.linalg.norm(raw.y),
                    z=raw.z / np.linalg.norm(raw.z),
                    residuals=(check.r1, check.r2, check.r3),
                )
            )
            oc = is_ordered(T, triple, cfg.residual_tol)
            fd = _this.stationarity_fd_check(T, triple, _FD_STEP)
            entry["ordered"] = oc.ordered
            entry["slice_residuals"] = [float(r) for r in oc.slice_residuals]
            entry["stationarity"] = fd
            line += f"  ordered = {'yes' if oc.ordered else 'no'}  fd = {fd:.3e}"
        else:
            line += f"  max residual = {check.max_residual:.3e}"
        entries.append(entry)
        lines.append(line)
    report = _report_skeleton("verify", T, cfg)
    report["result"] = {"triples": entries}
    _emit(report, args, lines)
    return _EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--starts", type=int, default=None, help="random starts (default 64*max(dims))")
    sub.add_argument("--tol", type=float, default=1e-9, help="residual tolerance (default 1e-9)")
    sub.add_argument("--dedup-tol", type=float, default=1e-6, help="sign-orbit merge tolerance (default 1e-6)")
    sub.add_argument("--max-iter", type=int, default=10000, help="iteration cap per start (default 10000)")
    sub.add_argument("--seed", type=int, default=0, help="seed for the deterministic multi-start (default 0)")
    sub.add_argument("--json", action="store_true", help="emit a machine-readable JSON report")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bilop",
        description="Singular triples, Schmidt/Schur representations, and norms "
        "of bilinear operators given as third-order tensors.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, help_text, func in (
        ("norm", "bilinear operator norm and Hilbert-Schmidt norm", _cmd_norm),
        ("spectrum", "enumerate singular triples with ordered classification", _cmd_spectrum),
        ("schmidt", "Schmidt decomposition (one SVD, else deflation)", _cmd_schmidt),
        ("schur", "Schur representation of a symmetric self-adjoint operator", _cmd_schur),
        ("verify", "verify user-supplied triples against a tensor", _cmd_verify),
    ):
        sub = subs.add_parser(name, help=help_text)
        sub.add_argument("tensor", help="tensor JSON file")
        if name == "verify":
            sub.add_argument("triples", help="triples JSON file")
        _add_common_flags(sub)
        sub.set_defaults(func=func)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        T = _load_tensor(args.tensor)
        return args.func(args, T, _config_from_args(args))
    except (_InputError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return _EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
