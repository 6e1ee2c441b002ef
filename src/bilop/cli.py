"""Command-line interface: norm / spectrum / schmidt / schur / verify.

Reads tensors (and, for verify, triples) from JSON files, runs the
corresponding library operations, and prints either a human-readable
summary or a machine-readable JSON report. Exit codes are stable:

    0  success
    2  input error (unreadable, oversized or malformed file, dimension mismatch)
    3  Schmidt decomposition failed (no representation exists at tolerance)
    4  Schur precondition failed (not symmetric/self-adjoint, or inconsistent)

Each command returns (result, lines, code), and main writes the report
once: with --json the object {command, input, config, status, result},
status "Ok" exactly when code is 0; otherwise a header line for the
tensor, then the command's lines. A command that has no report to give
raises _Exit, and main writes "error: <message>" to stderr and returns
its code (2 unless the command chose another).

JSON reports are byte-identical across runs for identical inputs and
flags: floats are rendered with repr-faithful 17 significant digits, key
order is fixed (a library dataclass renders as its fields in declaration
order), and no timestamps or paths are embedded. Human-mode numbers have
12 decimals, in scientific notation below 1e-6 or from 1e15 in magnitude.

`bilop` and `python -m bilop` enter through run(): the process ends right
after main's output is flushed, with os._exit and without interpreter
teardown, and with the same exit code. atexit handlers that other code
registered do not run (coverage's, under `coverage run -m bilop`); an
exception escaping main, or a flush that fails, takes the normal exit.
main() called from Python returns its code normally.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from typing import Any, Optional, Sequence

import numpy as np

from . import _LAZY_NAMES
from .tensor_core import Tensor3, _json_floats, hs_norm, tensor_from_json_dict
from .spectra import (
    SearchConfig,
    SingularTriple,
    _check_floor,
    _ordered_checks,
    canonicalize,
    enumerate_triples,
    is_ordered,  # no command calls it; a name of this module all the same (tests/test_imports.py)
    operator_norm,
    verify_triple,
)

__all__ = ["main", "run"]

# The package's lazily loaded names (schmidt, schur, oracle) resolve here on first use too (PEP 562), so norm
# and spectrum start with the search core alone. The commands call them as attributes of this module, _this,
# because a bare global name would not reach __getattr__; that is also where the benchmark's spans and
# monkeypatch find them.
_this = sys.modules[__name__]


def __getattr__(name: str):
    if name not in _LAZY_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(sys.modules[__package__], name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY_NAMES})

_EXIT_OK = 0
_EXIT_INPUT = 2
_EXIT_SCHMIDT = 3
_EXIT_SCHUR = 4

#: Step used for the finite-difference stationarity probe in `verify`.
_FD_STEP = 1e-5

#: The most bytes an input file may hold: one byte past it is read, from a pipe or a device too, and refused. json.load
#: peaked at up to 32 bytes per file byte under tracemalloc (Python 3.11: a list of empty lists; 2.6 for a tensor's
#: floats, np.asarray included), so a file within it parses within the 2 GiB a search may use (spectra._SEARCH_BUDGET).
_FILE_BUDGET = 2**26


class _Exit(Exception):
    """Ends a command without a report: main writes "error: <message>" to stderr and returns code."""

    def __init__(self, message: str, code: int = _EXIT_INPUT) -> None:
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# deterministic JSON rendering


def _fields(*objs: Any) -> dict:
    """The fields of dataclass instances by name, in declaration order, one object's after another's."""
    return {f.name: getattr(obj, f.name) for obj in objs for f in dataclasses.fields(obj)}


def _render_json(value: Any) -> str:
    """Serialize with stable key order and 17-significant-digit floats, in json's own layout: the loop of
    json.dumps(value, indent=2), json.encoder._make_iterencode, with json.dumps's arguments but two. json.dumps
    formats floats through repr, and a float subclass loses its formatting inside the C encoder, so floatstr
    formats them; default renders an ndarray as its list, a dataclass instance as the object of its fields and a
    numpy scalar as its Python value.
    """
    def floatstr(v: float) -> str:
        if not math.isfinite(v):
            raise ValueError("non-finite value in report")
        return format(float(v), ".17g")

    def default(o: Any) -> Any:
        if isinstance(o, np.ndarray):
            return o.tolist()
        if dataclasses.is_dataclass(o):
            return _fields(o)
        if isinstance(o, np.generic):
            return o.item()
        raise TypeError(f"cannot render {type(o).__name__} in a report")

    # markers, default, encoder, indent, floatstr, key and item separators, sort_keys, skipkeys, one_shot
    encode = json.encoder._make_iterencode(
        {}, default, json.encoder.encode_basestring_ascii, "  ", floatstr, ": ", ",", False, False, True
    )
    return "".join(encode(value, 0))


# ---------------------------------------------------------------------------
# input loading


def _load_json_file(path: str) -> Any:
    try:
        data = bytearray()
        with open(path, "rb") as fh:  # in reads of at most 1 MiB, so a small file allocates no more
            while len(data) <= _FILE_BUDGET and (chunk := fh.read(min(1 << 20, _FILE_BUDGET + 1 - len(data)))):
                data += chunk
        if len(data) > _FILE_BUDGET:
            raise _Exit(f"{path} holds more than the {_FILE_BUDGET >> 20} MiB an input file may hold")
        return json.loads(data.decode("utf-8"))
    except OSError as exc:
        raise _Exit(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _Exit(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise _Exit(f"{path} nests its JSON too deeply to read: {exc}") from exc


def _load_tensor(path: str) -> Tensor3:
    data = _load_json_file(path)
    try:
        return tensor_from_json_dict(data)
    except ValueError as exc:
        raise _Exit(f"{path}: {exc}") from exc


def _load_triples(path: str) -> list[SingularTriple]:
    """The triples of a verify file as it holds them; verify_triple checks their vectors against the tensor."""
    data = _load_json_file(path)
    if not isinstance(data, dict) or "triples" not in data:
        raise _Exit(f'{path}: expected an object with a "triples" list')
    entries = data["triples"]
    if not isinstance(entries, list):
        raise _Exit(f'{path}: "triples" must be a list')
    out = []
    for pos, item in enumerate(entries):
        where = f"{path}: triple {pos + 1}"
        if not isinstance(item, dict):
            raise _Exit(f"{where} must be an object")
        missing = {"tau", "x", "y", "z"} - set(item)
        if missing:
            raise _Exit(f"{where} is missing {sorted(missing)}")
        tau = item["tau"]
        # Python's json reads NaN and Infinity, and an int of any size; the comparison is exact and false for each.
        if isinstance(tau, bool) or not isinstance(tau, (int, float)) or not abs(tau) <= sys.float_info.max:
            raise _Exit(f"{where}: tau must be a finite number")
        x, y, z = (_json_floats(item[v], f"{where}: {v}") for v in "xyz")
        out.append(SingularTriple(tau=float(tau), x=x, y=y, z=z, residuals=(0.0, 0.0, 0.0)))
    return out


# ---------------------------------------------------------------------------
# subcommands

#: What a command returns for main to report: the JSON result, the human lines after the header, the exit code.
_Report = tuple[Any, list[str], int]


def _num(v: float, sign: str = "") -> str:
    """A human-mode number: 12 decimals for 0 and 1e-6 <= |v| < 1e15, else 12 decimals of scientific notation."""
    return format(v, sign + (".12f" if v == 0 or 1e-6 <= abs(v) < 1e15 else ".12e"))


def _fmt_vec(v: np.ndarray) -> str:
    return "[" + ", ".join(format(float(e), ".6f") for e in v) + "]"


def _xyz_lines(t: Any) -> list[str]:
    return [f"      {name} = {_fmt_vec(getattr(t, name))}" for name in "xyz"]


def _cmd_norm(args: argparse.Namespace, T: Tensor3, cfg: SearchConfig) -> _Report:
    value, attained = operator_norm(T, cfg)
    hs = hs_norm(T)
    lines = [f"bilinear_norm: {_num(value)}", f"hs_norm: {_num(hs)}"]
    if attained is not None:
        lines.append(f"attained at x = {_fmt_vec(attained.x)}, y = {_fmt_vec(attained.y)}")
    return {"bilinear_norm": value, "hs_norm": hs, "attained": attained}, lines, _EXIT_OK


def _cmd_spectrum(args: argparse.Namespace, T: Tensor3, cfg: SearchConfig) -> _Report:
    spectrum = enumerate_triples(T, cfg)
    # The listed triples are verified by the search, so one batched slice check classifies them all.
    checks = _ordered_checks(T, spectrum.triples, cfg.residual_tol)
    lines = [f"spectrum: {len(checks)} triple(s), complete: " + ("yes" if spectrum.complete else "no")]
    for pos, (tr, oc) in enumerate(zip(spectrum.triples, checks), 1):
        lines += [f"  [{pos}] tau = {_num(tr.tau)}  ordered = " + ("yes" if oc.ordered else "no"), *_xyz_lines(tr)]
    entries = [_fields(tr, oc) for tr, oc in zip(spectrum.triples, checks)]
    return {"count": len(entries), "complete": spectrum.complete, "triples": entries}, lines, _EXIT_OK


def _cmd_schmidt(args: argparse.Namespace, T: Tensor3, cfg: SearchConfig) -> _Report:
    rep, deflation = _this.schmidt_decompose(T, cfg)
    result: dict = {"status": rep.status.value, "terms": rep.terms, "reconstruction_residual": rep.reconstruction_residual}
    lines = [f"schmidt: {rep.status.value}, {len(rep.terms)} term(s)"]
    for pos, t in enumerate(rep.terms, 1):
        lines += [f"  [{pos}] tau = {_num(t.tau)}", *_xyz_lines(t)]
    complete = rep.status is _this.SchmidtStatus.COMPLETE
    if complete:
        result["sum_tau_sq"] = sum_sq = _this.schmidt_sum_sq(rep)
        result["verification"] = deflation.check
        lines += [f"reconstruction residual: {rep.reconstruction_residual:.3e}", f"sum of tau^2: {_num(sum_sq)}"]
    else:
        f = deflation.failure
        lines.append(f"failed at step {f.step} ({f.reason.value}): {f.diagnostics}")
    result["deflation"] = {
        "steps": [{k: v for k, v in _fields(s).items() if k != "triple"} for s in deflation.steps],
        "failure": deflation.failure,
    }
    return result, lines, _EXIT_OK if complete else _EXIT_SCHMIDT


def _cmd_schur(args: argparse.Namespace, T: Tensor3, cfg: SearchConfig) -> _Report:
    n1, n2, n3 = T.dims
    if not (n1 == n2 == n3):
        raise _Exit(f"schur requires equal dims, got {n1}x{n2}x{n3}", _EXIT_SCHUR)
    tol = cfg.residual_tol
    symmetric = _this.is_symmetric(T, tol)
    self_adjoint = _this.is_self_adjoint(T, tol)
    if not (symmetric and self_adjoint):
        raise _Exit(f"operator is not {'self-adjoint' if symmetric else 'symmetric'} at tolerance {tol:g}", _EXIT_SCHUR)
    rep, deflation = _this.schmidt_decompose(T, cfg)
    if rep.status is not _this.SchmidtStatus.COMPLETE:
        f = deflation.failure
        raise _Exit(f"Schmidt decomposition failed at step {f.step} ({f.reason.value}); no Schur form", _EXIT_SCHMIDT)
    try:
        schur = _this.schur_from_schmidt(T, rep, tol)
    except _this.SchurInconsistencyError as exc:
        raise _Exit(str(exc), _EXIT_SCHUR) from exc
    check = _this.verify_schur(T, schur, tol)
    lines = [f"schur: {len(schur.terms)} term(s)"]
    lines += [f"  [{pos}] lambda = {_num(t.lam, '+')}  x = {_fmt_vec(t.x)}" for pos, t in enumerate(schur.terms, 1)]
    lines.append(f"reconstruction residual: {check.reconstruction_residual:.3e}")
    terms = [{"lambda": t.lam, "x": t.x} for t in schur.terms]
    return {"symmetric": symmetric, "self_adjoint": self_adjoint, "terms": terms, "verification": check}, lines, _EXIT_OK


def _cmd_verify(args: argparse.Namespace, T: Tensor3, cfg: SearchConfig) -> _Report:
    _check_floor(T, cfg.residual_tol)  # as every other command, whatever the triples file holds
    triples = _load_triples(args.triples)
    entries = []
    lines = [f"verify: {len(triples)} triple(s)"]
    for pos, raw in enumerate(triples, 1):
        try:
            check = verify_triple(T, raw, cfg.residual_tol)
        except ValueError as exc:
            raise _Exit(f"{args.triples}: triple {pos}: {exc}") from exc
        line = f"  [{pos}] tau = {_num(raw.tau)}  verified = " + ("yes" if check.verified else "no")
        oc = fd = None
        if check.verified:  # classified and probed as a unit, canonical triple
            units = (v / np.linalg.norm(v) for v in (raw.x, raw.y, raw.z))
            triple = canonicalize(SingularTriple(raw.tau, *units, (check.r1, check.r2, check.r3)))
            [oc] = _ordered_checks(T, [triple], cfg.residual_tol)
            fd = _this.stationarity_fd_check(T, triple, _FD_STEP)
            line += f"  ordered = {'yes' if oc.ordered else 'no'}  fd = {fd:.3e}"
        else:
            line += f"  max residual = {check.max_residual:.3e}"
        entries.append({
            "tau": raw.tau,
            "verified": check.verified,
            "residuals": [check.r1, check.r2, check.r3],
            "ordered": oc and oc.ordered,
            "slice_residuals": oc and oc.slice_residuals,
            "stationarity": fd,
        })
        lines.append(line)
    return {"triples": entries}, lines, _EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    # Each search flag is stored under its SearchConfig field, and only when given: the field defaults are the CLI's.
    for flag, dest, kind, text in (
        ("--starts", "starts", int, "random starts (default 64*max(dims))"),
        ("--tol", "residual_tol", float, "residual tolerance (default {:g})"),
        ("--dedup-tol", "dedup_tol", float, "sign-orbit merge tolerance (default {:g})"),
        ("--max-iter", "max_iter", int, "iteration cap per start (default {}); min(N, 101) alternating sweeps, then Newton"),
        ("--seed", "seed", int, "seed for the deterministic multi-start (default {})"),
    ):
        sub.add_argument(flag, dest=dest, type=kind, default=argparse.SUPPRESS, help=text.format(getattr(SearchConfig, dest)))
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
    args = _build_parser().parse_args(argv)
    try:
        T = _load_tensor(args.tensor)
        cfg = SearchConfig(**{f.name: getattr(args, f.name) for f in dataclasses.fields(SearchConfig) if f.name in args})
        result, lines, code = args.func(args, T, cfg)
        if args.json:
            text = _render_json({
                "command": args.command,
                "input": {"name": T.name, "dims": list(T.dims), "hs_norm": hs_norm(T)},
                "config": dataclasses.replace(cfg, starts=cfg.resolved_starts(T.dims)),
                "status": "Ok" if code == _EXIT_OK else "Failed",
                "result": result,
            })
        else:
            name = T.name if T.name is not None else "(unnamed)"
            n1, n2, n3 = T.dims
            text = "\n".join([f"tensor: {name}  dims: {n1}x{n2}x{n3}  hs_norm: {_num(hs_norm(T))}", *lines])
    except (_Exit, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.code if isinstance(exc, _Exit) else _EXIT_INPUT
    sys.stdout.write(text + "\n")
    return code


def run() -> None:
    """Process entry of `bilop` and `python -m bilop`: main, then flush and end without interpreter teardown.

    Finalising the interpreter (a full garbage collection and the module teardown) costs a CLI call about
    20 ms on a 2-CPU x86 machine after its report is written, so the process ends with os._exit once stdout
    and stderr are flushed.
    Whatever escapes main, and a flush that fails (a closed pipe), take the normal exit with the same code.
    """
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
