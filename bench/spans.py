"""Spans around calls that cross a bilop module boundary.

A span is recorded by replacing a function attribute on the calling
module (for example ``bilop.schmidt.is_ordered``) with a wrapper, so the
span covers exactly the calls that module makes through that name. Each
span keeps its name, the calling module, start and end (perf_counter
seconds), the index of the enclosing span and the task id current when it
started. Spans stay in memory until the caller writes them out.

A boundary whose attribute no longer exists is listed in ``absent``
instead of raising, so a refactor that renames or deletes a function shows
up as a missing span rather than a crashed benchmark.
"""

from __future__ import annotations

import functools
import importlib
import time

# (calling module, attribute, span name). The span name is the callee's
# module and function, as the per-layer metrics in README.md refer to it.

# Calls the benchmark itself makes through the package namespace.
API_BOUNDARIES = [
    ("bilop", "operator_norm", "spectra.operator_norm"),
    ("bilop", "enumerate_triples", "spectra.enumerate_triples"),
    ("bilop", "schmidt_decompose", "schmidt.schmidt_decompose"),
    ("bilop", "is_symmetric", "schur.is_symmetric"),
    ("bilop", "is_self_adjoint", "schur.is_self_adjoint"),
    ("bilop", "schur_from_schmidt", "schur.schur_from_schmidt"),
    ("bilop", "verify_schur", "schur.verify_schur"),
]

# Calls between library modules, traced in-process and in the CLI child.
LIBRARY_BOUNDARIES = [
    # schmidt -> spectra, tensor_core
    ("bilop.schmidt", "is_ordered", "spectra.is_ordered"),
    ("bilop.schmidt", "verify_triple", "spectra.verify_triple"),
    ("bilop.schmidt", "deflate_term", "tensor_core.deflate_term"),
    ("bilop.schmidt", "hs_norm", "tensor_core.hs_norm"),
    # schur -> schmidt, tensor_core
    ("bilop.schur", "verify_representation", "schmidt.verify_representation"),
    ("bilop.schur", "hs_norm", "tensor_core.hs_norm"),
]

# Calls bilop.cli makes into the library; installed only in the CLI child.
CLI_BOUNDARIES = [
    ("bilop.cli", "tensor_from_json_dict", "tensor_core.tensor_from_json_dict"),
    ("bilop.cli", "hs_norm", "tensor_core.hs_norm"),
    ("bilop.cli", "operator_norm", "spectra.operator_norm"),
    ("bilop.cli", "enumerate_triples", "spectra.enumerate_triples"),
    ("bilop.cli", "is_ordered", "spectra.is_ordered"),
    ("bilop.cli", "verify_triple", "spectra.verify_triple"),
    ("bilop.cli", "canonicalize", "spectra.canonicalize"),
    ("bilop.cli", "schmidt_decompose", "schmidt.schmidt_decompose"),
    ("bilop.cli", "schmidt_sum_sq", "schmidt.schmidt_sum_sq"),
    ("bilop.cli", "verify_representation", "schmidt.verify_representation"),
    ("bilop.cli", "is_symmetric", "schur.is_symmetric"),
    ("bilop.cli", "is_self_adjoint", "schur.is_self_adjoint"),
    ("bilop.cli", "schur_from_schmidt", "schur.schur_from_schmidt"),
    ("bilop.cli", "verify_schur", "schur.verify_schur"),
    ("bilop.cli", "stationarity_fd_check", "oracle.stationarity_fd_check"),
]


class Tracer:
    """Collects spans while installed; ``with tracer:`` installs and removes."""

    def __init__(self, boundaries):
        self.boundaries = list(boundaries)
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self.task = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, caller):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append(
                {
                    "name": name,
                    "caller": caller,
                    "start": time.perf_counter(),
                    "end": None,
                    "parent": self._stack[-1] if self._stack else None,
                    "task": self.task,
                }
            )
            self._stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx]["end"] = time.perf_counter()

        return wrapper

    def __enter__(self):
        self.absent = []
        for modname, attr, name in self.boundaries:
            try:
                module = importlib.import_module(modname)
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.append(f"{modname}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, modname))
        return self

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved = []
        return False


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own
