"""Singular triples, Schmidt and Schur representations, and norms of
bilinear operators between finite-dimensional real Hilbert spaces.

An operator T: H1 x H2 -> K is stored as the dense coordinate tensor
t[i, j, k] = <T(e_i, f_j), g_k> (Tensor3). The package finds its singular
triples by deterministic multi-start iteration, classifies them as ordered
singular values, builds Schmidt representations (one SVD, else rank-one
deflation), converts them to Schur form for symmetric self-adjoint
operators, and cross-checks everything against brute-force oracles.
"""

import importlib

from . import tensor_core, spectra
from .tensor_core import *
from .spectra import *

# Each public name is declared once: the search core's in tensor_core.__all__ and spectra.__all__, those of
# schmidt, schur and oracle here, where each of them reads its own back as __all__. These three load on first
# use of one of their names (PEP 562), so that a command that runs only the search core does not compile them.
_LAZY = {
    "schmidt": (
        "SchmidtStatus", "FailureReason", "SchmidtTerm", "SchmidtRepresentation", "DeflationStep",
        "DeflationFailure", "DeflationReport", "RepresentationCheck", "schmidt_decompose", "reconstruct",
        "verify_representation", "schmidt_sum_sq",
    ),
    "schur": (
        "SchurTerm", "SchurRepresentation", "SchurInconsistencyError", "SchurCheck", "is_symmetric",
        "is_self_adjoint", "schur_from_schmidt", "verify_schur",
    ),
    "oracle": ("GridSpec", "grid_norm_oracle", "stationarity_fd_check", "exhaustive_small_spectrum", "confirm_complete"),
}
_LAZY_NAMES = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    if name in _LAZY:
        return importlib.import_module(f".{name}", __name__)
    if name not in _LAZY_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY_NAMES[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY, *_LAZY_NAMES})


__version__ = "0.1.0"

__all__ = [*tensor_core.__all__, *spectra.__all__, *_LAZY_NAMES, "__version__"]
