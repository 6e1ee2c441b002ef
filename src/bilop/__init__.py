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

from .tensor_core import (
    Tensor3,
    VectorH,
    adjoint_contract_1,
    adjoint_contract_2,
    apply,
    change_basis,
    deflate_term,
    from_schmidt,
    hs_norm,
    tensor_from_json_dict,
    tensor_to_json_dict,
)
from .spectra import (
    NonConvergence,
    OrderedCheck,
    SearchConfig,
    SingularTriple,
    Spectrum,
    TripleCheck,
    canonicalize,
    enumerate_triples,
    hopm_refine,
    hopm_value_trace,
    is_ordered,
    operator_norm,
    verify_triple,
)
# schmidt, schur and oracle load on first use of one of their names (PEP 562),
# so that a command that runs only the search core does not compile them.
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

__all__ = [
    "Tensor3",
    "VectorH",
    "apply",
    "adjoint_contract_1",
    "adjoint_contract_2",
    "hs_norm",
    "change_basis",
    "deflate_term",
    "from_schmidt",
    "tensor_to_json_dict",
    "tensor_from_json_dict",
    "SearchConfig",
    "SingularTriple",
    "NonConvergence",
    "TripleCheck",
    "OrderedCheck",
    "Spectrum",
    "hopm_refine",
    "hopm_value_trace",
    "verify_triple",
    "operator_norm",
    "enumerate_triples",
    "canonicalize",
    "is_ordered",
    "SchmidtStatus",
    "FailureReason",
    "SchmidtTerm",
    "SchmidtRepresentation",
    "DeflationStep",
    "DeflationFailure",
    "DeflationReport",
    "RepresentationCheck",
    "schmidt_decompose",
    "reconstruct",
    "verify_representation",
    "schmidt_sum_sq",
    "SchurTerm",
    "SchurRepresentation",
    "SchurInconsistencyError",
    "SchurCheck",
    "is_symmetric",
    "is_self_adjoint",
    "schur_from_schmidt",
    "verify_schur",
    "GridSpec",
    "grid_norm_oracle",
    "stationarity_fd_check",
    "exhaustive_small_spectrum",
    "confirm_complete",
    "__version__",
]
