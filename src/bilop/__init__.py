"""Singular triples, Schmidt and Schur representations, and norms of
bilinear operators between finite-dimensional real Hilbert spaces.

An operator T: H1 x H2 -> K is stored as the dense coordinate tensor
t[i, j, k] = <T(e_i, f_j), g_k> (Tensor3). The package finds its singular
triples by deterministic multi-start iteration, classifies them as ordered
singular values, builds Schmidt representations (one SVD, else rank-one
deflation), converts them to Schur form for symmetric self-adjoint
operators, and cross-checks everything against brute-force oracles.
"""

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
from .schmidt import (
    DeflationFailure,
    DeflationReport,
    DeflationStep,
    FailureReason,
    RepresentationCheck,
    SchmidtRepresentation,
    SchmidtStatus,
    SchmidtTerm,
    reconstruct,
    schmidt_decompose,
    schmidt_sum_sq,
    verify_representation,
)
from .schur import (
    SchurCheck,
    SchurInconsistencyError,
    SchurRepresentation,
    SchurTerm,
    is_self_adjoint,
    is_symmetric,
    schur_from_schmidt,
    verify_schur,
)
from .oracle import (
    GridSpec,
    confirm_complete,
    exhaustive_small_spectrum,
    grid_norm_oracle,
    stationarity_fd_check,
)

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
