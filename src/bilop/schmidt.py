"""Schmidt representations of bilinear operators via greedy deflation.

A Schmidt representation writes T(x, y) = sum_i tau_i <x, x_i> <y, y_i> z_i
with monotone tau_i > 0 and orthonormal families {x_i}, {y_i}, {z_i}. The
decomposition procedure extracts the top singular triple of the current
remainder, requires it to be an ordered singular value (the rank-one slice
property of spectra.is_ordered), subtracts the rank-one term, and repeats
until the remainder vanishes. Orthogonality of the extracted families is a
consequence of the ordered property, not an imposed constraint.

Failure is a value, not an exception: when a remainder's top singular value
is attained only by non-ordered triples (or no triple can be verified at
all), the result carries status Failed, an empty term list, and a report
that retains the partial steps for diagnosis.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .tensor_core import Tensor3, VectorH, _as_entries, deflate_term, from_schmidt, hs_norm
from .spectra import (
    SearchConfig,
    SingularTriple,
    _search_candidates,
    is_ordered,
    verify_triple,
)

__all__ = [
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
]

#: Orthonormality tolerance for representation families (pairwise Gram test).
_FAMILY_ORTHO_TOL = 1e-8

#: Unit-norm tolerance on stored term vectors.
_TERM_UNIT_TOL = 1e-10


def _max_gram_deviation(*families) -> float:
    """Largest |<u_i, u_j> - delta_ij| over the given families of vectors."""
    worst = 0.0
    for family in families:
        fam = np.array(family, dtype=float)
        if fam.size:
            worst = max(worst, float(np.max(np.abs(fam @ fam.T - np.eye(len(fam))))))
    return worst


def _reconstruction_residual(T: Tensor3, terms) -> float:
    """hs-norm of T minus the sum of the (tau, x, y, z) terms."""
    recon = from_schmidt(terms, dims=T.dims)
    return hs_norm(Tensor3.from_array(T.array - recon.array))


class SchmidtStatus(str, Enum):
    COMPLETE = "Complete"
    FAILED = "Failed"


class FailureReason(str, Enum):
    NOT_ORDERED = "NotOrdered"
    NO_TRIPLE_FOUND = "NoTripleFound"


@dataclass(frozen=True, eq=False)
class SchmidtTerm:
    """One summand tau <., x> <., y> z with tau > 0 and unit vectors."""

    tau: float
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray

    def __post_init__(self) -> None:
        if not self.tau > 0:
            raise ValueError("SchmidtTerm requires tau > 0")
        for label, v in (("x", self.x), ("y", self.y), ("z", self.z)):
            a = np.asarray(v, dtype=float)
            if abs(np.linalg.norm(a) - 1.0) > _TERM_UNIT_TOL:
                raise ValueError(f"SchmidtTerm.{label} must be a unit vector")


@dataclass(frozen=True, eq=False)
class SchmidtRepresentation:
    """Ordered term list plus reconstruction residual and status.

    dims records the operator's shape so an empty representation still
    reconstructs (to the zero vector of the right dimension). On Failed,
    terms is empty by design; the partial extraction lives in the
    DeflationReport that schmidt_decompose returns alongside.
    """

    dims: tuple[int, int, int]
    terms: tuple[SchmidtTerm, ...]
    reconstruction_residual: float
    status: SchmidtStatus


@dataclass(frozen=True, eq=False)
class DeflationStep:
    """Diagnostics for one deflation step.

    slice_residuals is the ordered-singular-value check of the extracted
    triple against the current remainder; transfer_residuals re-verifies
    the triple against the ORIGINAL operator (an ordered triple of the
    remainder must stay a singular triple of the whole, or deflating it
    was invalid). remaining_hs is the remainder's Hilbert-Schmidt norm
    after subtracting this step's rank-one term; it decreases strictly
    across steps.
    """

    index: int
    tau: float
    triple: SingularTriple
    slice_residuals: tuple[float, float, float]
    transfer_residuals: tuple[float, float, float]
    remaining_hs: float


@dataclass(frozen=True)
class DeflationFailure:
    step: int
    reason: FailureReason
    diagnostics: str


@dataclass(frozen=True, eq=False)
class DeflationReport:
    steps: tuple[DeflationStep, ...]
    failure: Optional[DeflationFailure]


@dataclass(frozen=True, eq=False)
class RepresentationCheck:
    """Per-condition report of verify_representation.

    monotone: tau_1 >= tau_2 >= ... ; orthonormal: each family passes the
    pairwise Gram test at 1e-8 (max_gram_deviation is the worst entry);
    reconstruction_ok: hs-norm of T minus the term sum is <= tol;
    diagonal_ok: <T(x_i, y_i), z_i> = tau_i within tol for every term.
    """

    monotone: bool
    orthonormal: bool
    max_gram_deviation: float
    reconstruction_ok: bool
    reconstruction_residual: float
    diagonal_ok: bool
    max_diagonal_deviation: float

    @property
    def all_ok(self) -> bool:
        return (
            self.monotone
            and self.orthonormal
            and self.reconstruction_ok
            and self.diagonal_ok
        )


def schmidt_decompose(
    T: Tensor3, cfg: Optional[SearchConfig] = None
) -> tuple[SchmidtRepresentation, DeflationReport]:
    """Greedy rank-one deflation into a Schmidt representation.

    Each step finds the remainder's top verified singular triple by
    multi-start alternating iteration (the top of the spectrum is an
    attractor, so no saddle corrector is needed), requires it to be an
    ordered singular value of the remainder, re-verifies it against the
    original operator, deflates, and recurses. Stops when the remainder's
    hs-norm falls below residual_tol*(1 + hs_norm(T)) or min(dims) terms
    were extracted.

    When several orbits attain the top value within dedup_tol, the one
    with the smallest ordered-check residual is taken (ties broken by the
    canonical lexicographic order), so the result is deterministic.

    Returns (representation, report). On failure the representation has
    status Failed and no terms; the report keeps every step, including
    the offending one, with its residual diagnostics.
    """
    cfg = cfg if cfg is not None else SearchConfig()
    hs_total = hs_norm(T)
    stop_level = cfg.residual_tol * (1.0 + hs_total)
    cap = min(T.dims)

    steps: list[DeflationStep] = []
    terms: list[SchmidtTerm] = []
    failure: Optional[DeflationFailure] = None
    remainder = T

    for k in range(1, cap + 1):
        if hs_norm(remainder) <= stop_level:
            break
        cands = _search_candidates(remainder, cfg, use_newton=False)
        if not cands:
            failure = DeflationFailure(
                step=k,
                reason=FailureReason.NO_TRIPLE_FOUND,
                diagnostics=(
                    f"no triple verified at residual_tol={cfg.residual_tol:g} "
                    f"for a remainder of hs-norm {hs_norm(remainder):.6g}"
                ),
            )
            break
        top = cands[0].tau
        band = [c for c in cands if c.tau >= top - cfg.dedup_tol * (1.0 + top)]
        scored = []
        for c in band:
            oc = is_ordered(remainder, c, cfg.residual_tol)
            scored.append((max(oc.slice_residuals), tuple(c.x), tuple(c.y), c, oc))
        scored.sort(key=lambda rec: rec[:3])
        _, _, _, chosen, ordered_check = scored[0]

        transfer = verify_triple(T, chosen, cfg.residual_tol)
        deflated = deflate_term(remainder, chosen.tau, chosen.x, chosen.y, chosen.z)
        steps.append(
            DeflationStep(
                index=k,
                tau=chosen.tau,
                triple=chosen,
                slice_residuals=ordered_check.slice_residuals,
                transfer_residuals=(transfer.r1, transfer.r2, transfer.r3),
                remaining_hs=hs_norm(deflated),
            )
        )
        if not ordered_check.ordered:
            failure = DeflationFailure(
                step=k,
                reason=FailureReason.NOT_ORDERED,
                diagnostics=(
                    f"top singular value {chosen.tau:.12g} of the remainder is not an "
                    f"ordered singular value (max slice residual "
                    f"{max(ordered_check.slice_residuals):.6g}, "
                    f"{len(band)} orbit(s) at the top)"
                ),
            )
            break
        if not transfer.verified:
            failure = DeflationFailure(
                step=k,
                reason=FailureReason.NOT_ORDERED,
                diagnostics=(
                    f"step-{k} triple fails the transfer identities against the "
                    f"original operator (max residual {transfer.max_residual:.6g}); "
                    "the ordered hypothesis does not propagate"
                ),
            )
            break
        terms.append(SchmidtTerm(tau=chosen.tau, x=chosen.x, y=chosen.y, z=chosen.z))
        remainder = deflated

    report = DeflationReport(steps=tuple(steps), failure=failure)
    if failure is not None:
        rep = SchmidtRepresentation(
            dims=T.dims,
            terms=(),
            reconstruction_residual=hs_total,
            status=SchmidtStatus.FAILED,
        )
        return rep, report

    residual = _reconstruction_residual(T, [(t.tau, t.x, t.y, t.z) for t in terms])
    rep = SchmidtRepresentation(
        dims=T.dims,
        terms=tuple(terms),
        reconstruction_residual=residual,
        status=SchmidtStatus.COMPLETE,
    )
    return rep, report


def reconstruct(rep: SchmidtRepresentation, x, y) -> VectorH:
    """Evaluate the represented operator: sum_i tau_i <x, x_i> <y, y_i> z_i."""
    n1, n2, n3 = rep.dims
    xa = _as_entries(x, "H1", n1, "x")
    ya = _as_entries(y, "H2", n2, "y")
    out = np.zeros(n3)
    for term in rep.terms:
        out += term.tau * float(xa @ term.x) * float(ya @ term.y) * term.z
    return VectorH(entries=out, space="K")


def verify_representation(
    T: Tensor3, rep: SchmidtRepresentation, tol: float
) -> RepresentationCheck:
    """Check a representation against the four defining conditions.

    Monotonicity of tau, pairwise orthonormality of each vector family
    (at the fixed 1e-8 family tolerance), hs-norm reconstruction residual
    <= tol, and the diagonal identity <T(x_i,y_i), z_i> = tau_i within tol.
    Each condition is reported separately; nothing raises on failure.
    """
    if rep.dims != T.dims:
        raise ValueError(f"representation dims {rep.dims} do not match tensor dims {T.dims}")
    if tol <= 0:
        raise ValueError("tol must be positive")
    taus = [term.tau for term in rep.terms]
    monotone = all(taus[i] >= taus[i + 1] for i in range(len(taus) - 1))

    max_gram = _max_gram_deviation(*([getattr(t, f) for t in rep.terms] for f in "xyz"))
    orthonormal = max_gram <= _FAMILY_ORTHO_TOL
    residual = _reconstruction_residual(T, [(t.tau, t.x, t.y, t.z) for t in rep.terms])

    max_diag = 0.0
    arr = T.array
    for term in rep.terms:
        val = float(np.einsum("ijk,i,j,k->", arr, term.x, term.y, term.z))
        max_diag = max(max_diag, abs(val - term.tau))

    return RepresentationCheck(
        monotone=monotone,
        orthonormal=orthonormal,
        max_gram_deviation=max_gram,
        reconstruction_ok=residual <= tol,
        reconstruction_residual=residual,
        diagonal_ok=max_diag <= tol,
        max_diagonal_deviation=max_diag,
    )


def schmidt_sum_sq(rep: SchmidtRepresentation) -> float:
    """sum tau_i^2; equals hs_norm(T)^2 for complete representations."""
    if rep.status is not SchmidtStatus.COMPLETE:
        raise ValueError("schmidt_sum_sq requires a Complete representation")
    return float(sum(term.tau * term.tau for term in rep.terms))
