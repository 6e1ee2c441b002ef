"""Schmidt representations of bilinear operators: one SVD, else greedy deflation.

A Schmidt representation writes T(x, y) = sum_i tau_i <x, x_i> <y, y_i> z_i
with monotone tau_i > 0 and orthonormal families {x_i}, {y_i}, {z_i}. Such a
representation makes the mode-1 unfolding T(1) = sum_i tau_i x_i (y_i (x) z_i)^T
an SVD, so the terms are first read off one SVD of T(1). Where that reading
is ambiguous (tied singular values, a right singular vector that is not
rank-one as an n2 x n3 matrix, a peak entry that rounding could flip) or does
not verify, greedy deflation decides: it takes each remainder's top singular
triple from a multi-start search. Both feed one deflation loop, which
requires each term to be an ordered singular value of the remainder (the
rank-one slice property of spectra.is_ordered), subtracts it, and repeats
until the remainder vanishes; so both record every term with the same
per-step checks. Orthogonality of the extracted families is a consequence
of the ordered property, not an imposed constraint.

Failure is a value, not an exception: when a remainder's top singular value
is attained only by non-ordered triples (or no triple can be verified at
all), the result carries status Failed, an empty term list, and a report
that retains the partial steps for diagnosis.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .tensor_core import Tensor3, VectorH, _as_entries, deflate_term, from_schmidt, hs_norm
from .spectra import (
    SearchConfig,
    SingularTriple,
    _canonical_rows,
    _check_tol,
    _residuals,
    _row_norms,
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
    The field order is the key order of the CLI's verification report.
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
    """Schmidt representation: one SVD of the mode-1 unfolding, else greedy deflation.

    A Schmidt representation with orthonormal families makes the mode-1
    unfolding T(1) = sum tau_i x_i (y_i (x) z_i)^T an SVD, so the terms are
    first read off one SVD of T(1) (_svd_decompose). Where that reading is
    not unambiguous and fully verified, _greedy deflation runs from scratch
    and decides the result, failures included. Both are term sources of one
    loop, _deflate, which stops when the remainder's hs-norm falls below
    residual_tol*(1 + hs_norm(T)) or min(dims) terms were extracted.

    Returns (representation, report). On failure the representation has
    status Failed and no terms; the report keeps every step, including
    the offending one, with its residual diagnostics.
    """
    cfg = cfg if cfg is not None else SearchConfig()
    fast = _svd_decompose(T, cfg)
    return fast if fast is not None else _greedy(T, cfg)


def _deflate(
    T: Tensor3, cfg: SearchConfig, pick: Callable
) -> Optional[tuple[SchmidtRepresentation, DeflationReport]]:
    """The deflation loop: take pick's triple, check it, record it, subtract it, repeat.

    pick(remainder, k) is the source of step k's term (k from 1): it returns
    (triple, ordered_check, orbits_at_top), with the triple's ordered check
    against the remainder; or a DeflationFailure; or None, which abandons
    the run, and then _deflate returns None. Each step re-verifies the
    triple against the ORIGINAL operator (the transfer check), deflates the
    remainder by it and records the step. The run fails, keeping its steps
    but no terms, when pick reports a failure, the triple is not ordered in
    the remainder, or it fails the transfer check.
    """
    stop_level = cfg.residual_tol * (1.0 + hs_norm(T))
    steps: list[DeflationStep] = []
    terms: list[SchmidtTerm] = []
    failure: Optional[DeflationFailure] = None
    remainder = T
    for k in range(1, min(T.dims) + 1):
        if hs_norm(remainder) <= stop_level:
            break
        picked = pick(remainder, k)
        if picked is None:
            return None
        if isinstance(picked, DeflationFailure):
            failure = picked
            break
        triple, ordered_check, orbits = picked
        transfer = verify_triple(T, triple, cfg.residual_tol)
        deflated = deflate_term(remainder, triple.tau, triple.x, triple.y, triple.z)
        steps.append(
            DeflationStep(
                index=k,
                tau=triple.tau,
                triple=triple,
                slice_residuals=ordered_check.slice_residuals,
                transfer_residuals=(transfer.r1, transfer.r2, transfer.r3),
                remaining_hs=hs_norm(deflated),
            )
        )
        if ordered_check.ordered and transfer.verified:
            terms.append(SchmidtTerm(tau=triple.tau, x=triple.x, y=triple.y, z=triple.z))
            remainder = deflated
            continue
        if not ordered_check.ordered:
            diagnostics = (
                f"top singular value {triple.tau:.12g} of the remainder is not an "
                f"ordered singular value (max slice residual "
                f"{max(ordered_check.slice_residuals):.6g}, "
                f"{orbits} orbit(s) at the top)"
            )
        else:
            diagnostics = (
                f"step-{k} triple fails the transfer identities against the "
                f"original operator (max residual {transfer.max_residual:.6g}); "
                "the ordered hypothesis does not propagate"
            )
        failure = DeflationFailure(step=k, reason=FailureReason.NOT_ORDERED, diagnostics=diagnostics)
        break

    report = DeflationReport(steps=tuple(steps), failure=failure)
    if failure is not None:
        return SchmidtRepresentation(T.dims, (), hs_norm(T), SchmidtStatus.FAILED), report
    residual = _reconstruction_residual(T, [(t.tau, t.x, t.y, t.z) for t in terms])
    return SchmidtRepresentation(T.dims, tuple(terms), residual, SchmidtStatus.COMPLETE), report


def _peak_margin(M: np.ndarray) -> np.ndarray:
    """Per row, how far the largest |entry| lies above the next one."""
    if M.shape[1] < 2:
        return np.full(M.shape[0], np.inf)
    top = np.sort(np.abs(M), axis=1)
    return top[:, -1] - top[:, -2]


def _svd_decompose(
    T: Tensor3, cfg: SearchConfig
) -> Optional[tuple[SchmidtRepresentation, DeflationReport]]:
    """The Schmidt representation read off one SVD of T(1), or None.

    Term k takes x from the k-th left singular vector of the n1 x n2*n3
    unfolding, and y, z from the leading rank-one factor of the k-th right
    singular vector reshaped to n2 x n3; then tau = <T(x,y),z> is s_k times
    that factor's singular value, so it is positive. The triples are
    canonicalized (negative zeros cleared) and go through _deflate on the
    real remainders. None, so that greedy decides, unless every used
    singular value lies more than dedup_tol*(1 + s) above the next, every
    reshaped vector is rank-one at residual_tol, the peak entries of every
    x and y lead the next entry by more than dedup_tol (so rounding cannot
    flip a canonical sign), every triple verifies against its remainder,
    _deflate completes, and the result passes verify_representation at
    residual_tol.
    """
    n1, n2, n3 = T.dims
    cap = min(T.dims)
    U, s, Vt = np.linalg.svd(T.array.reshape(n1, n2 * n3), full_matrices=False)
    u, sig, wt = np.linalg.svd(Vt[:cap].reshape(cap, n2, n3), full_matrices=False)
    X, Y, Z = (M + 0.0 for M in _canonical_rows(U[:, :cap].T, u[:, :, 0], wt[:, 0, :]))
    rank_one = _row_norms(sig[:, 1:]) <= cfg.residual_tol
    clear_peaks = np.minimum(_peak_margin(X), _peak_margin(Y)) > cfg.dedup_tol

    def pick(remainder: Tensor3, k: int):
        i = k - 1
        tied = k < s.size and s[i] - s[k] <= cfg.dedup_tol * (1.0 + s[k])
        if tied or not (rank_one[i] and clear_peaks[i]):
            return None
        tau, R = _residuals(remainder.array, X[i:k], Y[i:k], Z[i:k])
        if not (tau[0] > cfg.residual_tol and R.max() <= cfg.residual_tol):
            return None
        triple = SingularTriple(
            tau=float(tau[0]),
            x=X[i].copy(),
            y=Y[i].copy(),
            z=Z[i].copy(),
            residuals=tuple(float(r) for r in R[0]),
        )
        return triple, is_ordered(remainder, triple, cfg.residual_tol), 1

    got = _deflate(T, cfg, pick)
    done = got is not None and got[1].failure is None
    return got if done and verify_representation(T, got[0], cfg.residual_tol).all_ok else None


def _greedy(T: Tensor3, cfg: SearchConfig) -> tuple[SchmidtRepresentation, DeflationReport]:
    """Greedy rank-one deflation into a Schmidt representation.

    Each step finds the remainder's top verified singular triple by
    multi-start alternating iteration (the top of the spectrum is an
    attractor, so no saddle corrector is needed); _deflate requires it to
    be an ordered singular value of the remainder, re-verifies it against
    the original operator, deflates, and recurses.

    When several orbits attain the top value within dedup_tol, the one
    with the smallest ordered-check residual is taken (ties broken by the
    canonical lexicographic order), so the result is deterministic.
    """

    def pick(remainder: Tensor3, k: int):
        cands = _search_candidates(remainder, cfg, use_newton=False)
        if not cands:
            return DeflationFailure(
                step=k,
                reason=FailureReason.NO_TRIPLE_FOUND,
                diagnostics=(
                    f"no triple verified at residual_tol={cfg.residual_tol:g} "
                    f"for a remainder of hs-norm {hs_norm(remainder):.6g}"
                ),
            )
        top = cands[0].tau
        band = [c for c in cands if c.tau >= top - cfg.dedup_tol * (1.0 + top)]
        scored = [(c, is_ordered(remainder, c, cfg.residual_tol)) for c in band]
        chosen, check = min(scored, key=lambda p: (max(p[1].slice_residuals), tuple(p[0].x), tuple(p[0].y)))
        return chosen, check, len(band)

    return _deflate(T, cfg, pick)


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
    _check_tol(tol)
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
