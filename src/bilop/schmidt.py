"""Schmidt representations of bilinear operators: one SVD, else greedy deflation.

A Schmidt representation writes T(x, y) = sum_i tau_i <x, x_i> <y, y_i> z_i
with monotone tau_i > 0 and orthonormal families {x_i}, {y_i}, {z_i}. Such a
representation makes the mode-1 unfolding T(1) = sum_i tau_i x_i
(y_i (x) z_i)^T an SVD, so the terms are first read off one SVD of T(1). Where
that reading is ambiguous (tied singular values, a right singular vector that
is not rank-one as an n2 x n3 matrix, a peak entry that rounding could flip)
its run fails there, and wherever it does not end Complete greedy deflation
decides: it takes each remainder's top singular triple from a multi-start
search. Both feed one deflation loop, which requires each term to be an
ordered singular value of the remainder (the rank-one slice property of
spectra.is_ordered), subtracts it, and repeats until the remainder vanishes;
so both record every term with the same per-step checks. The loop checks a
block of terms at once (the SVD reading's in one block, greedy's one at a
time), each against its own remainder, by one call of spectra's residual
routine: one pass of mode unfolding products, less Gram products of the
block's earlier terms. Orthogonality of the extracted families is a
consequence of the ordered property, not an imposed constraint.

Failure is a value, not an exception: when a remainder's top singular value
is attained only by non-ordered triples (or no triple, or a term that fails
the search's gate), or the finished terms fail verify_representation, the
result carries status Failed, no terms, and a report of the partial steps.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np

from . import _LAZY
from .tensor_core import Tensor3, VectorH, _checked_dims, _contract, _factors, _rank_one, _row_norms, hs_norm
from .spectra import (
    SearchConfig,
    SingularTriple,
    _canonical_rows,
    _check_floor,
    _no_triple_cause,
    _ordered_check,
    _ordered_checks,
    _residuals,
    _search_candidates,
    _stacked_terms,
    _tie_groups,
    _verified,
)

__all__ = list(_LAZY["schmidt"])

#: Orthonormality tolerance for representation families (pairwise Gram test).
_FAMILY_ORTHO_TOL = 1e-8

#: Unit-norm tolerance on stored term vectors.
_TERM_UNIT_TOL = 1e-10


class SchmidtStatus(str, Enum):
    COMPLETE = "Complete"
    FAILED = "Failed"


class FailureReason(str, Enum):
    NOT_ORDERED = "NotOrdered"
    NO_TRIPLE_FOUND = "NoTripleFound"
    NOT_VERIFIED = "NotVerified"


@dataclass(frozen=True, eq=False)
class SchmidtTerm:
    """One summand tau <., x> <., y> z with tau > 0 and unit vectors.

    The field order is the key order of a term in the CLI's schmidt report.
    """

    tau: float
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray

    def __post_init__(self) -> None:
        if not self.tau > 0:
            raise ValueError("SchmidtTerm requires tau > 0")
        for label in "xyz":
            a = np.asarray(getattr(self, label), dtype=float).reshape(-1)
            if abs(math.sqrt(a.dot(a)) - 1.0) > _TERM_UNIT_TOL:
                raise ValueError(f"SchmidtTerm.{label} must be a unit vector")


@dataclass(frozen=True, eq=False)
class SchmidtRepresentation:
    """Ordered term list plus reconstruction residual and status.

    dims records the operator's shape so an empty representation still
    reconstructs (to the zero vector of the right dimension); it passes
    Tensor3's dims rule and is kept as three Python ints. On Failed,
    terms is empty by design; the partial extraction lives in the
    DeflationReport that schmidt_decompose returns alongside.
    """

    dims: tuple[int, int, int]
    terms: tuple[SchmidtTerm, ...]
    reconstruction_residual: float
    status: SchmidtStatus

    def __post_init__(self) -> None:
        object.__setattr__(self, "dims", _checked_dims(self.dims))


@dataclass(frozen=True, eq=False)
class DeflationStep:
    """Diagnostics for one deflation step.

    slice_residuals is the ordered-singular-value check of the extracted
    triple against the current remainder; transfer_residuals re-verifies
    the triple against the ORIGINAL operator (an ordered triple of the
    remainder must stay a singular triple of the whole, or deflating it
    was invalid). remaining_hs is the remainder's Hilbert-Schmidt norm
    after subtracting this step's rank-one term; it decreases strictly
    across steps. The field order, triple left out, is the key order of a
    step in the CLI's schmidt report.
    """

    index: int
    tau: float
    triple: SingularTriple
    slice_residuals: tuple[float, float, float]
    transfer_residuals: tuple[float, float, float]
    remaining_hs: float


@dataclass(frozen=True)
class DeflationFailure:
    """The step at which a deflation run failed, why, and a diagnostic message.

    The field order is the key order of the failure in the CLI's schmidt report.
    """

    step: int
    reason: FailureReason
    diagnostics: str


@dataclass(frozen=True, eq=False)
class DeflationReport:
    """A deflation run's steps and failure. check is the RepresentationCheck of a
    Complete run's terms against the operator, None on Failed; derived from the
    terms, it is init-only, not a field, so fields, repr and asdict omit it."""

    steps: tuple[DeflationStep, ...]
    failure: Optional[DeflationFailure]
    check: InitVar[Optional[RepresentationCheck]] = None

    def __post_init__(self, check: Optional[RepresentationCheck]) -> None:
        object.__setattr__(self, "check", check)


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

    def failures(self, tol: float) -> list[str]:
        """Each failed condition with its figure and bound; tol is the tolerance the check ran at."""
        conditions = (
            (self.monotone, "tau is not monotone"),
            (self.orthonormal, f"max Gram deviation {self.max_gram_deviation:.3e} > {_FAMILY_ORTHO_TOL:g}"),
            (self.reconstruction_ok, f"reconstruction residual {self.reconstruction_residual:.3e} > {tol:g}"),
            (self.diagonal_ok, f"max diagonal deviation {self.max_diagonal_deviation:.3e} > {tol:g}"),
        )
        return [text for ok, text in conditions if not ok]


def schmidt_decompose(T: Tensor3, cfg: SearchConfig = SearchConfig()) -> tuple[SchmidtRepresentation, DeflationReport]:
    """Schmidt representation: one SVD of the mode-1 unfolding, else greedy deflation.

    A Schmidt representation with orthonormal families makes the mode-1 unfolding T(1) = sum tau_i x_i
    (y_i (x) z_i)^T an SVD, so the terms are first read off one SVD of T(1) (_svd_block). Where that reading's
    run does not end Complete, _greedy deflation runs from scratch and decides the result, failures included.
    Both are term sources of one loop, _deflate, which stops once the remainder's hs-norm is at most
    residual_tol, the bound verify_representation puts on the reconstruction residual, or min(dims) terms were
    extracted.

    Returns (representation, report). Complete means certified: its report
    carries the passed verify_representation check as report.check. On failure the
    representation has status Failed and no terms, and report.check is
    None; the report keeps every step, including the offending one, with
    its residual diagnostics. A residual_tol below T's rounding floor
    (eps/2 * hs_norm(T)) or below 2**-511 is refused with ValueError.
    """
    _check_floor(T, cfg.residual_tol)
    fast = _deflate(T, cfg, _svd_block(T, cfg))
    return fast if fast[0].status is SchmidtStatus.COMPLETE else _greedy(T, cfg)


def _deflate(T: Tensor3, cfg: SearchConfig, pick: Callable) -> tuple[SchmidtRepresentation, DeflationReport]:
    """The deflation loop: check pick's block of terms at once, then record and subtract them one by one.

    pick(remainder values, k) returns the terms from step k on as a block (X, Y, Z, orbits at the top) or
    a DeflationFailure, which ends the run. Each row is checked against its own remainder, the block's
    earlier rows deflated, by one _residuals call with slices: a row the search's gate (_verified) fails
    fails the run NotVerified at its step, and _ordered_check classifies the others; the transfer check
    re-verifies a row against the ORIGINAL operator at that tau. Rows are then subtracted in order from
    one remainder array, in place, whose hs-norm is the step's remaining_hs and, at the end, the
    reconstruction residual, until the stop, the min(dims) cap or a failure: a row not ordered in its
    remainder, or failing the transfer check, fails the run, which keeps its steps but no terms.
    Otherwise its terms, by tau descending, ties in extraction order, must pass verify_representation
    at residual_tol: then the run is Complete and its report carries the check, else it fails
    NotVerified at its last step, naming the failed conditions.
    """
    tol = cfg.residual_tol
    cap = min(T.dims)
    hs = hs_T = hs_norm(T)
    remainder = T.array.copy()
    flat = remainder.reshape(-1)  # a view: hs-norms as hs_norm computes them, sqrt(v . v)
    steps: list[DeflationStep] = []
    terms: list[SchmidtTerm] = []
    failure: Optional[DeflationFailure] = None
    # Stop only where verify_representation's reconstruction bound, residual_tol, holds.
    while failure is None and len(steps) < cap and hs > tol:
        picked = pick(remainder, len(steps) + 1)
        if isinstance(picked, DeflationFailure):
            failure = picked
            break
        X, Y, Z, orbits = picked
        tau, R = _residuals(remainder, X, Y, Z, deflated=True, slices=True)
        transfer = _residuals(T.array, X, Y, Z, tau)[1]
        rows = zip(tau.tolist(), R.tolist(), transfer.tolist(), _verified(tau, R, tol).tolist(), X, Y, Z)
        for t, r, tr, gate, x, y, z in rows:
            if len(steps) == cap or hs <= tol:
                break
            k = len(steps) + 1
            if not gate:
                diagnostics = f"step-{k} triple fails the search's gate (tau {t:.12g}, max residual {max(r[:3]):.6g})"
                failure = DeflationFailure(step=k, reason=FailureReason.NOT_VERIFIED, diagnostics=diagnostics)
                break
            remainder -= _rank_one(t, x, y, z)
            hs = math.sqrt(flat.dot(flat))
            triple = SingularTriple(tau=t, x=x.copy(), y=y.copy(), z=z.copy(), residuals=tuple(r[:3]))
            oc = _ordered_check(r, tol)
            steps.append(DeflationStep(k, t, triple, oc.slice_residuals, tuple(tr), hs))
            if oc.ordered and max(tr) <= tol:
                terms.append(SchmidtTerm(tau=t, x=triple.x, y=triple.y, z=triple.z))
                continue
            if not oc.ordered:
                diagnostics = (
                    f"top singular value {t:.12g} of the remainder is not an "
                    f"ordered singular value (max slice residual "
                    f"{max(oc.slice_residuals):.6g}, {orbits} orbit(s) at the top)"
                )
            else:
                diagnostics = (
                    f"step-{k} triple fails the transfer identities against the "
                    f"original operator (max residual {max(tr):.6g}); "
                    "the ordered hypothesis does not propagate"
                )
            failure = DeflationFailure(step=k, reason=FailureReason.NOT_ORDERED, diagnostics=diagnostics)
            break

    if failure is None:
        # Each tau is read off its own remainder, so tied weights can come out ULPs out of order.
        terms.sort(key=lambda term: term.tau, reverse=True)
        rep = SchmidtRepresentation(T.dims, tuple(terms), hs, SchmidtStatus.COMPLETE)
        check = verify_representation(T, rep, tol)
        if check.all_ok:
            return rep, DeflationReport(tuple(steps), None, check)
        failure = DeflationFailure(len(steps), FailureReason.NOT_VERIFIED, "; ".join(check.failures(tol)))
    return SchmidtRepresentation(T.dims, (), hs_T, SchmidtStatus.FAILED), DeflationReport(tuple(steps), failure)


def _peak_margin(M: np.ndarray) -> np.ndarray:
    """Per row, how far the largest |entry| lies above the next one."""
    if M.shape[1] < 2:
        return np.full(M.shape[0], np.inf)
    top = np.sort(np.abs(M), axis=1)
    return top[:, -1] - top[:, -2]


def _svd_block(T: Tensor3, cfg: SearchConfig) -> Callable:
    """The SVD reading's pick: at step 1 the canonical SVD terms (negative zeros cleared) before the first
    unusable one, then a NotVerified failure at that term's step (step 1 if none comes before it). A term
    is unusable when its singular value is not alone in its tie group of dedup_tol (_tie_groups), its
    reshaped right vector is not rank-one at residual_tol, or a peak entry of its x or y leads the next by
    at most dedup_tol (rounding could flip a canonical sign)."""
    n1, n2, n3 = T.dims
    cap = min(T.dims)
    U, s, Vt = np.linalg.svd(T.array.reshape(n1, n2 * n3), full_matrices=False)
    u, sig, wt = np.linalg.svd(Vt[:cap].reshape(cap, n2, n3), full_matrices=False)
    X, Y, Z = (M + 0.0 for M in _canonical_rows(U[:, :cap].T, u[:, :, 0], wt[:, 0, :]))
    group = _tie_groups(s, cfg.dedup_tol)
    usable = (
        (np.bincount(group)[group[:cap]] == 1)
        & (_row_norms(sig[:, 1:]) <= cfg.residual_tol)
        & (np.minimum(_peak_margin(X), _peak_margin(Y)) > cfg.dedup_tol)
    )
    m = int(np.argmin(np.append(usable, False)))
    return lambda remainder, k: (X[:m], Y[:m], Z[:m], 1) if k == 1 and m else DeflationFailure(
        k, FailureReason.NOT_VERIFIED, f"the SVD reading's term {k} is tied, not rank-one or sign-ambiguous"
    )


def _greedy(T: Tensor3, cfg: SearchConfig) -> tuple[SchmidtRepresentation, DeflationReport]:
    """Greedy rank-one deflation into a Schmidt representation.

    Each step finds the remainder's top verified singular triple by
    multi-start alternating iteration (the top of the spectrum is an
    attractor, so no saddle corrector is needed) and hands _deflate a block
    of one: it requires the triple to be an ordered singular value of the
    remainder, re-verifies it against the original operator, deflates, and
    recurses.

    The top band is the listing's first tie group (_tie_groups at
    dedup_tol, as _listing groups). Of its orbits that pass the ordered
    test, the one with the largest tau is taken, so the terms stay in
    descending order; ties go to the smallest ordered-check residual,
    then the canonical lexicographic order, so the result is
    deterministic. A band with no ordered orbit offers the one with the
    smallest residual, whose failed check _deflate reports.
    """

    def pick(values: np.ndarray, k: int):
        # Step 1 searches T itself through the memoised alternating stage, which a norm or spectrum of T shares.
        # A later remainder's search passes the default start pairs, the identity bases, which keeps no stage.
        remainder = T if k == 1 else Tensor3.from_array(values)
        pairs = None if k == 1 else (np.eye(T.dims[0]), np.eye(T.dims[1]))
        cands, converged = _search_candidates(remainder, cfg, use_newton=False, pairs=pairs)
        if not cands:
            return DeflationFailure(
                step=k,
                reason=FailureReason.NO_TRIPLE_FOUND,
                diagnostics=(
                    f"no triple verified at residual_tol={cfg.residual_tol:g}{_no_triple_cause(converged, cfg)}; "
                    f"the remainder's hs-norm is {hs_norm(remainder):.6g}"
                ),
            )
        band = cands[: np.count_nonzero(_tie_groups(np.array([c.tau for c in cands]), cfg.dedup_tol) == 0)]
        checks = _ordered_checks(remainder, band, cfg.residual_tol)
        # Ordered orbits by tau descending, then, as in a band with no ordered orbit, by residual, x and y.
        rank = [(-c.tau if ck.ordered else np.inf, max(ck.slice_residuals), tuple(c.x), tuple(c.y)) for c, ck in zip(band, checks)]
        c = band[rank.index(min(rank))]
        return c.x[None], c.y[None], c.z[None], len(band)

    return _deflate(T, cfg, pick)


def reconstruct(rep: SchmidtRepresentation, x, y) -> VectorH:
    """Evaluate the represented operator: sum_i tau_i <x, x_i> <y, y_i> z_i."""
    xa, ya = _factors(rep.dims, x=x, y=y)
    tau, X, Y, Z = _stacked_terms(rep.terms, rep.dims)
    return VectorH(entries=(tau * (X @ xa) * (Y @ ya)) @ Z, space="K")


def verify_representation(
    T: Tensor3, rep: SchmidtRepresentation, tol: float
) -> RepresentationCheck:
    """Check a representation against the four defining conditions.

    Monotonicity of tau, pairwise orthonormality of each vector family
    (at the fixed 1e-8 family tolerance), hs-norm reconstruction residual
    <= tol, and the diagonal identity <T(x_i,y_i), z_i> = tau_i within tol.
    Each condition is reported separately; nothing raises on failure. The
    terms are checked stacked, by _check_terms. A tol that is not positive
    and finite, or lies below T's rounding floor (_check_floor), is refused
    with ValueError.
    """
    if rep.dims != T.dims:
        raise ValueError(f"representation dims {rep.dims} do not match tensor dims {T.dims}")
    _check_floor(T, tol)
    return _check_terms(T, *_stacked_terms(rep.terms, T.dims), tol)


def _check_terms(T: Tensor3, tau, X, Y, Z, tol: float) -> RepresentationCheck:
    """verify_representation's four conditions on terms stacked as arrays, one row each: one Gram product per
    family, one reconstruction product of T(1), and the diagonal tau = <T(x, y), z> as Newton's retraction reads it."""
    n1, n2, n3 = T.dims
    max_gram = max((float(np.abs(F @ F.T - np.eye(len(F))).max()) for F in (X, Y, Z) if F.size), default=0.0)
    recon = (X.T * tau) @ np.einsum("sj,sk->sjk", Y, Z).reshape(tau.size, n2 * n3)
    residual = float(np.linalg.norm(T.array.reshape(n1, n2 * n3) - recon))
    max_diag = float(np.max(np.abs(np.einsum("sk,sk->s", _contract(T.array, 2, X, Y), Z) - tau), initial=0.0))
    return RepresentationCheck(
        monotone=bool(np.all(tau[:-1] >= tau[1:])),
        orthonormal=max_gram <= _FAMILY_ORTHO_TOL,
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
