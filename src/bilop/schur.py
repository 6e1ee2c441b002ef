"""Schur representations of symmetric self-adjoint bilinear operators.

When all three spaces coincide, T may admit the single-family form
T(x, y) = sum_i lambda_i <x, x_i> <y, x_i> x_i with signed weights. For a
symmetric self-adjoint operator with a complete Schmidt representation,
each Schmidt term's y_i and z_i must be +-x_i, which collapses the term
to (lambda_i, x_i) with lambda_i = <y_i, x_i> <z_i, x_i> tau_i. The sign
factors are asserted to be +-1; anything else means the input was not
actually of this structure, and raising SchurInconsistencyError beats
silently emitting a wrong representation.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import _LAZY
from .tensor_core import Tensor3
from .spectra import _check_floor, _check_tol
from .schmidt import _check_terms, SchmidtRepresentation, SchmidtStatus, verify_representation

__all__ = list(_LAZY["schur"])


class SchurInconsistencyError(RuntimeError):
    """A Schmidt term of a symmetric self-adjoint operator failed the
    sign-alignment conclusion (<y_i, x_i> or <z_i, x_i> not near +-1)."""


@dataclass(frozen=True, eq=False)
class SchurTerm:
    """One summand lam <., x> <., x> x with signed weight lam and unit x."""

    lam: float
    x: np.ndarray


@dataclass(frozen=True, eq=False)
class SchurRepresentation:
    """Signed eigen-style terms, sorted by |lam| descending.

    dim is the common dimension of the three coinciding spaces. Ties in
    |lam| put the positive weight first, then order lexicographically
    by x.
    """

    dim: int
    terms: tuple[SchurTerm, ...]


@dataclass(frozen=True, eq=False)
class SchurCheck:
    """Per-condition report of verify_schur.

    The field order is the key order of the CLI's verification report.
    """

    reconstruction_ok: bool
    reconstruction_residual: float
    orthonormal: bool
    max_gram_deviation: float
    monotone: bool

    @property
    def all_ok(self) -> bool:
        return self.reconstruction_ok and self.orthonormal and self.monotone


def _asymmetry(T: Tensor3, *axes: tuple[int, int, int]) -> float:
    """Largest entry of |t - t.transpose(p)| over the given axis permutations p."""
    arr = T.array
    return max(float(np.max(np.abs(arr - arr.transpose(p)))) for p in axes)


def is_symmetric(T: Tensor3, tol: float = 1e-10) -> bool:
    """True iff T(x, y) = T(y, x), i.e. t[i,j,k] = t[j,i,k] within tol (positive and finite, else ValueError)."""
    _check_tol(tol)
    n1, n2, _ = T.dims
    if n1 != n2:
        raise ValueError(f"symmetry needs n1 = n2, got dims {T.dims}")
    return _asymmetry(T, (1, 0, 2)) <= tol


def is_self_adjoint(T: Tensor3, tol: float = 1e-10) -> bool:
    """True iff both partial maps are self-adjoint on basis vectors.

    Entrywise this is t[i,j,k] = t[i,k,j] (freeze the first argument)
    together with t[i,j,k] = t[k,j,i] (freeze the second); requires all
    three dimensions equal, and a tol positive and finite.
    """
    _check_tol(tol)
    n1, n2, n3 = T.dims
    if not n1 == n2 == n3:
        raise ValueError(f"self-adjointness needs equal dims, got {T.dims}")
    return _asymmetry(T, (0, 2, 1), (2, 1, 0)) <= tol


def schur_from_schmidt(T: Tensor3, rep: SchmidtRepresentation, tol: float) -> SchurRepresentation:
    """Convert a complete Schmidt representation into Schur form.

    Preconditions (argument errors if violated): tol positive and finite
    and not below T's rounding floor (spectra._check_floor), T symmetric
    and self-adjoint at tol, rep status Complete and verified against T
    at tol by verify_representation on every call. For each term computes
    s1 = <y_i, x_i> and s2 = <z_i, x_i>, requires both within tol of +-1
    (SchurInconsistencyError otherwise), and emits lam_i = sign(s1)
    sign(s2) tau_i with the vector x_i, so |lam_i| = tau_i exactly.
    """
    _check_floor(T, tol)
    if not is_symmetric(T, tol):
        raise ValueError("operator is not symmetric at the given tolerance")
    if not is_self_adjoint(T, tol):
        raise ValueError("operator is not self-adjoint at the given tolerance")
    if rep.status is not SchmidtStatus.COMPLETE:
        raise ValueError("schur_from_schmidt requires a Complete representation")
    failures = verify_representation(T, rep, tol).failures(tol)
    if failures:
        raise ValueError(f"representation does not verify against the operator: {'; '.join(failures)}")
    terms = []
    for i, term in enumerate(rep.terms):
        s1 = float(term.y @ term.x)
        s2 = float(term.z @ term.x)
        if abs(abs(s1) - 1.0) > tol or abs(abs(s2) - 1.0) > tol:
            raise SchurInconsistencyError(
                f"term {i + 1}: alignment factors <y,x> = {s1:.6g}, "
                f"<z,x> = {s2:.6g} are not +-1; the operator's Schmidt "
                "structure is not of Schur type"
            )
        sign = 1.0 if s1 * s2 > 0 else -1.0
        terms.append(SchurTerm(lam=sign * term.tau, x=np.asarray(term.x, dtype=float)))
    terms.sort(key=lambda t: (-abs(t.lam), 0 if t.lam > 0 else 1, tuple(t.x)))
    return SchurRepresentation(dim=T.dims[0], terms=tuple(terms))


def verify_schur(T: Tensor3, schur: SchurRepresentation, tol: float) -> SchurCheck:
    """Check reconstruction, orthonormality and |lam| monotonicity.

    Reconstruction compares T against sum_i lam_i x_i (x) x_i (x) x_i in
    hs-norm at tol; orthonormality of {x_i} uses the fixed 1e-8 family
    tolerance; monotone means |lam_1| >= |lam_2| >= ... . The figures are
    verify_representation's, by _check_terms, on the Schmidt terms
    (|lam_i|, x_i, x_i, sign(lam_i) x_i), whose sign flips are exact. A tol
    that is not positive and finite, or lies below T's rounding floor
    (spectra._check_floor), is refused with ValueError.
    """
    n1, n2, n3 = T.dims
    if not n1 == n2 == n3:
        raise ValueError(f"verify_schur needs equal dims, got {T.dims}")
    _check_floor(T, tol)
    lam = np.array([t.lam for t in schur.terms], dtype=float)
    X = np.array([t.x for t in schur.terms], dtype=float).reshape(lam.size, n1)
    check = _check_terms(T, np.abs(lam), X, X, np.where(lam[:, None] < 0, -X, X), tol)
    return SchurCheck(**{f.name: getattr(check, f.name) for f in fields(SchurCheck)})
