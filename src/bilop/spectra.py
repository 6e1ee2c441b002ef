"""Singular triples of bilinear operators: search, verification, classification.

A singular triple of T: H1 x H2 -> K is a positive value tau together with
unit vectors (x, y, z) satisfying

    T(x, y) = tau z,   contract_1(y, z) = tau x,   contract_2(x, z) = tau y,

where contract_1/contract_2 are the adjoint contractions of tensor_core.
Such triples are exactly the constrained critical points of <T(x,y), z> on
the product of unit spheres.

The workhorse is an alternating power iteration (hopm_refine) run from a
deterministic multi-start set. It converges only linearly, so its
endpoints are finished by a Newton corrector on the square stationarity
system, which converges quadratically from them. A row still iterating at
loop index 100 (_ALS_HANDOFF, the 101st sweep) leaves the iteration there
and is finished the same way; if its Newton run fails, the search's gate
drops the endpoint it keeps. Alternating iteration
only reaches attracting triples, so enumerate_triples additionally runs
the Newton corrector from every raw start, which reaches saddle-type
triples as well. A row still stepping after 20 Newton steps is retracted
onto the unit spheres before each further step (x, y, z normalised, then
tau := <T(x,y), z>) and then takes the Riemannian Newton step there: a step
in the tangent space of the spheres, from a bordered system. No row takes
more than 40 steps.
Everything is deterministic for a fixed SearchConfig.seed.

One residual routine, _residuals, serves the search's gate, verify_triple,
the ordered-slice test (is_ordered) and Schmidt deflation's checks: it reads
the three equations and the slices off one pass of mode unfolding products,
in the row blocks of tensor_core's _contract, the one batched contraction
kernel, so a row's numbers never depend on its batch. Newton's Jacobian
blocks, right-hand side and starting tau keep their own einsums.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .tensor_core import Tensor3, _as_entries, _contract, _product, _row_blocks, hs_norm

__all__ = [
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
]

#: Norms below this count as "a zero vector" during normalization.
_ZERO_NORM = 1e-250

#: Loop index of the alternating iteration at which every row still iterating leaves for the Newton finish.
_ALS_HANDOFF = 100

#: Newton corrector settings: the finish of every alternating run, and
#: enumerate_triples' second search from the raw starts. From loop index
#: _NEWTON_RETRACT on, every row still stepping is retracted onto the unit
#: spheres, then takes a tangent step (Riemannian Newton) there.
_NEWTON_TOL = 1e-13
_NEWTON_MAX_STEPS = 40
_NEWTON_RETRACT = 20
_NEWTON_DIVERGED = 1e6
_NEWTON_COLLAPSED = 1e-4

#: Largest batch of square Newton Jacobians, in float64 entries (512 KiB),
#: that one row block of a Newton step writes into its batch's Jacobian
#: memory; the same rows' bordered tangent-step matrices are slightly larger.
_NEWTON_BLOCK = 1 << 16


def _int_at_least(value, low: int) -> bool:
    """value is a Python or numpy int, never a bool or a float, of at least low: the one integer rule of
    SearchConfig and oracle.GridSpec (an equal float would otherwise share a memoised search)."""
    return not isinstance(value, bool) and isinstance(value, (int, np.integer)) and value >= low


def _check_tol(value: float, name: str = "tol") -> None:
    """ValueError unless value is positive and finite; written so that NaN fails too."""
    if not 0 < value < float("inf"):
        raise ValueError(f"{name} must be positive and finite")


@dataclass(frozen=True)
class SearchConfig:
    """Multi-start, tolerance and seed parameters for all iterative searches.

    starts=None resolves to 64 * max(dims) for the tensor at hand.
    iter_tol is the relative value-change stop for the alternating
    iteration, which runs at most min(max_iter, 101) sweeps before the
    Newton finish takes over its rows still iterating (a max_iter of 100
    or less ends them as "max_iter exceeded"); residual_tol gates
    verification; dedup_tol controls the sign-orbit merge distance; seed
    makes every search reproducible.
    The field order is the key order of the CLI report's config, which
    shows starts resolved.
    """

    starts: Optional[int] = None
    max_iter: int = 10000
    iter_tol: float = 1e-14
    residual_tol: float = 1e-9
    dedup_tol: float = 1e-6
    seed: int = 0

    def __post_init__(self) -> None:
        for name, low in (("starts", 1), ("max_iter", 1), ("seed", 0)):
            value = getattr(self, name)
            if not (name == "starts" and value is None or _int_at_least(value, low)):
                raise ValueError(f"{name} must be a {'positive' if low else 'nonnegative'} integer")
        for name in ("iter_tol", "residual_tol", "dedup_tol"):
            _check_tol(getattr(self, name), name)

    def resolved_starts(self, dims: tuple[int, int, int]) -> int:
        return self.starts if self.starts is not None else 64 * max(dims)


@dataclass(frozen=True, eq=False)
class SingularTriple:
    """(tau, x, y, z) with the residuals of the three defining equations.

    x, y, z are unit float arrays in H1, H2, K. residuals holds
    (||T(x,y) - tau z||, ||contract_1(y,z) - tau x||, ||contract_2(x,z) - tau y||).
    The field order is the key order of a triple in the CLI's reports.
    """

    tau: float
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    residuals: tuple[float, float, float]

    @property
    def max_residual(self) -> float:
        return max(self.residuals)


@dataclass(frozen=True)
class NonConvergence:
    """Returned by hopm_refine when the iteration cannot produce a triple."""

    reason: str


@dataclass(frozen=True)
class TripleCheck:
    """Residual report of verify_triple."""

    r1: float
    r2: float
    r3: float
    verified: bool

    @property
    def max_residual(self) -> float:
        return max(self.r1, self.r2, self.r3)


@dataclass(frozen=True)
class OrderedCheck:
    """Result of the ordered-singular-value slice test.

    slice_residuals are the Frobenius residuals of the three defining slice
    identities. adjoint_slice_residual is the symmetric fourth slice; it is
    reported for diagnosis but never gates the classification.
    The field order is the key order of the classification that follows
    each triple in the CLI's spectrum report.
    """

    ordered: bool
    slice_residuals: tuple[float, float, float]
    adjoint_slice_residual: float


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Verified triples sorted by tau descending, deduplicated modulo sign orbit.

    complete stays False unless the exhaustive oracle confirms the listing
    on a small instance (oracle.confirm_complete); the multi-start search
    itself never certifies completeness.
    """

    triples: tuple[SingularTriple, ...]
    complete: bool = False


# ---------------------------------------------------------------------------
# residuals and orbit helpers


def _residuals(arr, X, Y, Z, tau=None, deflated=False, slices=False) -> tuple[np.ndarray, np.ndarray]:
    """Per row, tau = <T(x,y), z> (unless given) and residuals, shape (S, 3), or (S, 7) with slices: the three
    equations', then the ordered-slice identities' (is_ordered) T(., y) - tau z x^T, T(x, .) - tau z y^T,
    contract_1(., z) - tau x y^T, and that slice's transpose summed in its own order.

    Each row block (_row_blocks) forms the products X T(1), Y T(2) (only for slices) and Z T(3), one at a time:
    T(x,y) and contract_2(x,z) are read off the first, contract_1(y,z) off the last, and a slice is its product
    less tau times the row's rank-one term. With deflated, the rows are one block of deflation terms: row k is
    taken against its remainder T - sum_{j<k} tau_j x_j (x) y_j (x) z_j, each product less the earlier rows'
    terms weighted by their Gram entries, and tau solves the unit lower-triangular system those terms make."""
    n1, n2, n3 = arr.shape
    S = X.shape[0]
    find = tau is None and not deflated
    tau = np.empty(S) if tau is None else tau
    R = np.empty((S, 7 if slices else 3))
    lower = np.tri(S, k=-1) if deflated else None
    # Per product: the factor, mode unfolding, row shape and term partners, the equations read off it as
    # (einsum, partner, the factor tau multiplies, column of R), and its slice's column.
    plan = [(X, arr.reshape(n1, n2 * n3), (n2, n3), Y, Z, (("sjk,sj->sk", Y, Z, 0), ("sjk,sk->sj", Z, Y, 2)), 4)]
    if slices:
        plan.append((Y, arr.transpose(1, 0, 2).reshape(n2, n1 * n3), (n1, n3), X, Z, (), 3))
    plan.append((Z, arr.reshape(n1 * n2, n3).T, (n1, n2), X, Y, (("sij,sj->si", Y, X, 1),), 5))
    for b in [slice(0, S)] if deflated else _row_blocks(S, max(n2 * n3, n1 * n2, slices * n1 * n3)):
        for F, unf, shape, P, Q, reads, col in plan:
            M = _product(F[b], unf)
            A = M.reshape(-1, *shape)
            if deflated and F is X:
                G = lower * (X @ X.T) * (Y @ Y.T) * (Z @ Z.T)
                tau = np.linalg.solve(G + np.eye(S), np.einsum("sk,sk->s", np.einsum("sjk,sj->sk", A, Y), Z))
            PQ = np.einsum("si,sj->sij", P[b], Q[b]).reshape(M.shape) if deflated or slices else None
            if deflated:  # row k less sum_{j<k} tau_j <f_k, f_j> p_j (x) q_j
                M -= (lower * tau * (F @ F.T)) @ PQ
            for spec, V, W, c in reads:
                C = np.einsum(spec, A, V[b])
                if find and c == 0:
                    tau[b] = np.einsum("sk,sk->s", C, W[b])
                R[b, c] = _row_norms(C - tau[b, None] * W[b])
            if slices:
                M -= tau[b, None] * PQ
                R[b, col] = _row_norms(M)
                if F is Z:  # contract_1(., z)'s slice, transposed
                    R[b, 6] = _row_norms(A.transpose(0, 2, 1).reshape(M.shape))
            del M, A, PQ  # freed before the next product is formed
    return tau, R


def _row_norms(M: np.ndarray) -> np.ndarray:
    """Norms along the last axis: np.linalg.norm(M, axis=-1)'s reduction on real input, bit for bit."""
    return np.sqrt(np.add.reduce(M * M, axis=-1))


def _factor_slices(dims: tuple[int, int, int]) -> tuple[slice, slice, slice]:
    """The x, y and z columns of a stacked unknown x | y | z | tau."""
    n1, n2, n3 = dims
    return slice(0, n1), slice(n1, n1 + n2), slice(n1 + n2, n1 + n2 + n3)


def _stacked(X: np.ndarray, Y: np.ndarray, Z: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Rows x | y | z | tau of the stacked unknown, filled into one preallocated block."""
    V = np.empty((tau.size, X.shape[1] + Y.shape[1] + Z.shape[1] + 1))
    for M, cols in zip((X, Y, Z), _factor_slices((X.shape[1], Y.shape[1], Z.shape[1]))):
        V[:, cols] = M
    V[:, -1] = tau
    return V


_ORBIT_SIGNS = ((1.0, 1.0, 1.0), (-1.0, -1.0, 1.0), (-1.0, 1.0, -1.0), (1.0, -1.0, -1.0))
#: _orbit_distance's two signs of a factor, and each variant's three among its six reductions (f, -1 at 2f + 1).
_PLUS_MINUS = np.array([1.0, -1.0])[:, None, None]
_ORBIT_PICK = np.array([[2 * f + (s < 0) for f, s in enumerate(signs)] for signs in _ORBIT_SIGNS])


def _orbit_distance(P: tuple, Q: tuple) -> np.ndarray:
    """Per row, the least over the sign variants s of max(|x - s_x x'|, |y - s_y y'|, |z - s_z z'|), for rows
    (x, y, z) of P = (X, Y, Z) against rows, or one triple, of Q. Each factor's squared distances are reduced
    once per sign, from a (2, rows, n) difference, and each variant picks its three of the six. max, min and the
    monotone sqrt are exact, so this has the bits of a (4, rows, n) sign-variant stack at half its size."""
    sq = np.concatenate([np.add.reduce(np.square(M - _PLUS_MINUS * N), axis=-1) for M, N in zip(P, Q)])
    return np.sqrt(np.minimum.reduce(np.maximum.reduce(sq[_ORBIT_PICK], axis=1), axis=0))


def _canonical_rows(
    X: np.ndarray, Y: np.ndarray, Z: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """canonicalize applied to every row of a block of triples (exact sign flips)."""
    rows = np.arange(X.shape[0])
    sx = np.where(X[rows, np.argmax(np.abs(X), axis=1)] < 0, -1.0, 1.0)
    sy = np.where(Y[rows, np.argmax(np.abs(Y), axis=1)] < 0, -1.0, 1.0)
    return sx[:, None] * X, sy[:, None] * Y, (sx * sy)[:, None] * Z


def canonicalize(triple: SingularTriple) -> SingularTriple:
    """The sign-orbit representative with peak entries of x and y positive.

    The orbit {(x,y,z), (-x,-y,z), (-x,y,-z), (x,-y,-z)} preserves the
    defining equations with tau > 0. The representative makes the
    largest-magnitude entry of x positive, then of y positive; z's sign is
    forced (it picks up the product of the two flips). Idempotent; the
    residuals are orbit-invariant and carried over unchanged.
    """
    x = np.asarray(triple.x, dtype=float)
    y = np.asarray(triple.y, dtype=float)
    z = np.asarray(triple.z, dtype=float)
    if not np.any(x) or not np.any(y) or not np.any(z):
        raise ValueError("cannot canonicalize a triple with a zero vector")
    (cx,), (cy,), (cz,) = _canonical_rows(x[None], y[None], z[None])
    return SingularTriple(tau=triple.tau, x=cx, y=cy, z=cz, residuals=triple.residuals)


# ---------------------------------------------------------------------------
# batched alternating iteration (value stop, then a Newton finish)


def _row_normalize(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    norms = _row_norms(M)
    safe = np.where(norms > _ZERO_NORM, norms, 1.0)
    return M / safe[:, None], norms


def _als_batch(arr: np.ndarray, X0: np.ndarray, Y0: np.ndarray, cfg: SearchConfig, trace: Optional[list] = None) -> dict:
    """Run the alternating iteration on a block of starts.

    Each row iterates z <- T(x,y)/|.|, x <- contract_1(y,z)/|.|, y <- contract_2(x,z)/|.| until the value
    <T(x,y), z> changes by less than iter_tol relatively (rows are independent; batching only vectorizes the
    identical update). At loop index _ALS_HANDOFF every live row still iterating leaves as it stands, its x
    and y with that sweep's z: the linear tail beyond is left to the Newton finish. Rows that stopped or left
    there (ok) whose equation residuals exceed _NEWTON_TOL*(1+tau) are then finished by _finish from
    tau = <T(x,y), z>; a row that left and whose Newton run fails keeps its endpoint, for the search's gate to
    drop. Returns per-row final states and status, stopped (the ok rows that met the value stop), and merged,
    the ok rows _finish dropped onto a lower row's verified root.

    The iteration works on a compacted block of the rows still iterating (idx maps it back to start rows); a
    row leaves the block when it converges, hits a zero contraction or reaches the handoff. _contract and
    _newton_batch make a row's arithmetic independent of the block it sits in.
    """
    S = X0.shape[0]
    n3 = arr.shape[2]
    X, _ = _row_normalize(np.array(X0, dtype=float))
    Y, _ = _row_normalize(np.array(Y0, dtype=float))
    Z = np.zeros((S, n3))
    ok = np.zeros(S, dtype=bool)
    handed = np.zeros(S, dtype=bool)
    dead = np.zeros(S, dtype=bool)

    idx = np.arange(S)
    x, y = X, Y
    f_prev = np.full(S, np.nan)
    for it in range(cfg.max_iter):
        if idx.size == 0:
            break
        z, f = _row_normalize(_contract(arr, 2, x, y))
        live = f > _ZERO_NORM
        if trace is not None and idx[0] == 0 and live[0]:
            trace.append(float(f[0]))
        done = live & (np.abs(f - f_prev) <= cfg.iter_tol * (1.0 + f))
        if it == _ALS_HANDOFF:  # every live row leaves as it stands, for the Newton finish
            handed[idx[live & ~done]] = True
            done = live
        f_prev = f
        keep = live & ~done
        if not keep.all():
            rows = idx[done]
            ok[rows] = True
            X[rows], Y[rows], Z[rows] = x[done], y[done], z[done]
            dead[idx[~live]] = True
            idx, x, y, z, f_prev = idx[keep], x[keep], y[keep], z[keep], f_prev[keep]
        # Only the z update can vanish in exact arithmetic: on a live row <contract_1(y,z), x> = <T(x,y), z> = f
        # bounds the x update's norm below by f, and the y update's by the x update's. Their guard stays for
        # norms whose squares underflow (at 1e-162 * randn(3, 3, 3) an x norm reads 0 while f > _ZERO_NORM).
        x, _ = _row_normalize(_contract(arr, 0, y, z))
        y, _ = _row_normalize(_contract(arr, 1, x, z))

    merged = _finish(arr, X, Y, Z, ok, cfg)
    reasons = np.where(dead, "zero contraction", "max_iter exceeded")
    return {"X": X, "Y": Y, "Z": Z, "ok": ok, "stopped": ok & ~handed, "merged": merged, "reasons": reasons}


def _finish(arr, X, Y, Z, ok, cfg) -> np.ndarray:
    """Newton-finish, in place, the rows ok of X, Y, Z not yet at _NEWTON_TOL; returns the mask of merged rows.

    The value stop leaves O(sqrt(iter_tol)) vector error at linearly convergent endpoints, which Newton removes
    in a few steps; a row whose run does not converge keeps its endpoint. The rows' tie groups at 1e-9
    (_tie_groups) are finished lead first: a group's first row. If the lead's root passes the
    search's gate (tau above residual_tol, residuals within it), the group's rows within dedup_tol/2 of it
    in a sign variant are dropped unfinished: they would finish onto it and lose the dedup to the lead."""
    sel = np.flatnonzero(ok)
    tau, R = _residuals(arr, X[sel], Y[sel], Z[sel])
    far = R.max(axis=1) > _NEWTON_TOL * (1.0 + np.abs(tau))
    sel, tau = sel[far], tau[far]
    order = np.argsort(-tau, kind="stable")
    group = np.empty_like(order)
    group[order] = _tie_groups(tau[order], 1e-9)
    first = np.unique(group, return_index=True)[1]
    lead = sel[first]
    gated = _newton_finish(arr, X, Y, Z, lead, tau[first])
    t, R = _residuals(arr, X[lead[gated]], Y[lead[gated]], Z[lead[gated]])
    gated[gated] = (t > cfg.residual_tol) & (R.max(axis=1) <= cfg.residual_tol)
    rest = np.arange(sel.size) != first[group]
    near = np.flatnonzero(rest & gated[group])
    a, b = sel[near], lead[group[near]]
    mates = near[_orbit_distance((X[a], Y[a], Z[a]), (X[b], Y[b], Z[b])) <= cfg.dedup_tol / 2]
    rest[mates] = False
    _newton_finish(arr, X, Y, Z, sel[rest], tau[rest])
    return np.bincount(sel[mates], minlength=ok.size) > 0


def _newton_finish(arr, X, Y, Z, rows, tau) -> np.ndarray:
    """Newton from rows of X, Y, Z with start values tau; converged roots overwrite their rows. Returns their mask."""
    V, fin = _newton_batch(arr, _stacked(X[rows], Y[rows], Z[rows], tau))
    for M, cols in zip((X, Y, Z), _factor_slices(arr.shape)):
        M[rows[fin]] = V[fin, cols]
    return fin


# ---------------------------------------------------------------------------
# Newton corrector: the square stationarity system, then tangent steps on the unit spheres


def _newton_batch(arr: np.ndarray, V0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Newton iteration on F(v) = 0 for a block of starts; returns (V, ok).

    Each row of V0 is one stacked unknown v = x | y | z | tau, of length m = n1+n2+n3+1. F stacks
    T(x,y) - tau z, contract_1(y,z) - tau x, contract_2(x,z) - tau y and (||x||^2 - 1)/2; the system is
    square, and at a root with tau != 0 the remaining unit norms hold automatically. Unlike the alternating
    iteration, Newton converges to critical points of any index, which is what recovers saddle-type triples.

    One step loop (_newton_step) serves the whole batch. The rows still stepping are one compacted index
    array, stepped in row blocks whose square Jacobians hold at most _NEWTON_BLOCK entries; each block keeps only
    its rows that step on, so rows that never converge share one tail of _NEWTON_MAX_STEPS steps. From loop
    index _NEWTON_RETRACT on, the rows still stepping are first retracted onto the unit spheres: x, y and z
    divided by their norms (_row_normalize), then tau := <T(x, y), z> from _contract and a row dot with z,
    as _residuals reads it, so the retraction too leaves a row's numbers independent of its batch. There F
    is the Riemannian gradient of <T(x,y), z> on the spheres, so the stop test is unchanged, and the step is
    the Riemannian Newton step: the bordered system [[J_core, B], [B^T, 0]] [s; mu] = [F without its |x|
    entry; 0, 0, 0], with J_core the Jacobian without tau's column and the |x| row and B = blockdiag(x, y, z),
    then (x, y, z) -= s (_jacobian_layout's Mt). s is tangent, so |y| and |z| stay at least 1 and no such row
    collapses. A row stops when it converges, its Jacobian is singular, it diverges (an x, y or z entry beyond
    _NEWTON_DIVERGED, or a non-finite entry), or it collapses onto the tau = 0 component (unit x, y = z = 0),
    where no singular triple lies (|y| or |z| below _NEWTON_COLLAPSED); it depends on no other row. Only
    converged rows are marked, so they start as ok. A converged root with tau < 0 is mapped to the same
    orbit, (x, -y, z, -tau); it stays ok when x, y and z have unit norm within 1e-6, and each block is then
    divided by its norm in place. Rows that did not converge stay as Newton left them.
    """
    V = np.array(V0, dtype=float)
    S = V.shape[0]
    ok = np.zeros(S, dtype=bool)
    if S == 0:
        return V, ok
    n1, n2, n3 = arr.shape
    m = n1 + n2 + n3 + 1
    parts = _factor_slices(arr.shape)
    block = max(1, _NEWTON_BLOCK // (m * m))
    # The stop test's limits on |v|: _NEWTON_DIVERGED on x, y and z, the largest float on tau (only inf or NaN stops).
    lim = np.r_[np.full(m - 1, _NEWTON_DIVERGED), np.finfo(float).max]
    batch = (np.ascontiguousarray(arr.transpose(1, 0, 2)), _jacobian_buffers(arr.shape, min(block, S)), lim)
    act = np.arange(S)
    # On a tensor near the float range, a row's residual F can hold entries whose squares exceed the largest
    # float: _row_norms(F) is then inf, which the stop test reads as not converged, so the overflow is expected.
    with np.errstate(over="ignore"):
        for it in range(_NEWTON_MAX_STEPS):
            tangent = it >= _NEWTON_RETRACT
            if tangent:  # the retraction onto the unit spheres
                X, Y, Z = (_row_normalize(V[act, cols])[0] for cols in parts)
                V[act] = _stacked(X, Y, Z, np.einsum("sk,sk->s", _contract(arr, 2, X, Y), Z))
            kept = 0
            for lo in range(0, act.size, block):
                rows = _newton_step(arr, V, act[lo : lo + block], ok, batch, tangent)
                act[kept : kept + rows.size] = rows
                kept += rows.size
            if not kept:
                break
            act = act[:kept]

    V[ok & (V[:, -1] < 0)] *= np.r_[np.ones(n1), -np.ones(n2), np.ones(n3), -1.0]
    # Roots carry unit norms up to the Newton tolerance; snap exactly.
    sel = np.flatnonzero(ok)
    norms = [_row_norms(V[sel, cols]) for cols in parts]
    off = np.logical_or.reduce([np.abs(nrm - 1.0) > 1e-6 for nrm in norms])
    ok[sel[off]] = False
    for cols, nrm in zip(parts, norms):
        V[sel[~off], cols] /= nrm[~off, None]
    return V, ok


def _newton_step(
    arr: np.ndarray, V: np.ndarray, idx: np.ndarray, done: np.ndarray, batch: tuple, tangent: bool
) -> np.ndarray:
    """One Newton step on rows idx of the stacked unknown V, in place; returns the rows that step on.

    Rows already at the tolerance are marked done and left as they are. The others' Jacobians are gathered (see
    _jacobian_buffers) and solved by _solve_rows: the square system's or, with tangent, the bordered system
    (_jacobian_layout's Mt), whose right side is F without its |x| entry, then three zeros. A tangent step
    moves x, y and z only: its multipliers are dropped, and tau waits for the next retraction. A row whose
    Jacobian is singular, or whose new iterate diverges or collapses, steps no further. batch holds Tjik for
    _newton_a1, the buffers and the stop test's limits."""
    Tjik, (mem, src, (wA1, wA2, wA3, wv, wx), maps, (sx, sy, sz), (f1, f2, f3)), lim = batch
    k = idx.size
    v = V[idx]
    # Contiguous operands: a strided einsum may take another inner loop.
    x, y, z = v[:, sx].copy(), v[:, sy].copy(), v[:, sz].copy()
    t = v[:, -1]
    A1 = _newton_a1(Tjik, y)
    A2 = np.einsum("ijk,si->skj", arr, x)
    tv = t[:, None] * v
    F = np.empty(v.shape)
    np.subtract(np.einsum("ski,si->sk", A1, x), tv[:, sz], out=F[:, f1])
    np.subtract(np.einsum("ski,sk->si", A1, z), tv[:, sx], out=F[:, f2])
    np.subtract(np.einsum("skj,sk->sj", A2, z), tv[:, sy], out=F[:, f3])
    np.multiply(np.einsum("si,si->s", x, x) - 1.0, 0.5, out=F[:, -1])
    done[idx] = hit = _row_norms(F) <= _NEWTON_TOL * (1.0 + np.abs(t))
    go = ~hit
    gi = idx[go]
    if not gi.size:
        return gi
    wA1[:k], wA2[:k], wA3[:k], wx[:k] = A1, A2, np.einsum("ijk,sk->sij", arr, z), x
    np.negative(v, out=wv[:k])
    rows = src[:k]
    if gi.size < k:
        v, F, rows = v[go], F[go], rows[go]
    M = maps[tangent]
    # One take through the map; mode="clip" (every index is valid) lets it write straight into the memory.
    J = rows.take(M, axis=1, out=mem[: gi.size * M.size].reshape(gi.size, *M.shape), mode="clip")
    if tangent:  # F without its |x| entry, then three zeros
        F = np.concatenate([F[:, :-1], np.zeros((gi.size, 3))], axis=1)
    step, singular = _solve_rows(J, F)
    if tangent:  # the multiplier in tau's place is dropped: tau waits for the next retraction
        step[:, -3] = 0.0
    V[gi] = w = v - step[:, : v.shape[1]]
    a = np.abs(w)
    keep = np.logical_and.reduce(a <= lim, axis=1)
    keep[singular] = False
    # Capped at _NEWTON_DIVERGED, no square overflows; the rows that step on keep their |y| and |z| bit for bit.
    np.minimum(a, _NEWTON_DIVERGED, out=a)
    a *= a
    keep &= np.sqrt(np.minimum(np.add.reduce(a[:, sy], axis=-1), np.add.reduce(a[:, sz], axis=-1))) >= _NEWTON_COLLAPSED
    return gi[keep]


def _newton_a1(Tjik: np.ndarray, y: np.ndarray) -> np.ndarray:
    """einsum("ijk,sj->ski", T, y), its values and its strides, from Tjik = T's (j, i, k)-contiguous copy:
    a contiguous operand makes the einsum several times faster, and the F einsums' bits depend on A1's strides."""
    return np.einsum("jik,sj->sik", Tjik, y).transpose(0, 2, 1)


def _jacobian_buffers(dims: tuple[int, int, int], rows: int) -> tuple:
    """One batch's Jacobian memory, its source block and writable views, the maps (M, Mt), and v's and F's slices.

    A source row is A1 | A2 | A3 | -v | x | 0.0 (A1 as its (i, k)-contiguous einsum output, its 0.0 written
    here, once per batch); a square step's Jacobians are src.take(M, axis=1) and a tangent step's bordered
    matrices src.take(Mt, axis=1), with the maps and the slices from _jacobian_layout. The flat memory holds
    rows bordered matrices, the larger kind."""
    n1, n2, n3 = dims
    M, Mt, cuts, slices, f_slices = _jacobian_layout(dims)
    src = np.empty((rows, cuts[-1]))
    src[:, -1] = 0.0
    A1, A2, A3, nv, x, _ = np.split(src, cuts[:-1], axis=1)
    views = (A1.reshape(rows, n1, n3).transpose(0, 2, 1), A2.reshape(rows, n3, n2), A3.reshape(rows, n1, n2), nv, x)
    return np.empty(rows * Mt.size), src, views, (M, Mt), slices, f_slices


@functools.lru_cache(maxsize=8)
def _jacobian_layout(dims: tuple[int, int, int]) -> tuple:
    """The maps M and Mt (read-only), the ends of a source row's parts, and v's and F's slices; built once per shape.

    A square step's J = src.take(M, axis=1); rows T(x,y) - tau z, contract_1(y,z) - tau x,
    contract_2(x,z) - tau y, (|x|^2 - 1)/2; columns x|y|z|tau:

        [ A1       A2       -tau I   -z ]
        [ -tau I   A3       A1^T     -x ]
        [ A3^T     -tau I   A2^T     -y ]
        [ x^T      0        0         0 ]

    A tangent step's bordered matrix is src.take(Mt, axis=1); rows F's three equations, then one border row
    per factor; columns x|y|z, then one border column per factor:

        [ A1       A2       -tau I   0    0    -z ]
        [ -tau I   A3       A1^T     -x   0    0  ]
        [ A3^T     -tau I   A2^T     0    -y   0  ]
        [ -x^T     0        0        0    0    0  ]
        [ 0        -y^T     0        0    0    0  ]
        [ 0        0        -z^T     0    0    0  ]

    Its core is M without tau's column and the |x| row: the Euclidean Hessian of <T(x,y), z> less tau I, with
    its rows in F's order. tau's column is split into the border columns, and the border rows read -v, which
    flips only the signs of the multipliers; the step drops them. The 0 entries, the off-diagonals of each
    -tau I among them, read the source row's 0.0."""
    n1, n2, n3 = dims
    n = n1 + n2 + n3
    sx, sy, sz = _factor_slices(dims)
    f1, f2, f3 = slice(0, n3), slice(n3, n3 + n1), slice(n3 + n1, n)
    cuts = tuple(np.cumsum([n1 * n3, n3 * n2, n1 * n2, n + 1, n1, 1]).tolist())
    A1, A2, A3, nv, x, zero = np.split(np.arange(cuts[-1]), cuts[:-1])
    A1, A2, A3 = A1.reshape(n1, n3).T, A2.reshape(n3, n2), A3.reshape(n1, n2)
    M = np.empty((n + 1, n + 1), dtype=np.intp)
    for r, c, k in ((f1, sz, n3), (f2, sx, n1), (f3, sy, n2)):
        M[r, c] = np.where(np.eye(k, dtype=bool), nv[-1], zero)
    M[f1, sx], M[f1, sy], M[f2, sy] = A1, A2, A3
    M[f2, sz], M[f3, sx], M[f3, sz] = A1.T, A3.T, A2.T
    M[:-1, -1] = np.concatenate([nv[sz], nv[sx], nv[sy]])
    M[-1, sx], M[-1, n1:] = x, zero
    Mt = np.full((n + 3, n + 3), zero, dtype=np.intp)
    Mt[:n, :n] = M[:n, :n]
    for c, (r, cols) in enumerate(zip((f2, f3, f1), (sx, sy, sz))):
        Mt[r, n + c] = Mt[n + c, cols] = nv[cols]
    M.flags.writeable = Mt.flags.writeable = False
    return M, Mt, cuts, (sx, sy, sz), (f1, f2, f3)


def _solve_rows(J: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row gesv solutions of J[r] s = rhs[r], and the mask of the singular rows, whose step is 0.

    If the batched solve raises, slogdet's sign marks the singular rows: it is 0 exactly where getrf, run by
    gesv on the same Fortran-order copy, meets a zero pivot. The rest are solved in one more batched call."""
    try:
        return np.linalg.solve(J, rhs[:, :, None])[:, :, 0], np.zeros(rhs.shape[0], dtype=bool)
    except np.linalg.LinAlgError:
        with np.errstate(all="ignore"):  # only the sign is read; log|det| may be -inf
            step, singular = np.zeros_like(rhs), np.linalg.slogdet(J)[0] == 0
        step[~singular] = np.linalg.solve(J[~singular], rhs[~singular, :, None])[:, :, 0]
        return step, singular


# ---------------------------------------------------------------------------
# deterministic start sets


def _aligned_z(arr: np.ndarray, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """z for each start pair: T(x, y) normalized, or e_1 where T(x, y) vanishes."""
    Z, norms = _row_normalize(_contract(arr, 2, X, Y))
    Z[~(norms > _ZERO_NORM)] = np.eye(1, Z.shape[1])
    return Z


#: The standard normals behind every search's random starts, {seed: read-only table}, for the last seed used.
_start_table: dict[int, np.ndarray] = {}


def _random_starts(
    dims: tuple[int, int, int], count: int, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """count uniform random unit triples, seeded deterministically per start index.

    Start s is read off the leading normals of default_rng([seed, s]). A shorter draw is the prefix of a
    longer one, bit for bit, so the table kept for the last seed serves any search as
    table[:count, :sum(dims)], normalised per factor on every call. A larger count draws only the new
    rows, a wider shape redraws the table once, and another seed replaces it.
    """
    width = sum(dims)
    table = _start_table.get(seed, np.empty((0, width)))
    first = table.shape[0] if width <= table.shape[1] else 0
    rows = max(count, table.shape[0])
    if rows > first:
        grown = np.empty((rows, max(width, table.shape[1])))
        if first:
            grown[:first] = table
        for s in range(first, rows):
            # default_rng([seed, s]) spelled out: a third cheaper, same stream.
            g = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, s])))
            grown[s] = g.standard_normal(grown.shape[1])
        grown.flags.writeable = False
        _start_table.clear()
        _start_table[seed] = table = grown
    V = table[:count, :width]
    return tuple(_row_normalize(V[:, cols])[0] for cols in _factor_slices(dims))


def _standard_starts(
    T: Tensor3, cfg: SearchConfig, pairs: Optional[tuple[np.ndarray, np.ndarray]] = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The multi-start set: every pair of start basis vectors, then the random block.

    pairs = (P, Q) holds the start vectors of H1 and H2 as rows; the default
    is the two identity bases, so the pairs are (e_i, f_j). Each pair (p, q)
    takes z aligned with T(p, q). The random block is cfg.resolved_starts
    seeded random triples from _random_starts, normalised afresh from the
    per-seed table of start normals.
    """
    n1, n2, _ = T.dims
    P, Q = pairs if pairs is not None else (np.eye(n1), np.eye(n2))
    X = np.repeat(P, Q.shape[0], axis=0)
    Y = np.tile(Q, (P.shape[0], 1))
    Z = _aligned_z(T.array, X, Y)
    Xr, Yr, Zr = _random_starts(T.dims, cfg.resolved_starts(T.dims), cfg.seed)
    return np.vstack([X, Xr]), np.vstack([Y, Yr]), np.vstack([Z, Zr])


# ---------------------------------------------------------------------------
# candidate verification, dedup, ordering


def _tie_groups(t: np.ndarray, tol: float) -> np.ndarray:
    """Group ids 0, 1, ... of tau's t sorted descending: the one tie rule of bilop.

    A new group starts wherever a tau lies more than tol * (1 + the tau before it) below that tau, so groups
    chain and one can span more than that. Taken at the larger tau, the width puts any two tau's within
    tol * (1 + their max) in one group, which lets _listing merge sign orbits group by group. Its groups are
    _finish's at 1e-9 and, at dedup_tol, _listing's, greedy's top band (the listing's first group) and the
    SVD reading's gap test (schmidt._svd_block: a term must be alone in its group)."""
    gaps = np.zeros(t.size, dtype=np.intp)
    gaps[1:] = t[:-1] - t[1:] > tol * (1.0 + t[:-1])
    return np.cumsum(gaps)


def _listing(tau: np.ndarray, X: np.ndarray, Y: np.ndarray, Z: np.ndarray, cfg: SearchConfig) -> np.ndarray:
    """The rows listed, one per sign orbit, in listing order: tau descending, each tie group by (x, y).

    Within each tie group of dedup_tol (_tie_groups) the first row in row order wins: a later row is dropped
    when its tau lies within dedup_tol * (1 + max tau) of a kept row's and, for some sign variant,
    max(||x-x'||, ||y-y'||, ||z-z'||) <= dedup_tol (the tau test stays, as a chained group can span more).
    Mates always share a group, so this is the sequential first-representative-wins merge over all rows. The
    kept rows, grouped again, are ordered by group, then lexicographically by the entries of x and of y, with
    exact ties kept in tau order. The first group listed is greedy deflation's top band."""
    order = np.argsort(-tau, kind="stable")
    live = np.ones(tau.size, dtype=bool)
    for rows in np.split(order, np.flatnonzero(np.diff(_tie_groups(tau[order], cfg.dedup_tol))) + 1):
        rows = np.sort(rows)  # row order: the first representative wins
        for k in range(rows.size - 1):  # a lone row has no mates
            i = rows[k]
            if live[i]:
                later = rows[k + 1 :][live[rows[k + 1 :]]]
                t = tau[later]
                near = later[np.abs(t - tau[i]) <= cfg.dedup_tol * (1.0 + np.maximum(t, tau[i]))]
                live[near[_orbit_distance((X[near], Y[near], Z[near]), (X[i], Y[i], Z[i])) <= cfg.dedup_tol]] = False
    kept = order[live[order]]
    # lexsort's last key is its primary one.
    keys = np.hstack([X[kept], Y[kept]])[:, ::-1].T
    return kept[np.lexsort(np.vstack([keys, _tie_groups(tau[kept], cfg.dedup_tol)]))]


@functools.lru_cache(maxsize=1)
def _alternating_stage(
    T: Tensor3, cfg: SearchConfig, pairs: Optional[tuple[np.ndarray, np.ndarray]] = None
) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...], int]:
    """The starts (X0, Y0, Z0) of one multi-start search, the rows (X, Y, Z) its ALS runs ended at, and a count.

    The starts are _standard_starts(T, cfg, pairs); the rows are the ok rows _als_batch's
    finish kept, by start index: value stops and rows handed to Newton at _ALS_HANDOFF,
    finished or not (the search's gate drops those Newton left unconverged). The count
    is of the rows that met the value stop, the merged ones included.
    Every array is read-only. The last stage is kept, keyed by the Tensor3 object
    (frozen, read-only values, hashed by identity; the entry's reference keeps its
    id from being reused) and by the SearchConfig's value, so a norm, a spectrum
    and greedy deflation's first step of one tensor pay for one stage. Lattice
    pairs are arrays, which cannot be hashed: their searches call __wrapped__ and
    keep no stage. A missed stage still reads its random normals from _start_table.
    """
    starts = _standard_starts(T, cfg, pairs)
    als = _als_batch(T.array, starts[0], starts[1], cfg)
    ok = als["ok"] & ~als["merged"]
    rows = (als["X"][ok], als["Y"][ok], als["Z"][ok])
    for M in starts + rows:
        M.flags.writeable = False
    return starts, rows, int(als["stopped"].sum())


def _search_candidates(
    T: Tensor3,
    cfg: SearchConfig,
    use_newton: bool,
    pairs: Optional[tuple[np.ndarray, np.ndarray]] = None,
) -> tuple[SingularTriple, ...]:
    """Verified, canonical, deduplicated and sorted triples of one multi-start search.

    A tensor whose hs-norm is at most residual_tol has no such triple, and
    gets none without a search. Otherwise the alternating stage,
    _alternating_stage(T, cfg, pairs), is served from its memo when pairs
    is None. Newton optionally runs from the same starts, stacked as
    x | y | z | tau0; it is never memoised. The converged rows, the
    alternating-iteration results by start index and then the Newton
    results by start index, are gated at residual_tol with tau >
    residual_tol and canonicalized; _listing merges them by sign orbit,
    first representative winning, and puts the kept rows in listing
    order, and only then do they become SingularTriples. A residual_tol
    below T's rounding floor is refused first (_check_floor).
    """
    _check_floor(T, cfg.residual_tol)
    if hs_norm(T) <= cfg.residual_tol:
        return ()
    (X0, Y0, Z0), rows, _ = _alternating_stage(T, cfg) if pairs is None else _alternating_stage.__wrapped__(T, cfg, pairs)
    arr = T.array
    found = [rows]
    if use_newton:
        # Newton's start values keep their own einsum arithmetic, like
        # _newton_batch: its roots feed tie orders pinned by the gallery reports.
        tau0 = np.einsum("sk,sk->s", np.einsum("ijk,si,sj->sk", arr, X0, Y0), Z0)
        V, ok = _newton_batch(arr, _stacked(X0, Y0, Z0, tau0))
        found.append(tuple(V[ok, cols] for cols in _factor_slices(arr.shape)))
    X, Y, Z = (np.vstack(blocks) for blocks in zip(*found))
    tau, R = _residuals(arr, X, Y, Z)
    good = (tau > cfg.residual_tol) & (R.max(axis=1) <= cfg.residual_tol)
    tau, R = tau[good], R[good]
    X, Y, Z = _canonical_rows(X[good], Y[good], Z[good])
    return tuple(
        SingularTriple(
            tau=float(tau[i]),
            x=X[i].copy(),
            y=Y[i].copy(),
            z=Z[i].copy(),
            residuals=tuple(float(r) for r in R[i]),
        )
        for i in _listing(tau, X, Y, Z, cfg)
    )


# ---------------------------------------------------------------------------
# public operations


def hopm_refine(
    T: Tensor3,
    x0,
    y0,
    z0,
    cfg: Optional[SearchConfig] = None,
) -> Union[SingularTriple, NonConvergence]:
    """Alternating power iteration from a single start.

    Iterates z <- T(x,y)/|.|, x <- contract_1(y,z)/|.|, y <- contract_2(x,z)/|.|
    until the value <T(x,y), z> changes by less than iter_tol relatively, or
    for 101 sweeps (loop index _ALS_HANDOFF), whichever comes first,
    then finishes the endpoint with Newton steps on the stationarity system
    (it is kept as is if Newton does not converge) and returns the
    canonicalized triple with its computed residuals (the result is a
    candidate; it is not verification-gated).
    The value sequence is nondecreasing across sweeps. A zero vector under
    normalization, or a max_iter of at most 100 exhausted before the value
    stop, yields NonConvergence.
    z0 participates only through the start contract (the first sweep
    replaces it); it is validated like the others.
    """
    cfg = cfg if cfg is not None else SearchConfig()
    n1, n2, n3 = T.dims
    xa = _as_entries(x0, "H1", n1, "x0")
    ya = _as_entries(y0, "H2", n2, "y0")
    za = _as_entries(z0, "K", n3, "z0")
    for label, v in (("x0", xa), ("y0", ya), ("z0", za)):
        if np.linalg.norm(v) <= _ZERO_NORM:
            return NonConvergence(f"degenerate start: {label} is a zero vector")
    res = _als_batch(T.array, xa[None, :], ya[None, :], cfg)
    if not res["ok"][0]:
        return NonConvergence(str(res["reasons"][0]))
    tau, R = _residuals(T.array, res["X"], res["Y"], res["Z"])
    return canonicalize(
        SingularTriple(
            tau=float(tau[0]),
            x=res["X"][0],
            y=res["Y"][0],
            z=res["Z"][0],
            residuals=tuple(float(r) for r in R[0]),
        )
    )


def hopm_value_trace(
    T: Tensor3, x0, y0, cfg: Optional[SearchConfig] = None
) -> np.ndarray:
    """The per-sweep objective values ||T(x,y)|| of a single-start iteration.

    Diagnostic companion to hopm_refine: each alternating update maximizes
    the objective in one block, so the returned sequence is nondecreasing
    up to roundoff. It ends at the value stop, or at the handoff to Newton:
    at most 101 values (loop index _ALS_HANDOFF).
    """
    cfg = cfg if cfg is not None else SearchConfig()
    n1, n2, _ = T.dims
    xa = _as_entries(x0, "H1", n1, "x0")
    ya = _as_entries(y0, "H2", n2, "y0")
    values: list[float] = []
    _als_batch(T.array, xa[None, :], ya[None, :], cfg, trace=values)
    return np.asarray(values)


def _unit_triple(T: Tensor3, triple: SingularTriple) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The triple's (x, y, z) as validated arrays; ValueError unless each is unit within 1e-8."""
    n1, n2, n3 = T.dims
    xa = _as_entries(triple.x, "H1", n1, "x")
    ya = _as_entries(triple.y, "H2", n2, "y")
    za = _as_entries(triple.z, "K", n3, "z")
    for label, v in (("x", xa), ("y", ya), ("z", za)):
        if abs(np.linalg.norm(v) - 1.0) > 1e-8:
            raise ValueError(f"{label} is not a unit vector")
    return xa, ya, za


def _check_floor(T: Tensor3, tol: float) -> None:
    """ValueError when tol lies below eps/2 * hs_norm(T), the rounding unit of T's own entries: a gate there
    would pass or refuse a triple by how its last bits round, so norm, spectrum and verify_triple could disagree."""
    floor = 2.0**-53 * hs_norm(T)  # eps/2 as a literal: a first np.finfo call adds about 0.3 MiB to a CLI process's peak RSS
    if tol < floor:
        raise ValueError(
            f"tolerance {tol:g} lies below this tensor's rounding floor {floor:.3g} "
            "(eps/2 times its Hilbert-Schmidt norm); no residual resolves that"
        )


def verify_triple(T: Tensor3, triple: SingularTriple, tol: float) -> TripleCheck:
    """Check the three defining equations at the given triple, with the search's residual routine.

    verified means max residual <= tol and tau > 0. Vectors more than 1e-8 away from unit norm, a tau
    that is not finite, a tol that is not positive and finite, and a tol below T's rounding floor
    (_check_floor) are rejected as argument errors.
    """
    _check_tol(tol)
    _check_floor(T, tol)
    x, y, z = _unit_triple(T, triple)
    try:
        tau = float(triple.tau)
    except OverflowError:  # a Python int beyond the float range
        raise ValueError("tau must be finite, got a number beyond the float range") from None
    if not np.isfinite(tau):
        raise ValueError(f"tau must be finite, got {tau}")
    r1, r2, r3 = (float(r) for r in _residuals(T.array, x[None], y[None], z[None], np.array([tau]))[1][0])
    return TripleCheck(r1=r1, r2=r2, r3=r3, verified=max(r1, r2, r3) <= tol and tau > 0)


def _stacked_terms(items, dims) -> tuple:
    """The tau, x, y and z of triples or Schmidt terms as arrays of one row each: (tau, X, Y, Z)."""
    tau = np.array([t.tau for t in items], dtype=float)
    return (tau, *(np.array([getattr(t, f) for t in items], dtype=float).reshape(tau.size, n) for f, n in zip("xyz", dims)))


def _ordered_checks(T: Tensor3, triples, tol: float) -> list[OrderedCheck]:
    """is_ordered's classification of already verified triples, from one call of _residuals with slices."""
    tau, X, Y, Z = _stacked_terms(triples, T.dims)
    return [
        OrderedCheck(ordered=max(r[3:6]) <= tol, slice_residuals=tuple(r[3:6]), adjoint_slice_residual=r[6])
        for r in _residuals(T.array, X, Y, Z, tau, slices=True)[1].tolist()
    ]


def is_ordered(T: Tensor3, triple: SingularTriple, tol: float) -> OrderedCheck:
    """Classify a verified triple as an ordered singular value.

    Checks three matrix identities over full bases: (a) freezing y gives the
    rank-one map x -> tau <x, x1> z1, (b) freezing x gives y -> tau <y, y1> z1,
    (c) the first adjoint contraction against z gives y -> tau <y, y1> x1.
    The symmetric fourth slice (second contraction against z) equals the
    transpose of (c) and is reported as a diagnostic only. The triple is
    verified first; its row of _ordered_checks gives the slices.
    """
    check = verify_triple(T, triple, tol)
    if not check.verified:
        raise ValueError(
            f"is_ordered requires a verified triple (max residual {check.max_residual:.3e})"
        )
    return _ordered_checks(T, [triple], tol)[0]


def operator_norm(
    T: Tensor3, cfg: Optional[SearchConfig] = None
) -> tuple[float, Optional[SingularTriple]]:
    """The bilinear operator norm sup ||T(x,y)|| over unit x, y.

    The supremum is attained at a singular triple, and the maximizer is an
    attractor of the alternating iteration, so a plain multi-start run
    suffices: cfg.starts seeded random starts plus all canonical basis
    pairs. That run is the alternating stage of enumerate_triples' search,
    and the last stage is kept: a norm and a spectrum of the same Tensor3
    object with equal configs run it once, whichever comes first.
    The norm is the largest tau of the listing's first tie group, with its
    triple (the first listed among equal taus): the listing orders a group
    by (x, y), so its first triple need not hold the group's largest tau.
    Returns (0.0, None) when hs_norm(T) <= residual_tol. For any
    other tensor, a search in which no triple verifies raises ValueError:
    the norm is positive but unknown, so no value is reported. The message
    names max_iter when no start converged, and otherwise the residual_tol
    gate that rejected every converged start. A residual_tol below T's
    rounding floor, eps/2 * hs_norm(T), is refused up front with ValueError.
    """
    cfg = cfg if cfg is not None else SearchConfig()
    found = _search_candidates(T, cfg, use_newton=False)
    if found:
        top = max(found, key=lambda c: c.tau)
        return top.tau, top
    if hs_norm(T) <= cfg.residual_tol:
        return 0.0, None
    converged = _alternating_stage(T, cfg)[2]
    if converged == 0:
        cause = f" within max_iter={cfg.max_iter}"
    else:
        cause = f": {converged} start(s) converged, but none has tau above it and residuals within it"
    raise ValueError(
        f"no singular triple verified at residual_tol={cfg.residual_tol:g}{cause}; "
        "the norm of this nonzero operator is unknown"
    )


def enumerate_triples(T: Tensor3, cfg: Optional[SearchConfig] = None) -> Spectrum:
    """All singular triples the deterministic multi-start search can find.

    Every returned triple is verified at residual_tol; the list is
    deduplicated modulo the sign orbit, sorted by tau descending, and
    distinct orbits sharing (numerically) the same tau are all retained.
    Alternating-iteration results are supplemented with a Newton corrector
    run from the same start set, which recovers saddle-type triples the
    alternating iteration repels. The alternating stage is served from the
    last operator_norm, enumerate_triples or greedy deflation step on the
    same Tensor3 object with an equal cfg, if there was one; the answer is
    the same bits either way. Enumeration is heuristic: complete is always
    False here (see oracle.confirm_complete).
    """
    cfg = cfg if cfg is not None else SearchConfig()
    return Spectrum(triples=_search_candidates(T, cfg, use_newton=True), complete=False)
