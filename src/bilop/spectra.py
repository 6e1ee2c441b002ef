"""Singular triples of bilinear operators: search, verification, classification.

A singular triple of T: H1 x H2 -> K is a positive value tau together with
unit vectors (x, y, z) satisfying

    T(x, y) = tau z,   contract_1(y, z) = tau x,   contract_2(x, z) = tau y,

where contract_1/contract_2 are the adjoint contractions of tensor_core.
Such triples are exactly the constrained critical points of <T(x,y), z> on
the product of unit spheres.

The search runs an alternating power iteration on every start of one
deterministic multi-start set at once (_als_batch; hopm_refine is its
one-start form). It converges only linearly, so its endpoints are finished
by the Newton corrector of bilop._newton, which converges quadratically from
them. A row still iterating at loop index 100 (_ALS_HANDOFF, the 101st
sweep) leaves the iteration there and is finished the same way; if its
Newton run fails, the search's gate drops the endpoint it keeps. Alternating
iteration only reaches attracting triples, so enumerate_triples additionally
runs the Newton corrector from every raw start, which reaches saddle-type
triples as well. Everything is deterministic for a fixed SearchConfig.seed.

One gate, _verified, decides what is a triple for _finish's leads, the
search's listing, Schmidt deflation and verify_triple. It reads the one
residual routine, _residuals, which also serves is_ordered: the equations
and the slices off one pass of mode unfolding products, in the row blocks
(_row_blocks) of tensor_core's _contract, so a row's numbers never depend
on its batch. So does Newton (bilop._newton); the raw pass's starting tau
keeps its own einsum.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from ._newton import _NEWTON_TOL, _newton_finish
from .tensor_core import (
    Tensor3, _CONTRACT_BLOCK, _ZERO_NORM, _contract, _factors, _int_at_least, _probe, _probed, _product, _row_blocks,
    _row_norms, _row_normalize, hs_norm,
)

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

#: Loop index of the alternating iteration at which every row still iterating leaves for the Newton finish.
_ALS_HANDOFF = 100

#: The most bytes a search may take by _search_bytes' estimate, 2 GiB; _standard_starts refuses one past it.
_SEARCH_BUDGET = 2**31


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
    """Residual report of verify_triple; verified is the search's gate (_verified) on the triple."""

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


def _verified(tau: np.ndarray, R: np.ndarray, tol: float) -> np.ndarray:
    """bilop's one verification gate, per row: tau above tol and the three equation residuals (R's first columns,
    from _residuals) within it."""
    return (tau > tol) & (R[:, :3].max(axis=1) <= tol)


_ORBIT_SIGNS = ((1.0, 1.0, 1.0), (-1.0, -1.0, 1.0), (-1.0, 1.0, -1.0), (1.0, -1.0, -1.0))
#: _orbit_distance's two signs of a factor, and each variant's three among its six reductions (f, -1 at 2f + 1).
_PLUS_MINUS = np.array([1.0, -1.0])[:, None, None]
_ORBIT_PICK = np.array([[2 * f + (s < 0) for f, s in enumerate(signs)] for signs in _ORBIT_SIGNS])


def _orbit_distance(P: tuple, Q: tuple) -> np.ndarray:
    """Per row, the least over the sign variants s of max(|x - s_x x'|, |y - s_y y'|, |z - s_z z'|), for rows
    (x, y, z) of P = (X, Y, Z) against rows, or one triple, of Q. Each factor's squared distances are reduced
    once per sign, from a (2, rows, n) difference, and each variant picks its three of the six. max, min and the
    monotone sqrt are exact, so this has the bits of a (4, rows, n) sign-variant stack at half its size. The
    differences are formed in row blocks (_row_blocks) of the widest factor's pair; a row reads only itself."""
    out = np.empty(P[0].shape[0])
    for b in _row_blocks(out.size, 2 * max(M.shape[1] for M in P)):
        pairs = ((M[b], N[b] if N.ndim == 2 else N) for M, N in zip(P, Q))
        sq = np.concatenate([np.add.reduce(np.square(M - _PLUS_MINUS * N), axis=-1) for M, N in pairs])
        out[b] = np.sqrt(np.minimum.reduce(np.maximum.reduce(sq[_ORBIT_PICK], axis=1), axis=0))
    return out


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


def _als_batch(arr: np.ndarray, X0: np.ndarray, Y0: np.ndarray, cfg: SearchConfig) -> dict:
    """Run the alternating iteration on a block of starts.

    Each row iterates z <- T(x,y)/|.|, x <- contract_1(y,z)/|.|, y <- contract_2(x,z)/|.| until the value
    <T(x,y), z> changes by less than iter_tol relatively (rows are independent; batching only vectorizes the
    identical update). At loop index _ALS_HANDOFF every live row still iterating leaves as it stands, its x
    and y with that sweep's z: the linear tail beyond is left to the Newton finish. Rows that stopped or left
    there (ok) whose equation residuals exceed _NEWTON_TOL*(1+tau) are then finished by _finish from
    tau = <T(x,y), z>; a row that left and whose Newton run fails keeps its endpoint, for the search's gate to
    drop. Returns per-row final states, ok less the rows _finish dropped onto a lead's root, stopped (value
    stops, dropped rows included) and dead (zero contractions); a lone row neither ok nor dead hit max_iter.

    The iteration works on a compacted block of the rows still iterating (idx maps it back to start rows); a
    row leaves the block when it converges, hits a zero contraction or reaches the handoff. _contract and
    bilop._newton make a row's arithmetic independent of the block it sits in. With the probe set, its record,
    written before _finish runs, holds the rows' outcomes, the sweeps run and row 0's value at each of its sweeps.
    """
    record = _probed("als")
    values = []  # with the probe set, row 0's value at each of its sweeps
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
    it = 0  # the loop index, and after the loop the sweeps run
    while idx.size and it < cfg.max_iter:
        z, f = _row_normalize(_contract(arr, 2, x, y))
        live = f > _ZERO_NORM
        if record and idx[0] == 0 and live[0]:
            values.append(float(f[0]))
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
        it += 1

    stopped = ok & ~handed
    if record:
        record(rows=S, sweeps=it, stops=int(stopped.sum()), handoffs=int(handed.sum()), dead=int(dead.sum()),
               max_iter=int((~ok & ~dead).sum()), values=values)
    _finish(arr, X, Y, Z, ok, cfg)
    return {"X": X, "Y": Y, "Z": Z, "ok": ok, "stopped": stopped, "dead": dead}


def _finish(arr, X, Y, Z, ok, cfg) -> None:
    """Newton-finish, in place, the rows ok of X, Y, Z not yet at _NEWTON_TOL, and clear the rows it drops from ok.

    The value stop leaves O(sqrt(iter_tol)) vector error at linearly convergent endpoints, which Newton removes
    in a few steps; a row whose run does not converge keeps its endpoint. The rows' tie groups at 1e-9
    (_tie_groups) are finished lead first: a group's first row. If the lead's root passes the search's gate
    (_verified at residual_tol), the group's rows within dedup_tol/2 of it in a sign variant are dropped
    unfinished: they would finish onto it and lose the dedup to the lead."""
    record = _probed("finish")
    sel = np.flatnonzero(ok)
    tau, R = _residuals(arr, X[sel], Y[sel], Z[sel])
    far = R.max(axis=1) > _NEWTON_TOL * (1.0 + np.abs(tau))
    sel, tau = sel[far], tau[far]
    group = _tie_groups(tau, 1e-9)
    first = np.unique(group, return_index=True)[1]
    lead = sel[first]
    gated = _newton_finish(arr, X, Y, Z, lead, tau[first])
    gated[gated] = _verified(*_residuals(arr, X[lead[gated]], Y[lead[gated]], Z[lead[gated]]), cfg.residual_tol)
    rest = np.arange(sel.size) != first[group]
    near = np.flatnonzero(rest & gated[group])
    a, b = sel[near], lead[group[near]]
    mates = near[_orbit_distance((X[a], Y[a], Z[a]), (X[b], Y[b], Z[b])) <= cfg.dedup_tol / 2]
    rest[mates] = False
    ok[sel[mates]] = False
    _newton_finish(arr, X, Y, Z, sel[rest], tau[rest])
    if record:
        record(rows=sel.size, leads=lead.size, dropped=mates.size)


# ---------------------------------------------------------------------------
# deterministic start sets


def _standard_starts(
    T: Tensor3, cfg: SearchConfig, pairs: Optional[tuple[np.ndarray, np.ndarray]] = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The multi-start set: every pair of start basis vectors, then the random block.

    pairs = (P, Q) holds the start vectors of H1 and H2 as rows; the default is the two identity bases, so
    the pairs are (e_i, f_j). Each pair (p, q) takes z = T(p, q) normalised, or e_1 where T(p, q) vanishes.
    The random block is cfg.resolved_starts uniform random unit triples: start s is read off bilop's own
    stream of standard normals for (cfg.seed, s), which equals bit for bit those of numpy's
    default_rng([seed, s]): row s of the (resolved_starts, sum(dims)) block that bilop._stream.start_normals
    memoises (the module is loaded on a process's first draw), normalised per factor on every call.
    """
    from . import _stream

    n1, n2, _ = T.dims
    rows = (n1 * n2 if pairs is None else len(pairs[0]) * len(pairs[1])) + cfg.resolved_starts(T.dims)
    if (peak := _search_bytes(rows, T.dims)) > _SEARCH_BUDGET:
        raise ValueError(f"a search from {rows} starts of width {sum(T.dims)} would take about {peak / 2**30:.3g} GiB, "
                         f"more than the {_SEARCH_BUDGET / 2**30:.3g} GiB a search may use")
    P, Q = pairs if pairs is not None else (np.eye(n1), np.eye(n2))
    X = np.repeat(P, Q.shape[0], axis=0)
    Y = np.tile(Q, (P.shape[0], 1))
    Z, norms = _row_normalize(_contract(T.array, 2, X, Y))
    Z[~(norms > _ZERO_NORM)] = np.eye(1, Z.shape[1])
    V = _stream.start_normals(cfg.seed, cfg.resolved_starts(T.dims), sum(T.dims))
    random = (_row_normalize(M)[0] for M in np.split(V, [n1, n1 + n2], axis=1))
    return tuple(np.vstack([M, R]) for M, R in zip((X, Y, Z), random))


def _search_bytes(rows: int, dims: tuple[int, int, int]) -> int:
    """A search's peak bytes from above: per start row 7 float64 per entry of x | y | z, 4 per entry of the widest
    factor and 75 more, then three row blocks (_row_blocks), whose Newton rows make (n + 3)**2 entries each."""
    n = sum(dims)
    return 8 * (rows * (7 * n + 4 * max(dims) + 75) + 3 * max(_CONTRACT_BLOCK, 2 * (n + 3) ** 2))


# ---------------------------------------------------------------------------
# candidate verification, dedup, ordering


def _tie_groups(t: np.ndarray, tol: float) -> np.ndarray:
    """Each tau's group id, for tau's t in any order: the one tie rule of bilop.

    Ids rise from 0 at the largest tau: in t sorted descending, a new group starts wherever a tau lies more than
    tol * (1 + the tau before it) below that tau, so groups chain and one can span more than that. Taken at the
    larger tau, the width puts any two tau's within tol * (1 + their max) in one group, which lets _listing merge
    sign orbits group by group. Its groups are _finish's at 1e-9 and, at dedup_tol, _listing's, greedy's top band
    (the listing's first group) and the SVD reading's gap test (schmidt._svd_block: a term must be alone in it)."""
    order = np.argsort(-t, kind="stable")
    s = t[order]
    gaps = np.zeros(t.size, dtype=np.intp)
    gaps[1:] = s[:-1] - s[1:] > tol * (1.0 + s[:-1])
    return np.cumsum(gaps)[np.argsort(order)]


def _listing(tau: np.ndarray, X: np.ndarray, Y: np.ndarray, Z: np.ndarray, cfg: SearchConfig) -> np.ndarray:
    """The rows listed, one per sign orbit, in listing order: tau descending, each tie group by (x, y).

    Within each tie group of dedup_tol (_tie_groups) the first row in row order wins: a later row is dropped
    when its tau lies within dedup_tol * (1 + max tau) of a kept row's and, for some sign variant,
    max(||x-x'||, ||y-y'||, ||z-z'||) <= dedup_tol (the tau test stays, as a chained group can span more).
    Mates always share a group, so this is the sequential first-representative-wins merge over all rows. It
    runs in rounds over the open rows, those neither kept nor dropped: each round keeps every group's first
    open row and tests the group's other open rows against it at once (_orbit_distance row against row). A
    row reaches the head of its group only after every earlier row of the group was kept, having dropped its
    mates, or dropped, so it is the row the sequential merge keeps next, and a round per orbit a group keeps
    replaces a call per orbit. The kept rows, grouped again, are ordered by group, then lexicographically by
    the entries of x and of y, with exact ties kept in tau order. The first group listed is greedy
    deflation's top band."""
    record = _probed("listing")
    order = np.argsort(-tau, kind="stable")
    group = _tie_groups(tau, cfg.dedup_tol)
    live = np.ones(tau.size, dtype=bool)
    open_ = live.copy()  # live rows not yet kept
    rounds = 0
    while (rows := np.flatnonzero(open_)).size:
        rounds += 1
        head = np.full(tau.size, tau.size)
        np.minimum.at(head, group[rows], rows)
        head = head[group[rows]]  # each open row's group's first open row, which is kept
        open_[head] = False
        later, kept = rows[rows != head], head[rows != head]
        t, t0 = tau[later], tau[kept]
        band = np.abs(t - t0) <= cfg.dedup_tol * (1.0 + np.maximum(t, t0))
        later, kept = later[band], kept[band]
        live[later[_orbit_distance((X[later], Y[later], Z[later]), (X[kept], Y[kept], Z[kept])) <= cfg.dedup_tol]] = False
        open_ &= live
    kept = order[live[order]]
    if record:
        record(rows=tau.size, rounds=rounds, kept=kept.size)
    # lexsort's last key is its primary one.
    keys = np.hstack([X[kept], Y[kept]])[:, ::-1].T
    return kept[np.lexsort(np.vstack([keys, _tie_groups(tau[kept], cfg.dedup_tol)]))]


@functools.lru_cache(maxsize=1)
def _alternating_stage(
    T: Tensor3, cfg: SearchConfig, pairs: Optional[tuple[np.ndarray, np.ndarray]] = None
) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...], int]:
    """The starts (X0, Y0, Z0) of one multi-start search, the rows (X, Y, Z) its ALS runs ended at, and a count.

    The starts are _standard_starts(T, cfg, pairs); the rows are _als_batch's ok rows, by
    start index: value stops and rows handed to Newton at _ALS_HANDOFF, finished or not
    (the search's gate drops those Newton left unconverged), less those its finish dropped
    onto a lead. The count is of the rows that met the value stop, the dropped ones included.
    Every array is read-only. The last stage is kept, keyed by the Tensor3 object
    (frozen, read-only values, hashed by identity; the entry's reference keeps its
    id from being reused) and by the SearchConfig's value, so a norm, a spectrum
    and greedy deflation's first step of one tensor pay for one stage. Pairs are
    arrays, which cannot be hashed: a search given them (the lattice oracle's, and
    greedy's of each later remainder) calls __wrapped__ and keeps no stage. A missed
    stage reads its random normals through _stream.start_normals' memo.
    """
    starts = _standard_starts(T, cfg, pairs)
    als = _als_batch(T.array, starts[0], starts[1], cfg)
    rows = tuple(als[f][als["ok"]] for f in "XYZ")
    for M in starts + rows:
        M.flags.writeable = False
    return starts, rows, int(als["stopped"].sum())


def _search_candidates(
    T: Tensor3,
    cfg: SearchConfig,
    use_newton: bool,
    pairs: Optional[tuple[np.ndarray, np.ndarray]] = None,
) -> tuple[tuple[SingularTriple, ...], int]:
    """Verified, canonical, deduplicated and sorted triples of one multi-start search, and its alternating stage's
    count of value stops (0 where no search ran).

    A tensor whose hs-norm is at most residual_tol has no such triple, and
    gets none without a search. Otherwise the alternating stage,
    _alternating_stage(T, cfg, pairs), is served from its memo when pairs
    is None. Newton optionally runs from copies of the same starts, with
    start values tau0; it is never memoised. The converged rows, the
    alternating-iteration results by start index and then the Newton
    results by start index, pass the one gate, _verified at residual_tol,
    and are canonicalized; _listing merges them by sign orbit,
    first representative winning, and puts the kept rows in listing
    order, and only then do they become SingularTriples, whose x, y and z
    are rows of one gathered block per factor. A residual_tol below T's
    rounding floor is refused first (_check_floor).
    """
    _check_floor(T, cfg.residual_tol)
    if hs_norm(T) <= cfg.residual_tol:
        return (), 0
    (X0, Y0, Z0), rows, converged = _alternating_stage(T, cfg) if pairs is None else _alternating_stage.__wrapped__(T, cfg, pairs)
    arr = T.array
    found = [rows]
    if use_newton:
        # Newton's start values keep their own einsum arithmetic, like
        # bilop._newton's steps: its roots feed tie orders pinned by the gallery reports.
        tau0 = np.einsum("sk,sk->s", np.einsum("ijk,si,sj->sk", arr, X0, Y0), Z0)
        X, Y, Z = (M.copy() for M in (X0, Y0, Z0))
        ok = _newton_finish(arr, X, Y, Z, np.arange(tau0.size), tau0)
        found.append((X[ok], Y[ok], Z[ok]))
    X, Y, Z = (np.vstack(blocks) for blocks in zip(*found))
    tau, R = _residuals(arr, X, Y, Z)
    good = _verified(tau, R, cfg.residual_tol)
    tau, R = tau[good], R[good]
    X, Y, Z = _canonical_rows(X[good], Y[good], Z[good])
    listed = _listing(tau, X, Y, Z, cfg)
    return tuple(
        SingularTriple(tau=t, x=x, y=y, z=z, residuals=tuple(r))
        for t, x, y, z, r in zip(tau[listed].tolist(), X[listed], Y[listed], Z[listed], R[listed].tolist())
    ), converged


# ---------------------------------------------------------------------------
# public operations


def hopm_refine(
    T: Tensor3,
    x0,
    y0,
    z0,
    cfg: SearchConfig = SearchConfig(),
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
    z0 is validated like x0 and y0, and refused (NonConvergence) when
    zero; otherwise it is unused, since the first sweep computes z from
    x0 and y0.
    """
    xa, ya, za = _factors(T.dims, x0=x0, y0=y0, z0=z0)
    for label, v in (("x0", xa), ("y0", ya), ("z0", za)):
        if np.linalg.norm(v) <= _ZERO_NORM:
            return NonConvergence(f"degenerate start: {label} is a zero vector")
    res = _als_batch(T.array, xa[None, :], ya[None, :], cfg)
    if not res["ok"][0]:
        return NonConvergence("zero contraction" if res["dead"][0] else "max_iter exceeded")
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


def hopm_value_trace(T: Tensor3, x0, y0, cfg: SearchConfig = SearchConfig()) -> np.ndarray:
    """The per-sweep objective values ||T(x,y)|| of a single-start iteration.

    Diagnostic companion to hopm_refine: each alternating update maximizes
    the objective in one block, so the returned sequence is nondecreasing
    up to roundoff. It ends at the value stop, or at the handoff to Newton:
    at most 101 values (loop index _ALS_HANDOFF).
    """
    xa, ya = _factors(T.dims, x0=x0, y0=y0)
    with _probe() as probe:
        _als_batch(T.array, xa[None, :], ya[None, :], cfg)
    return np.asarray(probe["als"][0]["values"])


def _unit_triple(T: Tensor3, triple: SingularTriple) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The triple's (x, y, z) as validated arrays; ValueError unless each is unit within 1e-8."""
    xa, ya, za = _factors(T.dims, x=triple.x, y=triple.y, z=triple.z)
    for label, v in (("x", xa), ("y", ya), ("z", za)):
        if abs(np.linalg.norm(v) - 1.0) > 1e-8:
            raise ValueError(f"{label} is not a unit vector")
    return xa, ya, za


def _check_floor(T: Tensor3, tol: float) -> None:
    """The tolerance rule of every check against T: ValueError unless tol is positive and finite (_check_tol),
    then when it lies below eps/2 * hs_norm(T), the rounding unit of T's own entries: a gate there would pass
    or refuse a triple by how its last bits round, so norm, spectrum and verify_triple could disagree; last,
    whatever T, below 2**-511, where squared residual entries are subnormal and _row_norms cannot resolve tol."""
    _check_tol(tol)
    floor = 2.0**-53 * hs_norm(T)  # float64's unit roundoff, np.finfo(float).eps / 2 exactly
    if tol < floor:
        raise ValueError(
            f"tolerance {tol:g} lies below this tensor's rounding floor {floor:.3g} "
            "(eps/2 times its Hilbert-Schmidt norm); no residual resolves that"
        )
    if tol < 2.0**-511:
        raise ValueError(f"tolerance {tol:g} lies below 2**-511 (1.49e-154), where squared residual entries are subnormal")


def _triple_residuals(T: Tensor3, triple: SingularTriple, tol: float, slices: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """_residuals of one triple at its own tau, after verify_triple's argument rules: tol against T's rounding
    floor (_check_floor), unit vectors (_unit_triple) and a finite tau."""
    _check_floor(T, tol)
    x, y, z = _unit_triple(T, triple)
    try:
        tau = float(triple.tau)
    except OverflowError:  # a Python int beyond the float range
        raise ValueError("tau must be finite, got a number beyond the float range") from None
    if not np.isfinite(tau):
        raise ValueError(f"tau must be finite, got {tau}")
    return _residuals(T.array, x[None], y[None], z[None], np.array([tau]), slices=slices)


def verify_triple(T: Tensor3, triple: SingularTriple, tol: float) -> TripleCheck:
    """Check the three defining equations at the given triple, with the search's residual routine.

    verified is the search's gate (_verified): tau above tol and every residual within it, so a triple the
    search would never list, such as tau <= tol with residuals as small, does not verify. Vectors more
    than 1e-8 away from unit norm, a tau that is not finite, a tol that is not positive and finite, and a
    tol below T's rounding floor (_check_floor) are rejected as argument errors.
    """
    t, R = _triple_residuals(T, triple, tol)
    r1, r2, r3 = R[0].tolist()
    return TripleCheck(r1=r1, r2=r2, r3=r3, verified=bool(_verified(t, R, tol)[0]))


def _stacked_terms(items, dims) -> tuple:
    """The tau, x, y and z of triples or Schmidt terms as arrays of one row each: (tau, X, Y, Z)."""
    tau = np.array([t.tau for t in items], dtype=float)
    return (tau, *(np.array([getattr(t, f) for t in items], dtype=float).reshape(tau.size, n) for f, n in zip("xyz", dims)))


def _ordered_check(r: list, tol: float) -> OrderedCheck:
    """The classification read off one row of _residuals with slices."""
    return OrderedCheck(ordered=max(r[3:6]) <= tol, slice_residuals=tuple(r[3:6]), adjoint_slice_residual=r[6])


def _ordered_checks(T: Tensor3, triples, tol: float) -> list[OrderedCheck]:
    """is_ordered's classification of already verified triples, from one call of _residuals with slices."""
    tau, X, Y, Z = _stacked_terms(triples, T.dims)
    return [_ordered_check(r, tol) for r in _residuals(T.array, X, Y, Z, tau, slices=True)[1].tolist()]


def is_ordered(T: Tensor3, triple: SingularTriple, tol: float) -> OrderedCheck:
    """Classify a verified triple as an ordered singular value.

    Checks three matrix identities over full bases: (a) freezing y gives the
    rank-one map x -> tau <x, x1> z1, (b) freezing x gives y -> tau <y, y1> z1,
    (c) the first adjoint contraction against z gives y -> tau <y, y1> x1.
    The symmetric fourth slice (second contraction against z) equals the
    transpose of (c) and is reported as a diagnostic only. The triple must
    pass verify_triple's argument rules and its gate (tau above tol,
    residuals within it), else ValueError; the one _residuals pass that
    gates it gives the slices.
    """
    t, R = _triple_residuals(T, triple, tol, slices=True)
    r = R[0].tolist()
    if not _verified(t, R, tol)[0]:
        raise ValueError(f"is_ordered requires a verified triple (tau {float(triple.tau):.3e}, max residual {max(r[:3]):.3e})")
    return _ordered_check(r, tol)


def operator_norm(T: Tensor3, cfg: SearchConfig = SearchConfig()) -> tuple[float, Optional[SingularTriple]]:
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
    found, converged = _search_candidates(T, cfg, use_newton=False)
    if found:
        top = max(found, key=lambda c: c.tau)
        return top.tau, top
    if hs_norm(T) <= cfg.residual_tol:
        return 0.0, None
    raise ValueError(
        f"no singular triple verified at residual_tol={cfg.residual_tol:g}{_no_triple_cause(converged, cfg)}; "
        "the norm of this nonzero operator is unknown"
    )


def _no_triple_cause(converged: int, cfg: SearchConfig) -> str:
    """Why a search verified no triple, from the count of its starts that converged (_search_candidates): none
    within max_iter, or the gate rejected every one."""
    if converged == 0:
        return f" within max_iter={cfg.max_iter}"
    return f": {converged} start(s) converged, but none has tau above it and residuals within it"


def enumerate_triples(T: Tensor3, cfg: SearchConfig = SearchConfig()) -> Spectrum:
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
    return Spectrum(triples=_search_candidates(T, cfg, use_newton=True)[0], complete=False)
