"""The Newton corrector's loop, the alternating sweep, the sign-orbit distance and the per-term Schmidt
deflation against the code they replaced, kept here as references (as TestFinish keeps finish_every_row).

The search rewrites only cut NumPy calls and temporaries, so every array they return must keep its bytes. The
references below are the replaced loops, renamed, calling the same pinned helpers of bilop._newton
(_newton_a1, _solve_rows, _stacked, _factor_slices) and tensor_core (_row_norms), and reading their module
constants at call time, so a patched budget applies to both sides.

The Schmidt deflation loop now checks a block of terms at once with Gram corrections, so its numbers may
differ from the per-term loop's in the last bits: there the references must give the same decisions,
counts and strings, and floats within 1e-12. The ordered-slice kernel that joined _residuals is kept too
(ref_slice_residuals): its slices, which sum one-row blocks on gemv, must stay within 1e-15 of _residuals'.
verify_schur, which now checks the Schur terms as Schmidt terms with verify_representation's checker, must
keep the bytes of its own Gram and reconstruction products (ref_verify_schur). The sign-orbit merge that took
one tie group at a time is kept as ref_listing, and the triples built with one copy per vector as ref_triples.
"""

import dataclasses
import importlib
import pathlib
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bilop.schmidt
from bilop import (
    SearchConfig,
    Tensor3,
    deflate_term,
    enumerate_triples,
    from_schmidt,
    gallery,
    hopm_value_trace,
    hs_norm,
    is_ordered,
    SchurCheck,
    SchurRepresentation,
    SchurTerm,
    schmidt_decompose,
    schur_from_schmidt,
    spectra,
    tensor_core,
    verify_representation,
    verify_schur,
)
from bilop import _newton
from bilop._newton import _factor_slices, _newton_a1, _newton_batch, _solve_rows, _stacked
from bilop.schmidt import (
    _FAMILY_ORTHO_TOL,
    DeflationFailure,
    DeflationReport,
    DeflationStep,
    FailureReason,
    RepresentationCheck,
    SchmidtRepresentation,
    SchmidtStatus,
    SchmidtTerm,
    _deflate,
    _greedy,
    _peak_margin,
    _svd_block,
)
from bilop.spectra import (
    _ORBIT_SIGNS,
    _als_batch,
    _canonical_rows,
    _listing,
    _orbit_distance,
    _ordered_checks,
    _residuals,
    _search_candidates,
    _stacked_terms,
    _standard_starts,
    _tie_groups,
)
from bilop.tensor_core import _contract, _probe, _row_norms
from conftest import sub_gate_tail

# ---------------------------------------------------------------------------
# the references


def ref_contract(arr, mode, U, V):
    n1, n2, n3 = arr.shape
    if mode == 0:
        first, second, unf, shape, spec = V, U, arr.reshape(n1 * n2, n3).T, (n1, n2), "sij,sj->si"
    elif mode == 1:
        first, second, unf, shape, spec = U, V, arr.reshape(n1, n2 * n3), (n2, n3), "sjk,sk->sj"
    else:
        first, second, unf, shape, spec = U, V, arr.reshape(n1, n2 * n3), (n2, n3), "sjk,sj->sk"
    S = first.shape[0]
    out = np.empty((S, arr.shape[mode]))
    block = max(2, tensor_core._CONTRACT_BLOCK // unf.shape[1])
    for lo in range(0, S, block):
        F, G = first[lo : lo + block], second[lo : lo + block]
        rows = F.shape[0]
        if rows == 1:
            F = np.repeat(F, 2, axis=0)
        M = (F @ unf)[:rows].reshape(rows, *shape)
        np.einsum(spec, M, G, out=out[lo : lo + rows])
        del M
    return out


def ref_residuals(arr, X, Y, Z):
    TXY = ref_contract(arr, 2, X, Y)
    tau = np.einsum("sk,sk->s", TXY, Z)
    t = tau[:, None]
    R = np.empty((tau.size, 3))
    R[:, 0] = _row_norms(TXY - t * Z)
    R[:, 1] = _row_norms(ref_contract(arr, 0, Y, Z) - t * X)
    R[:, 2] = _row_norms(ref_contract(arr, 1, X, Z) - t * Y)
    return tau, R


def ref_row_normalize(M):
    norms = _row_norms(M)
    safe = np.where(norms > tensor_core._ZERO_NORM, norms, 1.0)
    return M / safe[:, None], norms


def ref_als_batch(arr, X0, Y0, cfg, trace=None):
    S = X0.shape[0]
    n3 = arr.shape[2]
    X, _ = ref_row_normalize(np.array(X0, dtype=float))
    Y, _ = ref_row_normalize(np.array(Y0, dtype=float))
    Z = np.zeros((S, n3))
    ok = np.zeros(S, dtype=bool)
    stopped = np.zeros(S, dtype=bool)
    dead = np.zeros(S, dtype=bool)
    idx = np.arange(S)
    x, y = X, Y
    f_prev = np.full(S, np.nan)
    for it in range(cfg.max_iter):
        if idx.size == 0:
            break
        z, f = ref_row_normalize(ref_contract(arr, 2, x, y))
        live = f > tensor_core._ZERO_NORM
        if trace is not None and idx[0] == 0 and live[0]:
            trace.append(float(f[0]))
        done = live & (np.abs(f - f_prev) <= cfg.iter_tol * (1.0 + f))
        stopped[idx[done]] = True
        if it == spectra._ALS_HANDOFF:
            done = live
        f_prev = f
        if done.any():
            rows = idx[done]
            ok[rows] = True
            X[rows], Y[rows], Z[rows] = x[done], y[done], z[done]
        keep = live & ~done
        if not keep.all():
            dead[idx[~live]] = True
            idx, x, y, z, f_prev = idx[keep], x[keep], y[keep], z[keep], f_prev[keep]
        x, _ = ref_row_normalize(ref_contract(arr, 0, y, z))
        y, _ = ref_row_normalize(ref_contract(arr, 1, x, z))
    ref_finish(arr, X, Y, Z, ok, cfg)
    return {"X": X, "Y": Y, "Z": Z, "ok": ok, "stopped": stopped, "dead": dead}


#: The sign variants as one stack, for stacked_distance.
ORBIT_STACK = np.array(_ORBIT_SIGNS).T[:, :, None, None]


def stacked_distance(P, Q):
    """The orbit distance over one (4, rows, n) sign-variant stack per factor."""
    d = np.max([_row_norms(M - s * N) for M, N, s in zip(P, Q, ORBIT_STACK)], axis=0)
    return d.min(axis=0)


def ref_listing(tau, X, Y, Z, cfg):
    """The merge one tie group at a time, each row against the later live rows of its group, then the order."""
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
    keys = np.hstack([X[kept], Y[kept]])[:, ::-1].T
    return kept[np.lexsort(np.vstack([keys, _tie_groups(tau[kept], cfg.dedup_tol)]))]


def ref_triples(tau, X, Y, Z, R, listed):
    """The listed rows as SingularTriples, one float() and three copies per orbit."""
    return tuple(
        spectra.SingularTriple(
            tau=float(tau[i]), x=X[i].copy(), y=Y[i].copy(), z=Z[i].copy(), residuals=tuple(float(r) for r in R[i])
        )
        for i in listed
    )


def ref_finish(arr, X, Y, Z, ok, cfg):
    sel = np.flatnonzero(ok)
    tau, R = ref_residuals(arr, X[sel], Y[sel], Z[sel])
    far = R.max(axis=1) > _newton._NEWTON_TOL * (1.0 + np.abs(tau))
    sel, tau = sel[far], tau[far]
    t = np.sort(tau)
    group = np.searchsorted(t[np.diff(t, prepend=-np.inf) > 1e-9 * (1.0 + t)], tau, side="right") - 1
    first = np.unique(group, return_index=True)[1]
    lead = sel[first]
    gated = ref_newton_finish(arr, X, Y, Z, lead, tau[first])
    t, R = ref_residuals(arr, X[lead[gated]], Y[lead[gated]], Z[lead[gated]])
    gated[gated] = (t > cfg.residual_tol) & (R.max(axis=1) <= cfg.residual_tol)
    rest = np.arange(sel.size) != first[group]
    near = np.flatnonzero(rest & gated[group])
    a, b = sel[near], lead[group[near]]
    mates = near[stacked_distance((X[a], Y[a], Z[a]), (X[b], Y[b], Z[b])) <= cfg.dedup_tol / 2]
    rest[mates] = False
    ok[sel[mates]] = False
    ref_newton_finish(arr, X, Y, Z, sel[rest], tau[rest])


def ref_newton_finish(arr, X, Y, Z, rows, tau):
    V, fin = ref_newton_batch(arr, _stacked(X[rows], Y[rows], Z[rows], tau))
    for M, cols in zip((X, Y, Z), _factor_slices(arr.shape)):
        M[rows[fin]] = V[fin, cols]
    return fin


def ref_newton_batch(arr, V0):
    V = np.array(V0, dtype=float)
    S = V.shape[0]
    done = np.zeros(S, dtype=bool)
    if S == 0:
        return V, done
    alive = np.ones(S, dtype=bool)
    n1, n2, n3 = arr.shape
    m = n1 + n2 + n3 + 1
    block = max(2, tensor_core._CONTRACT_BLOCK // (m * m))
    Tjik = np.ascontiguousarray(arr.transpose(1, 0, 2))
    J = np.empty((min(block, S), m, m))
    for it in range(_newton._NEWTON_MAX_STEPS):
        act = np.flatnonzero(alive & ~done)
        if act.size == 0:
            break
        tangent = it >= _newton._NEWTON_RETRACT
        if tangent:
            ref_retract(arr, V, act)
        for lo in range(0, act.size, block):
            ref_newton_step(arr, Tjik, V, act[lo : lo + block], done, alive, J, tangent)
    ok = done & alive
    flip = np.ones(m)
    flip[n1 : n1 + n2] = flip[-1] = -1.0
    V[ok & (V[:, -1] < 0)] *= flip
    sel = np.flatnonzero(ok)
    norms = [_row_norms(V[sel, cols]) for cols in _factor_slices(arr.shape)]
    off = np.logical_or.reduce([np.abs(nrm - 1.0) > 1e-6 for nrm in norms])
    ok[sel[off]] = False
    for cols, nrm in zip(_factor_slices(arr.shape), norms):
        V[sel[~off], cols] /= nrm[~off, None]
    return V, ok


def ref_retract(arr, V, rows):
    """Rows of V onto the unit spheres: x, y and z normalised, then tau := <T(x, y), z> as ref_residuals reads it."""
    X, Y, Z = (ref_row_normalize(V[rows, cols])[0] for cols in _factor_slices(arr.shape))
    V[rows, :-1] = np.hstack([X, Y, Z])
    V[rows, -1] = ref_residuals(arr, X, Y, Z)[0]


def ref_newton_step(arr, Tjik, V, idx, done, alive, J, tangent):
    n1, n2, n3 = arr.shape
    v = V[idx]
    x, y, z = (np.ascontiguousarray(v[:, cols]) for cols in _factor_slices(arr.shape))
    t = v[:, -1]
    F = np.empty(v.shape)
    A1 = _newton_a1(Tjik, y)
    A2 = np.einsum("ijk,si->skj", arr, x)
    A3 = np.einsum("ijk,sk->sij", arr, z)
    F[:, :n3] = np.einsum("ski,si->sk", A1, x) - t[:, None] * z
    F[:, n3 : n3 + n1] = np.einsum("ski,sk->si", A1, z) - t[:, None] * x
    F[:, n3 + n1 : -1] = np.einsum("skj,sk->sj", A2, z) - t[:, None] * y
    F[:, -1] = 0.5 * (np.einsum("si,si->s", x, x) - 1.0)
    hit = _row_norms(F) <= _newton._NEWTON_TOL * (1.0 + np.abs(t))
    done[idx[hit]] = True
    go = ~hit
    if not go.any():
        return
    gi = idx[go]
    J = J[: gi.size]
    if hit.any():
        A1, A2, A3, x, y, z, t = (M[go] for M in (A1, A2, A3, x, y, z, t))
    ref_write_jacobians(J, A1, A2, A3, x, y, z, t)
    if tangent:
        step, singular = ref_tangent_solve(J, F[go], x, y, z)
    else:
        step, singular = _solve_rows(J, F[go])
    alive[gi[singular]] = False
    V[gi] = w = v[go] - step
    stop = (np.abs(w[:, :-1]) > _newton._NEWTON_DIVERGED).any(axis=1) | ~np.isfinite(w).all(axis=1)
    on = np.flatnonzero(~stop)
    stop[on] = np.minimum(*(_row_norms(w[on, c]) for c in _factor_slices(arr.shape)[1:])) < _newton._NEWTON_COLLAPSED
    alive[gi[stop]] = False


def ref_bordered(J, x, y, z):
    """The tangent step's matrices, densely: [[J_core, B], [B^T, 0]], with J_core the square Jacobian without
    tau's column and its |x| row, and B = blockdiag(x, y, z) in J_core's row order (F's: z's, x's, y's
    equations), both B and B^T negated as the step's map reads them from -v."""
    k, n1, n2, n3 = x.shape[0], x.shape[1], y.shape[1], z.shape[1]
    n = n1 + n2 + n3
    rows = {"x": slice(n3, n3 + n1), "y": slice(n3 + n1, n), "z": slice(0, n3)}
    W = np.zeros((k, n + 3, n + 3))
    W[:, :n, :n] = J[:, :-1, :-1]
    for c, (f, M, cols) in enumerate(zip("xyz", (x, y, z), _factor_slices((n1, n2, n3)))):
        W[:, rows[f], n + c] = -M
        W[:, n + c, cols] = -M
    return W


def ref_tangent_solve(J, F, x, y, z):
    """The tangent step row by row: one solve of the bordered matrix per row, with right side F without its
    |x| entry, then three zeros; the step moves x, y and z only, so its tau entry is 0."""
    W = ref_bordered(J, x, y, z)
    n = W.shape[1] - 3
    step, singular = np.zeros_like(F), np.zeros(F.shape[0], dtype=bool)
    for r in range(F.shape[0]):
        s, bad = _solve_rows(W[r][None], np.r_[F[r, :n], 0.0, 0.0, 0.0][None])
        step[r, :n], singular[r] = s[0, :n], bad[0]
    return step, singular


def ref_write_jacobians(J, A1, A2, A3, x, y, z, t):
    n1, n2, n3 = x.shape[1], y.shape[1], z.shape[1]
    sx, sy, sz = _factor_slices((n1, n2, n3))
    f1, f2, f3 = slice(0, n3), slice(n3, n3 + n1), slice(n3 + n1, -1)
    nt = -t[:, None, None]
    for rows, cols, n in ((f1, sz, n3), (f2, sx, n1), (f3, sy, n2)):
        J[:, rows, cols] = np.where(np.eye(n, dtype=bool), nt, 0.0)
    for rows, M in ((f1, z), (f2, x), (f3, y)):
        np.negative(M, out=J[:, rows, -1])
    J[:, f1, sx], J[:, f1, sy] = A1, A2
    J[:, f2, sy], J[:, f2, sz] = A3, A1.transpose(0, 2, 1)
    J[:, f3, sx], J[:, f3, sz] = A3.transpose(0, 2, 1), A2.transpose(0, 2, 1)
    J[:, -1, sx], J[:, -1, n1:] = x, 0.0


# ---------------------------------------------------------------------------
# the per-term Schmidt deflation, its checks and its SVD and greedy term sources


def ref_verify_triple(T, triple, tol):
    """The single-triple einsum residuals verify_triple computed; (residuals, verified), verified by the search's
    gate: tau above tol, every residual within it."""
    arr = T.array
    x, y, z = (np.asarray(v, dtype=float) for v in (triple.x, triple.y, triple.z))
    tau = float(triple.tau)
    r = (
        float(np.linalg.norm(np.einsum("ijk,i,j->k", arr, x, y) - tau * z)),
        float(np.linalg.norm(np.einsum("ijk,j,k->i", arr, y, z) - tau * x)),
        float(np.linalg.norm(np.einsum("ijk,i,k->j", arr, x, z) - tau * y)),
    )
    return r, max(r) <= tol and tau > tol


def ref_is_ordered(T, triple, tol):
    """The single-triple einsum slices is_ordered computed; (ordered, slice residuals, adjoint slice residual)."""
    if not ref_verify_triple(T, triple, tol)[1]:
        raise ValueError("is_ordered requires a verified triple")
    arr = T.array
    x, y, z = np.asarray(triple.x), np.asarray(triple.y), np.asarray(triple.z)
    tau = float(triple.tau)
    residuals = (
        float(np.linalg.norm(np.einsum("ijk,j->ki", arr, y) - tau * np.outer(z, x))),
        float(np.linalg.norm(np.einsum("ijk,i->kj", arr, x) - tau * np.outer(z, y))),
        float(np.linalg.norm(np.einsum("ijk,k->ij", arr, z) - tau * np.outer(x, y))),
    )
    adjoint = float(np.linalg.norm(np.einsum("ijk,k->ji", arr, z) - tau * np.outer(y, x)))
    return all(r <= tol for r in residuals), residuals, adjoint


def ref_slice_residuals(arr, X, Y, Z, tau, deflated=False):
    """The ordered-slice kernel before it joined _residuals, shape (S, 4): each stack one product of a factor block
    with a mode unfolding (a one-row block on gemv), its deflated correction per slice, its own row-block rule."""
    n1, n2, n3 = arr.shape
    S = tau.size
    block = max(1, tensor_core._CONTRACT_BLOCK // max(n1 * n3, n2 * n3, n1 * n2))
    if S > block and not deflated:
        return np.vstack([ref_slice_residuals(arr, *(M[lo : lo + block] for M in (X, Y, Z, tau))) for lo in range(0, S, block)])
    out = np.empty((S, 4))
    frozen = ((Y, arr.transpose(1, 0, 2).reshape(n2, n1 * n3), X, Z), (X, arr.reshape(n1, n2 * n3), Y, Z), (Z, arr.reshape(n1 * n2, n3).T, X, Y))
    lower, eye = np.tri(S, k=-1), np.eye(S)
    for col, (F, unf, P, Q) in enumerate(frozen):
        terms = np.einsum("si,sj->sij", P, Q).reshape(S, -1)
        if deflated:
            M = F @ unf - ((F @ F.T * lower + eye) * tau) @ terms
        else:
            M = F @ unf - tau[:, None] * terms
        out[:, col] = _row_norms(M)
    out[:, 3] = _row_norms(M.reshape(S, n1, n2).transpose(0, 2, 1).reshape(S, -1))
    return out


def ref_deflate(T, cfg, pick):
    """One term per step: pick(remainder, k) -> ((triple, ordered, slice residuals), orbits) or a failure."""
    steps, terms, failure = [], [], None
    remainder = T
    for k in range(1, min(T.dims) + 1):
        if hs_norm(remainder) <= cfg.residual_tol:
            break
        picked = pick(remainder, k)
        if isinstance(picked, DeflationFailure):
            failure = picked
            break
        (triple, ordered, slices), orbits = picked
        transfer, transfer_ok = ref_verify_triple(T, triple, cfg.residual_tol)
        deflated = deflate_term(remainder, triple.tau, triple.x, triple.y, triple.z)
        steps.append(DeflationStep(k, triple.tau, triple, slices, transfer, hs_norm(deflated)))
        if ordered and transfer_ok:
            terms.append(SchmidtTerm(triple.tau, triple.x, triple.y, triple.z))
            remainder = deflated
            continue
        if not ordered:
            diagnostics = (
                f"top singular value {triple.tau:.12g} of the remainder is not an ordered singular value "
                f"(max slice residual {max(slices):.6g}, {orbits} orbit(s) at the top)"
            )
        else:
            diagnostics = (
                f"step-{k} triple fails the transfer identities against the original operator "
                f"(max residual {max(transfer):.6g}); the ordered hypothesis does not propagate"
            )
        failure = DeflationFailure(k, FailureReason.NOT_ORDERED, diagnostics)
        break
    if failure is None:
        recon = from_schmidt([(t.tau, t.x, t.y, t.z) for t in terms], dims=T.dims)
        residual = hs_norm(Tensor3.from_array(T.array - recon.array))
        rep = SchmidtRepresentation(T.dims, tuple(terms), residual, SchmidtStatus.COMPLETE)
        # Complete means certified: terms that fail the representation check fail the run at its last step.
        check = ref_verify_representation(T, rep, cfg.residual_tol)
        if check.all_ok:
            return rep, DeflationReport(tuple(steps), None)
        failure = DeflationFailure(len(steps), FailureReason.NOT_VERIFIED, "; ".join(check.failures(cfg.residual_tol)))
    return SchmidtRepresentation(T.dims, (), hs_norm(T), SchmidtStatus.FAILED), DeflationReport(tuple(steps), failure)


def ref_svd_pick(T, cfg):
    """The SVD reading's per-step pick: each step's term checked against that step's remainder."""
    n1, n2, n3 = T.dims
    cap = min(T.dims)
    U, s, Vt = np.linalg.svd(T.array.reshape(n1, n2 * n3), full_matrices=False)
    u, sig, wt = np.linalg.svd(Vt[:cap].reshape(cap, n2, n3), full_matrices=False)
    X, Y, Z = (M + 0.0 for M in _canonical_rows(U[:, :cap].T, u[:, :, 0], wt[:, 0, :]))
    rank_one = _row_norms(sig[:, 1:]) <= cfg.residual_tol
    clear_peaks = np.minimum(_peak_margin(X), _peak_margin(Y)) > cfg.dedup_tol

    def pick(remainder, k):
        i = k - 1
        tied = k < s.size and s[i] - s[k] <= cfg.dedup_tol * (1.0 + s[i])
        if tied or not (rank_one[i] and clear_peaks[i]):
            return DeflationFailure(k, FailureReason.NOT_VERIFIED, f"the SVD reading's term {k} is tied, not rank-one or sign-ambiguous")
        tau, R = _residuals(remainder.array, X[i:k], Y[i:k], Z[i:k])
        if not (tau[0] > cfg.residual_tol and R.max() <= cfg.residual_tol):
            diagnostics = f"step-{k} triple fails the search's gate (tau {tau[0]:.12g}, max residual {R.max():.6g})"
            return DeflationFailure(k, FailureReason.NOT_VERIFIED, diagnostics)
        triple = spectra.SingularTriple(float(tau[0]), X[i].copy(), Y[i].copy(), Z[i].copy(), tuple(float(r) for r in R[0]))
        return (triple, *ref_is_ordered(remainder, triple, cfg.residual_tol)[:2]), 1

    return pick


def ref_greedy_pick(cfg):
    """Greedy's per-step pick: the top band of one search, scored by per-triple ordered checks."""

    def pick(remainder, k):
        cands, converged = _search_candidates(remainder, cfg, use_newton=False)
        if not cands:
            cause = f": {converged} start(s) converged, but none has tau above it and residuals within it"
            return DeflationFailure(
                k,
                FailureReason.NO_TRIPLE_FOUND,
                f"no triple verified at residual_tol={cfg.residual_tol:g}"
                f"{cause if converged else f' within max_iter={cfg.max_iter}'}; "
                f"the remainder's hs-norm is {hs_norm(remainder):.6g}",
            )
        # The band: walking tau descending, the chain whose steps each lie within dedup_tol of the tau before.
        by_tau, n = sorted(cands, key=lambda c: -c.tau), 1
        while n < len(by_tau) and by_tau[n - 1].tau - by_tau[n].tau <= cfg.dedup_tol * (1.0 + by_tau[n - 1].tau):
            n += 1
        band = [c for c in cands if any(c is b for b in by_tau[:n])]
        scored = [(c, ref_is_ordered(remainder, c, cfg.residual_tol)) for c in band]
        # With ordered orbits in the band, only those of the largest ordered tau compete.
        passing = [p for p in scored if p[1][0]]
        if passing:
            top = max(c.tau for c, _ in passing)
            scored = [p for p in passing if p[0].tau == top]
        chosen, (ordered, slices, _) = min(scored, key=lambda p: (max(p[1][1]), tuple(p[0].x), tuple(p[0].y)))
        return (chosen, ordered, slices), len(band)

    return pick


def ref_verify_representation(T, rep, tol):
    """The per-term checks of a representation."""
    taus = [t.tau for t in rep.terms]
    max_gram = 0.0
    for family in ([getattr(t, f) for t in rep.terms] for f in "xyz"):
        fam = np.array(family, dtype=float)
        if fam.size:
            max_gram = max(max_gram, float(np.max(np.abs(fam @ fam.T - np.eye(len(fam))))))
    recon = from_schmidt([(t.tau, t.x, t.y, t.z) for t in rep.terms], dims=T.dims)
    residual = hs_norm(Tensor3.from_array(T.array - recon.array))
    max_diag = 0.0
    for term in rep.terms:
        max_diag = max(max_diag, abs(float(np.einsum("ijk,i,j,k->", T.array, term.x, term.y, term.z)) - term.tau))
    return RepresentationCheck(
        monotone=all(taus[i] >= taus[i + 1] for i in range(len(taus) - 1)),
        orthonormal=max_gram <= _FAMILY_ORTHO_TOL,
        max_gram_deviation=max_gram,
        reconstruction_ok=residual <= tol,
        reconstruction_residual=residual,
        diagonal_ok=max_diag <= tol,
        max_diagonal_deviation=max_diag,
    )


def ref_verify_schur(T, schur, tol):
    """verify_schur with its own products: one Gram product of the x family and one reconstruction product."""
    n = T.dims[0]
    lam = np.array([t.lam for t in schur.terms], dtype=float)
    X = np.array([t.x for t in schur.terms], dtype=float).reshape(lam.size, n)
    recon = (X.T * lam) @ np.einsum("sj,sk->sjk", X, X).reshape(lam.size, n * n)
    residual = float(np.linalg.norm(T.array.reshape(n, n * n) - recon))
    max_gram = float(np.abs(X @ X.T - np.eye(len(X))).max()) if X.size else 0.0
    lams = [abs(t.lam) for t in schur.terms]
    return SchurCheck(
        reconstruction_ok=residual <= tol,
        reconstruction_residual=residual,
        orthonormal=max_gram <= _FAMILY_ORTHO_TOL,
        max_gram_deviation=max_gram,
        monotone=all(lams[i] >= lams[i + 1] for i in range(len(lams) - 1)),
    )


# ---------------------------------------------------------------------------
# inputs


TENSORS = {
    **{name: getattr(gallery, name)() for name in gallery.__all__},
    **{
        "gauss-{}x{}x{}".format(*dims): Tensor3.from_array(np.random.default_rng([14, *dims]).standard_normal(dims))
        for dims in [(3, 2, 4), (4, 4, 4), (4, 8, 6), (6, 6, 6), (1, 3, 2), (7, 1, 5)]
    },
}
EACH_TENSOR = pytest.mark.parametrize("T", TENSORS.values(), ids=TENSORS.keys())


def planted_schmidt(seed, dims, gaps=None, noise=0.0):
    """A planted Schmidt tensor of rank min(dims) with random orthonormal families, its taus 0.5 plus the
    cumulative gaps (default uniform in [0.1, 1]), plus noise times a Gaussian tensor."""
    rng = np.random.default_rng([18, seed, *dims])
    r = min(dims)
    gaps = rng.uniform(0.1, 1.0, r) if gaps is None else np.asarray(gaps, dtype=float)
    taus = np.cumsum(gaps[::-1])[::-1] + 0.5
    U, V, W = (np.linalg.qr(rng.standard_normal((n, n)))[0] for n in dims)
    T = from_schmidt([(taus[i], U[:, i], V[:, i], W[:, i]) for i in range(len(taus))], dims=dims)
    return Tensor3.from_array(T.array + noise * rng.standard_normal(dims)) if noise else T


def planted_cubic(seed, n):
    """A symmetric self-adjoint cubic sum lam_m q_m (x) q_m (x) q_m with signed, gapped weights."""
    rng = np.random.default_rng([19, seed, n])
    lams = (np.cumsum(rng.uniform(0.1, 1.0, n)[::-1])[::-1] + 0.5) * rng.choice([-1.0, 1.0], n)
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return Tensor3.from_array(np.einsum("m,im,jm,km->ijk", lams, Q, Q, Q))


def rank_two_2x2x2():
    """T(1)'s top right singular vector is rank two as a 2 x 2 matrix."""
    arr = np.zeros((2, 2, 2))
    arr[0, 0, 0] = arr[0, 1, 1] = 1.0
    arr[1, 0, 0] = 0.5
    return Tensor3.from_array(arr)


def shared_y():
    """Two rank-one terms on one y: T(1)'s right vectors are rank-one and orthogonal, but no Schmidt form exists."""
    y = [0.6, 0.8]
    return from_schmidt([(2.0, [1.0, 0.0], y, [1.0, 0.0]), (1.0, [0.0, 1.0], y, [0.0, 1.0])])


#: Inputs of the block-against-reference checks; those marked greedy also run greedy deflation both ways.
SCHMIDT_INPUTS = {
    **{name: (getattr(gallery, name)(), True) for name in gallery.__all__},
    **{"planted-{}x{}x{}".format(*dims): (planted_schmidt(0, dims), dims != (12, 12, 12)) for dims in [(4, 4, 4), (8, 8, 8), (12, 12, 12), (6, 10, 8)]},
    **{f"cubic-{n}": (planted_cubic(0, n), True) for n in (3, 5, 8)},
    "signed-diagonal-2-2-1": (gallery.signed_diagonal((2.0, 2.0, 1.0)), True),
    "signed-diagonal-3-2-2": (gallery.signed_diagonal((3.0, 2.0, 2.0)), True),
    # A top band of two ordered orbits, listed smaller tau first: greedy must take 3 first.
    "signed-diagonal-3-2.999998-1": (gallery.signed_diagonal((3.0, 3.0 - 2e-6, 1.0)), True),
    "rank-two-2x2x2": (rank_two_2x2x2(), True),
    "shared-y": (shared_y(), True),
    # Greedy fails NoTripleFound at step 2: the remainder's top tau lies below residual_tol.
    "sub-gate-tail": (sub_gate_tail(), True),
}
EACH_SCHMIDT_INPUT = pytest.mark.parametrize("name", SCHMIDT_INPUTS)
#: Inputs of the ordered-slice checks: the gallery and seeded 4x5x6 Gaussians, whose spectra list many triples.
GAUSSIANS_456 = {f"gauss-4x5x6-{seed}": Tensor3.from_array(np.random.default_rng(seed).standard_normal((4, 5, 6))) for seed in (1, 2, 3)}
SLICE_INPUTS = {**{name: getattr(gallery, name)() for name in gallery.__all__}, **GAUSSIANS_456}
GREEDY_INPUTS = pytest.mark.parametrize("name", [name for name, (_, greedy) in SCHMIDT_INPUTS.items() if greedy])
#: Symmetric self-adjoint inputs of the Schur checker reference: signed diagonals and seeded planted cubics.
SCHUR_INPUTS = {
    **{"signed-diagonal-" + "-".join(f"{w:g}" for w in ws): gallery.signed_diagonal(ws) for ws in [(3.0, -2.0, 1.0), (2.0, 2.0, 1.0), (-1.0, 0.5), (-4.0,)]},
    **{f"cubic-{n}-{seed}": planted_cubic(seed, n) for n in (3, 5, 8) for seed in (0, 1)},
}


def raw_starts(T):
    """The search's raw-start Newton batch: every start, stacked as x | y | z | tau0."""
    X0, Y0, Z0 = _standard_starts(T, SearchConfig())
    tau0 = np.einsum("sk,sk->s", np.einsum("ijk,si,sj->sk", T.array, X0, Y0), Z0)
    return _stacked(X0, Y0, Z0, tau0)


def als_endpoints(T, monkeypatch):
    """The ALS finish's Newton batch before any merge: every converged endpoint, stacked with its tau."""
    X0, Y0, _ = _standard_starts(T, SearchConfig())
    with monkeypatch.context() as m:
        m.setattr(spectra, "_finish", lambda arr, X, Y, Z, ok, cfg: None)
        res = _als_batch(T.array, X0, Y0, SearchConfig())
    X, Y, Z = (res[f][res["ok"]] for f in "XYZ")
    return _stacked(X, Y, Z, spectra._residuals(T.array, X, Y, Z)[0])


def assert_same_run(got, want, atol=1e-12):
    """The same decisions, counts and strings as the reference run, and every float within atol."""
    (rep, report), (rep_w, report_w) = got, want
    assert rep.status is rep_w.status
    assert report.failure == report_w.failure  # step, reason and the diagnostics string
    assert len(rep.terms) == len(rep_w.terms) and len(report.steps) == len(report_w.steps)
    assert abs(rep.reconstruction_residual - rep_w.reconstruction_residual) <= atol
    close = lambda a, b: np.testing.assert_allclose(a, b, rtol=0, atol=atol)  # noqa: E731
    for a, b in zip(rep.terms, rep_w.terms):
        close([a.tau, *a.x, *a.y, *a.z], [b.tau, *b.x, *b.y, *b.z])
    for a, b in zip(report.steps, report_w.steps):
        assert a.index == b.index
        close([a.tau, a.remaining_hs, *a.slice_residuals, *a.transfer_residuals], [b.tau, b.remaining_hs, *b.slice_residuals, *b.transfer_residuals])
        close([*a.triple.x, *a.triple.y, *a.triple.z, *a.triple.residuals], [*b.triple.x, *b.triple.y, *b.triple.z, *b.triple.residuals])


def assert_same_check(got, want, atol=1e-12):
    for field in ("monotone", "orthonormal", "reconstruction_ok", "diagonal_ok"):
        assert getattr(got, field) is getattr(want, field), field
    for field in ("max_gram_deviation", "reconstruction_residual", "max_diagonal_deviation"):
        assert abs(getattr(got, field) - getattr(want, field)) <= atol, field


def same_bytes(got, want):
    return len(got) == len(want) and all(np.asarray(a).tobytes() == np.asarray(b).tobytes() for a, b in zip(got, want))


# ---------------------------------------------------------------------------
# the tests


@pytest.mark.numpy1
class TestNewtonLoop:
    @EACH_TENSOR
    @pytest.mark.parametrize("start", ["raw", "als"])
    def test_batch_equals_the_reference(self, T, start, monkeypatch):
        V0 = raw_starts(T) if start == "raw" else als_endpoints(T, monkeypatch)
        assert V0.shape[0] > 0
        assert same_bytes(_newton_batch(T.array, V0), ref_newton_batch(T.array, V0))

    def test_planted_rows_equal_the_reference(self):
        # Among raw starts: a row with x = 0, whose Jacobian's last row vanishes (singular); a row whose
        # first step lands near 1e160, where squaring an entry overflows (diverged); and a row next to
        # the tau = 0 component (collapsed).
        T = TENSORS["gauss-4x4x4"]
        u = np.full(4, 0.5)
        planted = [
            np.r_[np.zeros(4), u, u, 1.0],
            np.r_[1e-160, 0.0, 0.0, 0.0, np.eye(4)[1], np.eye(4)[2], 1.0],
            np.r_[u, 1e-3 * u, 1e-3 * u, 0.0],
        ]
        V0 = np.vstack([raw_starts(T)[:40], *planted])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _newton_batch(T.array, V0)
        want = ref_newton_batch(T.array, V0)
        assert same_bytes(got, want)
        assert not got[1][-3:].any() and np.abs(got[0][-2, 4:12]).max() > 1e154

    def test_a_singular_row_stops_after_one_step(self):
        # x = 0 zeroes the Jacobian's last row: its step is 0, so only the stop keeps it from a 40-step tail.
        T = TENSORS["gauss-4x4x4"]
        V0 = np.r_[np.zeros(4), np.full(8, 0.5), 1.0][None]
        with _probe() as probe:
            assert same_bytes(_newton_batch(T.array, V0), ref_newton_batch(T.array, V0))
        assert [r["iterations"] for r in probe["newton"]] == [1]

    def test_rows_stepping_at_step_20_take_tangent_steps_from_the_unit_spheres(self, monkeypatch):
        # One row block of raw starts, so each _newton_step call is one step of the loop; some rows run to the cap.
        T = TENSORS["gauss-4x4x4"]
        step, seen = _newton._newton_step, []

        def spy(arr, V, idx, done, batch, tangent):
            v = V[idx].copy()
            rows = step(arr, V, idx, done, batch, tangent)
            seen.append((v, tangent, V[idx[~done[idx]]]))
            return rows

        monkeypatch.setattr(_newton, "_newton_step", spy)
        _newton_batch(T.array, raw_starts(T))
        assert len(seen) == _newton._NEWTON_MAX_STEPS == 40 and _newton._NEWTON_RETRACT == 20
        off = []  # per step, the largest distance of a row's x, y or z norm from 1
        for it, (v, tangent, w) in enumerate(seen):
            assert tangent is (it >= 20)
            X, Y, Z = (v[:, cols] for cols in _factor_slices(T.dims))
            off.append(max(np.abs(_row_norms(M) - 1.0).max() for M in (X, Y, Z)))
            if tangent:
                assert v[:, -1].tobytes() == _residuals(T.array, X, Y, Z)[0].tobytes(), it
                # A tangent step leaves |y| and |z| at least 1, so no row leaves through the collapse test.
                low = np.minimum(*(_row_norms(w[:, cols]) for cols in _factor_slices(T.dims)[1:]))
                assert (low >= 1.0 - 1e-12).all(), it
        assert max(off[20:]) <= 4e-16 < 1e-6 < off[19]

    @pytest.mark.parametrize("name", ["gauss-4x4x4", "gauss-4x8x6", "diagonal_pair"])
    def test_three_row_blocks_equal_the_reference(self, name, monkeypatch):
        T = TENSORS[name]
        m = sum(T.dims) + 1
        V0 = np.vstack([raw_starts(T), als_endpoints(T, monkeypatch)])
        monkeypatch.setattr(tensor_core, "_CONTRACT_BLOCK", 3 * m * m)
        assert same_bytes(_newton_batch(T.array, V0), ref_newton_batch(T.array, V0))

    @pytest.mark.parametrize("name", ["gauss-4x4x4", "signed_diagonal"])
    def test_a_permuted_batch_gives_the_permuted_results(self, name):
        T = TENSORS[name]
        V0 = raw_starts(T)
        perm = np.random.default_rng(15).permutation(V0.shape[0])
        V, ok = ref_newton_batch(T.array, V0)
        assert same_bytes(_newton_batch(T.array, V0[perm]), (V[perm], ok[perm]))


#: Every array _als_batch returns.
ALS_KEYS = ("X", "Y", "Z", "ok", "stopped", "dead")


class TestAlsLoop:
    @EACH_TENSOR
    def test_batch_equals_the_reference(self, T):
        cfg = SearchConfig()
        X0, Y0, _ = _standard_starts(T, cfg)
        got, want = _als_batch(T.array, X0, Y0, cfg), ref_als_batch(T.array, X0, Y0, cfg)
        assert all(got[key].tobytes() == want[key].tobytes() for key in ALS_KEYS)

    def test_norms_whose_squares_underflow_equal_the_reference(self):
        # At this scale some x update's norm reads 0 though f > _ZERO_NORM: only the guard keeps the sweep
        # from dividing by zero (a RuntimeWarning, an error under this suite's filter).
        rng = np.random.default_rng([6, 3])
        arr = 1e-162 * rng.standard_normal((3, 3, 3))
        X0, Y0 = rng.standard_normal((50, 3)), rng.standard_normal((50, 3))
        cfg = SearchConfig(max_iter=200)
        got, want = _als_batch(arr, X0, Y0, cfg), ref_als_batch(arr, X0, Y0, cfg)
        assert all(got[key].tobytes() == want[key].tobytes() for key in ALS_KEYS)

    @pytest.mark.parametrize("name", ["gauss-4x4x4", "overlapping_slices", "gauss-3x2x4"])
    def test_value_trace_equals_the_reference(self, name):
        T = TENSORS[name]
        rng = np.random.default_rng(16)
        x0, y0 = rng.standard_normal(T.dims[0]), rng.standard_normal(T.dims[1])
        trace = []
        ref_als_batch(T.array, x0[None], y0[None], SearchConfig(), trace=trace)
        assert len(trace) > 2 and np.array(trace).tobytes() == hopm_value_trace(T, x0, y0).tobytes()

    @pytest.mark.parametrize("shape", [(4, 4, 4), (3, 2, 4), (4, 8, 6)])
    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_contract_equals_the_reference_at_every_block_count(self, shape, mode):
        n1, n2, n3 = shape
        block = max(2, tensor_core._CONTRACT_BLOCK // (n1 * n2 if mode == 0 else n2 * n3))
        rng = np.random.default_rng([17, mode, *shape])
        arr = rng.standard_normal(shape)
        na, nb = [n for k, n in enumerate(shape) if k != mode]
        for S in (1, 2, block, block + 1):
            U, V = rng.standard_normal((S, na)), rng.standard_normal((S, nb))
            assert _contract(arr, mode, U, V).tobytes() == ref_contract(arr, mode, U, V).tobytes()


class TestOrbitDistance:
    @staticmethod
    def rows_with_duplicates(seed, dims=(3, 4, 2), count=60):
        """Random unit rows, every third one from row 20 on a copy of an earlier row in a random sign variant
        (every other copy moved by about 1e-7), and for each row a partner: its source, or a random row."""
        rng = np.random.default_rng(seed)
        X, Y, Z = (rng.standard_normal((count, n)) for n in dims)
        X, Y, Z = (M / np.linalg.norm(M, axis=1)[:, None] for M in (X, Y, Z))
        partner = rng.integers(count, size=count)
        for i in range(count // 3, count, 3):
            partner[i], signs = rng.integers(i), _ORBIT_SIGNS[rng.integers(4)]
            for M, s in zip((X, Y, Z), signs):
                M[i] = s * M[partner[i]] + (1e-7 * rng.standard_normal(M.shape[1]) if i % 2 else 0.0)
        return (X, Y, Z), partner

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_the_stacked_form(self, seed):
        P, partner = self.rows_with_duplicates(seed)
        # Against one triple (as _listing), and row against row (as _finish).
        for i in (0, 26, 59):
            one = tuple(M[i] for M in P)
            d = _orbit_distance(P, one)
            assert d.tobytes() == stacked_distance(P, one).tobytes() and d[i] == 0.0
        d = _orbit_distance(P, tuple(M[partner] for M in P))
        assert d.tobytes() == stacked_distance(P, tuple(M[partner] for M in P)).tobytes()
        assert (d[20::6] == 0).all() and (d[23::6] < 1e-6).all() and (d > 1e-3).any()

    def test_equals_the_stacked_form_on_the_four_equal_tau_saddles(self, diag_pair):
        saddles = [t for t in enumerate_triples(diag_pair).triples if abs(t.tau - 6 / np.sqrt(13)) < 1e-9]
        assert len(saddles) == 4
        P = tuple(np.array([getattr(t, f) for t in saddles]) for f in "xyz")
        for i in range(4):
            one = tuple(M[i] for M in P)
            d = _orbit_distance(P, one)
            assert d.tobytes() == stacked_distance(P, one).tobytes() and d[i] == 0.0
        tau = np.full(4, saddles[0].tau)
        assert _listing(tau, *P, SearchConfig()).size == 4


@pytest.mark.numpy1
class TestListing:
    """_listing's rounds, each keeping every group's first open row and testing the group's other open rows
    against it at once, against the merge one tie group at a time (ref_listing); and the triples built from one
    gathered block per factor against one copy per vector (ref_triples)."""

    CFG = SearchConfig()

    @staticmethod
    def captured(monkeypatch, T):
        """enumerate_triples(T), the arguments of its _listing call, the listing, and the residuals of the rows
        listed (read off _search_candidates' call of _verified, the last one before the listing)."""
        seen = {}
        listing, verified = spectra._listing, spectra._verified

        def verified_spy(tau, R, tol):
            good = verified(tau, R, tol)
            seen["R"] = R[good]
            return good

        def listing_spy(*args):
            seen["args"], seen["listed"] = args, listing(*args)
            return seen["listed"]

        monkeypatch.setattr(spectra, "_verified", verified_spy)
        monkeypatch.setattr(spectra, "_listing", listing_spy)
        spectrum = enumerate_triples(T, TestListing.CFG)
        monkeypatch.undo()
        return spectrum, seen["args"], seen["listed"], seen["R"]

    @staticmethod
    def orbit_rows(taus, variants, dims=(3, 2, 4)):
        """Row i at taus[i]: orbit variants[i][0] (random unit triples from one seed) in sign variant variants[i][1]."""
        rng = np.random.default_rng(23)
        bases = [[v / np.linalg.norm(v) for v in (rng.standard_normal(n) for n in dims)] for _ in range(3)]
        rows = [[s * v for s, v in zip(_ORBIT_SIGNS[sign], bases[orbit])] for orbit, sign in variants]
        return (np.array(taus), *(np.array([r[f] for r in rows]).reshape(len(rows), n) for f, n in enumerate(dims)))

    @staticmethod
    def rounds(args):
        """The merge rounds of _listing(*args), and the most rows it keeps in one tie group of dedup_tol."""
        with _probe() as probe:
            kept = _listing(*args)
        group = _tie_groups(args[0], args[-1].dedup_tol)
        return probe["listing"][0]["rounds"], int(np.bincount(group[kept]).max())

    @pytest.mark.parametrize(
        "T",
        [
            *(getattr(gallery, name)() for name in gallery.__all__),
            *(Tensor3.from_array(np.random.default_rng([34, *d]).standard_normal(d)) for d in [(4, 4, 4), (5, 5, 5), (6, 6, 6), (4, 8, 6)]),
        ],
        ids=[*gallery.__all__, "gauss-4x4x4", "gauss-5x5x5", "gauss-6x6x6", "gauss-4x8x6"],
    )
    def test_equals_the_per_group_loop_and_the_copied_triples(self, monkeypatch, T):
        spectrum, args, listed, R = self.captured(monkeypatch, T)
        want = ref_listing(*args)
        assert listed.dtype == want.dtype and listed.tolist() == want.tolist()
        tau, X, Y, Z, _ = args
        got, copied = spectrum.triples, ref_triples(tau, X, Y, Z, R, want)
        assert len(got) == len(copied) > 0
        for a, b in zip(got, copied):
            assert type(a.tau) is float and a.tau.hex() == b.tau.hex()
            assert all(type(r) is float for r in a.residuals) and [r.hex() for r in a.residuals] == [r.hex() for r in b.residuals]
            for f in "xyz":
                u, v = getattr(a, f), getattr(b, f)
                assert u.dtype == v.dtype and u.shape == v.shape and u.tobytes() == v.tobytes()
        # Each vector is a row of its factor's gathered block, and no two triples share one.
        for f in "xyz":
            assert len({getattr(t, f).__array_interface__["data"][0] for t in got}) == len(got)

    def test_a_group_keeping_two_orbits(self):
        # Orbits 0 and 1 at equal taus, each in its four sign variants, interleaved: the group's first row drops
        # its own orbit's rows, and the sequential merge from row 1 drops the other's.
        tau, X, Y, Z = self.orbit_rows([1.0 + 1e-9 * i for i in range(8)], [(i % 2, i // 2) for i in range(8)])
        listed = _listing(tau, X, Y, Z, self.CFG)
        assert sorted(listed.tolist()) == [0, 1] and listed.tolist() == ref_listing(tau, X, Y, Z, self.CFG).tolist()

    def test_a_group_keeping_three_orbits_in_four_rounds(self):
        # One chained group: orbits 0, 1 and 2 at 1, then orbit 1 in two other sign variants at 1 + 1.5e-6 and
        # 1 + 3e-6. Round 2 keeps row 1, which drops row 3. Row 4 lies out of row 1's band, dedup_tol * (1 + max
        # tau) = 2e-6, and is a mate only of row 3, which is dropped: it stays, and round 4 keeps it.
        tau, X, Y, Z = self.orbit_rows([1.0, 1.0, 1.0, 1.0 + 1.5e-6, 1.0 + 3e-6], [(0, 0), (1, 0), (2, 0), (1, 1), (1, 2)])
        assert _tie_groups(tau, self.CFG.dedup_tol).tolist() == [0] * 5
        listed = _listing(tau, X, Y, Z, self.CFG)
        assert sorted(listed.tolist()) == [0, 1, 2, 4] and listed.tolist() == ref_listing(tau, X, Y, Z, self.CFG).tolist()
        assert self.rounds((tau, X, Y, Z, self.CFG)) == (4, 4)

    @pytest.mark.parametrize("name, calls", [("diagonal_pair", 4), ("overlapping_slices", 2), ("orthonormal_triad", 15), ("signed_diagonal", 14)])
    def test_one_distance_call_per_round_on_the_gallery(self, monkeypatch, name, calls):
        _, args, _, _ = self.captured(monkeypatch, getattr(gallery, name)())
        assert self.rounds(args) == (calls, calls)

    def test_one_distance_call_per_gaussian_listing(self, monkeypatch):
        # One tensor of each shape of the benchmark's seed-1 spectrum-gaussian cycle, its norm and its spectrum:
        # no tie group keeps two orbits, so each listing takes one round.
        monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parent.parent / "bench"))
        workloads = importlib.import_module("workloads")
        seen = []
        listing = spectra._listing
        monkeypatch.setattr(spectra, "_listing", lambda *args: seen.append(args) or listing(*args))
        for task in workloads.spectrum_gaussian(1, [(dims, 1) for dims, _ in workloads.GAUSSIAN_SIZES]).tasks:
            task.run()
        assert len(seen) == 8
        for args in seen:
            assert self.rounds(args) == (1, 1)

    def test_a_row_outside_the_first_rows_band_dropped_by_a_later_kept_row(self):
        # One chained group: row 0 (orbit 0) at 1, row 1 (orbit 1) 1.5e-6 above it, row 2 (orbit 1 in another
        # sign variant) 3e-6 above it: out of row 0's band, dedup_tol * (1 + max tau) = 2e-6, but in row 1's.
        tau, X, Y, Z = self.orbit_rows([1.0, 1.0 + 1.5e-6, 1.0 + 3e-6], [(0, 0), (1, 0), (1, 3)])
        assert _tie_groups(tau, self.CFG.dedup_tol).tolist() == [0, 0, 0]
        listed = _listing(tau, X, Y, Z, self.CFG)
        assert sorted(listed.tolist()) == [0, 1] and listed.tolist() == ref_listing(tau, X, Y, Z, self.CFG).tolist()
        # Row 2 in orbit 0 instead: out of row 0's band it is no mate of row 0, nor of row 1's orbit; all stay.
        tau, X, Y, Z = self.orbit_rows([1.0, 1.0 + 1.5e-6, 1.0 + 3e-6], [(0, 0), (1, 0), (0, 3)])
        listed = _listing(tau, X, Y, Z, self.CFG)
        assert sorted(listed.tolist()) == [0, 1, 2] and listed.tolist() == ref_listing(tau, X, Y, Z, self.CFG).tolist()

    @pytest.mark.parametrize("first", range(4))
    def test_all_four_sign_variants_are_one_orbit(self, first):
        # The four variants with rising taus: row 0 wins although the others' taus are larger.
        signs = [first, *(s for s in range(4) if s != first)]
        tau, X, Y, Z = self.orbit_rows([1.0, 1.0 + 1e-9, 1.0 + 2e-9, 1.0 + 3e-9], [(2, s) for s in signs])
        assert _listing(tau, X, Y, Z, self.CFG).tolist() == ref_listing(tau, X, Y, Z, self.CFG).tolist() == [0]

    def test_a_large_tie_group_is_merged_in_row_blocks(self):
        # 4000 rows of one orbit in random sign variants, z 64 wide: one round drops all but row 0. Its sign-variant
        # differences are formed in row blocks, so the merge peaks below 4 times the rows' own bytes; the (2, rows, 64)
        # difference of z alone, and its square, took 8 MiB.
        variants = [(0, s) for s in np.random.default_rng(24).integers(0, 4, 4000)]
        tau, X, Y, Z = self.orbit_rows(np.ones(4000), variants, dims=(2, 2, 64))
        tracemalloc.start()
        try:
            listed = _listing(tau, X, Y, Z, self.CFG)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert listed.tolist() == [0]
        assert peak < 4 * (X.nbytes + Y.nbytes + Z.nbytes), f"the merge peaked at {peak / 2**20:.2f} MiB"

    def test_empty_input(self):
        tau, X, Y, Z = np.empty(0), np.empty((0, 3)), np.empty((0, 2)), np.empty((0, 4))
        listed = _listing(tau, X, Y, Z, self.CFG)
        want = ref_listing(tau, X, Y, Z, self.CFG)
        assert listed.dtype == want.dtype == np.intp and listed.shape == want.shape == (0,)


class TestDeflationBlock:
    CFG = SearchConfig()

    @EACH_SCHMIDT_INPUT
    def test_the_svd_block_equals_the_per_term_reference(self, name):
        T = SCHMIDT_INPUTS[name][0]
        got = _deflate(T, self.CFG, _svd_block(T, self.CFG))
        assert_same_run(got, ref_deflate(T, self.CFG, ref_svd_pick(T, self.CFG)))
        if name.startswith(("planted", "cubic")):
            assert got[0].status is SchmidtStatus.COMPLETE

    @GREEDY_INPUTS
    def test_greedy_blocks_of_one_equal_the_per_term_reference(self, name):
        T = SCHMIDT_INPUTS[name][0]
        assert_same_run(_greedy(T, self.CFG), ref_deflate(T, self.CFG, ref_greedy_pick(self.CFG)))

    @EACH_SCHMIDT_INPUT
    def test_verify_representation_equals_the_per_term_reference(self, name):
        T = SCHMIDT_INPUTS[name][0]
        rep, _ = schmidt_decompose(T, self.CFG)
        assert_same_check(verify_representation(T, rep, 1e-9), ref_verify_representation(T, rep, 1e-9))

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2**31),
        st.sampled_from([(3, 3, 3), (4, 4, 4), (2, 5, 3), (5, 4, 6), (6, 3, 4)]),
        st.sampled_from([0.0, 1e-13, 1e-11, 1e-7]),
        st.booleans(),
    )
    def test_planted_tensors_with_random_gaps_ties_and_noise(self, seed, dims, noise, ties):
        # Gaps of 0 and 1e-8 tie adjacent taus (the SVD reading refuses them), 1e-3 separates them; noise of
        # 1e-7 fails the reading's rank-one test, while 1e-13 and 1e-11 leave residuals within residual_tol.
        rng = np.random.default_rng(seed)
        r = min(dims)
        gaps = rng.choice([0.0, 1e-8, 1e-3, 0.5], size=r) if ties else rng.uniform(1e-3, 1.0, r)
        T = planted_schmidt(seed, dims, gaps, noise)
        got = _deflate(T, self.CFG, _svd_block(T, self.CFG))
        assert_same_run(got, ref_deflate(T, self.CFG, ref_svd_pick(T, self.CFG)))
        assert_same_check(verify_representation(T, got[0], 1e-9), ref_verify_representation(T, got[0], 1e-9))

    def test_a_tied_top_band_picks_deterministically_and_verifies(self):
        # Two orbits attain tau = 2 at step 1; their slice residuals are exact zeros, so the canonical order
        # decides, as in the per-term loop, and the same triple comes first on every run.
        T = gallery.signed_diagonal((2.0, 2.0, 1.0))
        runs = [_greedy(T, self.CFG) for _ in range(2)]
        want = ref_deflate(T, self.CFG, ref_greedy_pick(self.CFG))
        for rep, report in runs:
            assert_same_run((rep, report), want, atol=0.0)
            assert rep.status is SchmidtStatus.COMPLETE and verify_representation(T, rep, 1e-9).all_ok
        assert runs[0][1].steps[0].slice_residuals == (0.0, 0.0, 0.0)
        assert len([c for c in _search_candidates(T, self.CFG, use_newton=False)[0] if c.tau >= 2.0 - 3e-6]) == 2

    @pytest.mark.parametrize("name", SLICE_INPUTS)
    def test_batched_classification_equals_the_per_triple_results(self, name):
        # One residual routine and one row rule: a triple's classification does not depend on its stack.
        T = SLICE_INPUTS[name]
        triples = enumerate_triples(T, self.CFG).triples
        batched = _ordered_checks(T, triples, 1e-9)
        assert _ordered_checks(T, triples[:1], 1e-9) == batched[:1]  # a one-triple stack
        for triple, check in zip(triples, batched):
            assert is_ordered(T, triple, 1e-9) == check
            ordered, slices, adjoint = ref_is_ordered(T, triple, 1e-9)
            assert check.ordered is ordered
            np.testing.assert_allclose([*check.slice_residuals, check.adjoint_slice_residual], [*slices, adjoint], rtol=0, atol=1e-14)

    @pytest.mark.parametrize("name", SLICE_INPUTS)
    def test_slices_stay_within_1e_15_of_the_separate_kernel(self, name):
        T = SLICE_INPUTS[name]
        tau, X, Y, Z = _stacked_terms(enumerate_triples(T, self.CFG).triples, T.dims)
        got_tau, R = _residuals(T.array, X, Y, Z, tau, slices=True)
        assert got_tau is tau and same_bytes([R[:, :3]], [_residuals(T.array, X, Y, Z, tau)[1]])
        np.testing.assert_allclose(R[:, 3:], ref_slice_residuals(T.array, X, Y, Z, tau), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("name", GAUSSIANS_456)
    def test_a_one_row_tail_block_keeps_every_rows_bits(self, name, monkeypatch):
        T = GAUSSIANS_456[name]
        tau, X, Y, Z = _stacked_terms(enumerate_triples(T, self.CFG).triples, T.dims)
        want = _residuals(T.array, X, Y, Z, tau, slices=True)[1]
        S, width = tau.size, max(4 * 6, 5 * 6, 4 * 5)
        monkeypatch.setattr(tensor_core, "_CONTRACT_BLOCK", (S - 1) * width)
        assert S > 2 and tensor_core._row_blocks(S, width) == [slice(0, S - 1), slice(S - 1, 2 * S - 2)]
        got = _residuals(T.array, X, Y, Z, tau, slices=True)[1]
        assert same_bytes([got], [want])
        np.testing.assert_allclose(got[:, 3:], ref_slice_residuals(T.array, X, Y, Z, tau), rtol=0, atol=1e-15)

    @staticmethod
    def checked_blocks(monkeypatch, run) -> list:
        """(remainder, X, Y, Z, tau, R) of every block _deflate checks while run() runs, the remainder as it was."""
        calls, real = [], bilop.schmidt._residuals

        def spy(arr, X, Y, Z, tau=None, deflated=False, slices=False):
            got = real(arr, X, Y, Z, tau, deflated, slices)
            if deflated:
                calls.append((arr.copy(), X, Y, Z, *got))
            return got

        monkeypatch.setattr(bilop.schmidt, "_residuals", spy)
        run()
        return calls

    @staticmethod
    def assert_slices_near_the_separate_kernel(calls):
        for arr, X, Y, Z, tau, R in calls:
            np.testing.assert_allclose(R[:, 3:], ref_slice_residuals(arr, X, Y, Z, tau, deflated=True), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("n", [4, 6, 8, 10, 12])
    def test_svd_block_slices_stay_within_1e_15_of_the_separate_kernel(self, n, monkeypatch):
        T = planted_schmidt(0, (n, n, n))
        calls = self.checked_blocks(monkeypatch, lambda: _deflate(T, self.CFG, _svd_block(T, self.CFG)))
        assert [c[1].shape[0] for c in calls] == [n]
        self.assert_slices_near_the_separate_kernel(calls)

    @GREEDY_INPUTS
    def test_greedy_slices_stay_within_1e_15_of_the_separate_kernel(self, name, monkeypatch):
        T = SCHMIDT_INPUTS[name][0]
        calls = self.checked_blocks(monkeypatch, lambda: _greedy(T, self.CFG))
        assert calls and all(c[1].shape[0] == 1 for c in calls)
        self.assert_slices_near_the_separate_kernel(calls)

    @EACH_TENSOR
    def test_residuals_keep_their_bits_and_take_a_given_tau(self, T):
        X0, Y0, Z0 = _standard_starts(T, SearchConfig(starts=64))
        tau, R = _residuals(T.array, X0, Y0, Z0)
        assert same_bytes((tau, R), ref_residuals(T.array, X0, Y0, Z0))
        assert same_bytes(_residuals(T.array, X0, Y0, Z0, tau), (tau, R))

    def test_a_planted_32_cube_stays_within_a_few_copies_of_t(self):
        # A stack of min(dims) remainders would hold 32 copies of T; the block check holds its slices and
        # Gram corrections, O(min(dims) * (n1 n3 + n2 n3 + n1 n2)) entries, here one copy of T each.
        T = planted_schmidt(0, (32, 32, 32))
        tracemalloc.start()
        try:
            rep, report = schmidt_decompose(T, self.CFG)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.status is SchmidtStatus.COMPLETE and len(rep.terms) == 32 and report.check is not None
        assert peak < 8 * T.values.nbytes


class TestSchurCheck:
    CFG = SearchConfig()

    @pytest.mark.parametrize("name", SCHUR_INPUTS)
    def test_verify_schur_equals_the_reference_byte_for_byte(self, name):
        # The Schur form as converted, reversed (not monotone unless |lam| ties), every lam moved by about 1e-7
        # (a reconstruction residual above tol), and empty.
        T = SCHUR_INPUTS[name]
        schur = schur_from_schmidt(T, schmidt_decompose(T, self.CFG)[0], 1e-9)
        rng = np.random.default_rng(len(name))
        moved = tuple(SchurTerm(t.lam + 1e-7 * rng.standard_normal(), t.x) for t in schur.terms)
        forms = [schur.terms, schur.terms[::-1], moved, ()]
        assert len(schur.terms) == T.dims[0] and not verify_schur(T, SchurRepresentation(schur.dim, moved), 1e-9).all_ok
        for terms in forms:
            form = SchurRepresentation(schur.dim, terms)
            got, want = (dataclasses.astuple(check(T, form, 1e-9)) for check in (verify_schur, ref_verify_schur))
            assert [type(v) for v in got] == [type(v) for v in want]  # bools are bools, floats floats
            assert [np.float64(v).tobytes() for v in got] == [np.float64(v).tobytes() for v in want]
