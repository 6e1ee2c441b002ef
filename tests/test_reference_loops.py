"""The Newton corrector's loop, the alternating sweep and the sign-orbit distance against the code they
replaced, kept here as references (as TestFinish keeps finish_every_row).

The rewrites only cut NumPy calls and temporaries, so every array they return must keep its bytes. The
references below are the replaced loops, renamed, calling the same pinned helpers of bilop.spectra
(_newton_a1, _solve_rows, _row_norms, _stacked, _factor_slices) and reading its module constants at call
time, so a patched budget applies to both sides.
"""

import warnings

import numpy as np
import pytest

from bilop import SearchConfig, Tensor3, enumerate_triples, gallery, hopm_value_trace, spectra
from bilop.spectra import (
    _ORBIT_SIGNS,
    _als_batch,
    _contract,
    _factor_slices,
    _newton_a1,
    _newton_batch,
    _orbit_distance,
    _orbit_mates,
    _row_norms,
    _solve_rows,
    _stacked,
    _standard_starts,
)

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
    block = max(2, spectra._CONTRACT_BLOCK // unf.shape[1])
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
    safe = np.where(norms > spectra._ZERO_NORM, norms, 1.0)
    return M / safe[:, None], norms


def ref_als_batch(arr, X0, Y0, cfg, trace=None):
    S = X0.shape[0]
    n3 = arr.shape[2]
    X, _ = ref_row_normalize(np.array(X0, dtype=float))
    Y, _ = ref_row_normalize(np.array(Y0, dtype=float))
    Z = np.zeros((S, n3))
    ok = np.zeros(S, dtype=bool)
    dead = np.zeros(S, dtype=bool)
    idx = np.arange(S)
    x, y = X, Y
    f_prev = np.full(S, np.nan)
    for _ in range(cfg.max_iter):
        if idx.size == 0:
            break
        z, f = ref_row_normalize(ref_contract(arr, 2, x, y))
        live = f > spectra._ZERO_NORM
        if trace is not None and idx[0] == 0 and live[0]:
            trace.append(float(f[0]))
        done = live & (np.abs(f - f_prev) <= cfg.iter_tol * (1.0 + f))
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
    merged = ref_finish(arr, X, Y, Z, ok, cfg)
    reasons = np.where(dead, "zero contraction", "max_iter exceeded")
    return {"X": X, "Y": Y, "Z": Z, "ok": ok, "merged": merged, "reasons": reasons}


#: The sign variants as one stack, for stacked_distance.
ORBIT_STACK = np.array(_ORBIT_SIGNS).T[:, :, None, None]


def stacked_distance(P, Q):
    """The orbit distance over one (4, rows, n) sign-variant stack per factor."""
    d = np.max([_row_norms(M - s * N) for M, N, s in zip(P, Q, ORBIT_STACK)], axis=0)
    return d.min(axis=0)


def ref_finish(arr, X, Y, Z, ok, cfg):
    sel = np.flatnonzero(ok)
    tau, R = ref_residuals(arr, X[sel], Y[sel], Z[sel])
    far = R.max(axis=1) > spectra._NEWTON_TOL * (1.0 + np.abs(tau))
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
    ref_newton_finish(arr, X, Y, Z, sel[rest], tau[rest])
    return np.bincount(sel[mates], minlength=ok.size) > 0


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
    block = max(1, spectra._NEWTON_BLOCK // (m * m))
    Tjik = np.ascontiguousarray(arr.transpose(1, 0, 2))
    J = np.empty((min(block, S), m, m))
    for _ in range(spectra._NEWTON_MAX_STEPS):
        act = np.flatnonzero(alive & ~done)
        if act.size == 0:
            break
        for lo in range(0, act.size, block):
            ref_newton_step(arr, Tjik, V, act[lo : lo + block], done, alive, J)
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


def ref_newton_step(arr, Tjik, V, idx, done, alive, J):
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
    hit = _row_norms(F) <= spectra._NEWTON_TOL * (1.0 + np.abs(t))
    done[idx[hit]] = True
    go = ~hit
    if not go.any():
        return
    gi = idx[go]
    J = J[: gi.size]
    if hit.any():
        A1, A2, A3, x, y, z, t = (M[go] for M in (A1, A2, A3, x, y, z, t))
    ref_write_jacobians(J, A1, A2, A3, x, y, z, t)
    step, singular = _solve_rows(J, F[go])
    alive[gi[singular]] = False
    V[gi] = w = v[go] - step
    stop = (np.abs(w[:, :-1]) > spectra._NEWTON_DIVERGED).any(axis=1) | ~np.isfinite(w).all(axis=1)
    on = np.flatnonzero(~stop)
    stop[on] = np.minimum(*(_row_norms(w[on, c]) for c in _factor_slices(arr.shape)[1:])) < spectra._NEWTON_COLLAPSED
    alive[gi[stop]] = False


def ref_write_jacobians(J, A1, A2, A3, x, y, z, t):
    n1, n2, n3 = x.shape[1], y.shape[1], z.shape[1]
    sx, sy, sz = _factor_slices((n1, n2, n3))
    f1, f2, f3 = slice(0, n3), slice(n3, n3 + n1), slice(n3 + n1, -1)
    nt = -t[:, None, None]
    for rows, cols, n in ((f1, sz, n3), (f2, sx, n1), (f3, sy, n2)):
        J[:, rows, cols] = nt * np.eye(n)
    for rows, M in ((f1, z), (f2, x), (f3, y)):
        np.negative(M, out=J[:, rows, -1])
    J[:, f1, sx], J[:, f1, sy] = A1, A2
    J[:, f2, sy], J[:, f2, sz] = A3, A1.transpose(0, 2, 1)
    J[:, f3, sx], J[:, f3, sz] = A3.transpose(0, 2, 1), A2.transpose(0, 2, 1)
    J[:, -1, sx], J[:, -1, n1:] = x, 0.0


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


def raw_starts(T):
    """The search's raw-start Newton batch: every start, stacked as x | y | z | tau0."""
    X0, Y0, Z0 = _standard_starts(T, SearchConfig())
    tau0 = np.einsum("sk,sk->s", np.einsum("ijk,si,sj->sk", T.array, X0, Y0), Z0)
    return _stacked(X0, Y0, Z0, tau0)


def als_endpoints(T, monkeypatch):
    """The ALS finish's Newton batch before any merge: every converged endpoint, stacked with its tau."""
    X0, Y0, _ = _standard_starts(T, SearchConfig())
    with monkeypatch.context() as m:
        m.setattr(spectra, "_finish", lambda arr, X, Y, Z, ok, cfg: np.zeros(ok.size, dtype=bool))
        res = _als_batch(T.array, X0, Y0, SearchConfig())
    X, Y, Z = (res[f][res["ok"]] for f in "XYZ")
    return _stacked(X, Y, Z, spectra._residuals(T.array, X, Y, Z)[0])


def same_bytes(got, want):
    return len(got) == len(want) and all(np.asarray(a).tobytes() == np.asarray(b).tobytes() for a, b in zip(got, want))


# ---------------------------------------------------------------------------
# the tests


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

    def test_a_singular_row_stops_after_one_step(self, monkeypatch):
        # x = 0 zeroes the Jacobian's last row: its step is 0, so only the stop keeps it from a 100-step tail.
        T = TENSORS["gauss-4x4x4"]
        V0 = np.r_[np.zeros(4), np.full(8, 0.5), 1.0][None]
        step, calls = spectra._newton_step, []

        def counted(*args):
            calls.append(step(*args))
            return calls[-1]

        monkeypatch.setattr(spectra, "_newton_step", counted)
        assert same_bytes(_newton_batch(T.array, V0), ref_newton_batch(T.array, V0))
        assert len(calls) == 1 and calls[0].size == 0

    @pytest.mark.parametrize("name", ["gauss-4x4x4", "gauss-4x8x6", "diagonal_pair"])
    def test_three_row_blocks_equal_the_reference(self, name, monkeypatch):
        T = TENSORS[name]
        m = sum(T.dims) + 1
        V0 = np.vstack([raw_starts(T), als_endpoints(T, monkeypatch)])
        monkeypatch.setattr(spectra, "_NEWTON_BLOCK", 3 * m * m)
        assert same_bytes(_newton_batch(T.array, V0), ref_newton_batch(T.array, V0))

    @pytest.mark.parametrize("name", ["gauss-4x4x4", "signed_diagonal"])
    def test_a_permuted_batch_gives_the_permuted_results(self, name):
        T = TENSORS[name]
        V0 = raw_starts(T)
        perm = np.random.default_rng(15).permutation(V0.shape[0])
        V, ok = ref_newton_batch(T.array, V0)
        assert same_bytes(_newton_batch(T.array, V0[perm]), (V[perm], ok[perm]))


class TestAlsLoop:
    @EACH_TENSOR
    def test_batch_equals_the_reference(self, T):
        cfg = SearchConfig()
        X0, Y0, _ = _standard_starts(T, cfg)
        got, want = _als_batch(T.array, X0, Y0, cfg), ref_als_batch(T.array, X0, Y0, cfg)
        assert all(got[key].tobytes() == want[key].tobytes() for key in ("X", "Y", "Z", "ok", "merged", "reasons"))

    def test_norms_whose_squares_underflow_equal_the_reference(self):
        # At this scale some x update's norm reads 0 though f > _ZERO_NORM: only the guard keeps the sweep
        # from dividing by zero (a RuntimeWarning, an error under this suite's filter).
        rng = np.random.default_rng([6, 3])
        arr = 1e-162 * rng.standard_normal((3, 3, 3))
        X0, Y0 = rng.standard_normal((50, 3)), rng.standard_normal((50, 3))
        cfg = SearchConfig(max_iter=200)
        got, want = _als_batch(arr, X0, Y0, cfg), ref_als_batch(arr, X0, Y0, cfg)
        assert all(got[key].tobytes() == want[key].tobytes() for key in ("X", "Y", "Z", "ok", "merged", "reasons"))

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
        block = max(2, spectra._CONTRACT_BLOCK // (n1 * n2 if mode == 0 else n2 * n3))
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
        # Against one triple (as _orbit_mates), and row against row (as _finish).
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
        assert _orbit_mates(tau, *P, 0, np.arange(1, 4), SearchConfig()).tolist() == [False] * 3
