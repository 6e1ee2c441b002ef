"""The batched internals of the search: contraction kernel, alternating
sweep, Newton corrector, start set, row-wise canonicalization and the
sign-orbit merge, each against its one-at-a-time definition."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bilop import (
    FailureReason,
    SchmidtStatus,
    SearchConfig,
    SingularTriple,
    Tensor3,
    canonicalize,
    enumerate_triples,
    gallery,
    operator_norm,
    schmidt_decompose,
    spectra,
    tensor_core,
)
from bilop.oracle import _sign_pattern_lattice, exhaustive_small_spectrum
from bilop.spectra import (
    _ORBIT_SIGNS,
    _aligned_z,
    _als_batch,
    _alternating_stage,
    _canonical_rows,
    _factor_slices,
    _jacobian_buffers,
    _jacobian_layout,
    _listing,
    _newton_a1,
    _newton_batch,
    _random_starts,
    _residuals,
    _row_norms,
    _solve_rows,
    _stacked,
    _standard_starts,
    _tie_groups,
)
from bilop.tensor_core import _contract

#: The einsum definition of each contraction mode, and the factor modes of
#: its (U, V) operands.
EINSUM = {2: "ijk,si,sj->sk", 0: "ijk,sj,sk->si", 1: "ijk,si,sk->sj"}
OPERANDS = {2: (0, 1), 0: (1, 2), 1: (0, 2)}
SHAPES = [(4, 4, 4), (5, 5, 5), (2, 3, 4), (4, 8, 6), (1, 3, 2), (7, 1, 5)]


def operands(shape, mode, rows, seed):
    rng = np.random.default_rng([seed, mode, *shape])
    arr = rng.standard_normal(shape)
    U, V = (rng.standard_normal((rows, shape[m])) for m in OPERANDS[mode])
    return arr, U, V


class TestContract:
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_matches_the_einsum_definition(self, shape, mode):
        arr, U, V = operands(shape, mode, 37, seed=1)
        got = _contract(arr, mode, U, V)
        want = np.einsum(EINSUM[mode], arr, U, V)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_rows_do_not_depend_on_the_batch(self, shape, mode, monkeypatch):
        arr, U, V = operands(shape, mode, 37, seed=2)
        full = _contract(arr, mode, U, V)
        for s in (0, 17, 36):
            assert np.array_equal(_contract(arr, mode, U[s : s + 1], V[s : s + 1])[0], full[s])
        subset = np.random.default_rng(3).random(37) < 0.5
        assert np.array_equal(_contract(arr, mode, U[subset], V[subset]), full[subset])
        # Blocks of three rows: 37 rows end in a one-row block.
        n1, n2, n3 = shape
        width = n1 * n2 if mode == 0 else n2 * n3
        monkeypatch.setattr(tensor_core, "_CONTRACT_BLOCK", 3 * width)
        assert np.array_equal(_contract(arr, mode, U, V), full)

    def test_empty_batch(self):
        arr, U, V = operands((3, 4, 5), 1, 0, seed=4)
        assert _contract(arr, 1, U, V).shape == (0, 4)


class TestAlsBatch:
    def test_only_zero_contractions_die(self, diag_pair):
        # Basis-pair starts (e_i, f_j) in row order (0,0), (0,1), (1,0), ...;
        # T(e_i, f_j) vanishes for all but (0,0) and (1,1).
        X = np.repeat(np.eye(3), 2, axis=0)
        Y = np.tile(np.eye(2), (3, 1))
        res = _als_batch(diag_pair.array, X, Y, SearchConfig())
        assert res["ok"].tolist() == [True, False, False, True, False, False]
        assert res["reasons"][~res["ok"]].tolist() == ["zero contraction"] * 4


def als_sweeps(monkeypatch) -> list:
    """Patch spectra so each _als_batch run appends its sweep count: its T(x, y) contractions before _finish."""
    sweeps, looping = [], [False]
    als, contract, finish = spectra._als_batch, spectra._contract, spectra._finish

    def spy_als(*args, **kwargs):
        sweeps.append(0)
        looping[0] = True
        return als(*args, **kwargs)

    def spy_contract(arr, mode, U, V):
        if looping[0] and mode == 2:
            sweeps[-1] += 1
        return contract(arr, mode, U, V)

    def spy_finish(*args):
        looping[0] = False
        return finish(*args)

    for name, spy in (("_als_batch", spy_als), ("_contract", spy_contract), ("_finish", spy_finish)):
        monkeypatch.setattr(spectra, name, spy)
    return sweeps


#: schmidt-planted's fixed 8^3 failure input: its slowest ALS row runs 251 sweeps without the handoff.
GAUSS_8_FAILURE = Tensor3.from_array(np.random.default_rng([0, 4]).standard_normal((8, 8, 8)))


class TestAlsHandoff:
    def test_rows_still_iterating_at_the_handoff_go_to_newton(self, monkeypatch):
        cfg = SearchConfig()
        sweeps = als_sweeps(monkeypatch)
        norm = operator_norm(GAUSS_8_FAILURE, cfg)
        rep, report = schmidt_decompose(GAUSS_8_FAILURE, cfg)
        assert sweeps == [spectra._ALS_HANDOFF + 1] == [101]  # greedy's step 1 is served the norm's stage
        assert rep.status is SchmidtStatus.FAILED
        assert (report.failure.step, report.failure.reason) == (1, FailureReason.NOT_ORDERED)
        _alternating_stage.cache_clear()
        monkeypatch.setattr(spectra, "_ALS_HANDOFF", cfg.max_iter + 1)
        assert abs(operator_norm(GAUSS_8_FAILURE, cfg)[0] - norm[0]) <= 1e-12
        assert sweeps[1] == 251
        # The same failure, and the same top tau in its diagnostics.
        assert schmidt_decompose(GAUSS_8_FAILURE, cfg)[1].failure == report.failure

    def test_the_converged_count_keeps_only_value_stops(self):
        cfg = SearchConfig(starts=16)
        X0, Y0, _ = _standard_starts(GAUSS_8_FAILURE, cfg)
        res = _als_batch(GAUSS_8_FAILURE.array, X0, Y0, cfg)
        handed = res["ok"] & ~res["stopped"]
        assert handed.any() and res["stopped"].any()
        assert _alternating_stage(GAUSS_8_FAILURE, cfg)[2] == res["stopped"].sum()

    def test_a_budget_at_the_handoff_still_runs_out(self):
        # max_iter = 100 ends the loop at index 99, one sweep before the handoff.
        X0, Y0, _ = _standard_starts(GAUSS_8_FAILURE, SearchConfig())
        for max_iter, handed in ((spectra._ALS_HANDOFF, False), (spectra._ALS_HANDOFF + 1, True)):
            res = _als_batch(GAUSS_8_FAILURE.array, X0, Y0, SearchConfig(max_iter=max_iter))
            assert bool((res["reasons"][~res["ok"]] == "max_iter exceeded").any()) is not handed
            assert bool((res["ok"] & ~res["stopped"]).any()) is handed

    def test_every_gallery_run_ends_before_the_handoff(self, monkeypatch):
        # So the handoff cannot move a gallery answer: the norm's stage, each greedy step and the lattice search.
        sweeps = als_sweeps(monkeypatch)
        for seed in range(11):
            cfg = SearchConfig(seed=seed)
            for name in ("diagonal_pair", "overlapping_slices", "orthonormal_triad", "signed_diagonal"):
                T = getattr(gallery, name)()
                operator_norm(T, cfg)
                schmidt_decompose(T, cfg)
                exhaustive_small_spectrum(T, cfg)
        # A run of k sweeps ends at loop index k - 1.
        assert max(sweeps) <= spectra._ALS_HANDOFF, f"the longest gallery ALS run takes {max(sweeps)} sweeps"


def newton_starts(shape, rows, seed):
    """Raw random starts stacked as x | y | z | tau0 with tau0 = <T(x,y), z>,
    as the search hands Newton."""
    rng = np.random.default_rng([seed, *shape])
    arr = rng.standard_normal(shape)
    X, Y, Z = (rng.standard_normal((rows, n)) for n in shape)
    X, Y, Z = (M / np.linalg.norm(M, axis=1)[:, None] for M in (X, Y, Z))
    tau0 = np.einsum("ijk,si,sj,sk->s", arr, X, Y, Z)
    return arr, np.column_stack([X, Y, Z, tau0])


def same_rows(got, want, rows=slice(None)):
    return all(np.array_equal(g, w[rows], equal_nan=True) for g, w in zip(got, want))


class TestNewtonBatch:
    @pytest.mark.parametrize("shape", [(3, 3, 3), (3, 4, 5), (2, 5, 3)])
    def test_rows_do_not_depend_on_the_batch(self, shape, monkeypatch):
        arr, V0 = newton_starts(shape, 37, seed=5)
        full = _newton_batch(arr, V0)
        assert full[1].any() and not full[1].all()
        for s in (0, 17, 36):
            one = slice(s, s + 1)
            assert same_rows(_newton_batch(arr, V0[one]), full, one)
        subset = np.random.default_rng(6).random(37) < 0.5
        part = _newton_batch(arr, V0[subset])
        assert same_rows(part, full, subset)
        # Blocks of three rows: 37 rows end in a one-row block.
        m = sum(shape) + 1
        monkeypatch.setattr(spectra, "_NEWTON_BLOCK", 3 * m * m)
        assert same_rows(_newton_batch(arr, V0), full)

    def test_empty_batch(self):
        arr, V0 = newton_starts((3, 4, 5), 0, seed=7)
        V, ok = _newton_batch(arr, V0)
        assert V.shape == (0, 13) and ok.shape == (0,)

    def test_post_pass_flips_negative_roots_and_drops_off_sphere_ones(self, diag_pair):
        # Row 0: the tau = 3 triple with y and tau negated, a root already.
        # Row 1: tau = 0 with x = e_2, y = (0, 2), z = e_3 is a root of F
        # (T vanishes on it, and F only pins |x|), but y is off the sphere.
        x, y, z = np.eye(3)[1], np.eye(2)[1], np.eye(4)[1]
        V0 = np.array([np.r_[x, -y, z, -3.0], np.r_[np.eye(3)[2], 0.0, 2.0, np.eye(4)[3], 0.0]])
        V, ok = _newton_batch(diag_pair.array, V0)
        assert ok.tolist() == [True, False]
        assert np.array_equal(V[0], np.r_[x, y, z, 3.0])

    def test_a_row_collapsing_onto_tau_zero_stops_within_a_few_steps(self, monkeypatch):
        # Unit x with y = z = 1e-3 * unit and tau = 0 sits next to the tau = 0
        # component (x, 0, 0, 0); without the collapse exit it steps 12 times.
        arr = np.random.default_rng([8, 4]).standard_normal((4, 4, 4))
        u = np.full(4, 0.5)
        step, alive = spectra._newton_step, []

        def counted(*args):
            rows = step(*args)
            alive.append(bool(rows.size))  # the one row steps on
            return rows

        monkeypatch.setattr(spectra, "_newton_step", counted)
        V, ok = _newton_batch(arr, np.r_[u, 1e-3 * u, 1e-3 * u, 0.0][None])
        assert not ok[0] and alive[-1] is False and len(alive) <= 5

    def test_a_start_near_a_root_converges_to_it_as_without_the_collapse_exit(self, monkeypatch):
        T = Tensor3.from_array(np.random.default_rng([8, 4]).standard_normal((4, 4, 4)))
        roots = np.array([np.r_[t.x, t.y, t.z, t.tau] for t in enumerate_triples(T).triples])
        noise = np.random.default_rng(10).standard_normal(roots.shape)
        V0 = roots + 1e-6 * noise / np.linalg.norm(noise, axis=1)[:, None]
        got = _newton_batch(T.array, V0)
        assert got[1].all()
        np.testing.assert_allclose(got[0], roots, rtol=0, atol=1e-9)
        monkeypatch.setattr(spectra, "_NEWTON_COLLAPSED", 0.0)
        assert same_rows(_newton_batch(T.array, V0), got)

    def test_a_row_diverging_past_1e154_warns_nothing(self):
        # |x| = 1e-160 makes the last Jacobian row tiny, so the first step
        # lands near 1e160, where squaring an entry overflows.
        arr = np.random.default_rng(3).standard_normal((3, 3, 3))
        V0 = np.r_[1e-160, 0.0, 0.0, np.eye(3)[1], np.eye(3)[2], 1.0][None]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            V, ok = _newton_batch(arr, V0)
        assert not ok[0] and np.abs(V[0, 3:9]).max() > 1e154


class TestNewtonA1:
    #: The benchmark's dims, then the gallery's.
    SHAPES = [(4, 4, 4), (5, 5, 5), (6, 6, 6), (4, 8, 6), (8, 8, 8), (12, 12, 12), (6, 10, 8), (3, 2, 4), (3, 3, 3)]

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("rows", [1, 2, 37, 272])
    def test_equals_the_einsum_in_values_and_strides(self, shape, rows):
        rng = np.random.default_rng([9, rows, *shape])
        arr = rng.standard_normal(shape)
        x, y, z = (rng.standard_normal((rows, n)) for n in shape)
        want = np.einsum("ijk,sj->ski", arr, y)
        got = _newton_a1(np.ascontiguousarray(arr.transpose(1, 0, 2)), y)
        assert got.shape == want.shape and got.strides == want.strides
        assert np.array_equal(got, want)
        # F's einsums read A1 through its strides; their bits must not move either.
        for spec, M in (("ski,si->sk", x), ("ski,sk->si", z)):
            assert np.array_equal(np.einsum(spec, got, M), np.einsum(spec, want, M))


def reference_jacobian(A1, A2, A3, x, y, z, t):
    """The Newton Jacobians by slice assembly, one block of J at a time."""
    k, n3, n1 = A1.shape
    n2 = A2.shape[2]
    m = n1 + n2 + n3 + 1
    sl_x, sl_y, sl_z = slice(0, n1), slice(n1, n1 + n2), slice(n1 + n2, m - 1)
    r_f1, r_f2, r_f3 = slice(0, n3), slice(n3, n3 + n1), slice(n3 + n1, m - 1)
    tg = t[:, None, None]
    minus_t = lambda n: np.where(np.eye(n, dtype=bool), -tg, 0.0)  # noqa: E731  -tau I with plain +0.0 off its diagonal
    J = np.zeros((k, m, m))
    J[:, r_f1, sl_x] = A1
    J[:, r_f1, sl_y] = A2
    J[:, r_f1, sl_z] = minus_t(n3)
    J[:, r_f1, -1] = -z
    J[:, r_f2, sl_x] = minus_t(n1)
    J[:, r_f2, sl_y] = A3
    J[:, r_f2, sl_z] = np.transpose(A1, (0, 2, 1))
    J[:, r_f2, -1] = -x
    J[:, r_f3, sl_x] = np.transpose(A3, (0, 2, 1))
    J[:, r_f3, sl_y] = minus_t(n2)
    J[:, r_f3, sl_z] = np.transpose(A2, (0, 2, 1))
    J[:, r_f3, -1] = -y
    J[:, -1, sl_x] = x
    return J


class TestJacobians:
    @staticmethod
    def step_jacobians(arr, V, idx, monkeypatch, tangent=False):
        """The Jacobians one _newton_step hands _solve_rows for rows idx of V (with tangent, the bordered ones),
        gathered through a batch's buffers of idx.size + 5 rows whose source block (but its constant 0.0) and
        J's memory hold stale NaNs."""
        bufs = _jacobian_buffers(arr.shape, idx.size + 5)
        bufs[0][:], bufs[1][:, :-1] = np.nan, np.nan
        lim = np.r_[np.full(V.shape[1] - 1, spectra._NEWTON_DIVERGED), np.finfo(float).max]
        seen = []

        def solve(J, rhs):
            seen.append(J.copy())
            return np.zeros_like(rhs), np.zeros(rhs.shape[0], dtype=bool)

        with monkeypatch.context() as m:
            m.setattr(spectra, "_solve_rows", solve)
            batch = (np.ascontiguousarray(arr.transpose(1, 0, 2)), bufs, lim)
            spectra._newton_step(arr, V.copy(), idx, np.zeros(V.shape[0], dtype=bool), batch, tangent)
        return seen[0]

    @pytest.mark.parametrize("shape", [(2, 3, 4), (4, 4, 4), (4, 8, 6)])
    def test_gather_equals_the_slice_assembly_byte_for_byte(self, shape, monkeypatch):
        rng = np.random.default_rng([9, *shape])
        arr = rng.standard_normal(shape)
        # Random rows, then basis-vector rows whose A blocks, -x, -y and -z
        # hold exact (signed) zeros; each with tau > 0, tau < 0 and tau = 0.
        X, Y, Z = (rng.standard_normal((3, n)) for n in shape)
        X, Y, Z = (np.vstack([M, np.eye(n)[np.arange(3) % n]]) for M, n in zip((X, Y, Z), shape))
        X, Y, Z = (np.tile(M, (3, 1)) for M in (X, Y, Z))
        t = np.repeat([1.5, -0.75, 0.0], 6)
        A1 = np.einsum("ijk,sj->ski", arr, Y)
        A2 = np.einsum("ijk,si->skj", arr, X)
        A3 = np.einsum("ijk,sk->sij", arr, Z)
        want = reference_jacobian(A1, A2, A3, X, Y, Z, t)
        assert (np.signbit(want) & (want == 0)).any()  # -0.0 entries are in play
        # The Newton step's gathers: all rows into the leading rows of a
        # larger buffer holding stale NaNs, or a random subset of the rows.
        V = np.column_stack([X, Y, Z, t])
        assert self.step_jacobians(arr, V, np.arange(t.size), monkeypatch).tobytes() == want.tobytes()
        rows = rng.random(t.size) < 0.5
        assert self.step_jacobians(arr, V, np.flatnonzero(rows), monkeypatch).tobytes() == want[rows].tobytes()
        # Converged rows among them (a root, at rows 0, 7 and 17): only the others' Jacobians are gathered.
        root = enumerate_triples(Tensor3.from_array(arr)).triples[0]
        W = V.copy()
        W[[0, 7, 17]] = np.r_[root.x, root.y, root.z, root.tau]
        got = self.step_jacobians(arr, W, np.arange(t.size), monkeypatch)
        assert got.tobytes() == np.delete(want, [0, 7, 17], axis=0).tobytes()


    @pytest.mark.parametrize("shape", [(3, 2, 4), (4, 4, 4), (4, 8, 6)])
    def test_tangent_gather_equals_the_dense_bordered_hessian_byte_for_byte(self, shape, monkeypatch):
        rng = np.random.default_rng([25, *shape])
        arr = rng.standard_normal(shape)
        X, Y, Z = (rng.standard_normal((4, n)) for n in shape)
        X, Y, Z = (np.vstack([M, np.eye(n)[np.arange(2) % n]]) for M, n in zip((X, Y, Z), shape))
        t = np.r_[1.5, -0.75, 0.0, 2.0, 0.5, -1.0]
        want = dense_bordered(arr, X, Y, Z, t)
        V = np.column_stack([X, Y, Z, t])
        assert self.step_jacobians(arr, V, np.arange(t.size), monkeypatch, tangent=True).tobytes() == want.tobytes()
        rows = np.array([1, 4, 5])
        assert self.step_jacobians(arr, V, rows, monkeypatch, tangent=True).tobytes() == want[rows].tobytes()


def dense_bordered(arr, X, Y, Z, t):
    """[[Hess - tau I, B], [B^T, 0]] per row, densely: Hess is the Euclidean Hessian of <T(x,y), z> in x|y|z
    order and B = blockdiag(x, y, z). The tangent step reads its rows of Hess - tau I and B in F's order (z's,
    then x's, then y's equations), and B and B^T negated (from -v)."""
    k, (n1, n2, n3) = t.size, arr.shape
    n = n1 + n2 + n3
    sx, sy, sz = _factor_slices(arr.shape)
    # The off-diagonal blocks, each as the einsum the step's A1, A2 and A3 equal bit for bit.
    Hxy = np.einsum("ijk,sk->sij", arr, Z)
    Hxz = np.einsum("ijk,sj->ski", arr, Y).transpose(0, 2, 1)
    Hyz = np.einsum("ijk,si->skj", arr, X).transpose(0, 2, 1)
    H = np.zeros((k, n, n))
    for (a, b), M in (((sx, sy), Hxy), ((sx, sz), Hxz), ((sy, sz), Hyz)):
        H[:, a, b], H[:, b, a] = M, M.transpose(0, 2, 1)
    H[:, np.arange(n), np.arange(n)] = -t[:, None]
    B = np.zeros((k, n, 3))
    for c, (cols, M) in enumerate(zip((sx, sy, sz), (X, Y, Z))):
        B[:, cols, c] = -M
    order = np.r_[np.arange(n)[sz], np.arange(n)[sx], np.arange(n)[sy]]
    W = np.zeros((k, n + 3, n + 3))
    W[:, :n, :n], W[:, :n, n:], W[:, n:, :n] = H[:, order], B[:, order], B.transpose(0, 2, 1)
    return W


class TestJacobianLayout:
    SHAPES = [(2, 3, 4), (4, 4, 4), (4, 8, 6)]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_cached_map_equals_a_fresh_build(self, shape):
        (got, tangent, *layout), fresh = _jacobian_layout(shape), _jacobian_layout.__wrapped__(shape)
        for M, want, m in ((got, fresh[0], sum(shape) + 1), (tangent, fresh[1], sum(shape) + 3)):
            assert M.dtype == want.dtype and M.shape == want.shape == (m, m) and M.tobytes() == want.tobytes()
        assert layout == list(fresh[2:])
        square, bordered = _jacobian_buffers(shape, 3)[3]
        assert square is got and bordered is tangent

    @pytest.mark.parametrize("which", [0, 1], ids=["square", "tangent"])
    def test_map_cannot_be_written(self, which):
        M = _jacobian_layout((3, 3, 3))[which]
        assert not M.flags.writeable
        with pytest.raises(ValueError):
            M[0, 0] = 0

    def test_built_once_per_shape(self):
        _jacobian_layout.cache_clear()
        for shape in self.SHAPES:
            arr, V0 = newton_starts(shape, 40, seed=5)
            for rows in (slice(None), slice(0, 5), slice(5, 40)):
                _newton_batch(arr, V0[rows])
        info = _jacobian_layout.cache_info()
        assert (info.misses, info.currsize) == (len(self.SHAPES), len(self.SHAPES))


def lapack_calls(monkeypatch):
    """Count the calls of np.linalg.solve and np.linalg.slogdet, the solve's LAPACK passes."""
    calls = []
    for name in ("solve", "slogdet"):
        def counted(*args, _f=getattr(np.linalg, name), _name=name):
            calls.append(_name)
            return _f(*args)
        monkeypatch.setattr(np.linalg, name, counted)
    return calls


class TestSolveRows:
    @staticmethod
    def planted_block(planted, rows=13):
        rng = np.random.default_rng([11, *planted])
        J = rng.standard_normal((rows, 6, 6))
        rhs = rng.standard_normal((rows, 6))
        # A zero column and a zero row: gesv meets an exact zero pivot.
        for r, cut in zip(planted, (np.s_[:, 2], np.s_[4])):
            J[r][cut] = 0.0
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.solve(J[r], rhs[r])
        return J, rhs

    @staticmethod
    def assert_row_solves(J, rhs, want_singular, monkeypatch):
        calls = lapack_calls(monkeypatch)
        step, singular = _solve_rows(J, rhs)
        # The batched solve first; only a block holding a singular row makes the other two passes.
        assert calls[0] == "solve" and len(calls) <= (3 if want_singular else 1)
        monkeypatch.undo()
        assert np.flatnonzero(singular).tolist() == sorted(want_singular)
        for r in range(rhs.shape[0]):
            want = np.zeros(6) if singular[r] else np.linalg.solve(J[r], rhs[r])
            assert step[r].tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "planted, rows", [((), 13), ((0, 9), 13), ((3, 4), 13), ((5, 12), 13), ((12, 11), 13), ((0, 12), 13), ((0, 1), 2)]
    )
    def test_nonsingular_rows_equal_the_row_solve_and_singular_rows_are_masked(self, planted, rows, monkeypatch):
        self.assert_row_solves(*self.planted_block(planted, rows), planted, monkeypatch)

    def test_tiny_nonzero_pivots_are_solved_not_masked(self, monkeypatch):
        J, rhs = self.planted_block((7,))
        # Two columns scaled to 1e-200: getrf's pivots stay nonzero and gesv
        # solves the row, though its determinant underflows to 0.
        J[3][:, [1, 5]] *= 1e-200
        assert np.linalg.det(J[3]) == 0.0 and np.linalg.slogdet(J[3])[0] != 0
        assert np.isfinite(np.linalg.solve(J[3], rhs[3])).all()
        self.assert_row_solves(J, rhs, (7,), monkeypatch)

    def test_the_fallback_warns_of_nothing(self):
        # This operator's Newton blocks hold singular rows, and rows whose LU
        # has a zero on its diagonal though getrf reports no zero pivot, so
        # that slogdet's log|det| is -inf while its sign is not 0.
        T = Tensor3.from_array(1e6 * np.random.default_rng(1).standard_normal((4, 4, 4)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert enumerate_triples(T).triples


class TestRowNorms:
    @pytest.mark.parametrize("shape", [(7, 5), (3, 6, 4)])
    def test_bit_equal_to_numpy_norm(self, shape):
        rng = np.random.default_rng([10, *shape])
        M = rng.standard_normal(shape)
        M[..., 0, :] = 0.0  # zero rows
        M[..., 1, :] *= 1e-200  # squares underflow to 0
        M[..., 2, :] *= 1e150  # squares near 1e300
        M[..., 3, :] = np.resize([1e150, -1e-200], shape[-1])
        M[..., 4, :] *= 1e160  # squares overflow
        with np.errstate(over="ignore"):
            got, want = _row_norms(M), np.linalg.norm(M, axis=-1)
        assert got.tobytes() == want.tobytes()
        assert (got[..., :2] == 0).all() and (got[..., 2:4] > 1e149).all() and np.isinf(got[..., 4]).all()


def reference_tie_order(tau, X, Y, cfg):
    """The sequential grouping: walk tau descending (stable), close a group at
    every gap above dedup_tol * (1 + the larger tau), sort each group by (x, y)."""
    by_tau = sorted(range(tau.size), key=lambda i: -tau[i])
    out, group = [], []
    for i in by_tau:
        if group and tau[group[-1]] - tau[i] > cfg.dedup_tol * (1.0 + tau[group[-1]]):
            out += sorted(group, key=lambda j: (tuple(X[j]), tuple(Y[j])))
            group = []
        group.append(i)
    return out + sorted(group, key=lambda j: (tuple(X[j]), tuple(Y[j])))


#: Near 1 a group closes at gaps above dedup_tol * (1 + the larger tau),
#: about 2e-6, so steps of 1.5e-6 chain one group across 4.5e-6. Above 1 the
#: threshold is 2.0000020000020e-6 away: a gap of 2.0000015e-6 stays in the
#: group (the threshold at the lower tau, 2e-6, closed it) and one of
#: 2.0000025e-6 closes it. Near 2 the threshold is 3e-6, the two 3e-6 steps
#: sit at it and the 7e-6 step lies above it.
TIE_TAUS = [
    *(1.0 + d for d in (0.0, 1.5e-6, 2.0000015e-6, 2.0000025e-6, 3e-6, 4.5e-6)),
    *(2.0 + d for d in (0.0, 3e-6, 6e-6, 1.3e-5)),
]


def reference_listing(tau, X, Y, Z, cfg):
    """The sequential merge over all rows, then the sequential grouping of the rows it kept."""
    cands = [SingularTriple(float(t), x, y, z, (0.0, 0.0, 0.0)) for t, x, y, z in zip(tau, X, Y, Z)]
    kept = np.array(reference_dedup(cands, cfg), dtype=np.intp)
    return kept[reference_tie_order(tau[kept], X[kept], Y[kept], cfg)].tolist()


class TestTieOrder:
    @settings(max_examples=200, deadline=None)
    @example(0, 3, 2, 1, [1.0] * 16, [0.0] * 144)  # empty input
    @given(
        st.integers(0, 16),
        st.integers(1, 3),
        st.integers(1, 3),
        st.integers(1, 3),
        st.lists(st.sampled_from(TIE_TAUS), min_size=16, max_size=16),
        st.lists(st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0]), min_size=144, max_size=144),
    )
    def test_equals_the_sequential_merge_and_grouping(self, rows, n1, n2, n3, taus, entries):
        # Few distinct entries, with -0.0 next to 0.0, make exact ties in x and y, and repeated orbits.
        cfg = SearchConfig()
        tau = np.array(taus[:rows])
        E = np.array(entries).reshape(16, 9)
        X, Y, Z = E[:rows, :n1], E[:rows, 3 : 3 + n2], E[:rows, 6 : 6 + n3]
        assert _listing(tau, X, Y, Z, cfg).tolist() == reference_listing(tau, X, Y, Z, cfg)

    def test_a_gap_at_the_larger_taus_width_is_a_tie(self):
        # tol * (1 + 3) is exactly 2, so a gap of 2 is tied (the lower tau's width, 1, would split it); one ulp
        # above 3, the width still rounds to 2 and the gap is one ulp above it, which starts a new group.
        assert _tie_groups(np.array([3.0, 1.0]), 0.5).tolist() == [0, 0]
        top = np.nextafter(3.0, 4.0)
        assert 0.5 * (1.0 + top) == 2.0 and top - 1.0 == np.nextafter(2.0, 3.0)
        assert _tie_groups(np.array([top, 1.0]), 0.5).tolist() == [0, 1]
        assert _tie_groups(np.array([5.0, top, 1.0, 1.0, 0.5]), 0.5).tolist() == [0, 0, 1, 1, 1]
        assert _tie_groups(np.array([]), 0.5).tolist() == []


def same_triples(got, want):
    assert len(got) == len(want) > 0
    for a, b in zip(got, want):
        assert a.tau == b.tau and a.residuals == b.residuals
        assert all(np.array_equal(getattr(a, f), getattr(b, f)) for f in "xyz")


class TestSearchBlockBudget:
    TENSORS = pytest.mark.parametrize(
        "T",
        [
            Tensor3.from_array(np.random.default_rng([8, 4]).standard_normal((4, 4, 4))),
            gallery.orthonormal_triad(),
            gallery.diagonal_pair(),  # many singular Jacobians: the slogdet fallback solve
            gallery.signed_diagonal(),  # the same
        ],
        ids=["gaussian-4", "orthonormal_triad", "diagonal_pair", "signed_diagonal"],
    )

    @TENSORS
    def test_triples_do_not_depend_on_the_block_budget(self, T, monkeypatch):
        want = enumerate_triples(T).triples
        # Newton blocks of 3 rows, contraction blocks of a few dozen rows.
        m2 = (sum(T.dims) + 1) ** 2
        monkeypatch.setattr(tensor_core, "_CONTRACT_BLOCK", 3 * m2)
        monkeypatch.setattr(spectra, "_NEWTON_BLOCK", 3 * m2)
        _alternating_stage.cache_clear()  # recompute the stage under the patched budgets
        same_triples(enumerate_triples(T).triples, want)

    @TENSORS
    @pytest.mark.parametrize(
        "newton_block",
        [lambda m2: spectra._NEWTON_BLOCK, lambda m2: 1 << 22],
        ids=["newton-default", "newton-2^22"],
    )
    def test_triples_do_not_depend_on_the_newton_budget(self, T, newton_block, monkeypatch):
        want = enumerate_triples(T).triples
        # Contraction blocks of a few dozen rows; Newton blocks of the default
        # budget or of 2^22 Jacobian entries.
        m2 = (sum(T.dims) + 1) ** 2
        monkeypatch.setattr(tensor_core, "_CONTRACT_BLOCK", 3 * m2)
        monkeypatch.setattr(spectra, "_NEWTON_BLOCK", newton_block(m2))
        _alternating_stage.cache_clear()  # recompute the stage under the patched budgets
        same_triples(enumerate_triples(T).triples, want)


GAUSS_4 = Tensor3.from_array(np.random.default_rng([8, 5]).standard_normal((4, 4, 4)))
SEARCHES = {
    "norm": lambda: [operator_norm(GAUSS_4)[1]],
    "spectrum": lambda: enumerate_triples(GAUSS_4).triples,
    "schmidt": lambda: [step.triple for step in schmidt_decompose(gallery.orthonormal_triad())[1].steps],
}


class StartTableLog(dict):
    """A spectra._start_table that counts its reads (one per search) and its
    draws (reads that grew or replaced the table)."""

    def __init__(self):
        super().__init__()
        self.reads = self.draws = 0

    def get(self, *args):
        self.reads += 1
        return super().get(*args)

    def __setitem__(self, seed, table):
        self.draws += 1
        super().__setitem__(seed, table)

    @property
    def hits(self) -> int:
        return self.reads - self.draws


@pytest.fixture
def table_log(monkeypatch):
    log = StartTableLog()
    monkeypatch.setattr(spectra, "_start_table", log)
    return log


def memo_hits(log: StartTableLog) -> int:
    """Searches served from a memo: a whole alternating stage, or random starts read off the table."""
    return _alternating_stage.cache_info().hits + log.hits


def reference_random_starts(dims, count, seed):
    """The random block start by start: default_rng([seed, s]) normals, normalised per factor."""
    V = np.array([np.random.default_rng([seed, s]).standard_normal(sum(dims)) for s in range(count)])
    return tuple(M / np.linalg.norm(M, axis=1)[:, None] for M in (V[:, cols] for cols in _factor_slices(dims)))


class TestStartSet:
    @pytest.mark.parametrize("search", SEARCHES.values(), ids=SEARCHES.keys())
    def test_answers_do_not_depend_on_the_memo(self, search, table_log):
        cold = search()
        hits = memo_hits(table_log)
        warm = search()
        assert memo_hits(table_log) > hits
        other = Tensor3.from_array(np.random.default_rng([8, 6]).standard_normal((2, 3, 5)))
        operator_norm(other, SearchConfig(seed=7))
        same_triples(warm, cold)
        same_triples(search(), cold)

    def test_a_deflation_draws_normals_once(self, triad, table_log):
        _, report = schmidt_decompose(triad)
        # Step 1 draws the normals of every random start; steps 2 and 3 read them.
        assert (table_log.draws, table_log.hits) == (1, len(report.steps) - 1) == (1, 2)
        assert table_log[0].shape == (SearchConfig().resolved_starts(triad.dims), 9)

    def test_memoised_block_is_read_only(self):
        _random_starts((2, 3, 4), 5, 0)
        with pytest.raises(ValueError):
            spectra._start_table[0][0, 0] = 1.0

    def test_a_shorter_draw_is_the_prefix_of_a_longer_one(self):
        # The table rests on this: one row serves every narrower request.
        for seed, s in [(0, 0), (1, 5), (7919, 1023)]:
            longest = np.random.default_rng([seed, s]).standard_normal(40)
            for width in range(1, 40):
                assert np.array_equal(np.random.default_rng([seed, s]).standard_normal(width), longest[:width])

    @pytest.mark.parametrize("seed", [0, 7919])
    def test_the_table_serves_any_order_of_requests(self, seed, table_log):
        dims = [(3, 2, 4), (8, 8, 8), (4, 8, 6), (3, 2, 4)]
        counts = [16, 1024, 64, 256]
        requests = [(d, c) for c in counts for d in dims]
        # Every request again, in reverse order: the table now holds them all.
        for k, (d, count) in enumerate(requests + requests[::-1]):
            T = Tensor3.from_array(np.random.default_rng([seed, k]).standard_normal(d))
            got = [M[-count:] for M in _standard_starts(T, SearchConfig(starts=count, seed=seed))]
            for g, w in zip(got, reference_random_starts(d, count, seed)):
                assert np.array_equal(g, w)
        # 16 rows at width 9, redrawn at width 24 for 8^3, then grown to 1024 rows.
        assert table_log.draws == 3 and table_log[seed].shape == (1024, 24)

    def test_another_seed_replaces_the_table(self, table_log):
        _random_starts((3, 2, 4), 8, 0)
        got = _random_starts((3, 2, 4), 8, 1)
        assert table_log.draws == 2 and list(table_log) == [1]
        for g, w in zip(got, reference_random_starts((3, 2, 4), 8, 1)):
            assert np.array_equal(g, w)

    def test_lattice_pairs_equal_the_hand_built_set(self, diag_pair):
        cfg = SearchConfig(seed=3)
        lat_x, lat_y = _sign_pattern_lattice(3), _sign_pattern_lattice(2)
        # The oracle's start set as it was assembled by hand: every lattice
        # pair with z aligned to T(x, y), then the seeded random block.
        X0 = np.repeat(lat_x, lat_y.shape[0], axis=0)
        Y0 = np.tile(lat_y, (lat_x.shape[0], 1))
        Z0 = _aligned_z(diag_pair.array, X0, Y0)
        count = cfg.resolved_starts(diag_pair.dims)
        V = np.array([np.random.default_rng([cfg.seed, s]).standard_normal(9) for s in range(count)])
        Xr, Yr, Zr = (M / np.linalg.norm(M, axis=1)[:, None] for M in (V[:, :3], V[:, 3:5], V[:, 5:]))
        want = (np.vstack([X0, Xr]), np.vstack([Y0, Yr]), np.vstack([Z0, Zr]))
        got = _standard_starts(diag_pair, cfg, pairs=(lat_x, lat_y))
        assert got[0].shape == (13 * 4 + count, 3)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


def stage_counts() -> tuple[int, int]:
    info = _alternating_stage.cache_info()
    return info.misses, info.hits


def same_norm(got, want):
    assert got[0] == want[0]
    same_triples([got[1]], [want[1]])


class TestAlternatingStage:
    def test_one_stage_serves_a_schmidt_failure_a_norm_and_a_spectrum(self, overlap):
        # overlapping_slices leaves the SVD path and fails at greedy step 1,
        # so schmidt_decompose searches only T itself.
        rep, report = schmidt_decompose(overlap)
        assert rep.status is SchmidtStatus.FAILED and report.failure.step == len(report.steps) == 1
        assert stage_counts() == (1, 0)
        norm = operator_norm(overlap)
        assert stage_counts() == (1, 1)
        spectrum = enumerate_triples(overlap)
        assert stage_counts() == (1, 2)
        _alternating_stage.cache_clear()
        same_norm(norm, operator_norm(overlap))
        _alternating_stage.cache_clear()
        same_triples(spectrum.triples, enumerate_triples(overlap).triples)
        _alternating_stage.cache_clear()
        cold_rep, cold_report = schmidt_decompose(overlap)
        assert (cold_rep.status, cold_rep.terms) == (rep.status, ())
        assert cold_report.failure == report.failure  # its diagnostics print the top taus
        same_triples([s.triple for s in cold_report.steps], [s.triple for s in report.steps])

    def test_a_deflation_leaves_its_last_remainder(self, triad):
        _, report = schmidt_decompose(triad)
        # One search per step, each of a new remainder; the last one stays.
        assert stage_counts() == (3, 0) and len(report.steps) == 3
        assert _alternating_stage.cache_info().currsize == 1
        operator_norm(triad)
        assert stage_counts() == (4, 0)

    @pytest.mark.parametrize(
        "change",
        [{"seed": 1}, {"starts": 17}, {"max_iter": 9999}, {"iter_tol": 2e-14}],
        ids=["seed", "starts", "max_iter", "iter_tol"],
    )
    def test_a_changed_config_misses(self, change):
        operator_norm(GAUSS_4)
        operator_norm(GAUSS_4, SearchConfig(**change))
        assert stage_counts() == (2, 0)

    def test_an_equal_copy_misses_and_an_equal_config_hits(self):
        operator_norm(GAUSS_4)
        operator_norm(GAUSS_4, SearchConfig())
        assert stage_counts() == (1, 1)
        same_norm(operator_norm(Tensor3.from_array(GAUSS_4.array)), operator_norm(GAUSS_4))
        assert stage_counts() == (3, 1)

    def test_memoised_arrays_are_read_only(self):
        starts, rows, _ = _alternating_stage(GAUSS_4, SearchConfig())
        assert len(starts) == len(rows) == 3 and rows[0].shape[0] > 0
        for M in starts + rows:
            with pytest.raises(ValueError):
                M[0, 0] = 1.0

    def test_the_lattice_search_keeps_nothing(self, diag_pair):
        operator_norm(diag_pair)
        before = _alternating_stage.cache_info()
        exhaustive_small_spectrum(diag_pair)
        assert _alternating_stage.cache_info() == before
        operator_norm(diag_pair)
        assert stage_counts() == (1, 1)


class TestCanonicalRows:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 5), st.booleans())
    def test_equals_canonicalize_row_by_row(self, seed, n, ties):
        rng = np.random.default_rng(seed)
        if ties:
            # Small integers: peak magnitudes shared by entries of both signs.
            X, Y = (rng.integers(-2, 3, (12, n)).astype(float) for _ in range(2))
            for M in (X, Y):
                M[~M.any(axis=1), 0] = -1.0
        else:
            X, Y = (rng.standard_normal((12, n)) for _ in range(2))
        Z = rng.standard_normal((12, n))
        cx, cy, cz = _canonical_rows(X, Y, Z)
        for i in range(12):
            ref = canonicalize(SingularTriple(1.0, X[i], Y[i], Z[i], (0.0, 0.0, 0.0)))
            assert np.array_equal(cx[i], ref.x)
            assert np.array_equal(cy[i], ref.y)
            assert np.array_equal(cz[i], ref.z)


def same_orbit(a, b, cfg):
    """The pairwise merge test: tau within dedup_tol relatively and some
    sign variant of b within dedup_tol of a in every factor."""
    if abs(a.tau - b.tau) > cfg.dedup_tol * (1.0 + max(a.tau, b.tau)):
        return False
    best = min(
        max(
            float(np.linalg.norm(a.x - sx * b.x)),
            float(np.linalg.norm(a.y - sy * b.y)),
            float(np.linalg.norm(a.z - sz * b.z)),
        )
        for sx, sy, sz in _ORBIT_SIGNS
    )
    return best <= cfg.dedup_tol


def reference_dedup(cands, cfg):
    """Sequential merge in candidate order; the first representative wins."""
    kept = []
    for j, c in enumerate(cands):
        if not any(same_orbit(c, cands[i], cfg) for i in kept):
            kept.append(j)
    return kept


@st.composite
def candidate_sets(draw):
    """Candidates drawn around a few base triples: exact copies, sign-orbit
    copies, and copies moved by half to one and a half dedup_tol, in tau or
    in one entry of one vector."""
    cfg = SearchConfig()
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    dims = draw(st.tuples(*(st.integers(1, 4) for _ in range(3))))
    bases = []
    for _ in range(draw(st.integers(1, 4))):
        tau = draw(st.sampled_from([0.5, 1.0, 1.0 + 5e-7, 2.0]))
        bases.append([tau] + [v / np.linalg.norm(v) for v in (rng.standard_normal(n) for n in dims)])
    cands = []
    for _ in range(draw(st.integers(1, 24))):
        tau, x, y, z = bases[draw(st.integers(0, len(bases) - 1))]
        sx, sy, sz = draw(st.sampled_from(_ORBIT_SIGNS))
        vecs = [sx * x, sy * y, sz * z]
        move = draw(st.sampled_from(["none", "tau", "vector"]))
        scale = draw(st.floats(0.5, 1.5))
        if move == "tau":
            tau = tau + draw(st.sampled_from([-1.0, 1.0])) * scale * cfg.dedup_tol * (1.0 + tau)
        elif move == "vector":
            f = draw(st.integers(0, 2))
            vecs[f] = vecs[f].copy()
            vecs[f][draw(st.integers(0, dims[f] - 1))] += scale * cfg.dedup_tol
        cands.append(SingularTriple(float(tau), *vecs, (0.0, 0.0, 0.0)))
    return cands, cfg


class TestDedup:
    @settings(max_examples=200, deadline=None)
    @given(candidate_sets())
    def test_equals_the_sequential_merge(self, data):
        cands, cfg = data
        tau = np.array([c.tau for c in cands])
        X, Y, Z = (np.array([getattr(c, f) for c in cands]) for f in "xyz")
        assert _listing(tau, X, Y, Z, cfg).tolist() == reference_listing(tau, X, Y, Z, cfg)

    def test_keeps_the_first_of_each_orbit(self):
        cfg = SearchConfig()
        x, y, z = np.eye(2)[0], np.eye(3)[1], np.eye(2)[1]
        tau = np.array([1.0, 1.0, 2.0, 1.0 + 1e-9])
        X = np.array([x, -x, x, x])
        Y = np.array([y, -y, y, y])
        Z = np.array([z, z, z, z])
        assert _listing(tau, X, Y, Z, cfg).tolist() == [2, 0]

    @staticmethod
    def orbit_rows(taus, orbits):
        """Row i: taus[i] with random triple i % orbits in sign variant (i // orbits) % 4,
        as arrays and as candidates."""
        rng = np.random.default_rng(orbits)
        bases = [[v / np.linalg.norm(v) for v in (rng.standard_normal(n) for n in (3, 2, 4))] for _ in range(orbits)]
        rows = [[s * v for s, v in zip(_ORBIT_SIGNS[(i // orbits) % 4], bases[i % orbits])] for i in range(len(taus))]
        X, Y, Z = (np.array([r[f] for r in rows]) for f in range(3))
        cands = [SingularTriple(float(t), *r, (0.0, 0.0, 0.0)) for t, r in zip(taus, rows)]
        return np.array(taus), X, Y, Z, cands

    def test_no_two_taus_are_mates(self):
        # Every row is the same orbit, but no two taus lie within dedup_tol.
        cfg = SearchConfig()
        tau, X, Y, Z, cands = self.orbit_rows([1.0 + 1e-5 * i for i in range(9)], orbits=1)
        assert reference_dedup(cands, cfg) == list(range(9))
        assert _listing(tau, X, Y, Z, cfg).tolist() == reference_listing(tau, X, Y, Z, cfg) == list(range(8, -1, -1))

    def test_all_taus_are_mates(self):
        # Every tau within dedup_tol of the others: two orbits interleaved,
        # each in all four sign variants.
        cfg = SearchConfig()
        tau, X, Y, Z, cands = self.orbit_rows([1.0 + 1e-8 * i for i in range(8)], orbits=2)
        assert reference_dedup(cands, cfg) == [0, 1]
        assert sorted(_listing(tau, X, Y, Z, cfg).tolist()) == [0, 1]
        assert _listing(tau, X, Y, Z, cfg).tolist() == reference_listing(tau, X, Y, Z, cfg)

    def test_one_orbit_at_the_larger_taus_width_is_one_row(self):
        # 3 - 3.9999996e-6 lies within dedup_tol * (1 + 3) of 3 but more than dedup_tol * (1 + the lower tau)
        # below it: at the lower tau's width the two rows fell into two tie groups and both were kept.
        cfg = SearchConfig()
        tau, X, Y, Z, cands = self.orbit_rows([3.0, 3.0 - 3.9999996e-6], orbits=1)
        assert reference_dedup(cands, cfg) == [0]
        assert _listing(tau, X, Y, Z, cfg).tolist() == reference_listing(tau, X, Y, Z, cfg) == [0]


def finish_every_row(arr, X, Y, Z, ok, cfg):
    """The reference finish: Newton from every converged row not yet at its tolerance, in one batch, merging none."""
    sel = np.flatnonzero(ok)
    tau, R = _residuals(arr, X[sel], Y[sel], Z[sel])
    far = R.max(axis=1) > spectra._NEWTON_TOL * (1.0 + np.abs(tau))
    sel = sel[far]
    V, fin = _newton_batch(arr, _stacked(X[sel], Y[sel], Z[sel], tau[far]))
    for M, cols in zip((X, Y, Z), _factor_slices(arr.shape)):
        M[sel[fin]] = V[fin, cols]
    return np.zeros(ok.size, dtype=bool)


@pytest.fixture
def reference_search(monkeypatch):
    """Runs a search as it ran with finish_every_row, from a cold stage. The collapse exit stays on: without it,
    rows it stops before the tangent steps begin reach them and converge, so the search finds more orbits."""

    def run(search):
        with monkeypatch.context() as m:
            m.setattr(spectra, "_finish", finish_every_row)
            _alternating_stage.cache_clear()
            return search()

    return run


FINISH_TENSORS = {
    **{name: getattr(gallery, name)() for name in gallery.__all__},
    **{
        "gauss-{}x{}x{}".format(*dims): Tensor3.from_array(np.random.default_rng([13, *dims]).standard_normal(dims))
        for dims in [(3, 2, 4), (4, 4, 4), (4, 8, 6)]
    },
}


def newton_batches(monkeypatch, spoil=None):
    """Row counts of every _newton_batch call; spoil(V, ok) may change the first call's result in place."""
    sizes = []

    def batch(arr, V0):
        V, ok = _newton_batch(arr, V0)
        if spoil is not None and not sizes:
            spoil(V, ok)
        sizes.append(V0.shape[0])
        return V, ok

    monkeypatch.setattr(spectra, "_newton_batch", batch)
    return sizes


class TestFinish:
    @pytest.mark.parametrize("T", FINISH_TENSORS.values(), ids=FINISH_TENSORS.keys())
    @pytest.mark.parametrize("use_newton", [False, True], ids=["als", "als+newton"])
    def test_search_matches_finishing_every_row(self, T, use_newton, reference_search):
        got = spectra._search_candidates(T, SearchConfig(), use_newton)
        same_triples(got, reference_search(lambda: spectra._search_candidates(T, SearchConfig(), use_newton)))

    @pytest.mark.parametrize("name", ["diagonal_pair", "overlapping_slices", "orthonormal_triad"])
    def test_lattice_search_matches_finishing_every_row(self, name, reference_search):
        T = FINISH_TENSORS[name]
        want = reference_search(lambda: exhaustive_small_spectrum(T).triples)
        same_triples(exhaustive_small_spectrum(T).triples, want)

    @pytest.mark.parametrize(
        "spoil",
        [
            lambda V, ok: ok.fill(False),  # no lead's Newton run converges
            # Every lead root fails the residual gate, yet stays as near its mates.
            lambda V, ok: np.multiply(V[:, :4], 1 + 1e-8, out=V[:, :4]),
        ],
        ids=["newton", "gate"],
    )
    def test_the_mates_of_a_failed_lead_are_finished(self, spoil, monkeypatch):
        T, cfg = FINISH_TENSORS["gauss-4x4x4"], SearchConfig()
        X0, Y0, _ = _standard_starts(T, cfg)
        clean = newton_batches(monkeypatch)
        merged = _als_batch(T.array, X0, Y0, cfg)["merged"]
        spoiled = newton_batches(monkeypatch, spoil)
        assert not _als_batch(T.array, X0, Y0, cfg)["merged"].any()
        # Leads first, then every other row: the merged ones are finished too.
        assert len(clean) == len(spoiled) == 2 and spoiled[0] == clean[0]
        assert spoiled[1] == clean[1] + merged.sum() > clean[1]

    def test_equal_tau_orbits_of_one_group_all_survive(self, diag_pair):
        # The four saddle orbits of tau = 6/sqrt(13), each twice, 1e-8 off:
        # one group, whose lead merges only its own twin.
        cfg = SearchConfig()
        saddles = [t for t in enumerate_triples(diag_pair).triples if abs(t.tau - 6 / np.sqrt(13)) < 1e-9]
        assert len(saddles) == 4
        rng = np.random.default_rng(11)
        X, Y, Z = (
            np.array([v + 1e-8 * rng.standard_normal(v.size) for t in saddles for v in [getattr(t, f)] * 2])
            for f in "xyz"
        )
        X, Y, Z = (M / np.linalg.norm(M, axis=1)[:, None] for M in (X, Y, Z))
        merged = spectra._finish(diag_pair.array, X, Y, Z, np.ones(8, dtype=bool), cfg)
        assert merged.tolist() == [False, True] + [False] * 6
        tau, R = _residuals(diag_pair.array, X, Y, Z)
        assert (R[~merged].max(axis=1) <= cfg.residual_tol).all()
        assert _listing(tau[~merged], *_canonical_rows(X[~merged], Y[~merged], Z[~merged]), cfg).size == 4
