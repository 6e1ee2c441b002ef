"""Deflation, representation checks, reconstruction, energy identity."""

import dataclasses
import itertools
import re

import numpy as np
import pytest

from bilop import (
    DeflationFailure,
    FailureReason,
    gallery,
    SchmidtRepresentation,
    SchmidtStatus,
    SchmidtTerm,
    SearchConfig,
    SingularTriple,
    Tensor3,
    apply,
    from_schmidt,
    hs_norm,
    is_ordered,
    reconstruct,
    schmidt_decompose,
    schmidt_sum_sq,
    schur_from_schmidt,
    verify_representation,
    verify_schur,
    verify_triple,
)
from bilop import schmidt
from bilop._stream import start_normals
from bilop.schmidt import _deflate, _greedy, _svd_block
from bilop.spectra import _alternating_stage
from conftest import legendre_kernel, sub_gate_tail, tied_cubic, tied_odeco


def orbit_matches(got, want, atol):
    """True when two (x, y, z) triples agree up to the sign orbit."""
    gx, gy, gz = (np.asarray(v, dtype=float) for v in got)
    for sx, sy in ((1, 1), (-1, -1), (-1, 1), (1, -1)):
        wx = sx * np.asarray(want[0], dtype=float)
        wy = sy * np.asarray(want[1], dtype=float)
        wz = sx * sy * np.asarray(want[2], dtype=float)
        if (
            np.allclose(gx, wx, atol=atol)
            and np.allclose(gy, wy, atol=atol)
            and np.allclose(gz, wz, atol=atol)
        ):
            return True
    return False


@pytest.fixture(scope="module")
def diag_pair_rep(diag_pair, deep_cfg):
    return schmidt_decompose(diag_pair, deep_cfg)


@pytest.fixture(scope="module")
def overlap_rep(overlap, deep_cfg):
    return schmidt_decompose(overlap, deep_cfg)


@pytest.fixture(scope="module")
def triad_rep(triad, deep_cfg):
    return schmidt_decompose(triad, deep_cfg)


class TestDecomposeDiagPair:
    def test_complete_with_the_known_terms(self, diag_pair_rep):
        rep, _ = diag_pair_rep
        assert rep.status is SchmidtStatus.COMPLETE
        assert len(rep.terms) == 2
        first, second = rep.terms
        assert first.tau == pytest.approx(3.0, abs=1e-10)
        assert second.tau == pytest.approx(2.0, abs=1e-10)
        assert orbit_matches(
            (first.x, first.y, first.z),
            ([0, 1, 0], [0, 1], [0, 1, 0, 0]),
            atol=1e-8,
        )
        assert orbit_matches(
            (second.x, second.y, second.z),
            ([1, 0, 0], [1, 0], [1, 0, 0, 0]),
            atol=1e-8,
        )

    def test_reconstruction_residual_is_tiny(self, diag_pair_rep):
        rep, _ = diag_pair_rep
        assert rep.reconstruction_residual <= 1e-10

    def test_energy_identity(self, diag_pair, diag_pair_rep):
        rep, _ = diag_pair_rep
        assert schmidt_sum_sq(rep) == pytest.approx(13.0, abs=1e-9)
        assert schmidt_sum_sq(rep) == pytest.approx(hs_norm(diag_pair) ** 2, abs=1e-9)

    def test_remainder_norm_decreases_strictly(self, diag_pair_rep):
        _, report = diag_pair_rep
        norms = [s.remaining_hs for s in report.steps]
        assert all(a > b for a, b in zip(norms, norms[1:]))

    def test_steps_record_transfer_residuals(self, diag_pair_rep):
        _, report = diag_pair_rep
        for step in report.steps:
            assert max(step.transfer_residuals) <= 1e-9


class TestDecomposeOverlap:
    def test_fails_not_ordered_at_step_one(self, overlap_rep):
        rep, report = overlap_rep
        assert rep.status is SchmidtStatus.FAILED
        assert rep.terms == ()
        assert report.failure is not None
        assert report.failure.step == 1
        assert report.failure.reason is FailureReason.NOT_ORDERED

    def test_failure_is_certified_far_from_ordered(self, overlap_rep):
        _, report = overlap_rep
        offending = report.steps[0]
        assert max(offending.slice_residuals) >= 10 * 1e-9
        assert max(offending.slice_residuals) >= 0.1

    def test_partial_step_is_kept_for_diagnosis(self, overlap_rep):
        _, report = overlap_rep
        assert len(report.steps) == 1
        assert report.steps[0].tau == pytest.approx(
            np.sqrt(2.0 + np.sqrt(2.0)), abs=1e-9
        )

    def test_failed_rep_refuses_sum_sq(self, overlap_rep):
        rep, _ = overlap_rep
        with pytest.raises(ValueError):
            schmidt_sum_sq(rep)


class TestDecomposeTriad:
    def test_complete_in_descending_order(self, triad_rep):
        rep, _ = triad_rep
        assert rep.status is SchmidtStatus.COMPLETE
        assert [round(t.tau, 9) for t in rep.terms] == [3.0, 2.0, 1.0]
        assert rep.reconstruction_residual <= 1e-9

    def test_recovers_planted_vectors(self, triad_rep):
        rep, _ = triad_rep
        s2 = 1.0 / np.sqrt(2.0)
        s3 = 1.0 / np.sqrt(3.0)
        s6 = 1.0 / np.sqrt(6.0)
        planted = {
            3.0: ([0, 0, 1], [s2, 0, -s2], [s6, s6, -2 * s6]),
            2.0: ([0, 1, 0], [0, 1, 0], [-s2, s2, 0]),
            1.0: ([1, 0, 0], [s2, 0, s2], [s3, s3, s3]),
        }
        for term in rep.terms:
            want = planted[round(term.tau, 6)]
            assert orbit_matches((term.x, term.y, term.z), want, atol=1e-6)

    def test_energy_identity(self, triad, triad_rep):
        rep, _ = triad_rep
        assert schmidt_sum_sq(rep) == pytest.approx(14.0, abs=1e-9)


class TestDecomposeEdgeCases:
    def test_zero_tensor_is_trivially_complete(self):
        T = Tensor3.from_array(np.zeros((2, 3, 2)))
        rep, report = schmidt_decompose(T)
        assert rep.status is SchmidtStatus.COMPLETE
        assert rep.terms == ()
        assert report.steps == ()
        assert schmidt_sum_sq(rep) == 0.0

    def test_no_verified_triple_fails_at_step_one(self, overlap):
        # overlapping_slices has no SVD reading, so the search decides.
        rep, report = schmidt_decompose(overlap, SearchConfig(max_iter=1))
        assert rep.status is SchmidtStatus.FAILED
        assert rep.terms == ()
        assert report.steps == ()
        assert report.failure.step == 1
        assert report.failure.reason is FailureReason.NO_TRIPLE_FOUND
        assert "residual_tol=1e-09 within max_iter=1;" in report.failure.diagnostics

    def test_a_remainder_below_the_gate_names_the_starts_it_rejected(self):
        # The remainder's hs-norm keeps the deflation going, but its top tau fails the gate's tau > residual_tol.
        rep, report = schmidt_decompose(sub_gate_tail())
        assert rep.status is SchmidtStatus.FAILED
        assert (report.failure.step, report.failure.reason) == (2, FailureReason.NO_TRIPLE_FOUND)
        assert report.failure.diagnostics == (
            "no triple verified at residual_tol=1e-09: 272 start(s) converged, but none has tau above it and "
            "residuals within it; the remainder's hs-norm is 1.02956e-09"
        )

    def test_rank_one_tensor_single_step(self):
        x = np.array([0.6, 0.8])
        y = np.array([1.0, 0.0, 0.0])
        z = np.array([0.0, 1.0])
        T = from_schmidt([(5.0, x, y, z)])
        rep, report = schmidt_decompose(T, SearchConfig(starts=16))
        assert rep.status is SchmidtStatus.COMPLETE
        assert len(rep.terms) == 1
        assert rep.terms[0].tau == pytest.approx(5.0, abs=1e-10)
        assert len(report.steps) == 1


class TestStopRule:
    """Deflation stops where verify_representation's reconstruction bound holds: at residual_tol, an absolute
    bound, so a Complete result never lacks a term its residual needs."""

    @pytest.mark.parametrize("tol, count", [(0.5, 2), (1.0, 2), (2.0, 1)])
    def test_a_complete_result_passes_its_own_reconstruction_check(self, diag_pair, tol, count):
        rep, _ = schmidt_decompose(diag_pair, SearchConfig(residual_tol=tol))
        assert rep.status is SchmidtStatus.COMPLETE
        assert [t.tau for t in rep.terms] == pytest.approx([3.0, 2.0][:count], abs=1e-12)
        assert rep.reconstruction_residual <= tol
        assert verify_representation(diag_pair, rep, tol).all_ok

    def test_the_bound_is_absolute_near_the_float_range(self):
        T = Tensor3.from_array(np.full((2, 2, 2), 1e150))
        rep, _ = schmidt_decompose(T, SearchConfig(residual_tol=1e140))
        assert len(rep.terms) == 1
        assert rep.terms[0].tau == pytest.approx(2.0 * np.sqrt(2.0) * 1e150)
        assert verify_representation(T, rep, 1e140).all_ok

    def test_the_checks_refuse_a_tolerance_below_the_rounding_floor(self):
        # A planted 4^3 cubic, weights 4, 3, 2, 1 on an orthonormal basis, scaled by 1e150: its rounding floor
        # eps/2 * hs_norm(T) is 6.08e134. Above it everything certifies; below it every check refuses, as
        # schmidt_decompose does, instead of reporting a reconstruction residual no tolerance there resolves.
        Q = np.linalg.qr(np.random.default_rng(4).standard_normal((4, 4)))[0].T
        T = Tensor3.from_array(1e150 * np.einsum("r,ri,rj,rk->ijk", [4.0, 3.0, 2.0, 1.0], Q, Q, Q))
        rep, _ = schmidt_decompose(T, SearchConfig(residual_tol=1e140))
        assert rep.status is SchmidtStatus.COMPLETE and verify_representation(T, rep, 1e140).all_ok
        schur = schur_from_schmidt(T, rep, 1e140)
        assert verify_schur(T, schur, 1e140).all_ok
        refusals = [
            lambda: schmidt_decompose(T, SearchConfig(residual_tol=1e130)),
            lambda: verify_representation(T, rep, 1e130),
            lambda: schur_from_schmidt(T, rep, 1e130),
            lambda: verify_schur(T, schur, 1e130),
        ]
        for refuse in refusals:
            with pytest.raises(ValueError, match=r"1e\+130 lies below this tensor's rounding floor 6\.08e\+134"):
                refuse()


class TestRoundTrip:
    def test_planted_representations_are_recovered(self, planted_schmidt_factory):
        cfg = SearchConfig(starts=16)
        for seed in range(10):
            T, planted = planted_schmidt_factory(seed)
            rep, report = schmidt_decompose(T, cfg)
            assert rep.status is SchmidtStatus.COMPLETE, report.failure
            assert len(rep.terms) == len(planted)
            for term, (tau, x, y, z) in zip(rep.terms, planted):
                assert term.tau == pytest.approx(tau, abs=1e-8)
                assert orbit_matches((term.x, term.y, term.z), (x, y, z), atol=1e-6)

    def test_planted_triples_are_ordered_for_the_full_tensor(
        self, planted_schmidt_factory
    ):
        T, planted = planted_schmidt_factory(3)
        for tau, x, y, z in planted:
            triple = SingularTriple(
                tau=tau, x=x, y=y, z=z, residuals=(0.0, 0.0, 0.0)
            )
            assert verify_triple(T, triple, 1e-8).verified
            assert is_ordered(T, triple, 1e-8).ordered


class TestReconstruct:
    def test_matches_apply_on_the_original(self, diag_pair, diag_pair_rep):
        rep, _ = diag_pair_rep
        x = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
        y = np.array([1.0, 1.0]) / np.sqrt(2.0)
        out = np.asarray(reconstruct(rep, x, y))
        np.testing.assert_allclose(out, [1.0, 1.5, 0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(out, np.asarray(apply(diag_pair, x, y)), atol=1e-12)

    def test_empty_representation_gives_zero(self):
        rep = SchmidtRepresentation(
            dims=(3, 2, 4),
            terms=(),
            reconstruction_residual=0.0,
            status=SchmidtStatus.COMPLETE,
        )
        out = np.asarray(reconstruct(rep, [1.0, 0.0, 0.0], [0.0, 1.0]))
        np.testing.assert_array_equal(out, np.zeros(4))

    def test_input_orthogonal_to_every_term_gives_zero(self, diag_pair_rep):
        rep, _ = diag_pair_rep
        out = np.asarray(reconstruct(rep, [0.0, 0.0, 1.0], [1.0, 1.0]))
        np.testing.assert_allclose(out, np.zeros(4), atol=1e-14)

    def test_rejects_wrong_dimension(self, diag_pair_rep):
        rep, _ = diag_pair_rep
        with pytest.raises(ValueError):
            reconstruct(rep, [1.0, 0.0], [0.0, 1.0])


class TestRepresentationDims:
    """A representation's dims pass Tensor3's one dims rule and are kept as three Python ints."""

    @pytest.fixture(scope="class")
    def signed(self):
        T = gallery.signed_diagonal()
        return T, schmidt_decompose(T)[0]

    @pytest.mark.parametrize("dims", [[3, 3, 3], np.array([3, 3, 3])])
    def test_a_list_or_an_array_becomes_a_tuple(self, signed, dims):
        T, rep = signed
        rebuilt = SchmidtRepresentation(dims, rep.terms, rep.reconstruction_residual, rep.status)
        assert rebuilt.dims == (3, 3, 3) and all(type(d) is int for d in rebuilt.dims)
        assert verify_representation(T, rebuilt, 1e-9).reconstruction_ok
        assert len(schur_from_schmidt(T, rebuilt, 1e-9).terms) == 3
        x, y = np.array([0.6, 0.0, 0.8]), np.array([0.0, 0.6, 0.8])
        np.testing.assert_array_equal(np.asarray(reconstruct(rebuilt, x, y)), np.asarray(reconstruct(rep, x, y)))

    @pytest.mark.parametrize("dims", [(3, 3), (3.0, 3, 3)])
    def test_other_dims_are_refused(self, signed, dims):
        _, rep = signed
        with pytest.raises(ValueError, match=re.escape(f"dims must be three positive integers, got {dims}")):
            SchmidtRepresentation(dims, rep.terms, rep.reconstruction_residual, rep.status)


class TestSchmidtTerm:
    @pytest.mark.parametrize("tau", [0.0, -1.0, float("nan")])
    def test_rejects_a_weight_not_positive(self, tau):
        e = np.array([1.0, 0.0])
        with pytest.raises(ValueError, match="requires tau > 0"):
            SchmidtTerm(tau, e, e, e)

    @pytest.mark.parametrize("label", "xyz")
    def test_rejects_a_non_unit_vector(self, label):
        vectors = {v: np.array([1.0, 0.0]) for v in "xyz"}
        vectors[label] = np.array([1.0, 1e-4])
        with pytest.raises(ValueError, match=f"SchmidtTerm.{label} must be a unit vector"):
            SchmidtTerm(1.0, **vectors)


class TestVerifyRepresentation:
    def test_known_good_representation_passes(self, diag_pair, diag_pair_rep):
        rep, _ = diag_pair_rep
        check = verify_representation(diag_pair, rep, 1e-9)
        assert check.all_ok

    def test_reordered_terms_fail_monotonicity_only(self, diag_pair, diag_pair_rep):
        rep, _ = diag_pair_rep
        swapped = SchmidtRepresentation(
            dims=rep.dims,
            terms=(rep.terms[1], rep.terms[0]),
            reconstruction_residual=rep.reconstruction_residual,
            status=rep.status,
        )
        check = verify_representation(diag_pair, swapped, 1e-9)
        assert not check.monotone
        assert check.orthonormal
        assert check.reconstruction_ok
        assert check.diagonal_ok

    def test_perturbed_tau_fails_residual_with_expected_size(
        self, diag_pair, diag_pair_rep
    ):
        rep, _ = diag_pair_rep
        bumped = SchmidtRepresentation(
            dims=rep.dims,
            terms=(
                rep.terms[0],
                SchmidtTerm(
                    tau=2.1, x=rep.terms[1].x, y=rep.terms[1].y, z=rep.terms[1].z
                ),
            ),
            reconstruction_residual=rep.reconstruction_residual,
            status=rep.status,
        )
        check = verify_representation(diag_pair, bumped, 1e-9)
        assert not check.reconstruction_ok
        assert check.reconstruction_residual == pytest.approx(0.1, abs=1e-10)
        assert not check.diagonal_ok
        assert check.monotone
        assert check.orthonormal

    def test_rejects_dimension_mismatch(self, diag_pair, triad_rep):
        rep, _ = triad_rep
        with pytest.raises(ValueError):
            verify_representation(diag_pair, rep, 1e-9)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0])
    def test_rejects_a_tolerance_not_positive_and_finite(self, diag_pair, diag_pair_rep, tol):
        rep, _ = diag_pair_rep
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            verify_representation(diag_pair, rep, tol)


def planted(seed):
    """A tensor with a planted Schmidt representation, dims 2-8, gaps >= 0.1."""
    rng = np.random.default_rng([4001, seed])
    dims = tuple(int(d) for d in rng.integers(2, 9, size=3))
    rank = int(rng.integers(1, min(dims) + 1))
    taus = np.cumsum(rng.uniform(0.1, 1.0, size=rank)[::-1])[::-1] + 0.5
    U, V, W = (np.linalg.qr(rng.standard_normal((n, n)))[0] for n in dims)
    return from_schmidt([(taus[i], U[:, i], V[:, i], W[:, i]) for i in range(rank)], dims=dims)


def assert_carries_its_check(T, got, tol):
    """report.check is verify_representation's at tol on a Complete result, and None on a Failed one."""
    rep, report = got
    if rep.status is SchmidtStatus.COMPLETE:
        assert dataclasses.asdict(report.check) == dataclasses.asdict(verify_representation(T, rep, tol))
    else:
        assert report.check is None


def assert_same_decomposition(got, want, atol):
    """Same status, failure, term and step counts; numbers within atol."""
    (rep, report), (rep_w, report_w) = got, want
    assert rep.status is rep_w.status
    assert report.failure == report_w.failure
    assert len(rep.terms) == len(rep_w.terms)
    assert len(report.steps) == len(report_w.steps)
    for a, b in zip(rep.terms, rep_w.terms):
        assert abs(a.tau - b.tau) <= atol
        for f in "xyz":
            np.testing.assert_allclose(getattr(a, f), getattr(b, f), rtol=0, atol=atol)
    for a, b in zip(report.steps, report_w.steps):
        assert a.index == b.index
        for f in ("slice_residuals", "transfer_residuals", "remaining_hs"):
            np.testing.assert_allclose(getattr(a, f), getattr(b, f), rtol=0, atol=atol)


class TestSvdFastPath:
    """schmidt_decompose reads the terms off one SVD where that is unambiguous
    and verified, and otherwise is exactly the greedy deflation."""

    CFG = SearchConfig()

    @staticmethod
    def decompose(T, cfg):
        """schmidt_decompose(T, cfg) from a cold search, and whether it kept the SVD reading: that draws no
        start normals, while greedy deflation's first search draws them."""
        _alternating_stage.cache_clear()
        start_normals.cache_clear()
        got = schmidt_decompose(T, cfg)
        assert_carries_its_check(T, got, cfg.residual_tol)
        return got, start_normals.cache_info().misses == 0

    @pytest.mark.parametrize(
        "name, fast",
        [("diagonal_pair", True), ("overlapping_slices", False), ("orthonormal_triad", False), ("signed_diagonal", True)],
    )
    def test_gallery_matches_greedy(self, name, fast):
        T = getattr(gallery, name)()
        got, kept = self.decompose(T, self.CFG)
        assert kept is fast
        assert_same_decomposition(got, _greedy(T, self.CFG), atol=1e-10)

    def test_planted_tensors_match_greedy(self):
        cfg = SearchConfig(starts=16)
        for seed in range(100):
            T = planted(seed)
            fast, kept = self.decompose(T, cfg)
            assert kept, seed
            assert fast[0].status is SchmidtStatus.COMPLETE
            assert_same_decomposition(fast, _greedy(T, cfg), atol=1e-10)

    def test_planted_schur_cubics_match_greedy(self, planted_schur_factory):
        for seed in range(10):
            T, _, _ = planted_schur_factory(seed)
            fast, kept = self.decompose(T, self.CFG)
            assert kept, seed
            assert_same_decomposition(fast, _greedy(T, self.CFG), atol=1e-10)

    def test_fast_path_reports_its_final_check(self):
        T = gallery.diagonal_pair()
        rep, report = schmidt_decompose(T, self.CFG)
        assert report.check is not None and report.check.all_ok
        assert dataclasses.asdict(report.check) == dataclasses.asdict(verify_representation(T, rep, self.CFG.residual_tol))
        # Not a field: the report's fields and repr are as before.
        assert [f.name for f in dataclasses.fields(report)] == ["steps", "failure"]
        assert "check" not in repr(report)

    @pytest.mark.parametrize("name, status", [("orthonormal_triad", SchmidtStatus.COMPLETE), ("overlapping_slices", SchmidtStatus.FAILED)])
    def test_greedy_results_carry_their_check(self, name, status):
        # decompose asserts the check: verify_representation's on the Complete triad, None on the Failed slices.
        (rep, _), kept = self.decompose(getattr(gallery, name)(), self.CFG)
        assert not kept and rep.status is status

    def test_fast_path_runs_no_search(self):
        rep, report = schmidt_decompose(planted(0), self.CFG)
        assert rep.status is SchmidtStatus.COMPLETE and report.steps
        assert start_normals.cache_info().misses == 0  # the SVD path draws no start normals

    def test_fast_path_clears_negative_zeros(self):
        # Without the clearing, the sign flips leave -0.0 entries in the
        # z of signed_diagonal's -2 term, and reports would print "-0".
        rep, _ = schmidt_decompose(gallery.signed_diagonal(), self.CFG)
        for term in rep.terms:
            for v in (term.x, term.y, term.z):
                assert not np.signbit(v[v == 0.0]).any()

    def fallback(self, T):
        """Assert the SVD reading is refused and the result is greedy's, bit for bit, with its check."""
        got, kept = self.decompose(T, self.CFG)
        assert not kept
        assert_same_decomposition(got, _greedy(T, self.CFG), atol=0.0)
        return got

    def test_tied_taus_fall_back(self):
        # The unfolding's singular vectors are exact basis vectors here, so
        # only the tie 2 = 2 refuses the SVD reading; greedy completes.
        rep, _ = self.fallback(gallery.signed_diagonal((2.0, 2.0, 1.0)))
        assert [t.tau for t in rep.terms] == [2.0, 2.0, 1.0]

    def test_taus_tied_at_the_larger_width_fall_back(self):
        # 3 - 3.9999996e-6 lies within dedup_tol * (1 + 3) of 3, though more than dedup_tol * (1 + itself)
        # below it: one tie group, so the reading is refused. Greedy takes a band's orbits by slice residual,
        # then by x, not by tau.
        rep, _ = self.fallback(gallery.signed_diagonal((3.0, 3.0 - 3.9999996e-6, 1.0)))
        assert sorted(t.tau for t in rep.terms) == [1.0, 3.0 - 3.9999996e-6, 3.0]

    def test_non_rank_one_right_vector_falls_back(self):
        # The top right singular vector of T(1) is (e_1 (x) f_1 + e_2 (x) f_2)/|.|
        # up to a small tilt: rank two as an n2 x n3 matrix.
        arr = np.zeros((2, 2, 2))
        arr[0, 0, 0] = arr[0, 1, 1] = 1.0
        arr[1, 0, 0] = 0.5
        rep, report = self.fallback(Tensor3.from_array(arr))
        assert report.failure.reason is FailureReason.NOT_ORDERED

    def test_tie_after_a_verified_step_falls_back(self, monkeypatch):
        # Step 1 (tau = 3) passes every gate of the SVD reading and is
        # checked, as the reading's block of one; step 2 meets the tie 2 = 2
        # and fails the reading NotVerified, which must leave nothing of its
        # first step in the result.
        T = gallery.signed_diagonal((3.0, 2.0, 2.0))
        checked = []
        real = schmidt._residuals

        def spy(arr, X, Y, Z, tau=None, deflated=False, slices=False):
            got = real(arr, X, Y, Z, tau, deflated, slices)
            if deflated:  # a block's check on its remainder, ordered slices included
                assert slices
                checked.append(got[0].tolist())
            return got

        monkeypatch.setattr(schmidt, "_residuals", spy)
        rep, report = _deflate(T, self.CFG, _svd_block(T, self.CFG))
        assert rep.status is SchmidtStatus.FAILED and rep.terms == () and report.check is None
        assert [s.index for s in report.steps] == [1]
        assert report.failure == DeflationFailure(
            2, FailureReason.NOT_VERIFIED, "the SVD reading's term 2 is tied, not rank-one or sign-ambiguous"
        )
        assert checked == [[3.0]]
        monkeypatch.undo()
        rep, report = self.fallback(T)
        assert [t.tau for t in rep.terms] == [3.0, 2.0, 2.0]
        assert [s.index for s in report.steps] == [1, 2, 3]

    def test_ambiguous_peak_falls_back(self, triad):
        # y of the tau = 3 term is (1, 0, -1)/sqrt(2): its two peak entries
        # tie, so rounding would pick the canonical sign.
        rep, _ = self.fallback(triad)
        assert rep.status is SchmidtStatus.COMPLETE

    def test_shared_y_falls_back(self):
        # T(1)'s right vectors y (x) z_1 and y (x) z_2 are rank-one and
        # orthogonal, but the y family repeats a vector, which no Schmidt
        # representation allows. The ordered-slice check of step 1 refuses
        # it before verify_representation's Gram test would.
        y = np.array([0.6, 0.8])
        T = from_schmidt([(2.0, [1.0, 0.0], y, [1.0, 0.0]), (1.0, [0.0, 1.0], y, [0.0, 1.0])])
        rep, report = self.fallback(T)
        assert rep.status is SchmidtStatus.FAILED
        assert report.failure.reason is FailureReason.NOT_ORDERED

    def test_overlapping_slices_keeps_greedys_diagnostics(self, overlap):
        # fallback compares the failures whole: step, reason and diagnostics.
        _, report = self.fallback(overlap)
        assert (report.failure.step, report.failure.reason) == (1, FailureReason.NOT_ORDERED)


class TestDeflationExits:
    """A checked row that fails the search gate fails the run NotVerified; one that fails the transfer check
    fails it NotOrdered."""

    CFG = SearchConfig()

    @staticmethod
    def inflate(monkeypatch, row, when):
        """Patch schmidt._residuals so that its figures of the given row read 1.0 on every call where
        when(X, tau, deflated) holds."""
        real = schmidt._residuals

        def patched(arr, X, Y, Z, tau=None, deflated=False, slices=False):
            got, R = real(arr, X, Y, Z, tau, deflated, slices)
            if when(X, tau, deflated):
                R = R.copy()
                R[row] = 1.0
            return got, R

        monkeypatch.setattr(schmidt, "_residuals", patched)

    def test_an_svd_row_failing_the_gate_fails_the_reading(self, monkeypatch):
        # signed_diagonal's reading is one block of three rows; the second fails the gate after the first
        # was recorded, so the reading fails NotVerified at step 2 and greedy deflation (blocks of one row)
        # decides.
        T = gallery.signed_diagonal()
        want = _greedy(T, self.CFG)
        self.inflate(monkeypatch, 1, lambda X, tau, deflated: deflated and X.shape[0] > 1)
        rep, report = _deflate(T, self.CFG, _svd_block(T, self.CFG))
        assert rep.status is SchmidtStatus.FAILED and rep.terms == () and report.check is None
        assert [s.index for s in report.steps] == [1]
        assert report.failure == DeflationFailure(
            2, FailureReason.NOT_VERIFIED, "step-2 triple fails the search's gate (tau 2, max residual 1)"
        )
        got = schmidt_decompose(T, self.CFG)
        assert_same_decomposition(got, want, atol=0.0)
        assert_carries_its_check(T, got, self.CFG.residual_tol)

    def test_a_greedy_row_failing_the_gate_fails_the_run_not_verified(self, monkeypatch):
        # Every block of more than one row fails the gate at its first row, and so does greedy's second block
        # of one: the reading fails at step 1, greedy completes step 1 and fails at step 2, and that Failed
        # value, with the step it kept, is schmidt_decompose's result.
        T = gallery.signed_diagonal()
        greedy_blocks = itertools.count()
        self.inflate(monkeypatch, 0, lambda X, tau, deflated: deflated and (X.shape[0] > 1 or next(greedy_blocks) == 1))
        rep, report = schmidt_decompose(T, self.CFG)
        assert rep.status is SchmidtStatus.FAILED and rep.terms == () and report.check is None
        assert rep.reconstruction_residual == hs_norm(T)
        assert [s.index for s in report.steps] == [1]
        assert report.failure == DeflationFailure(
            2, FailureReason.NOT_VERIFIED, "step-2 triple fails the search's gate (tau 2, max residual 1)"
        )

    def test_a_term_failing_the_transfer_check_fails_the_run(self, monkeypatch):
        # The transfer check is the one call with a given tau that is not a block's check.
        T = gallery.signed_diagonal()
        self.inflate(monkeypatch, 1, lambda X, tau, deflated: tau is not None and not deflated)
        rep, report = _deflate(T, self.CFG, _svd_block(T, self.CFG))
        assert rep.status is SchmidtStatus.FAILED and rep.terms == () and report.check is None
        assert [s.index for s in report.steps] == [1, 2]
        assert report.steps[1].transfer_residuals == (1.0, 1.0, 1.0)
        assert max(report.steps[1].slice_residuals) <= self.CFG.residual_tol
        assert (report.failure.step, report.failure.reason) == (2, FailureReason.NOT_ORDERED)
        assert report.failure.diagnostics == (
            "step-2 triple fails the transfer identities against the original operator (max residual 1); "
            "the ordered hypothesis does not propagate"
        )

    def test_terms_failing_their_check_fail_the_run_not_verified(self):
        # Every one of the kernel's 14 greedy steps passes, but the terms miss orthonormality: Complete means
        # certified, so the run fails at its last step, naming the check's failed condition.
        T = legendre_kernel(14)
        rep, report = schmidt_decompose(T, self.CFG)
        assert rep.status is SchmidtStatus.FAILED and rep.terms == () and report.check is None
        assert rep.reconstruction_residual == hs_norm(T)
        assert [s.index for s in report.steps] == list(range(1, 15))
        assert (report.failure.step, report.failure.reason) == (14, FailureReason.NOT_VERIFIED)
        assert report.failure.reason.value == "NotVerified"
        assert report.failure.diagnostics == "max Gram deviation 8.027e-06 > 1e-08"
        assert _greedy(T, self.CFG)[1].failure == report.failure


class TestGreedyBand:
    CFG = SearchConfig()

    def test_the_band_is_the_first_tie_group(self, monkeypatch):
        # Three top orbits, each 0.9 * dedup_tol * (1 + tau) below the one before: one chained tie group, whose
        # top tau is listed first. A band anchored at the top tau would end before the third.
        taus = [3.0]
        for _ in range(2):
            taus.append(taus[-1] - 0.9 * self.CFG.dedup_tol * (1.0 + taus[-1]))
        taus.append(1.0)
        T = from_schmidt([(t, e, e, e) for t, e in zip(taus, np.eye(4)[[3, 2, 1, 0]])])
        listed = [SingularTriple(t, e, e, e, (0.0, 0.0, 0.0)) for t, e in zip(taus, np.eye(4)[[3, 2, 1, 0]])]
        real_search, real_checks, bands = schmidt._search_candidates, schmidt._ordered_checks, []

        def search(remainder, cfg, use_newton, pairs):
            return (tuple(listed), 1) if remainder is T else real_search(remainder, cfg, use_newton, pairs)

        def checks(remainder, band, tol):
            bands.append([c.tau for c in band])
            return real_checks(remainder, band, tol)

        monkeypatch.setattr(schmidt, "_search_candidates", search)
        monkeypatch.setattr(schmidt, "_ordered_checks", checks)
        rep, _ = _greedy(T, self.CFG)
        assert bands[0] == taus[:3]
        assert rep.status is SchmidtStatus.COMPLETE and [t.tau for t in rep.terms] == taus

    @pytest.mark.parametrize("gap", [1e-7, 2e-6, 3.9e-6])
    def test_the_bands_largest_ordered_tau_is_taken_first(self, gap):
        # Both top orbits are ordered and share the first tie group (3.9e-6 < dedup_tol * (1 + 3)), where the
        # listing puts e_2's orbit, tau = 3 - gap, first; deflating it first would break the descending order.
        T = gallery.signed_diagonal((3.0, 3.0 - gap, 1.0))
        rep, _ = _greedy(T, self.CFG)
        assert rep.status is SchmidtStatus.COMPLETE
        assert [t.tau for t in rep.terms] == [3.0, 3.0 - gap, 1.0]
        assert verify_representation(T, rep, self.CFG.residual_tol).monotone


class TestTiedWeights:
    """Equal weights: each tau is read off its own remainder, so the steps come out ULPs apart, in either order."""

    @pytest.mark.parametrize("T", [tied_odeco(8, 5), tied_odeco(16, 8), tied_cubic()], ids=["8^3", "16^3", "cubic"])
    def test_complete_terms_are_descending_and_pass_their_check(self, T):
        rep, report = schmidt_decompose(T)
        assert rep.status is SchmidtStatus.COMPLETE
        assert report.check.monotone and report.check.all_ok
        taus = [t.tau for t in rep.terms]
        assert all(a >= b for a, b in zip(taus, taus[1:]))
        np.testing.assert_allclose(taus, 1.0, rtol=0, atol=1e-14)
        # The terms are the steps' triples, which stay in extraction order, sorted stably by tau.
        steps = sorted(report.steps, key=lambda step: step.tau, reverse=True)
        assert [t.x.tobytes() for t in rep.terms] == [step.triple.x.tobytes() for step in steps]
