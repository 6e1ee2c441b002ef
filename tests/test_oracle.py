"""Brute-force cross-checks: grid norm bound, FD stationarity, lattice search."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bilop import (
    GridSpec,
    SearchConfig,
    SingularTriple,
    Spectrum,
    Tensor3,
    confirm_complete,
    enumerate_triples,
    exhaustive_small_spectrum,
    from_schmidt,
    gallery,
    grid_norm_oracle,
    operator_norm,
    stationarity_fd_check,
    verify_triple,
)

S2 = np.sqrt(2.0)


class TestGridSpec:
    def test_defaults(self):
        spec = GridSpec()
        assert spec.resolution == 72
        assert spec.refinement_rounds == 2

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"resolution": 7},
            {"resolution": 0},
            {"refinement_rounds": -1},
            {"resolution": 8.5},
            {"resolution": 72.0},
            {"resolution": True},
            {"refinement_rounds": 1.0},
            {"refinement_rounds": True},
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError, match="must be an integer of at least"):
            GridSpec(**kwargs)

    def test_accepts_numpy_integers(self, overlap):
        spec = GridSpec(resolution=np.int64(16), refinement_rounds=np.int32(1))
        assert grid_norm_oracle(overlap, spec) == pytest.approx(np.sqrt(2.0 + S2), abs=1e-9)


class TestGridNormOracle:
    def test_diag_pair_norm(self, diag_pair):
        assert grid_norm_oracle(diag_pair) == pytest.approx(3.0, abs=1e-4)

    def test_overlap_norm(self, overlap):
        want = np.sqrt(2.0 + S2)
        assert grid_norm_oracle(overlap) == pytest.approx(want, abs=1e-4)

    def test_zero_operator(self):
        T = Tensor3.from_array(np.zeros((2, 3, 2)))
        assert grid_norm_oracle(T) == 0.0

    def test_refuses_large_dimensions(self):
        T = Tensor3.from_array(np.zeros((5, 2, 2)))
        with pytest.raises(ValueError):
            grid_norm_oracle(T)

    @settings(max_examples=12, deadline=None)
    @given(
        st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)).filter(lambda d: min(d) <= 3),
        st.integers(0, 2**32 - 1),
    )
    @example((1, 4, 4), 0)
    @example((4, 1, 4), 1)
    @example((4, 4, 1), 2)
    @example((3, 4, 4), 46)
    def test_brackets_the_search_norm_at_the_default_grid(self, dims, seed):
        # Exact over two modes and gridded over the smallest one, the oracle
        # sits below the norm up to one SVD's rounding and within 1e-6 of it.
        # Seed 46 at 3x4x4 has two maxima 75 degrees apart whose values differ
        # by 4.6e-5: refining only the first grid's best point finds the lower.
        T = Tensor3.from_array(np.random.default_rng(seed).standard_normal(dims))
        norm, _ = operator_norm(T)
        bound = grid_norm_oracle(T)
        assert bound <= norm + 1e-9
        assert bound >= norm - 1e-6

    def test_is_a_lower_bound_that_comes_close(self):
        # Every grid point is feasible, so the oracle can never exceed
        # the true norm; a coarse grid still lands within 1e-2 of it.
        spec = GridSpec(resolution=16, refinement_rounds=1)
        rng = np.random.default_rng(5)
        for _ in range(6):
            T = Tensor3.from_array(rng.standard_normal((3, 3, 3)))
            norm, _ = operator_norm(T, SearchConfig(starts=32))
            bound = grid_norm_oracle(T, spec)
            assert bound <= norm + 1e-9
            assert bound >= norm - 1e-2


class TestStationarityCheck:
    def test_true_triple_is_stationary(self, diag_pair, diag_pair_spectrum):
        top = diag_pair_spectrum.triples[0]
        assert stationarity_fd_check(diag_pair, top, 1e-5) <= 1e-8

    def test_known_analytic_triple_is_stationary(self, overlap):
        triple = SingularTriple(
            tau=S2,
            x=np.array([S2 / 2, 0.0, S2 / 2]),
            y=np.array([0.0, 1.0]),
            z=np.array([0.0, 0.0, 0.0, 1.0]),
            residuals=(0.0, 0.0, 0.0),
        )
        assert stationarity_fd_check(overlap, triple, 1e-5) <= 1e-6

    def test_perturbed_triple_is_flagged(self, diag_pair, diag_pair_spectrum):
        top = diag_pair_spectrum.triples[0]
        x = np.array(top.x) + 0.1 * np.array([1.0, 0.0, 0.0])
        x /= np.linalg.norm(x)
        impostor = SingularTriple(
            tau=top.tau, x=x, y=top.y, z=top.z, residuals=(0.0, 0.0, 0.0)
        )
        assert stationarity_fd_check(diag_pair, impostor, 1e-5) > 1e-3

    def test_a_mode_of_size_one_is_probed_in_the_others_only(self):
        # The unit sphere of R^1 is two points, with no tangent direction to probe.
        T = Tensor3.from_array(np.random.default_rng(3).standard_normal((1, 2, 2)))
        top = operator_norm(T)[1]
        assert verify_triple(T, top, 1e-9).verified
        assert stationarity_fd_check(T, top, 1e-5) <= 1e-8

    @pytest.mark.parametrize("h", [1e-8, 1e-2, 0.0, -1e-5])
    def test_rejects_out_of_range_step(self, diag_pair, diag_pair_spectrum, h):
        top = diag_pair_spectrum.triples[0]
        with pytest.raises(ValueError):
            stationarity_fd_check(diag_pair, top, h)

    def test_rejects_non_unit_vectors(self, diag_pair, diag_pair_spectrum):
        top = diag_pair_spectrum.triples[0]
        stretched = SingularTriple(
            tau=top.tau,
            x=1.1 * np.array(top.x),
            y=top.y,
            z=top.z,
            residuals=(0.0, 0.0, 0.0),
        )
        with pytest.raises(ValueError):
            stationarity_fd_check(diag_pair, stretched, 1e-5)


class TestExhaustiveSmallSpectrum:
    def test_rank_one_operator(self):
        x = np.array([1.0, 0.0])
        y = np.array([1.0, 0.0, 0.0])
        z = np.array([1.0, 0.0, 0.0, 0.0])
        T = from_schmidt([(5.0, x, y, z)])
        spectrum = exhaustive_small_spectrum(T, SearchConfig(starts=16))
        assert [t.tau for t in spectrum.triples] == pytest.approx([5.0])

    def test_refuses_large_dimensions(self):
        T = Tensor3.from_array(np.zeros((2, 2, 5)))
        with pytest.raises(ValueError):
            exhaustive_small_spectrum(T)

    def test_agrees_with_random_start_enumeration(
        self,
        deep_cfg,
        diag_pair,
        overlap,
        triad,
        diag_pair_spectrum,
        overlap_spectrum,
        triad_spectrum,
    ):
        # Two searches with very different start distributions landing on
        # identical tau multisets is strong evidence both are saturated.
        pairs = [
            (diag_pair, diag_pair_spectrum),
            (overlap, overlap_spectrum),
            (triad, triad_spectrum),
        ]
        for T, spectrum in pairs:
            reference = exhaustive_small_spectrum(T, deep_cfg)
            assert len(reference.triples) == len(spectrum.triples)
            ref = sorted(t.tau for t in reference.triples)
            got = sorted(t.tau for t in spectrum.triples)
            np.testing.assert_allclose(ref, got, atol=1e-8)


class TestConfirmComplete:
    def test_certifies_tiny_instances(self):
        T = gallery.signed_diagonal((1.0, 1.0))
        cfg = SearchConfig(starts=16)
        spectrum = enumerate_triples(T, cfg)
        confirmed = confirm_complete(T, spectrum, cfg)
        assert confirmed.complete
        assert confirmed.triples == spectrum.triples

    def test_leaves_larger_instances_unconfirmed(self, triad):
        cfg = SearchConfig(starts=16)
        spectrum = enumerate_triples(triad, cfg)
        assert not confirm_complete(triad, spectrum, cfg).complete

    def test_leaves_mismatched_spectra_unconfirmed(self):
        T = gallery.signed_diagonal((1.0, 1.0))
        cfg = SearchConfig(starts=16)
        spectrum = enumerate_triples(T, cfg)
        truncated = Spectrum(triples=spectrum.triples[:1], complete=False)
        assert not confirm_complete(T, truncated, cfg).complete

    def test_leaves_spectra_with_other_taus_unconfirmed(self):
        # As many orbits as the lattice search finds, each tau 10 dedup_tol too high.
        T = gallery.signed_diagonal((1.0, 1.0))
        cfg = SearchConfig(starts=16)
        moved = Spectrum(
            triples=tuple(dataclasses.replace(t, tau=t.tau + 10 * cfg.dedup_tol) for t in enumerate_triples(T, cfg).triples)
        )
        assert len(moved.triples) == len(exhaustive_small_spectrum(T, cfg).triples)
        assert confirm_complete(T, moved, cfg) is moved and not moved.complete
