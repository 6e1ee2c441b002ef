"""Search, verification, canonicalization, and ordered classification."""

import inspect
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bilop
from bilop import (
    NonConvergence,
    SearchConfig,
    SingularTriple,
    Spectrum,
    Tensor3,
    canonicalize,
    cli,
    enumerate_triples,
    gallery,
    hopm_refine,
    hopm_value_trace,
    hs_norm,
    is_ordered,
    operator_norm,
    schmidt_decompose,
    verify_representation,
    verify_triple,
)
from bilop import spectra
from bilop.spectra import _check_floor, _ordered_checks

S13 = np.sqrt(13.0)
TAU_SADDLE = 6.0 / S13


def make_triple(tau, x, y, z, residuals=(0.0, 0.0, 0.0)) -> SingularTriple:
    return SingularTriple(
        tau=float(tau),
        x=np.asarray(x, dtype=float),
        y=np.asarray(y, dtype=float),
        z=np.asarray(z, dtype=float),
        residuals=residuals,
    )


class TestSearchConfig:
    def test_defaults(self):
        cfg = SearchConfig()
        assert cfg.starts is None
        assert cfg.max_iter == 10_000
        assert cfg.iter_tol == 1e-14
        assert cfg.residual_tol == 1e-9
        assert cfg.dedup_tol == 1e-6
        assert cfg.seed == 0

    def test_starts_resolution_scales_with_dims(self):
        assert SearchConfig().resolved_starts((3, 2, 4)) == 256
        assert SearchConfig(starts=17).resolved_starts((3, 2, 4)) == 17

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"starts": 0},
            {"max_iter": 0},
            {"iter_tol": 0.0},
            {"residual_tol": -1e-9},
            {"dedup_tol": 0.0},
            {"seed": -1},
            {"iter_tol": float("nan")},
            {"residual_tol": float("nan")},
            {"dedup_tol": float("nan")},
            {"iter_tol": float("inf")},
            {"residual_tol": float("inf")},
            {"dedup_tol": float("inf")},
            {"seed": 1.0},
            {"starts": 8.0},
            {"max_iter": 50.5},
            {"seed": True},
            {"starts": True},
            {"max_iter": True},
            {"seed": "1"},
            {"max_iter": None},
        ],
    )
    def test_rejects_invalid_values(self, kwargs):
        with pytest.raises(ValueError):
            SearchConfig(**kwargs)

    def test_accepts_numpy_integers(self, diag_pair):
        cfg = SearchConfig(starts=np.int64(8), max_iter=np.int32(500), seed=np.uint8(3))
        assert cfg == SearchConfig(starts=8, max_iter=500, seed=3)
        assert operator_norm(diag_pair, cfg)[0] == pytest.approx(3.0, abs=1e-12)

    @pytest.mark.parametrize(
        "name, param",
        [
            ("operator_norm", "cfg"), ("enumerate_triples", "cfg"), ("hopm_refine", "cfg"), ("hopm_value_trace", "cfg"),
            ("schmidt_decompose", "cfg"), ("exhaustive_small_spectrum", "cfg"), ("confirm_complete", "cfg"),
            ("grid_norm_oracle", "spec"),
        ],
    )
    def test_entry_points_default_to_the_field_defaults(self, name, param):
        default = inspect.signature(getattr(bilop, name)).parameters[param].default
        assert default == (bilop.GridSpec() if param == "spec" else SearchConfig())


class TestHopmRefine:
    def test_fixed_point_is_returned_immediately(self, diag_pair):
        result = hopm_refine(
            diag_pair, [0.0, 1.0, 0.0], [0.0, 1.0], [0.0, 1.0, 0.0, 0.0]
        )
        assert isinstance(result, SingularTriple)
        assert result.tau == pytest.approx(3.0, abs=1e-12)
        np.testing.assert_allclose(result.x, [0.0, 1.0, 0.0], atol=1e-12)
        assert result.max_residual <= 1e-12

    def test_zero_tensor_gives_nonconvergence(self):
        T = Tensor3.from_array(np.zeros((2, 2, 2)))
        result = hopm_refine(T, [1.0, 0.0], [1.0, 0.0], [1.0, 0.0])
        assert isinstance(result, NonConvergence)
        assert "zero" in result.reason

    def test_zero_start_gives_nonconvergence(self, diag_pair):
        result = hopm_refine(
            diag_pair, [0.0, 0.0, 0.0], [1.0, 0.0], [1.0, 0.0, 0.0, 0.0]
        )
        assert isinstance(result, NonConvergence)

    def test_exhausted_budget_gives_nonconvergence(self, overlap):
        # One sweep never converges: the value stop compares two sweeps.
        result = hopm_refine(
            overlap, [1.0, 0.5, 0.0], [0.5, 1.0], [1.0, 0.0, 0.0, 0.0], SearchConfig(max_iter=1)
        )
        assert result == NonConvergence("max_iter exceeded")

    def test_random_starts_reach_the_top_value(self, overlap):
        best = 0.0
        for s in range(64):
            rng = np.random.default_rng([0, s])
            v = rng.standard_normal(9)
            result = hopm_refine(overlap, v[:3], v[3:5], v[5:])
            if isinstance(result, SingularTriple):
                best = max(best, result.tau)
        assert best == pytest.approx(np.sqrt(2.0 + np.sqrt(2.0)), abs=1e-9)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_linearly_convergent_endpoints_are_finished(self, seed):
        # The value stop leaves O(sqrt(iter_tol)) vector error on a generic
        # tensor; the Newton finish must take it down to roundoff.
        T = Tensor3.from_array(np.random.default_rng([seed, 5]).standard_normal((5, 5, 5)))
        returned = 0
        for s in range(16):
            v = np.random.default_rng([seed, 5, s]).standard_normal(15)
            result = hopm_refine(T, v[:5], v[5:10], v[10:])
            if isinstance(result, SingularTriple):
                returned += 1
                assert result.max_residual <= 1e-12 * (1.0 + result.tau)
                assert verify_triple(T, result, 1e-12 * (1.0 + result.tau)).verified
        assert returned > 0

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_objective_trace_is_nondecreasing(self, seed):
        rng = np.random.default_rng(seed)
        T = Tensor3.from_array(rng.standard_normal((3, 3, 3)))
        values = hopm_value_trace(T, rng.standard_normal(3), rng.standard_normal(3))
        assert values.size >= 1
        assert np.all(np.diff(values) >= -1e-13 * (1.0 + values[:-1]))


class TestVerifyTriple:
    def test_exact_triple_verifies_with_zero_residuals(self, diag_pair):
        check = verify_triple(
            diag_pair, make_triple(2.0, [1, 0, 0], [1, 0], [1, 0, 0, 0]), 1e-9
        )
        assert check.verified
        assert check.max_residual == 0.0

    def test_perturbed_tau_fails_with_expected_residual(self, diag_pair):
        check = verify_triple(
            diag_pair, make_triple(2.5, [1, 0, 0], [1, 0], [1, 0, 0, 0]), 1e-9
        )
        assert not check.verified
        assert check.r1 == pytest.approx(0.5, abs=1e-12)

    def test_triple_of_one_operator_fails_on_another(self, diag_pair, overlap):
        check = verify_triple(
            overlap, make_triple(2.0, [1, 0, 0], [1, 0], [1, 0, 0, 0]), 1e-9
        )
        assert not check.verified

    def test_rejects_non_unit_vectors(self, diag_pair):
        with pytest.raises(ValueError):
            verify_triple(
                diag_pair, make_triple(2.0, [1.1, 0, 0], [1, 0], [1, 0, 0, 0]), 1e-9
            )

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0])
    def test_rejects_a_tolerance_not_positive_and_finite(self, diag_pair, tol):
        # is_ordered goes through verify_triple, so it says why too.
        exact = make_triple(2.0, [1, 0, 0], [1, 0], [1, 0, 0, 0])
        for check in (verify_triple, is_ordered):
            with pytest.raises(ValueError, match="tol must be positive and finite"):
                check(diag_pair, exact, tol)

    @pytest.mark.parametrize("tau", [float("nan"), float("inf"), -float("inf"), 10**400], ids=["nan", "inf", "-inf", "int-1e400"])
    def test_rejects_a_tau_that_is_not_finite(self, diag_pair, tau):
        # 10**400 is a Python int beyond the float range, so the triple is built without make_triple's float().
        # is_ordered goes through verify_triple, so it refuses the same way.
        triple = SingularTriple(tau, np.array([1.0, 0, 0]), np.array([1.0, 0]), np.array([1.0, 0, 0, 0]), (0.0, 0.0, 0.0))
        for check in (verify_triple, is_ordered):
            with pytest.raises(ValueError, match="tau must be finite"):
                check(diag_pair, triple, 1e-9)

    @pytest.mark.parametrize(
        "T, triple",
        [
            (Tensor3.from_array(np.zeros((2, 2, 2))), make_triple(1e-12, [1, 0], [1, 0], [1, 0])),
            # x = e_3 is a null direction of diagonal_pair: T(e_3, .) = 0.
            (gallery.diagonal_pair(), make_triple(5e-10, [0, 0, 1], [1, 0], [0, 0, 1, 0])),
        ],
        ids=["zero-tensor", "null-direction"],
    )
    def test_a_tau_at_most_tol_does_not_verify(self, T, triple):
        # Every residual equals tau, within tol, but the search's gate wants tau above tol too: the search never
        # lists such a triple, and is_ordered refuses it as unverified.
        check = verify_triple(T, triple, 1e-9)
        assert (check.r1, check.r2, check.r3) == (triple.tau,) * 3 and check.max_residual <= 1e-9
        assert not check.verified
        with pytest.raises(ValueError, match="requires a verified triple"):
            is_ordered(T, triple, 1e-9)
        assert all(t.tau > 1e-9 for t in enumerate_triples(T).triples)

    def test_sign_orbit_closure(self, diag_pair):
        a = 3.0 / S13
        b = 2.0 / S13
        base = (np.array([a, b, 0.0]), np.array([a, b]), np.array([a, b, 0.0, 0.0]))
        flips = [(1, 1, 1), (-1, -1, 1), (-1, 1, -1), (1, -1, -1)]
        residuals = []
        for sx, sy, sz in flips:
            check = verify_triple(
                diag_pair,
                make_triple(TAU_SADDLE, sx * base[0], sy * base[1], sz * base[2]),
                1e-9,
            )
            assert check.verified
            residuals.append((check.r1, check.r2, check.r3))
        for other in residuals[1:]:
            assert other == pytest.approx(residuals[0], abs=1e-15)


class TestCanonicalize:
    def test_flips_x_and_y_peaks_positive(self):
        triple = make_triple(2.0, [-1, 0, 0], [-1, 0], [1, 0, 0, 0])
        out = canonicalize(triple)
        np.testing.assert_allclose(out.x, [1, 0, 0])
        np.testing.assert_allclose(out.y, [1, 0])
        np.testing.assert_allclose(out.z, [1, 0, 0, 0])

    def test_z_sign_follows_the_two_flips(self):
        triple = make_triple(3.0, [0, 1, 0], [0, -1], [0, -1, 0, 0])
        out = canonicalize(triple)
        np.testing.assert_allclose(out.y, [0, 1])
        np.testing.assert_allclose(out.z, [0, 1, 0, 0])

    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError):
            canonicalize(make_triple(1.0, [0, 0, 0], [1, 0], [1, 0, 0, 0]))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_idempotent_on_random_triples(self, seed):
        rng = np.random.default_rng(seed)
        triple = make_triple(
            1.0,
            rng.standard_normal(4),
            rng.standard_normal(3),
            rng.standard_normal(2),
        )
        once = canonicalize(triple)
        twice = canonicalize(once)
        np.testing.assert_array_equal(once.x, twice.x)
        np.testing.assert_array_equal(once.y, twice.y)
        np.testing.assert_array_equal(once.z, twice.z)


class TestOperatorNorm:
    def test_known_values(self, diag_pair, overlap, deep_cfg):
        assert operator_norm(diag_pair, deep_cfg)[0] == pytest.approx(3.0, abs=1e-9)
        assert operator_norm(overlap, deep_cfg)[0] == pytest.approx(
            np.sqrt(2.0 + np.sqrt(2.0)), abs=1e-9
        )

    def test_zero_tensor(self):
        value, attained = operator_norm(Tensor3.from_array(np.zeros((2, 2, 2))))
        assert value == 0.0
        assert attained is None

    def test_no_verified_triple_on_a_nonzero_tensor_raises(self, diag_pair):
        # One sweep converges no start, so nothing verifies; 0.0 would be wrong.
        with pytest.raises(ValueError, match="residual_tol=1e-09 within max_iter=1"):
            operator_norm(diag_pair, SearchConfig(max_iter=1))

    def test_tau_below_residual_tol_names_the_gate_not_max_iter(self):
        # hs-norm 1.13e-9 lies above residual_tol, so the search runs and
        # converges, but the top tau 8e-10 fails the tau > residual_tol gate.
        arr = np.zeros((2, 2, 2))
        arr[0, 0, 0] = arr[1, 1, 1] = 8e-10
        with pytest.raises(ValueError, match="residual_tol=1e-09: [0-9]+ start") as err:
            operator_norm(Tensor3.from_array(arr))
        assert "max_iter" not in str(err.value)

    def test_a_scaled_tensor_names_every_converged_start(self):
        # Residuals scale with T: at 1e6 every one of the 16 + 256 starts
        # converges, and no root passes residual_tol.
        T = Tensor3.from_array(1e6 * np.random.default_rng(1).standard_normal((4, 4, 4)))
        with pytest.raises(ValueError) as err:
            operator_norm(T)
        assert str(err.value) == (
            "no singular triple verified at residual_tol=1e-09: 272 start(s) converged, but none "
            "has tau above it and residuals within it; the norm of this nonzero operator is unknown"
        )

    def test_a_tied_top_group_gives_its_largest_tau(self):
        # 3 and 3 - 2e-7 share the first tie group, which the listing orders by x: e_2's orbit comes first.
        T = gallery.signed_diagonal((3.0, 3.0 - 2e-7, 1.0))
        assert enumerate_triples(T).triples[0].tau == 3.0 - 2e-7
        value, attained = operator_norm(T)
        assert value == attained.tau == 3.0
        np.testing.assert_array_equal(attained.x, [1.0, 0.0, 0.0])

    def test_attained_triple_is_verified(self, diag_pair, deep_cfg):
        value, attained = operator_norm(diag_pair, deep_cfg)
        check = verify_triple(diag_pair, attained, 1e-9)
        assert check.verified
        assert attained.tau == pytest.approx(value)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_bounded_by_hs_norm(self, seed):
        rng = np.random.default_rng(seed)
        dims = tuple(int(d) for d in rng.integers(2, 5, size=3))
        T = Tensor3.from_array(rng.standard_normal(dims))
        value, _ = operator_norm(T, SearchConfig(starts=8))
        assert value <= hs_norm(T) + 1e-9


class TestEnumerateTriples:
    def test_a_gaussian_spectrum_warns_nothing(self):
        T = Tensor3.from_array(np.random.default_rng(4).standard_normal((4, 4, 4)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert enumerate_triples(T).triples

    def test_diag_pair_tau_values_and_orbit_counts(self, diag_pair_spectrum):
        taus = [tr.tau for tr in diag_pair_spectrum.triples]
        assert len(taus) == 6
        assert taus[0] == pytest.approx(3.0, abs=1e-9)
        assert taus[1] == pytest.approx(2.0, abs=1e-9)
        for t in taus[2:]:
            assert t == pytest.approx(TAU_SADDLE, abs=1e-9)

    def test_overlap_contains_all_known_tau_values(self, overlap_spectrum):
        taus = np.array([tr.tau for tr in overlap_spectrum.triples])
        for expected in (
            np.sqrt(2.0 + np.sqrt(2.0)),
            np.sqrt(2.0),
            np.sqrt(2.0 - np.sqrt(2.0)),
            np.sqrt(2.0) / 2.0,
        ):
            assert np.min(np.abs(taus - expected)) <= 1e-9

    def test_zero_tensor_gives_empty_spectrum(self):
        spectrum = enumerate_triples(Tensor3.from_array(np.zeros((2, 2, 2))))
        assert spectrum.triples == ()
        assert not spectrum.complete

    def test_all_triples_verified_and_canonical(self, overlap, overlap_spectrum):
        for tr in overlap_spectrum.triples:
            assert verify_triple(overlap, tr, 1e-9).verified
            again = canonicalize(tr)
            np.testing.assert_array_equal(tr.x, again.x)
            np.testing.assert_array_equal(tr.y, again.y)

    def test_sorted_descending(self, overlap_spectrum):
        taus = [tr.tau for tr in overlap_spectrum.triples]
        assert all(a >= b - 1e-12 for a, b in zip(taus, taus[1:]))

    def test_no_two_triples_share_a_sign_orbit(self, diag_pair_spectrum):
        triples = diag_pair_spectrum.triples
        flips = [(1, 1, 1), (-1, -1, 1), (-1, 1, -1), (1, -1, -1)]
        for i in range(len(triples)):
            for j in range(i + 1, len(triples)):
                a, b = triples[i], triples[j]
                dist = min(
                    max(
                        np.linalg.norm(a.x - sx * b.x),
                        np.linalg.norm(a.y - sy * b.y),
                        np.linalg.norm(a.z - sz * b.z),
                    )
                    for sx, sy, sz in flips
                )
                assert dist > 1e-6

    def test_every_tau_bounded_by_operator_norm(self, overlap, overlap_spectrum, deep_cfg):
        top, _ = operator_norm(overlap, deep_cfg)
        for tr in overlap_spectrum.triples:
            assert tr.tau <= top + 1e-9

    def test_result_is_a_spectrum_marked_incomplete(self, diag_pair_spectrum):
        assert isinstance(diag_pair_spectrum, Spectrum)
        assert diag_pair_spectrum.complete is False

    @staticmethod
    def scaled_diag_pair_taus(diag_pair, s: float) -> list[float]:
        """The listed tau's of s * diag_pair, searched with the default residual_tol scaled by s, divided by s."""
        spectrum = enumerate_triples(Tensor3.from_array(s * diag_pair.array), SearchConfig(residual_tol=s * 1e-9))
        return [tr.tau / s for tr in spectrum.triples]

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 5: _tie_groups' width dedup_tol * (1 + tau) is absolute at small tau, "
        "so tau = 2 s is listed after the four 1.664 s orbits",
    )
    def test_a_scaled_spectrum_lists_its_values_in_descending_order(self, diag_pair):
        taus = self.scaled_diag_pair_taus(diag_pair, 2.0**-20)
        assert all(a >= b - 1e-9 for a, b in zip(taus, taus[1:])), taus

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 5: the search lists 2 of the 6 orbits at this scale")
    def test_a_scaled_spectrum_lists_every_orbit(self, diag_pair):
        assert len(self.scaled_diag_pair_taus(diag_pair, 2.0**-50)) == 6


class TestIsOrdered:
    def test_top_two_values_are_ordered(self, diag_pair, diag_pair_spectrum):
        top, second = diag_pair_spectrum.triples[:2]
        assert is_ordered(diag_pair, top, 1e-9).ordered
        assert is_ordered(diag_pair, second, 1e-9).ordered

    def test_saddle_value_is_not_ordered(self, diag_pair, diag_pair_spectrum):
        saddle = diag_pair_spectrum.triples[-1]
        check = is_ordered(diag_pair, saddle, 1e-9)
        assert not check.ordered
        assert max(check.slice_residuals) >= 0.1

    def test_every_overlap_triple_is_not_ordered(self, overlap, overlap_spectrum):
        for tr in overlap_spectrum.triples:
            assert not is_ordered(overlap, tr, 1e-9).ordered

    def test_sign_orbit_invariance(self, diag_pair, diag_pair_spectrum):
        tr = diag_pair_spectrum.triples[-1]
        base = is_ordered(diag_pair, tr, 1e-9)
        flipped = make_triple(tr.tau, -tr.x, tr.y, -tr.z, tr.residuals)
        other = is_ordered(diag_pair, flipped, 1e-9)
        assert other.slice_residuals == pytest.approx(base.slice_residuals, abs=1e-14)

    def test_rejects_unverified_triple(self, diag_pair):
        triple = make_triple(2.5, [1, 0, 0], [1, 0], [1, 0, 0, 0])
        with pytest.raises(ValueError) as info:
            is_ordered(diag_pair, triple, 1e-9)
        residual = verify_triple(diag_pair, triple, 1e-9).max_residual
        assert str(info.value) == f"is_ordered requires a verified triple (tau 2.500e+00, max residual {residual:.3e})"

    @pytest.mark.parametrize("name", gallery.__all__)
    def test_one_residual_pass_gates_and_classifies(self, name, monkeypatch):
        # The gate and the slices come off one _residuals pass, with the bytes of the two passes it replaced:
        # verify_triple's gate, then the triple's row of _ordered_checks.
        T, real, calls = getattr(gallery, name)(), spectra._residuals, []
        monkeypatch.setattr(spectra, "_residuals", lambda *a, **k: calls.append(k.get("slices")) or real(*a, **k))
        for triple in enumerate_triples(T).triples:
            calls.clear()
            got = is_ordered(T, triple, 1e-9)
            assert calls == [True]
            want = _ordered_checks(T, [triple], 1e-9)[0]
            assert verify_triple(T, triple, 1e-9).verified and repr(got) == repr(want)

    def test_adjoint_slice_is_diagnostic_only(self, diag_pair, diag_pair_spectrum):
        check = is_ordered(diag_pair, diag_pair_spectrum.triples[0], 1e-9)
        assert check.adjoint_slice_residual <= 1e-9


class TestRoundingFloor:
    """np.full((2, 2, 2), 1e150), whose rounding floor eps/2 * hs_norm(T) is 3.1e134.

    The search's gate and verify_triple share one residual routine, so a triple the search lists
    verifies with the same residuals; and a residual_tol below the floor, where a gate would pass or
    refuse a triple by how its last bits round, is refused by every entry point alike."""

    T = Tensor3.from_array(np.full((2, 2, 2), 1e150))
    U = np.full(2, np.sqrt(0.5))

    def test_below_the_floor_the_norm_spectrum_verification_and_cli_all_refuse(self, tensor_file, tmp_path, capsys):
        exact = make_triple(2.0 * np.sqrt(2.0) * 1e150, self.U, self.U, self.U)
        for call in (operator_norm, enumerate_triples, schmidt_decompose):
            with pytest.raises(ValueError, match="rounding floor 3.14e"):
                call(self.T, SearchConfig())
        for check in (verify_triple, is_ordered):
            with pytest.raises(ValueError, match="tolerance 1e-09 lies below"):
                check(self.T, exact, 1e-9)
        assert cli.main(["spectrum", str(tensor_file(self.T)), "--json"]) == 2
        assert "rounding floor" in capsys.readouterr().err
        # verify refuses the tolerance itself, before it reads the triples: with none listed, as with one.
        for listed in ([], [{"tau": exact.tau, "x": self.U.tolist(), "y": self.U.tolist(), "z": self.U.tolist()}]):
            triples = tmp_path / "triples.json"
            triples.write_text(json.dumps({"triples": listed}))
            assert cli.main(["verify", str(tensor_file(self.T)), str(triples)]) == 2
            err = capsys.readouterr().err
            assert "rounding floor" in err and "triple 1" not in err

    def test_a_tolerance_in_the_underflow_range_is_refused_whatever_the_tensor(self, tensor_file, capsys):
        # At 1e-162 this tensor's floor is 3.5e-178, but below 2**-511 the squares of residual entries are
        # subnormal: the search once returned a norm whose factors were off the unit sphere by up to 0.24.
        T = Tensor3.from_array(1e-162 * np.random.default_rng([6, 3]).standard_normal((3, 3, 3)))
        e1 = np.eye(3)[0]
        rep, _ = schmidt_decompose(T, SearchConfig(residual_tol=2.0**-511))
        calls = [
            lambda: operator_norm(T, SearchConfig(residual_tol=1e-176)),
            lambda: enumerate_triples(T, SearchConfig(residual_tol=1e-176)),
            lambda: verify_triple(T, make_triple(1e-162, e1, e1, e1), 1e-176),
            lambda: schmidt_decompose(T, SearchConfig(residual_tol=1e-176)),
            lambda: verify_representation(T, rep, 1e-176),
        ]
        message = r"^tolerance 1e-176 lies below 2\*\*-511 \(1\.49e-154\), where squared residual entries are subnormal$"
        for call in calls:
            with pytest.raises(ValueError, match=message):
                call()
        assert cli.main(["norm", str(tensor_file(T)), "--tol", "1e-176"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "lies below 2**-511" in err
        # At the bound itself the tolerance is accepted; hs_norm(T) lies below it, so the norm is 0.
        assert operator_norm(T, SearchConfig(residual_tol=2.0**-511)) == (0.0, None)

    @pytest.mark.parametrize("tol", [float("nan"), -1.0, float("inf"), 0.0])
    def test_the_floor_check_refuses_a_tolerance_not_positive_and_finite_first(self, tol):
        # The one owner of the tolerance rule: -1 and 0 lie below the floor too, and the first message wins.
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            _check_floor(self.T, tol)

    def test_above_the_floor_they_agree(self, tensor_file, capsys):
        cfg = SearchConfig(residual_tol=1e140)
        value, attained = operator_norm(self.T, cfg)
        spectrum = enumerate_triples(self.T, cfg)
        code = cli.main(["spectrum", str(tensor_file(self.T)), "--tol", "1e140", "--json"])
        assert spectrum.triples and value == spectrum.triples[0].tau
        for triple in (attained, *spectrum.triples):
            check = verify_triple(self.T, triple, 1e140)
            assert check.verified and (check.r1, check.r2, check.r3) == triple.residuals
        assert code == 0
        out, err = capsys.readouterr()
        assert err == ""
        listed = json.loads(out)["result"]["triples"]
        assert [(e["tau"], e["residuals"]) for e in listed] == [(t.tau, list(t.residuals)) for t in spectrum.triples]
