"""Symmetry predicates, signed weight recovery, Schur verification."""

import numpy as np
import pytest

from bilop import (
    SchmidtRepresentation,
    SchmidtStatus,
    SchmidtTerm,
    SchurInconsistencyError,
    SchurRepresentation,
    SchurTerm,
    SearchConfig,
    Tensor3,
    apply,
    gallery,
    is_self_adjoint,
    is_symmetric,
    schmidt_decompose,
    schur_from_schmidt,
    verify_schur,
)

CFG = SearchConfig(starts=16)


@pytest.fixture(scope="module")
def signed_diag():
    return gallery.signed_diagonal((3.0, -2.0, 1.0))


@pytest.fixture(scope="module")
def signed_diag_schur(signed_diag):
    rep, _ = schmidt_decompose(signed_diag, CFG)
    return schur_from_schmidt(signed_diag, rep, 1e-9)


def fully_symmetrized(rng: np.random.Generator, n: int) -> Tensor3:
    arr = rng.standard_normal((n, n, n))
    perms = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    sym = sum(arr.transpose(p) for p in perms) / 6.0
    return Tensor3.from_array(sym)


class TestSymmetryPredicates:
    def test_diagonal_is_symmetric_and_self_adjoint(self, signed_diag):
        assert is_symmetric(signed_diag)
        assert is_self_adjoint(signed_diag)

    def test_fully_symmetrized_random_is_self_adjoint(self):
        T = fully_symmetrized(np.random.default_rng(7), 4)
        assert is_symmetric(T)
        assert is_self_adjoint(T)

    def test_lone_off_diagonal_entry_breaks_self_adjointness(self):
        arr = np.zeros((2, 2, 2))
        arr[0, 0, 1] = 1.0
        T = Tensor3.from_array(arr)
        assert is_symmetric(T)
        assert not is_self_adjoint(T)

    def test_argument_swap_asymmetry_is_detected(self):
        arr = np.zeros((2, 2, 2))
        arr[0, 1, 0] = 1.0
        assert not is_symmetric(Tensor3.from_array(arr))

    def test_rectangular_operators_are_rejected(self, diag_pair):
        with pytest.raises(ValueError):
            is_symmetric(diag_pair)
        with pytest.raises(ValueError):
            is_self_adjoint(diag_pair)

    def test_self_adjoint_needs_all_three_dims_equal(self):
        T = Tensor3.from_array(np.zeros((2, 2, 3)))
        assert is_symmetric(T)
        with pytest.raises(ValueError):
            is_self_adjoint(T)


class TestSchurFromSchmidt:
    def test_signed_diagonal_weights_recovered_exactly(self, signed_diag_schur):
        lams = [t.lam for t in signed_diag_schur.terms]
        assert lams == pytest.approx([3.0, -2.0, 1.0], abs=1e-10)
        want_axes = {3.0: 0, -2.0: 1, 1.0: 2}
        for term in signed_diag_schur.terms:
            axis = want_axes[round(term.lam, 6)]
            expected = np.zeros(3)
            expected[axis] = 1.0
            np.testing.assert_allclose(term.x, expected, atol=1e-8)

    def test_weight_magnitudes_match_singular_values(
        self, signed_diag, signed_diag_schur
    ):
        rep, _ = schmidt_decompose(signed_diag, CFG)
        taus = [t.tau for t in rep.terms]
        assert [abs(t.lam) for t in signed_diag_schur.terms] == pytest.approx(taus)

    def test_eigen_identity_holds_per_term(self, signed_diag, signed_diag_schur):
        for term in signed_diag_schur.terms:
            out = np.asarray(apply(signed_diag, term.x, term.x))
            np.testing.assert_allclose(out, term.lam * np.asarray(term.x), atol=1e-9)

    def test_repeated_weight_magnitudes_survive(self):
        T = gallery.signed_diagonal((1.0, 1.0))
        rep, _ = schmidt_decompose(T, CFG)
        schur = schur_from_schmidt(T, rep, 1e-9)
        assert sorted(t.lam for t in schur.terms) == pytest.approx([1.0, 1.0])

    def test_rejects_non_self_adjoint_input(self):
        arr = np.zeros((2, 2, 2))
        arr[0, 0, 1] = 1.0
        T = Tensor3.from_array(arr)
        rep, _ = schmidt_decompose(T, CFG)
        with pytest.raises(ValueError):
            schur_from_schmidt(T, rep, 1e-9)

    def test_rejects_an_asymmetric_input(self):
        arr = np.zeros((2, 2, 2))
        arr[0, 1, 0] = 1.0
        T = Tensor3.from_array(arr)
        rep = SchmidtRepresentation((2, 2, 2), (), 1.0, SchmidtStatus.COMPLETE)
        with pytest.raises(ValueError, match="operator is not symmetric"):
            schur_from_schmidt(T, rep, 1e-9)

    def test_misaligned_term_raises_inconsistency(self):
        # 2 e1 (x) e1 (x) e1 plus a term of weight 1e-12 whose y is e3, orthogonal to its x = e2: the
        # representation verifies at tol = 1e-9, but that term's <y, x> is 0 rather than +-1.
        e1, e2, e3 = np.eye(3)
        T = Tensor3.from_array(2.0 * np.einsum("i,j,k->ijk", e1, e1, e1))
        terms = (SchmidtTerm(2.0, e1, e1, e1), SchmidtTerm(1e-12, e2, e3, e2))
        rep = SchmidtRepresentation((3, 3, 3), terms, 1e-12, SchmidtStatus.COMPLETE)
        with pytest.raises(SchurInconsistencyError, match=r"^term 2: alignment factors <y,x> = 0"):
            schur_from_schmidt(T, rep, 1e-9)

    def test_rejects_failed_representation(self, signed_diag):
        failed = SchmidtRepresentation(
            dims=(3, 3, 3),
            terms=(),
            reconstruction_residual=float(np.sqrt(14.0)),
            status=SchmidtStatus.FAILED,
        )
        with pytest.raises(ValueError):
            schur_from_schmidt(signed_diag, failed, 1e-9)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0])
    def test_rejects_a_tolerance_not_positive_and_finite(self, signed_diag, tol):
        rep, _ = schmidt_decompose(signed_diag, CFG)
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            schur_from_schmidt(signed_diag, rep, tol)

    def test_refusal_names_each_failed_condition(self, signed_diag):
        # x1, y1 and z1 tilted 1e-6 toward e2: the families' Gram deviation, about 1e-6, exceeds the 1e-8
        # family bound, while the reconstruction residual and diagonal deviation stay within tol = 1e-4.
        rep, _ = schmidt_decompose(signed_diag, CFG)
        first = rep.terms[0]
        tilt = lambda v: (v + [0.0, 1e-6, 0.0]) / np.linalg.norm(v + [0.0, 1e-6, 0.0])  # noqa: E731
        tilted = SchmidtTerm(first.tau, tilt(first.x), tilt(first.y), tilt(first.z))
        hand = SchmidtRepresentation(rep.dims, (tilted, *rep.terms[1:]), rep.reconstruction_residual, SchmidtStatus.COMPLETE)
        with pytest.raises(ValueError, match=r"operator: max Gram deviation 1\.000e-06 > 1e-08$"):
            schur_from_schmidt(signed_diag, hand, 1e-4)

    def test_inconsistency_is_not_an_argument_error(self):
        # The two failure modes must stay distinguishable for callers
        # that map argument errors and structural violations differently.
        assert issubclass(SchurInconsistencyError, RuntimeError)
        assert not issubclass(SchurInconsistencyError, ValueError)


class TestVerifySchur:
    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0])
    def test_rejects_a_tolerance_not_positive_and_finite(self, signed_diag, signed_diag_schur, tol):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            verify_schur(signed_diag, signed_diag_schur, tol)

    def test_known_good_representation_passes(self, signed_diag, signed_diag_schur):
        check = verify_schur(signed_diag, signed_diag_schur, 1e-9)
        assert check.all_ok
        assert check.reconstruction_residual <= 1e-12

    def test_sign_flip_shows_up_as_residual(self, signed_diag, signed_diag_schur):
        terms = list(signed_diag_schur.terms)
        flipped = SchurTerm(lam=-terms[1].lam, x=terms[1].x)
        broken = SchurRepresentation(
            dim=signed_diag_schur.dim,
            terms=(terms[0], flipped, terms[2]),
        )
        check = verify_schur(signed_diag, broken, 1e-9)
        assert not check.reconstruction_ok
        assert check.reconstruction_residual == pytest.approx(4.0, abs=1e-9)
        assert check.orthonormal
        assert check.monotone

    def test_rejects_unequal_dims(self, diag_pair):
        with pytest.raises(ValueError, match="verify_schur needs equal dims"):
            verify_schur(diag_pair, SchurRepresentation(dim=3, terms=()), 1e-9)

    def test_empty_representation_matches_zero_operator(self):
        T = Tensor3.from_array(np.zeros((3, 3, 3)))
        schur = SchurRepresentation(dim=3, terms=())
        assert verify_schur(T, schur, 1e-9).all_ok


class TestPlantedRoundTrip:
    def test_signed_weights_and_axes_come_back(self, planted_schur_factory):
        for seed in range(8):
            T, lams, Q = planted_schur_factory(seed)
            rep, report = schmidt_decompose(T, CFG)
            assert rep.status is SchmidtStatus.COMPLETE, report.failure
            schur = schur_from_schmidt(T, rep, 1e-9)
            assert len(schur.terms) == len(lams)
            for i, term in enumerate(schur.terms):
                assert term.lam == pytest.approx(lams[i], abs=1e-8)
                np.testing.assert_allclose(term.x, Q[:, i], atol=1e-6)

    def test_schur_reconstruction_matches_pointwise(self, planted_schur_factory):
        T, _, _ = planted_schur_factory(11)
        rep, _ = schmidt_decompose(T, CFG)
        schur = schur_from_schmidt(T, rep, 1e-9)
        n = schur.dim
        recon = np.zeros((n, n, n))
        for term in schur.terms:
            x = np.asarray(term.x)
            recon += term.lam * np.einsum("i,j,k->ijk", x, x, x)
        np.testing.assert_allclose(recon, T.array, atol=1e-10)
