"""Data model, contractions, norms, basis changes, JSON round trip."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bilop import (
    Tensor3,
    VectorH,
    adjoint_contract_1,
    adjoint_contract_2,
    apply,
    change_basis,
    deflate_term,
    from_schmidt,
    hs_norm,
    tensor_from_json_dict,
    tensor_to_json_dict,
)
from conftest import random_orthonormal


def random_tensor(seed: int, dims=(3, 2, 4)) -> Tensor3:
    rng = np.random.default_rng(seed)
    return Tensor3.from_array(rng.standard_normal(dims))


class TestVectorH:
    def test_valid_vector(self):
        v = VectorH(entries=np.array([3.0, 4.0]), space="H1")
        assert len(v) == 2
        assert v.norm == pytest.approx(5.0)

    def test_entries_are_read_only(self):
        v = VectorH(entries=np.array([1.0, 0.0]), space="K")
        with pytest.raises(ValueError):
            v.entries[0] = 2.0

    def test_rejects_bad_space_tag(self):
        with pytest.raises(ValueError):
            VectorH(entries=np.array([1.0]), space="H3")

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            VectorH(entries=np.array([1.0, np.nan]), space="H1")

    def test_rejects_empty_input(self):
        with pytest.raises(ValueError, match="must be nonempty"):
            VectorH(entries=np.array([]), space="H1")

    def test_array_conversion_honours_a_dtype(self):
        v = VectorH(entries=np.array([0.5, -1.0]), space="H2")
        out = np.asarray(v, dtype=np.float32)
        assert out.dtype == np.float32
        np.testing.assert_array_equal(out, [0.5, -1.0])

    def test_rejects_matrix_input(self):
        with pytest.raises(ValueError):
            VectorH(entries=np.eye(2), space="H1")


class TestTensor3:
    def test_from_array_round_trips_values(self):
        arr = np.arange(24.0).reshape(3, 2, 4)
        T = Tensor3.from_array(arr)
        assert T.dims == (3, 2, 4)
        np.testing.assert_array_equal(T.array, arr)

    def test_values_are_row_major_k_fastest(self):
        arr = np.zeros((2, 2, 2))
        arr[1, 0, 1] = 5.0
        T = Tensor3.from_array(arr)
        assert T.values[1 * 4 + 0 * 2 + 1] == 5.0

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            Tensor3(dims=(2, 2, 2), values=np.zeros(7))

    def test_rejects_nonfinite_entries(self):
        vals = np.zeros(8)
        vals[3] = np.inf
        # Finite entries whose Hilbert-Schmidt norm overflows are refused too.
        gauss = np.random.default_rng(1).standard_normal(64)
        for dims, values in (((2, 2, 2), vals), ((2, 2, 2), np.full(8, 1e300)), ((4, 4, 4), 1e200 * gauss)):
            with pytest.raises(ValueError):
                Tensor3(dims=dims, values=values)

    def test_from_array_rejects_a_non_3d_array(self):
        with pytest.raises(ValueError, match="expected a 3-D array"):
            Tensor3.from_array(np.zeros((2, 2)))

    def test_rejects_nonpositive_dims(self):
        with pytest.raises(ValueError):
            Tensor3(dims=(2, 0, 2), values=np.zeros(0))


class TestContractions:
    def test_apply_matches_componentwise_formula(self, overlap):
        # T(a, b) = (a1 b1, (a1 + a2) b1, a1 b1, (a1 + a3) b2)
        a = np.array([0.3, -1.2, 2.0])
        b = np.array([0.7, 0.4])
        out = np.asarray(apply(overlap, a, b))
        expected = np.array(
            [a[0] * b[0], (a[0] + a[1]) * b[0], a[0] * b[0], (a[0] + a[2]) * b[1]]
        )
        np.testing.assert_allclose(out, expected, atol=1e-15)

    def test_apply_returns_vector_in_output_space(self, diag_pair):
        out = apply(diag_pair, np.array([0.0, 1.0, 0.0]), np.array([0.0, 1.0]))
        assert isinstance(out, VectorH)
        assert out.space == "K"
        np.testing.assert_allclose(np.asarray(out), [0.0, 3.0, 0.0, 0.0])

    def test_apply_rejects_wrong_dimension(self, diag_pair):
        with pytest.raises(ValueError):
            apply(diag_pair, np.array([1.0, 0.0]), np.array([1.0, 0.0]))

    def test_apply_rejects_wrong_space_tag(self, diag_pair):
        y_tagged_as_k = VectorH(entries=np.array([1.0, 0.0]), space="K")
        with pytest.raises(ValueError):
            apply(diag_pair, np.array([1.0, 0.0, 0.0]), y_tagged_as_k)

    def test_tagged_vectors_match_plain_arrays(self, overlap):
        x, y, z = np.array([0.3, -1.2, 2.0]), np.array([0.7, 0.4]), np.array([1.0, -0.5, 0.25, 2.0])
        xh, yh, zh = VectorH(x, "H1"), VectorH(y, "H2"), VectorH(z, "K")
        pairs = [
            (apply(overlap, xh, yh), apply(overlap, x, y)),
            (adjoint_contract_1(overlap, yh, zh), adjoint_contract_1(overlap, y, z)),
            (adjoint_contract_2(overlap, xh, zh), adjoint_contract_2(overlap, x, z)),
        ]
        for tagged, plain in pairs:
            np.testing.assert_array_equal(np.asarray(tagged), np.asarray(plain))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_adjoint_identities(self, seed):
        # <T(x,y), z> = <contract_1(y,z), x> = <contract_2(x,z), y>
        rng = np.random.default_rng(seed)
        T = Tensor3.from_array(rng.standard_normal((3, 2, 4)))
        x = rng.standard_normal(3)
        y = rng.standard_normal(2)
        z = rng.standard_normal(4)
        lhs = float(np.asarray(apply(T, x, y)) @ z)
        via_1 = float(np.asarray(adjoint_contract_1(T, y, z)) @ x)
        via_2 = float(np.asarray(adjoint_contract_2(T, x, z)) @ y)
        assert lhs == pytest.approx(via_1, abs=1e-12)
        assert lhs == pytest.approx(via_2, abs=1e-12)


class TestHsNorm:
    def test_matches_entry_sum_of_squares(self, diag_pair, overlap):
        assert hs_norm(diag_pair) == pytest.approx(np.sqrt(13.0), abs=1e-13)
        assert hs_norm(overlap) == pytest.approx(np.sqrt(6.0), abs=1e-13)

    def test_zero_tensor(self):
        assert hs_norm(Tensor3.from_array(np.zeros((2, 3, 2)))) == 0.0

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_invariant_under_orthogonal_basis_change(self, seed):
        rng = np.random.default_rng(seed)
        T = random_tensor(seed)
        U = random_orthonormal(rng, 3)
        V = random_orthonormal(rng, 2)
        W = random_orthonormal(rng, 4)
        changed = change_basis(T, U, V, W)
        assert hs_norm(changed) == pytest.approx(hs_norm(T), abs=1e-12)


class TestChangeBasis:
    def test_identity_change_is_identity(self, diag_pair):
        same = change_basis(diag_pair, np.eye(3), np.eye(2), np.eye(4))
        np.testing.assert_allclose(same.array, diag_pair.array, atol=1e-15)

    def test_rejects_non_orthogonal_matrix(self, diag_pair):
        bad = np.eye(3)
        bad[0, 1] = 0.5
        with pytest.raises(ValueError):
            change_basis(diag_pair, bad, np.eye(2), np.eye(4))

    def test_rejects_wrong_shape(self, diag_pair):
        with pytest.raises(ValueError):
            change_basis(diag_pair, np.eye(2), np.eye(2), np.eye(4))

    def test_matches_the_four_operand_contraction(self):
        rng = np.random.default_rng(16)
        T = Tensor3.from_array(rng.standard_normal((16, 16, 16)))
        U, V, W = (random_orthonormal(rng, 16) for _ in range(3))
        want = np.einsum("ijk,ia,jb,kc->abc", T.array, U, V, W)
        np.testing.assert_allclose(change_basis(T, U, V, W).array, want, rtol=0, atol=1e-12)


class TestRankOneArithmetic:
    def test_deflate_removes_planted_term(self):
        x = np.array([1.0, 0.0])
        y = np.array([0.0, 1.0])
        z = np.array([0.0, 0.0, 1.0])
        T = from_schmidt([(2.5, x, y, z)])
        remainder = deflate_term(T, 2.5, x, y, z)
        assert hs_norm(remainder) == pytest.approx(0.0, abs=1e-15)

    def test_from_schmidt_sums_terms(self):
        e1 = np.array([1.0, 0.0])
        e2 = np.array([0.0, 1.0])
        T = from_schmidt([(2.0, e1, e1, e1), (3.0, e2, e2, e2)])
        arr = np.zeros((2, 2, 2))
        arr[0, 0, 0] = 2.0
        arr[1, 1, 1] = 3.0
        np.testing.assert_allclose(T.array, arr)

    def test_from_schmidt_empty_needs_dims(self):
        T = from_schmidt([], dims=(2, 3, 2))
        assert T.dims == (2, 3, 2)
        assert hs_norm(T) == 0.0
        with pytest.raises(ValueError):
            from_schmidt([])


class TestJsonRoundTrip:
    def test_round_trip_preserves_everything(self, overlap):
        data = tensor_to_json_dict(overlap)
        back = tensor_from_json_dict(data)
        assert back.dims == overlap.dims
        assert back.name == overlap.name
        np.testing.assert_array_equal(back.array, overlap.array)

    def test_dict_has_plain_types(self, diag_pair):
        data = tensor_to_json_dict(diag_pair)
        assert isinstance(data["dims"], list)
        assert all(isinstance(d, int) for d in data["dims"])
        assert all(isinstance(v, float) for v in data["values"])

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda d: d.pop("dims"),
            lambda d: d.__setitem__("dims", [2, 2]),
            lambda d: d.__setitem__("dims", [2, 2, "2"]),
            lambda d: d.__setitem__("values", d["values"][:-1]),
            lambda d: d.__setitem__("values", "not a list"),
            lambda d: d.__setitem__("name", 7),
            lambda d: d.__setitem__("extra_key", 1),
            lambda d: d.__setitem__("values", [10**400] * len(d["values"])),  # beyond the float range
        ],
    )
    def test_rejects_malformed_dicts(self, diag_pair, mangle):
        data = tensor_to_json_dict(diag_pair)
        mangle(data)
        with pytest.raises(ValueError):
            tensor_from_json_dict(data)

    @pytest.mark.parametrize("data", [[2, 2, 2], "tensor", None])
    def test_rejects_json_that_is_not_an_object(self, data):
        with pytest.raises(ValueError, match="must be an object"):
            tensor_from_json_dict(data)
