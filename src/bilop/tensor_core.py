"""Dense data model for bilinear operators between real Hilbert spaces.

A bilinear operator T: H1 x H2 -> K with dim H1 = n1, dim H2 = n2 and
dim K = n3 is stored as the dense third-order array of its coefficients
t[i][j][k] = <T(e_i, f_j), g_k> in fixed orthonormal bases, flattened in
row-major order (k fastest). This module owns that data model and its
JSON form, the single-vector contractions, norms and basis changes, and
the rank-one term product that deflation and assembly share; the batched
contraction kernel is spectra's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, Union

import numpy as np

__all__ = [
    "VectorH",
    "Tensor3",
    "apply",
    "adjoint_contract_1",
    "adjoint_contract_2",
    "hs_norm",
    "change_basis",
    "deflate_term",
    "from_schmidt",
    "tensor_to_json_dict",
    "tensor_from_json_dict",
]

#: Space tags for vectors: first argument, second argument, codomain.
SPACES = ("H1", "H2", "K")

#: Tolerance for the orthogonality check in :func:`change_basis`.
ORTHO_TOL = 1e-10

ArrayLike = Union["VectorH", Sequence[float], np.ndarray]


def _clean_1d(entries: ArrayLike, what: str) -> np.ndarray:
    arr = np.asarray(entries, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{what} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{what} must be nonempty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} contains non-finite entries")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class VectorH:
    """A vector living in one of the three spaces H1, H2 or K."""

    entries: np.ndarray
    space: str

    def __post_init__(self) -> None:
        if self.space not in SPACES:
            raise ValueError(f"space must be one of {SPACES}, got {self.space!r}")
        object.__setattr__(self, "entries", _clean_1d(self.entries, "vector"))

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        if dtype is not None:
            return self.entries.astype(dtype)
        return self.entries

    def __len__(self) -> int:
        return self.entries.size

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.entries))


def _as_entries(v: ArrayLike, space: str, dim: int, what: str) -> np.ndarray:
    """Coerce a vector argument to a validated 1-D float array of length dim."""
    if isinstance(v, VectorH):
        if v.space != space:
            raise ValueError(f"{what} must live in {space}, got a {v.space} vector")
        arr = v.entries
    else:
        arr = _clean_1d(v, what)
    if arr.size != dim:
        raise ValueError(f"{what} has dimension {arr.size}, expected {dim}")
    return arr


@dataclass(frozen=True, eq=False)
class Tensor3:
    """A bilinear operator as a dense third-order coefficient array.

    dims is (n1, n2, n3); values holds the n1*n2*n3 coefficients flattened
    row-major with the K index fastest. The entries and the Hilbert-Schmidt
    norm (the Frobenius norm of the values) must be finite. Instances are
    immutable and safe to share across threads.
    """

    dims: tuple[int, int, int]
    values: np.ndarray
    name: Optional[str] = field(default=None)

    def __post_init__(self) -> None:
        dims = tuple(int(d) for d in self.dims)
        if len(dims) != 3 or any(d < 1 for d in dims):
            raise ValueError(f"dims must be three positive integers, got {self.dims}")
        object.__setattr__(self, "dims", dims)
        arr = np.asarray(self.values, dtype=float).reshape(-1)
        n1, n2, n3 = dims
        if arr.size != n1 * n2 * n3:
            raise ValueError(
                f"values has length {arr.size}, expected {n1 * n2 * n3} for dims {dims}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("tensor values contain non-finite entries")
        with np.errstate(over="ignore"):
            if not np.isfinite(np.linalg.norm(arr)):
                raise ValueError("tensor values overflow: their Hilbert-Schmidt norm is not finite")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @classmethod
    def from_array(cls, array: np.ndarray, name: Optional[str] = None) -> "Tensor3":
        arr = np.asarray(array, dtype=float)
        if arr.ndim != 3:
            raise ValueError(f"expected a 3-D array, got shape {arr.shape}")
        return cls(dims=arr.shape, values=arr.reshape(-1), name=name)

    @property
    def array(self) -> np.ndarray:
        """The coefficients as an (n1, n2, n3) read-only view."""
        return self.values.reshape(self.dims)


def apply(T: Tensor3, x: ArrayLike, y: ArrayLike) -> VectorH:
    """Evaluate T(x, y) in K: z_k = sum_ij t[i][j][k] x_i y_j."""
    xa = _as_entries(x, "H1", T.dims[0], "x")
    ya = _as_entries(y, "H2", T.dims[1], "y")
    z = np.einsum("ijk,i,j->k", T.array, xa, ya)
    return VectorH(z, "K")


def adjoint_contract_1(T: Tensor3, y: ArrayLike, z: ArrayLike) -> VectorH:
    """Contract against the first argument: x_i = sum_jk t[i][j][k] y_j z_k.

    This is the adjoint of the partial map obtained by freezing y, so
    <apply(T, x, y), z> = <x, adjoint_contract_1(T, y, z)> for every x.
    """
    ya = _as_entries(y, "H2", T.dims[1], "y")
    za = _as_entries(z, "K", T.dims[2], "z")
    x = np.einsum("ijk,j,k->i", T.array, ya, za)
    return VectorH(x, "H1")


def adjoint_contract_2(T: Tensor3, x: ArrayLike, z: ArrayLike) -> VectorH:
    """Contract against the second argument: y_j = sum_ik t[i][j][k] x_i z_k."""
    xa = _as_entries(x, "H1", T.dims[0], "x")
    za = _as_entries(z, "K", T.dims[2], "z")
    y = np.einsum("ijk,i,k->j", T.array, xa, za)
    return VectorH(y, "H2")


def hs_norm(T: Tensor3) -> float:
    """Hilbert-Schmidt norm: the Frobenius norm of the coefficient array.

    Equal to sqrt(sum_mn ||T(u_m, v_n)||^2) over any orthonormal bases, and
    independent of the basis choice (orthogonal invariance of the Frobenius
    norm; exercised by the test suite through change_basis).
    """
    return float(np.linalg.norm(T.values))


def _check_orthogonal(M: np.ndarray, dim: int, what: str) -> np.ndarray:
    arr = np.asarray(M, dtype=float)
    if arr.shape != (dim, dim):
        raise ValueError(f"{what} must be a {dim}x{dim} matrix, got shape {arr.shape}")
    defect = np.max(np.abs(arr.T @ arr - np.eye(dim)))
    if defect > ORTHO_TOL:
        raise ValueError(f"{what} is not orthogonal (defect {defect:.3e})")
    return arr


def change_basis(T: Tensor3, U: np.ndarray, V: np.ndarray, W: np.ndarray) -> Tensor3:
    """Express the same operator in rotated orthonormal bases.

    U, V, W act on H1, H2, K respectively (columns are the new basis
    vectors in the old coordinates): t'[a][b][c] = sum t[i][j][k] U_ia V_jb W_kc.
    """
    n1, n2, n3 = T.dims
    Ua = _check_orthogonal(U, n1, "U")
    Va = _check_orthogonal(V, n2, "V")
    Wa = _check_orthogonal(W, n3, "W")
    # One mode at a time, O(n^4): each product turns the leading index into a trailing one.
    arr = T.array
    for M in (Ua, Va, Wa):
        arr = np.tensordot(arr, M, axes=(0, 0))
    return Tensor3.from_array(arr, name=T.name)


def _rank_one(tau: float, x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The array of tau * x (x) y (x) z: (x_i y_j) z_k, then times tau."""
    return tau * (x[:, None, None] * y[:, None] * z)


def deflate_term(
    T: Tensor3, tau: float, x: ArrayLike, y: ArrayLike, z: ArrayLike
) -> Tensor3:
    """Subtract the rank-one tensor tau * x (x) y (x) z entrywise."""
    xa = _as_entries(x, "H1", T.dims[0], "x")
    ya = _as_entries(y, "H2", T.dims[1], "y")
    za = _as_entries(z, "K", T.dims[2], "z")
    arr = T.array - _rank_one(float(tau), xa, ya, za)
    return Tensor3.from_array(arr, name=T.name)


def from_schmidt(
    terms: Iterable[tuple[float, ArrayLike, ArrayLike, ArrayLike]],
    dims: Optional[tuple[int, int, int]] = None,
    name: Optional[str] = None,
) -> Tensor3:
    """Assemble sum_i tau_i * x_i (x) y_i (x) z_i as a Tensor3.

    dims is required when terms is empty (the zero tensor has no other way
    to learn its shape); otherwise it is inferred from the first term and
    all terms must agree with it.
    """
    term_list = list(terms)
    if not term_list:
        if dims is None:
            raise ValueError("dims must be supplied when terms is empty")
        n1, n2, n3 = dims
        return Tensor3(dims=(n1, n2, n3), values=np.zeros(n1 * n2 * n3), name=name)
    if dims is None:
        t0 = term_list[0]
        dims = (np.asarray(t0[1]).size, np.asarray(t0[2]).size, np.asarray(t0[3]).size)
    n1, n2, n3 = dims
    arr = np.zeros((n1, n2, n3))
    for tau, x, y, z in term_list:
        xa = _as_entries(x, "H1", n1, "x")
        ya = _as_entries(y, "H2", n2, "y")
        za = _as_entries(z, "K", n3, "z")
        arr += _rank_one(float(tau), xa, ya, za)
    return Tensor3.from_array(arr, name=name)


def tensor_to_json_dict(T: Tensor3) -> dict:
    """The canonical JSON form: {"name"?, "dims", "values"} (row-major, k fastest)."""
    out: dict = {}
    if T.name is not None:
        out["name"] = T.name
    out["dims"] = list(T.dims)
    out["values"] = [float(v) for v in T.values]
    return out


def _json_floats(values: object, what: str) -> np.ndarray:
    """A JSON list of numbers as a float array; ValueError naming what unless every entry is a number (a bool is
    not) that fits a float."""
    if not isinstance(values, list) or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values):
        raise ValueError(f"{what} must be a list of numbers")
    try:
        return np.asarray(values, dtype=float)
    except OverflowError:
        raise ValueError(f"{what} holds a number beyond the float range") from None


def tensor_from_json_dict(data: object) -> Tensor3:
    """Parse the canonical JSON form, raising ValueError on any malformation."""
    if not isinstance(data, dict):
        raise ValueError("tensor JSON must be an object")
    unknown = set(data) - {"name", "dims", "values"}
    if unknown:
        raise ValueError(f"unknown tensor JSON keys: {sorted(unknown)}")
    if "dims" not in data or "values" not in data:
        raise ValueError('tensor JSON requires "dims" and "values"')
    dims = data["dims"]
    if (
        not isinstance(dims, list)
        or len(dims) != 3
        or not all(isinstance(d, int) and not isinstance(d, bool) for d in dims)
    ):
        raise ValueError('"dims" must be a list of three integers')
    values = _json_floats(data["values"], '"values"')
    name = data.get("name")
    if name is not None and not isinstance(name, str):
        raise ValueError('"name" must be a string when present')
    return Tensor3(dims=tuple(dims), values=values, name=name)
