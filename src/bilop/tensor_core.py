"""Dense data model for bilinear operators between real Hilbert spaces.

A bilinear operator T: H1 x H2 -> K with dim H1 = n1, dim H2 = n2 and
dim K = n3 is stored as the dense third-order array of its coefficients
t[i][j][k] = <T(e_i, f_j), g_k> in fixed orthonormal bases, flattened in
row-major order (k fastest). This module owns that data model and its
JSON form, norms and basis changes, the rank-one term product that
deflation and assembly share, and the one batched contraction kernel,
_contract: the public T(x, y) and adjoint contractions are its one-row
calls, spectra's search calls it on whole batches, and spectra's residual
routine forms the same products in the same row blocks, so
apply(T, x, y) - tau z is bit for bit the residual the search's gate reads.
"""

from __future__ import annotations

import contextlib
import contextvars
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence, Union

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

#: The one row-block budget (_row_blocks) in float64 entries (512 KiB): of a _contract or residual
#: block's temporary, and of a Newton step block's square Jacobians. Larger batches go block by block.
_CONTRACT_BLOCK = 1 << 16

#: Norms below this count as "a zero vector" during normalization.
_ZERO_NORM = 1e-250

#: None, or the dict of the innermost _probe(): the search's phases append their records to it.
_PROBE: contextvars.ContextVar[Optional[dict]] = contextvars.ContextVar("bilop_probe", default=None)

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


def _factors(dims: Sequence[int], **vectors: ArrayLike) -> tuple[np.ndarray, ...]:
    """The vector arguments of an operator of these dims as validated 1-D float arrays, in the order given.

    Each keyword is the caller's label for the vector, which the messages name, and its first letter the
    factor: x lives in H1 with dims[0] entries, y in H2 with dims[1], z in K with dims[2].
    """
    out = []
    for what, v in vectors.items():
        mode = "xyz".index(what[0])
        if isinstance(v, VectorH):
            if v.space != SPACES[mode]:
                raise ValueError(f"{what} must live in {SPACES[mode]}, got a {v.space} vector")
            arr = v.entries
        else:
            arr = _clean_1d(v, what)
        if arr.size != dims[mode]:
            raise ValueError(f"{what} has dimension {arr.size}, expected {dims[mode]}")
        out.append(arr)
    return tuple(out)


def _int_at_least(value, low: int) -> bool:
    """value is a Python or numpy int, never a bool or a float, of at least low: the one integer rule of
    Tensor3's dims, spectra.SearchConfig and oracle.GridSpec (an equal float would otherwise share a memoised
    search)."""
    return not isinstance(value, bool) and isinstance(value, (int, np.integer)) and value >= low


def _checked_dims(dims) -> tuple[int, int, int]:
    """dims as three Python ints, each passing _int_at_least(d, 1); ValueError otherwise, whatever dims is."""
    try:
        given = tuple(dims)
    except TypeError:  # not iterable: 5, None
        given = ()
    if len(given) != 3 or not all(_int_at_least(d, 1) for d in given):
        raise ValueError(f"dims must be three positive integers, got {dims}")
    return tuple(int(d) for d in given)


@dataclass(frozen=True, eq=False)
class Tensor3:
    """A bilinear operator as a dense third-order coefficient array.

    dims is (n1, n2, n3); values holds the n1*n2*n3 coefficients flattened
    row-major with the K index fastest; name is None or a string. The entries
    and the sum of their squares must be finite, as hs_norm and the search
    square unscaled: one entry of 1.3e154 is accepted, and one of 1.35e154 is
    refused though its norm is finite. Instances are immutable and safe to
    share across threads.
    """

    dims: tuple[int, int, int]
    values: np.ndarray
    name: Optional[str] = field(default=None)

    def __post_init__(self) -> None:
        if self.name is not None and not isinstance(self.name, str):
            raise ValueError('"name" must be a string when present')
        dims = _checked_dims(self.dims)
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
                raise ValueError("tensor values overflow: the sum of their squares is not finite")
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
    xa, ya = _factors(T.dims, x=x, y=y)
    return VectorH(_contract(T.array, 2, xa[None], ya[None])[0], "K")


def adjoint_contract_1(T: Tensor3, y: ArrayLike, z: ArrayLike) -> VectorH:
    """Contract against the first argument: x_i = sum_jk t[i][j][k] y_j z_k.

    This is the adjoint of the partial map obtained by freezing y, so
    <apply(T, x, y), z> = <x, adjoint_contract_1(T, y, z)> for every x.
    """
    ya, za = _factors(T.dims, y=y, z=z)
    return VectorH(_contract(T.array, 0, ya[None], za[None])[0], "H1")


def adjoint_contract_2(T: Tensor3, x: ArrayLike, z: ArrayLike) -> VectorH:
    """Contract against the second argument: y_j = sum_ik t[i][j][k] x_i z_k."""
    xa, za = _factors(T.dims, x=x, z=z)
    return VectorH(_contract(T.array, 1, xa[None], za[None])[0], "H2")


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
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} contains non-finite entries")
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


def _contract(arr: np.ndarray, mode: int, U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """One partial contraction of T per row of a block of vector pairs.

    mode is the factor left free; U and V hold one vector per row for the other two factors, in mode order:

        mode 2: T(x, y)          from (X, Y)
        mode 0: contract_1(y, z) from (Y, Z)
        mode 1: contract_2(x, z) from (X, Z)

    Each row block (_row_blocks) is one BLAS product of a factor with a mode unfolding of T (_product), giving
    an (rows, n_a, n_b) temporary, followed by a two-operand row reduction against the other factor. A row's
    result depends only on that row, never on the block or batch it is computed in.
    """
    n1, n2, n3 = arr.shape
    if mode == 0:
        first, second, unf, shape, spec = V, U, arr.reshape(n1 * n2, n3).T, (n1, n2), "sij,sj->si"
    elif mode == 1:
        first, second, unf, shape, spec = U, V, arr.reshape(n1, n2 * n3), (n2, n3), "sjk,sk->sj"
    else:
        first, second, unf, shape, spec = U, V, arr.reshape(n1, n2 * n3), (n2, n3), "sjk,sj->sk"
    blocks = _row_blocks(first.shape[0], unf.shape[1])
    if len(blocks) == 1:  # most batches: the block's result is the output
        return np.einsum(spec, _product(first, unf).reshape(-1, *shape), second)
    out = np.empty((first.shape[0], arr.shape[mode]))
    for b in blocks:
        np.einsum(spec, _product(first[b], unf).reshape(-1, *shape), second[b], out=out[b])
    return out


def _row_blocks(S: int, width: int) -> list[slice]:
    """The row blocks of an S-row batch whose rows each make width entries (of a product, or a square Jacobian): at
    most _CONTRACT_BLOCK entries per block, and at least two rows, so only a lone row or the last can be one."""
    step = max(2, _CONTRACT_BLOCK // width)
    return [slice(lo, lo + step) for lo in range(0, S, step)]


def _product(F: np.ndarray, unf: np.ndarray) -> np.ndarray:
    """F @ unf. numpy hands a one-row product to gemv, whose summation order differs from gemm's, so a lone
    row is computed doubled: every row is summed by gemm, whatever block it sits in."""
    return (np.repeat(F, 2, axis=0) @ unf)[:1] if F.shape[0] == 1 else F @ unf


@contextlib.contextmanager
def _probe():
    """Set a fresh dict as the probe and yield it: in the block, each call of spectra._als_batch, _finish and _listing
    and of _newton._newton_batch appends a record (its counts and seconds) to the list at "als", "finish", "listing"
    or "newton". No arithmetic reads the probe; unset, each of those calls pays one get() and counts nothing."""
    token = _PROBE.set({})
    try:
        yield _PROBE.get()
    finally:
        _PROBE.reset(token)


def _probed(phase: str) -> Optional[Callable[..., None]]:
    """None while no probe is set, else a function that appends its counts, with the seconds since now, to phase's list."""
    if (probe := _PROBE.get()) is None:
        return None
    began = time.perf_counter()
    return lambda **counts: probe.setdefault(phase, []).append({**counts, "seconds": time.perf_counter() - began})


def _row_norms(M: np.ndarray) -> np.ndarray:
    """Norms along the last axis: np.linalg.norm(M, axis=-1)'s reduction on real input, bit for bit."""
    return np.sqrt(np.add.reduce(M * M, axis=-1))


def _row_normalize(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    norms = _row_norms(M)
    safe = np.where(norms > _ZERO_NORM, norms, 1.0)
    return M / safe[:, None], norms


def deflate_term(
    T: Tensor3, tau: float, x: ArrayLike, y: ArrayLike, z: ArrayLike
) -> Tensor3:
    """Subtract the rank-one tensor tau * x (x) y (x) z entrywise."""
    arr = T.array - _rank_one(float(tau), *_factors(T.dims, x=x, y=y, z=z))
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
    if dims is not None:
        dims = _checked_dims(dims)
    elif not term_list:
        raise ValueError("dims must be supplied when terms is empty")
    else:
        dims = tuple(np.asarray(v).size for v in term_list[0][1:])
    arr = np.zeros(dims)
    for tau, x, y, z in term_list:
        arr += _rank_one(float(tau), *_factors(dims, x=x, y=y, z=z))
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
    return Tensor3(dims=data["dims"], values=_json_floats(data["values"], '"values"'), name=data.get("name"))
