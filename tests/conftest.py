"""Shared fixtures: gallery operators, cached spectra, planted generators."""

from __future__ import annotations

import json
import pathlib

import numpy as np
import pytest

from bilop import (
    SearchConfig,
    Tensor3,
    enumerate_triples,
    from_schmidt,
    gallery,
    tensor_to_json_dict,
)
from bilop._stream import start_normals
from bilop.spectra import _alternating_stage


@pytest.fixture(autouse=True)
def _cold_alternating_stage():
    """Every test starts without a memoised alternating stage, so none is served
    rows computed under another test's patched budgets or configs, and without
    memoised start normals, so its first search draws them afresh."""
    _alternating_stage.cache_clear()
    start_normals.cache_clear()


@pytest.fixture(scope="session")
def diag_pair() -> Tensor3:
    return gallery.diagonal_pair()


@pytest.fixture(scope="session")
def overlap() -> Tensor3:
    return gallery.overlapping_slices()


@pytest.fixture(scope="session")
def triad() -> Tensor3:
    return gallery.orthonormal_triad()


@pytest.fixture(scope="session")
def deep_cfg() -> SearchConfig:
    """A start budget that saturates every gallery spectrum."""
    return SearchConfig(starts=512)


@pytest.fixture(scope="session")
def diag_pair_spectrum(diag_pair, deep_cfg):
    return enumerate_triples(diag_pair, deep_cfg)


@pytest.fixture(scope="session")
def overlap_spectrum(overlap, deep_cfg):
    return enumerate_triples(overlap, deep_cfg)


@pytest.fixture(scope="session")
def triad_spectrum(triad, deep_cfg):
    return enumerate_triples(triad, deep_cfg)


@pytest.fixture()
def tensor_file(tmp_path):
    """Factory writing a Tensor3 to a JSON file, returning its path."""

    def write(T: Tensor3, stem: str = "tensor") -> pathlib.Path:
        path = tmp_path / f"{stem}.json"
        path.write_text(json.dumps(tensor_to_json_dict(T)))
        return path

    return write


def random_orthonormal(rng: np.random.Generator, n: int) -> np.ndarray:
    """Orthogonal matrix with each column's peak entry made positive."""
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    for c in range(n):
        col = Q[:, c]
        if col[int(np.argmax(np.abs(col)))] < 0:
            Q[:, c] = -col
    return Q


def tied_odeco(n: int, rank: int) -> Tensor3:
    """sum_{i<rank} u_i (x) v_i (x) w_i at n^3: equal weights, bases from default_rng(5)."""
    rng = np.random.default_rng(5)
    U, V, W = (np.linalg.qr(rng.standard_normal((n, n)))[0] for _ in range(3))
    return from_schmidt([(1.0, U[:, i], V[:, i], W[:, i]) for i in range(rank)], dims=(n, n, n))


def tied_cubic() -> Tensor3:
    """sum_{i<8} x_i (x) x_i (x) x_i at 16^3: equal weights, basis from default_rng(3)."""
    Q = np.linalg.qr(np.random.default_rng(3).standard_normal((16, 16)))[0][:, :8]
    return Tensor3.from_array(np.einsum("im,jm,km->ijk", Q, Q, Q))


def sub_gate_tail() -> Tensor3:
    """Weights (1, 9e-10, 5e-10) on orthonormal 4^3 families, the Q factors of three default_rng(3) draws: after
    the first term, a remainder of hs-norm 1.03e-9, above residual_tol, whose top tau, 9e-10, is not."""
    rng = np.random.default_rng(3)
    U, V, W = (np.linalg.qr(rng.standard_normal((4, 4)))[0] for _ in range(3))
    return from_schmidt([(t, U[:, i], V[:, i], W[:, i]) for i, t in enumerate((1.0, 9e-10, 5e-10))])


def legendre_kernel(n: int = 14) -> Tensor3:
    """t[a,b,c] = sum_{d<40} 2^-(d+1) f_d(s_a) f_d(s_b) f_d(s_c), f_d = sqrt(w) sqrt((2d+1)/2) P_d on the n
    Gauss-Legendre nodes s and weights w: a symmetric cubic whose greedy deflation passes every step at 14^3,
    yet whose 14 terms miss orthonormality by a Gram deviation of 8.0e-6."""
    s, w = np.polynomial.legendre.leggauss(n)
    F = np.array([np.sqrt(w * (2 * d + 1) / 2) * np.polynomial.legendre.Legendre.basis(d)(s) for d in range(40)])
    return Tensor3.from_array(np.einsum("d,da,db,dc->abc", 2.0 ** -np.arange(1, 41), F, F, F))


@pytest.fixture(scope="session")
def planted_schmidt_factory():
    """Build a tensor from planted monotone Schmidt data with gaps >= 0.1.

    Returns (tensor, terms) where terms is the planted list of
    (tau, x, y, z) with orthonormal families and peak-positive vectors,
    sorted by tau descending.
    """

    def make(seed: int):
        rng = np.random.default_rng([1009, seed])
        dims = tuple(int(d) for d in rng.integers(3, 7, size=3))
        rank = int(rng.integers(1, min(dims) + 1))
        gaps = rng.uniform(0.1, 1.0, size=rank)
        taus = np.cumsum(gaps[::-1])[::-1] + 0.5
        U = random_orthonormal(rng, dims[0])
        V = random_orthonormal(rng, dims[1])
        W = random_orthonormal(rng, dims[2])
        terms = [
            (float(taus[i]), U[:, i].copy(), V[:, i].copy(), W[:, i].copy())
            for i in range(rank)
        ]
        return from_schmidt(terms, dims=dims), terms

    return make


@pytest.fixture(scope="session")
def planted_schur_factory():
    """Build Sum lam_i x_i (x) x_i (x) x_i with signed, gapped weights.

    Returns (tensor, lams, axes) with axes peak-positive so the signed
    weights are canonical; |lams| are distinct with gaps >= 0.1, sorted
    by |lam| descending.
    """

    def make(seed: int):
        rng = np.random.default_rng([2027, seed])
        n = int(rng.integers(3, 6))
        gaps = rng.uniform(0.1, 1.0, size=n)
        mags = np.cumsum(gaps[::-1])[::-1] + 0.5
        signs = rng.choice([-1.0, 1.0], size=n)
        lams = mags * signs
        Q = random_orthonormal(rng, n)
        arr = np.einsum("m,im,jm,km->ijk", lams, Q, Q, Q)
        return Tensor3.from_array(arr), lams, Q

    return make
