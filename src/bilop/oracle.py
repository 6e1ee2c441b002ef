"""Independent brute-force validators for the iterative solvers.

Nothing here feeds back into the main search: the oracles exist so the
tests can cross-check spectra/schmidt results against methods with
different failure modes. grid_norm_oracle bounds the operator norm from
below, up to the rounding of one SVD: it grids the sphere of the smallest
mode only and takes the exact spectral norm over the other two, so its
cost is exponential in min(dims) - 1 alone. stationarity_fd_check probes
the first-order optimality of a triple with central finite differences on
the product of spheres; exhaustive_small_spectrum re-runs the search from
a dense deterministic sign-pattern lattice. All are guarded to small
dimensions where brute force is meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Optional

import numpy as np

from . import _LAZY
from .tensor_core import Tensor3
from .spectra import (
    SearchConfig,
    SingularTriple,
    Spectrum,
    _int_at_least,
    _search_candidates,
    _unit_triple,
)

__all__ = list(_LAZY["oracle"])

#: Largest per-mode dimension the brute-force oracles accept.
_DIM_GUARD = 4

#: Memory cap (in float64 values) for one grid-evaluation chunk.
_CHUNK_BUDGET = 4_000_000

#: How many first-round points grid_norm_oracle refines, and the angle that
#: separates them (the polar half-width of the first refinement window).
_INCUMBENTS = 2
_CAP = np.pi / 20


@dataclass(frozen=True)
class GridSpec:
    """Angular grid parameters: points per angle and refinement rounds.

    Each refinement round re-grids a window around each incumbent maximizer
    shrunk by 10x per angle, so the final angular resolution is roughly
    (initial spacing) / 10^refinement_rounds.
    """

    resolution: int = 72
    refinement_rounds: int = 2

    def __post_init__(self) -> None:
        for name, low in (("resolution", 8), ("refinement_rounds", 0)):
            if not _int_at_least(getattr(self, name), low):
                raise ValueError(f"{name} must be an integer of at least {low}")


def _check_guard(dims: tuple[int, int, int]) -> None:
    if max(dims) > _DIM_GUARD:
        raise ValueError(f"oracle accepts dims up to {_DIM_GUARD} per mode, got {dims}")


def _angles_to_sphere(angles: np.ndarray, n: int) -> np.ndarray:
    """Map rows of hyperspherical angles to unit vectors in R^n.

    v1 = cos t1, v2 = sin t1 cos t2, ..., vn = sin t1 ... sin t_{n-1};
    a row of n-1 angles per point (zero-width for n = 1).
    """
    P = angles.shape[0]
    v = np.empty((P, n))
    sin_running = np.ones(P)
    for i in range(n - 1):
        v[:, i] = sin_running * np.cos(angles[:, i])
        sin_running = sin_running * np.sin(angles[:, i])
    v[:, n - 1] = sin_running
    return v


def _initial_halfwidths(n: int) -> np.ndarray:
    """Halfwidths of the window covering the whole sphere of R^n, which are also its centers.

    Polar angles range over [0, pi], the final azimuthal angle over
    [0, 2 pi]; n = 1 has no angles (the grid is the single point (1),
    which suffices for norm evaluation since the sign of x does not
    change the spectral norm of sum_i x_i T_i).
    """
    halfwidths = np.full(n - 1, np.pi / 2)
    halfwidths[-1:] = np.pi
    return halfwidths


def _angle_grid(centers: np.ndarray, halfwidths: np.ndarray, resolution: int) -> np.ndarray:
    """Cartesian product grid of angles, one row per point (one empty row when there are none)."""
    if centers.size == 0:
        return np.zeros((1, 0))
    axes = [np.linspace(c - h, c + h, resolution) for c, h in zip(centers, halfwidths)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, centers.size)


def _incumbents(sigma: np.ndarray, X: np.ndarray) -> list[int]:
    """The first round's points to refine: the best one, then the best one
    outside the cap of angle _CAP around each earlier pick and its antipode,
    up to _INCUMBENTS points, so a near-tied basin elsewhere is refined too."""
    picks: list[int] = []
    alive = np.ones(sigma.size, dtype=bool)
    while len(picks) < _INCUMBENTS and alive.any():
        picks.append(int(np.argmax(np.where(alive, sigma, -np.inf))))
        alive &= np.abs(X @ X[picks[-1]]) < np.cos(_CAP)
    return picks


def grid_norm_oracle(T: Tensor3, spec: Optional[GridSpec] = None) -> float:
    """Lower bound on ||T|| from a grid over one sphere, exact over the other two.

    ||T|| = max over unit x of sigma_max(sum_i x_i T_i), the T_i being the
    slices along any one mode (Lim 2005). This grids the smallest mode's
    sphere in hyperspherical angles (a mode of size 1 is one point), takes
    the exact spectral norm at each point and refines 10x per round around
    each of the first round's _incumbents: a lower bound up to the rounding
    of one SVD, at a cost exponential in min(dims) - 1 only.
    """
    spec = spec if spec is not None else GridSpec()
    _check_guard(T.dims)
    n = min(T.dims)
    slices = np.moveaxis(T.array, T.dims.index(n), 0)
    chunk = max(1, _CHUNK_BUDGET // slices[0].size)
    halfwidths = _initial_halfwidths(n)
    centers, best = halfwidths[None], 0.0
    for r in range(1 + spec.refinement_rounds):
        angles = np.stack([_angle_grid(c, halfwidths, spec.resolution) for c in centers])
        X = _angles_to_sphere(np.concatenate(angles), n)
        sigma = np.concatenate([
            np.linalg.norm(np.tensordot(X[lo : lo + chunk], slices, axes=1), 2, axis=(1, 2))
            for lo in range(0, X.shape[0], chunk)
        ]).reshape(len(centers), -1)
        best = max(best, float(sigma.max()))
        centers = angles[range(len(centers)), sigma.argmax(axis=1)] if r else angles[0, _incumbents(sigma[0], X)]
        halfwidths = halfwidths / 10.0
    return best


def _tangent_basis(v: np.ndarray) -> np.ndarray:
    """Columns form an orthonormal basis of the tangent space at unit v."""
    n = v.size
    if n == 1:
        return np.zeros((1, 0))
    Q = np.linalg.qr(np.column_stack([v, np.eye(n)]))[0]
    return Q[:, 1:n]


def stationarity_fd_check(T: Tensor3, triple: SingularTriple, h: float) -> float:
    """Max |tangential derivative| of <T(x,y), z> at the triple, by central FD.

    A singular triple is a constrained critical point of the trilinear
    form on the product of unit spheres, so the returned value is
    ~1e-6*(1+tau) or less for a true triple at h = 1e-5, and order-one
    for an impostor. Perturbed points are retracted to the sphere by
    normalization. The triple's vectors must be unit within 1e-8 (an
    argument error otherwise); its residuals are deliberately not gated,
    so the check can quantify how non-stationary a bad triple is.
    """
    if not 1e-7 <= h <= 1e-3:
        raise ValueError("h must lie in [1e-7, 1e-3]")
    xa, ya, za = _unit_triple(T, triple)
    arr = T.array

    def f(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> float:
        return float(np.einsum("ijk,i,j,k->", arr, x, y, z))

    worst = 0.0
    vectors = [xa, ya, za]
    for mode in range(3):
        for d in _tangent_basis(vectors[mode]).T:
            fp, fm = (
                f(*vectors[:mode], w / np.linalg.norm(w), *vectors[mode + 1 :])
                for w in (vectors[mode] + h * d, vectors[mode] - h * d)
            )
            worst = max(worst, abs(fp - fm) / (2.0 * h))
    return worst


def _sign_pattern_lattice(n: int) -> np.ndarray:
    """All normalized {-1, 0, 1} vectors with leading nonzero entry +1.

    Vectors differing only by a global sign seed the same sign orbit, so
    only the lead-positive half of the lattice is kept.
    """
    rows = []
    for pattern in product((-1.0, 0.0, 1.0), repeat=n):
        v = np.array(pattern)
        nz = np.flatnonzero(v)
        if nz.size == 0 or v[nz[0]] < 0:
            continue
        rows.append(v / np.linalg.norm(v))
    return np.array(rows)


def exhaustive_small_spectrum(T: Tensor3, cfg: Optional[SearchConfig] = None) -> Spectrum:
    """Independent enumeration from a dense deterministic start lattice.

    Seeds the same alternating-iteration-plus-Newton search as
    enumerate_triples, but from every pair of sign-pattern lattice
    vectors (all normalized {-1,0,1} patterns per input mode) plus
    cfg.starts random starts. On guard-sized tensors the lattice blankets
    the basins far more densely than random starts alone, making this a
    meaningful cross-check despite sharing the local solvers.
    """
    cfg = cfg if cfg is not None else SearchConfig()
    _check_guard(T.dims)
    n1, n2, _ = T.dims
    lattices = (_sign_pattern_lattice(n1), _sign_pattern_lattice(n2))
    triples = _search_candidates(T, cfg, use_newton=True, pairs=lattices)
    return Spectrum(triples=triples, complete=False)


def confirm_complete(
    T: Tensor3, spectrum: Spectrum, cfg: Optional[SearchConfig] = None
) -> Spectrum:
    """Certify a spectrum as complete on tiny instances.

    When every dimension is at most 2 and the exhaustive lattice search
    reproduces the spectrum's tau multiset (and orbit count) within
    dedup_tol, returns a copy with complete=True. Anything else returns
    the spectrum unchanged: enumeration stays honest about being a
    heuristic beyond this regime.
    """
    cfg = cfg if cfg is not None else SearchConfig()
    if max(T.dims) > 2:
        return spectrum
    reference = exhaustive_small_spectrum(T, cfg)
    if len(reference.triples) != len(spectrum.triples):
        return spectrum
    ref = sorted(tr.tau for tr in reference.triples)
    got = sorted(tr.tau for tr in spectrum.triples)
    scale = 1.0 + (max(ref) if ref else 0.0)
    if all(abs(a - b) <= cfg.dedup_tol * scale for a, b in zip(ref, got)):
        return Spectrum(triples=spectrum.triples, complete=True)
    return spectrum
