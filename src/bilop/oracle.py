"""Independent brute-force validators for the iterative solvers.

Nothing here feeds back into the main search: the oracles exist so the
tests can cross-check spectra/schmidt results against methods with
different failure modes. grid_norm_oracle bounds the operator norm from
below by direct evaluation over angular grids; stationarity_fd_check
probes the first-order optimality of a triple with central finite
differences on the product of spheres; exhaustive_small_spectrum re-runs
the search from a dense deterministic sign-pattern lattice. All are
guarded to small dimensions where brute force is meaningful.
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
    _search_candidates,
    _unit_triple,
)

__all__ = list(_LAZY["oracle"])

#: Largest per-mode dimension the brute-force oracles accept.
_DIM_GUARD = 4

#: Memory cap (in float64 values) for one grid-evaluation chunk.
_CHUNK_BUDGET = 4_000_000


@dataclass(frozen=True)
class GridSpec:
    """Angular grid parameters: points per angle and refinement rounds.

    Each refinement round re-grids a window around the incumbent maximizer
    shrunk by 10x per angle, so the final angular resolution is roughly
    (initial spacing) / 10^refinement_rounds.
    """

    resolution: int = 72
    refinement_rounds: int = 2

    def __post_init__(self) -> None:
        if self.resolution < 8:
            raise ValueError("resolution must be at least 8")
        if self.refinement_rounds < 0:
            raise ValueError("refinement_rounds must be nonnegative")


def _check_guard(dims: tuple[int, int, int]) -> None:
    if max(dims) > _DIM_GUARD:
        raise ValueError(
            f"oracle accepts dims up to {_DIM_GUARD} per mode, got {dims}"
        )


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


def _initial_window(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Centers and halfwidths covering the whole sphere of R^n.

    Polar angles range over [0, pi], the final azimuthal angle over
    [0, 2 pi); n = 1 has no angles (the grid is the single point (1),
    which suffices for norm evaluation since the sign of a factor does
    not change ||T(x, y)||).
    """
    a = n - 1
    centers = np.full(a, np.pi / 2)
    halfwidths = np.full(a, np.pi / 2)
    if a > 0:
        centers[-1] = np.pi
        halfwidths[-1] = np.pi
    return centers, halfwidths


def _angle_grid(centers: np.ndarray, halfwidths: np.ndarray, resolution: int) -> np.ndarray:
    """Cartesian product grid of angles, one row per point."""
    a = centers.size
    if a == 0:
        return np.zeros((1, 0))
    axes = [
        np.linspace(c - h, c + h, resolution) for c, h in zip(centers, halfwidths)
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def grid_norm_oracle(T: Tensor3, spec: Optional[GridSpec] = None) -> float:
    """Lower bound on the operator norm by direct grid maximization.

    Evaluates ||T(x, y)|| on an angular product grid over the two input
    spheres, then refines the window around the incumbent by 10x per
    round. Every evaluated point is feasible, so the result never exceeds
    the true norm; at the default resolution it lands within 1e-4 of it
    on the guard-sized benchmark operators. Cost is exponential in
    (n1 - 1) + (n2 - 1), which the dimension guard keeps tolerable.
    """
    spec = spec if spec is not None else GridSpec()
    _check_guard(T.dims)
    arr = T.array
    n1, n2, _ = T.dims
    cx, hx = _initial_window(n1)
    cy, hy = _initial_window(n2)
    best = 0.0
    for _ in range(1 + spec.refinement_rounds):
        ax = _angle_grid(cx, hx, spec.resolution)
        ay = _angle_grid(cy, hy, spec.resolution)
        X = _angles_to_sphere(ax, n1)
        Y = _angles_to_sphere(ay, n2)
        chunk = max(1, _CHUNK_BUDGET // max(1, Y.shape[0] * T.dims[2]))
        round_best = -1.0
        round_arg = (0, 0)
        for lo in range(0, X.shape[0], chunk):
            Xc = X[lo : lo + chunk]
            vals = np.linalg.norm(
                np.einsum("ijk,si,tj->stk", arr, Xc, Y), axis=2
            )
            s, t = np.unravel_index(int(np.argmax(vals)), vals.shape)
            if vals[s, t] > round_best:
                round_best = float(vals[s, t])
                round_arg = (lo + s, t)
        best = max(best, round_best)
        cx, cy = ax[round_arg[0]], ay[round_arg[1]]
        hx, hy = hx / 10.0, hy / 10.0
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
        basis = _tangent_basis(vectors[mode])
        for col in range(basis.shape[1]):
            d = basis[:, col]
            args_p = [v.copy() for v in vectors]
            args_m = [v.copy() for v in vectors]
            wp = vectors[mode] + h * d
            wm = vectors[mode] - h * d
            args_p[mode] = wp / np.linalg.norm(wp)
            args_m[mode] = wm / np.linalg.norm(wm)
            worst = max(worst, abs(f(*args_p) - f(*args_m)) / (2.0 * h))
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
