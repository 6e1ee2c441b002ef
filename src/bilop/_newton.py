"""The Newton corrector of bilop's search: the square stationarity system, then tangent steps on the unit spheres.

A singular triple (tau, x, y, z) of T is a root of the square stationarity system F(v) = 0 in the stacked unknown
v = x | y | z | tau (_newton_batch), and Newton converges to it quadratically from a nearby start, whatever the
triple's index. spectra uses this twice: it finishes the alternating iteration's endpoints, which converge only
linearly, and enumerate_triples runs it from every raw start, which reaches the saddle-type triples the
alternating iteration repels. A row still stepping after 20 Newton steps is retracted onto the unit spheres
before each further step (x, y, z normalised, then tau := <T(x,y), z>) and then takes the Riemannian Newton step
there: a step in the tangent space of the spheres, from a bordered system (Absil, Mahony & Sepulchre,
Optimization Algorithms on Matrix Manifolds, 2008). No row takes more than 40 steps.

The one entry is _newton_finish: it reads rows of X, Y and Z with their start values tau, and writes each
converged root over its own row, so no caller stacks or unstacks the unknown. Newton steps its rows in the row
blocks (_row_blocks) of tensor_core's _contract, so a row's numbers never depend on its batch; its Jacobian
blocks and right-hand side keep their own einsums.
"""

from __future__ import annotations

import functools

import numpy as np

from .tensor_core import _contract, _probed, _row_blocks, _row_norms, _row_normalize

#: Newton corrector settings: the finish of every alternating run, and
#: enumerate_triples' second search from the raw starts. From loop index
#: _NEWTON_RETRACT on, every row still stepping is retracted onto the unit
#: spheres, then takes a tangent step (Riemannian Newton) there.
_NEWTON_TOL = 1e-13
_NEWTON_MAX_STEPS = 40
_NEWTON_RETRACT = 20
_NEWTON_DIVERGED = 1e6
_NEWTON_COLLAPSED = 1e-4


def _factor_slices(dims: tuple[int, int, int]) -> tuple[slice, slice, slice]:
    """The x, y and z columns of a stacked unknown x | y | z | tau."""
    n1, n2, n3 = dims
    return slice(0, n1), slice(n1, n1 + n2), slice(n1 + n2, n1 + n2 + n3)


def _stacked(X: np.ndarray, Y: np.ndarray, Z: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Rows x | y | z | tau of the stacked unknown."""
    return np.concatenate([X, Y, Z, tau[:, None]], axis=1)


def _newton_finish(arr, X, Y, Z, rows, tau) -> np.ndarray:
    """Newton from the rows of X, Y, Z indexed by rows, with start values tau; each converged root overwrites its
    own row in place, and the others keep theirs. Returns the converged rows' mask, over rows."""
    V, fin = _newton_batch(arr, _stacked(X[rows], Y[rows], Z[rows], tau))
    for M, cols in zip((X, Y, Z), _factor_slices(arr.shape)):
        M[rows[fin]] = V[fin, cols]
    return fin


def _newton_batch(arr: np.ndarray, V0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Newton iteration on F(v) = 0 for a block of starts; returns (V, ok).

    Each row of V0 is one stacked unknown v = x | y | z | tau, of length m = n1+n2+n3+1. F stacks
    T(x,y) - tau z, contract_1(y,z) - tau x, contract_2(x,z) - tau y and (||x||^2 - 1)/2; the system is
    square, and at a root with tau != 0 the remaining unit norms hold automatically. Unlike the alternating
    iteration, Newton converges to critical points of any index, which is what recovers saddle-type triples.

    One step loop (_newton_step) serves the whole batch. The rows still stepping are one index array, stepped
    in tensor_core's row blocks (_row_blocks), whose square Jacobians hold at most _CONTRACT_BLOCK entries, the
    budget of every batched kernel, or are two rows; one concatenate of the blocks' results keeps the rows that
    step on, in order, so rows that never converge share one tail of _NEWTON_MAX_STEPS steps. From loop
    index _NEWTON_RETRACT on, the rows still stepping are first retracted onto the unit spheres: x, y and z
    divided by their norms (_row_normalize), then tau := <T(x, y), z> from _contract and a row dot with z,
    as spectra._residuals reads it, so the retraction too leaves a row's numbers independent of its batch. There F
    is the Riemannian gradient of <T(x,y), z> on the spheres, so the stop test is unchanged, and the step is
    the Riemannian Newton step: the bordered system [[J_core, B], [B^T, 0]] [s; mu] = [F without its |x|
    entry; 0, 0, 0], with J_core the Jacobian without tau's column and the |x| row and B = blockdiag(x, y, z),
    then (x, y, z) -= s (_jacobian_layout's Mt). s is tangent, so |y| and |z| stay at least 1 and no such row
    collapses. A row stops when it converges, its Jacobian is singular, it diverges (an x, y or z entry beyond
    _NEWTON_DIVERGED, or a non-finite entry), or it collapses onto the tau = 0 component (unit x, y = z = 0),
    where no singular triple lies (|y| or |z| below _NEWTON_COLLAPSED); it depends on no other row. Only
    converged rows are marked, so they start as ok. A converged root with tau < 0 is mapped to the same
    orbit, (x, -y, z, -tau); it stays ok when x, y and z have unit norm within 1e-6, and each block is then
    divided by its norm in place. Rows that did not converge stay as Newton left them.
    """
    record = _probed("newton")
    V = np.array(V0, dtype=float)
    S = V.shape[0]
    ok = np.zeros(S, dtype=bool)
    n1, n2, n3 = arr.shape
    m = n1 + n2 + n3 + 1
    parts = _factor_slices(arr.shape)
    # The stop test's limits on |v|: _NEWTON_DIVERGED on x, y and z, the largest float on tau (only inf or NaN stops).
    lim = np.r_[np.full(m - 1, _NEWTON_DIVERGED), np.finfo(float).max]
    layout = _jacobian_layout(arr.shape)
    mem = np.empty(min(S, _row_blocks(max(S, 1), m * m)[0].stop) * layout[1].size)  # the largest row block's bordered matrices
    batch = (np.ascontiguousarray(arr.transpose(1, 0, 2)), mem, layout, lim)
    act = np.arange(S)
    stepping = []  # with the probe set, the rows stepping at each loop index
    # Near the float range, squares can exceed the largest float: _row_norms(F) is then inf, which the stop test reads
    # as not converged, and the collapse test's squares of |v| overflow only in diverged rows or in tau's column.
    with np.errstate(over="ignore"):
        for it in range(_NEWTON_MAX_STEPS):
            if not act.size:
                break
            if record:
                stepping.append(act.size)
            tangent = it >= _NEWTON_RETRACT
            if tangent:  # the retraction onto the unit spheres
                X, Y, Z = (_row_normalize(V[act, cols])[0] for cols in parts)
                V[act] = _stacked(X, Y, Z, np.einsum("sk,sk->s", _contract(arr, 2, X, Y), Z))
            blocks = _row_blocks(act.size, m * m)
            act = np.concatenate([_newton_step(arr, V, act[b], ok, batch, tangent) for b in blocks])

    V[ok & (V[:, -1] < 0)] *= np.r_[np.ones(n1), -np.ones(n2), np.ones(n3), -1.0]
    # Roots carry unit norms up to the Newton tolerance; snap exactly.
    sel = np.flatnonzero(ok)
    norms = [_row_norms(V[sel, cols]) for cols in parts]
    off = np.logical_or.reduce([np.abs(nrm - 1.0) > 1e-6 for nrm in norms])
    ok[sel[off]] = False
    for cols, nrm in zip(parts, norms):
        V[sel[~off], cols] /= nrm[~off, None]
    if record:
        record(rows=S, iterations=len(stepping), row_steps=sum(stepping), converged=int(ok.sum()),
               tangent=stepping[_NEWTON_RETRACT] if len(stepping) > _NEWTON_RETRACT else 0)
    return V, ok


def _newton_step(
    arr: np.ndarray, V: np.ndarray, idx: np.ndarray, done: np.ndarray, batch: tuple, tangent: bool
) -> np.ndarray:
    """One Newton step on rows idx of the stacked unknown V, in place; returns the rows that step on.

    Rows already at the tolerance are marked done and left as they are. The others' Jacobians are taken from their
    source rows through _jacobian_layout's maps and solved by _solve_rows: the square system's or, with tangent, the
    bordered system (Mt), whose right side is F without its |x| entry, then three zeros. A tangent step moves x, y
    and z only: its multipliers are dropped, and tau waits for the next retraction. A row whose Jacobian is
    singular, or whose new iterate diverges or collapses (|y| or |z| from uncapped squares of |v|), steps no
    further. batch holds Tjik for _newton_a1, the Jacobian memory, _jacobian_layout and the stop test's limits."""
    Tjik, mem, (*maps, (sx, sy, sz), (f1, f2, f3)), lim = batch
    k = idx.size
    v = V[idx]
    # Contiguous operands: a strided einsum may take another inner loop.
    x, y, z = v[:, sx].copy(), v[:, sy].copy(), v[:, sz].copy()
    t = v[:, -1]
    A1 = _newton_a1(Tjik, y)
    A2 = np.einsum("ijk,si->skj", arr, x)
    tv = t[:, None] * v
    F = np.empty(v.shape)
    np.subtract(np.einsum("ski,si->sk", A1, x), tv[:, sz], out=F[:, f1])
    np.subtract(np.einsum("ski,sk->si", A1, z), tv[:, sx], out=F[:, f2])
    np.subtract(np.einsum("skj,sk->sj", A2, z), tv[:, sy], out=F[:, f3])
    np.multiply(np.einsum("si,si->s", x, x) - 1.0, 0.5, out=F[:, -1])
    done[idx] = hit = _row_norms(F) <= _NEWTON_TOL * (1.0 + np.abs(t))
    go = ~hit
    gi = idx[go]
    if not gi.size:
        return gi
    # The source rows (_jacobian_layout); A1's (i, k)-ordered memory, as _newton_a1 returns it, is a view.
    A3 = np.einsum("ijk,sk->sij", arr, z)
    rows = np.concatenate(
        [A1.transpose(0, 2, 1).reshape(k, -1), A2.reshape(k, -1), A3.reshape(k, -1), -v, x, np.zeros((k, 1))], axis=1
    )
    if gi.size < k:
        v, F, rows = v[go], F[go], rows[go]
    M = maps[tangent]
    # One take through the map; mode="clip" (every index is valid) lets it write straight into the memory.
    J = rows.take(M, axis=1, out=mem[: gi.size * M.size].reshape(gi.size, *M.shape), mode="clip")
    if tangent:  # F without its |x| entry, then three zeros
        F = np.concatenate([F[:, :-1], np.zeros((gi.size, 3))], axis=1)
    step, singular = _solve_rows(J, F)
    if tangent:  # the multiplier in tau's place is dropped: tau waits for the next retraction
        step[:, -3] = 0.0
    V[gi] = w = v - step[:, : v.shape[1]]
    a = np.abs(w)
    keep = np.logical_and.reduce(a <= lim, axis=1)
    keep[singular] = False
    a *= a
    keep &= np.sqrt(np.minimum(np.add.reduce(a[:, sy], axis=-1), np.add.reduce(a[:, sz], axis=-1))) >= _NEWTON_COLLAPSED
    return gi[keep]


def _newton_a1(Tjik: np.ndarray, y: np.ndarray) -> np.ndarray:
    """einsum("ijk,sj->ski", T, y), its values and its strides, from Tjik = T's (j, i, k)-contiguous copy:
    a contiguous operand makes the einsum several times faster, and the F einsums' bits depend on A1's strides."""
    return np.einsum("jik,sj->sik", Tjik, y).transpose(0, 2, 1)


@functools.lru_cache(maxsize=8)
def _jacobian_layout(dims: tuple[int, int, int]) -> tuple:
    """The maps M and Mt (read-only), and v's and F's slices; built once per shape.

    A step's source row is A1 | A2 | A3 | -v | x | 0.0, each A row-major: A1 by (i, k), as _newton_a1's memory
    holds it, A2 by (k, j), A3 by (i, j). A square step's J = src.take(M, axis=1); rows T(x,y) - tau z,
    contract_1(y,z) - tau x, contract_2(x,z) - tau y, (|x|^2 - 1)/2; columns x|y|z|tau:

        [ A1       A2       -tau I   -z ]
        [ -tau I   A3       A1^T     -x ]
        [ A3^T     -tau I   A2^T     -y ]
        [ x^T      0        0         0 ]

    A tangent step's bordered matrix is src.take(Mt, axis=1); rows F's three equations, then one border row
    per factor; columns x|y|z, then one border column per factor:

        [ A1       A2       -tau I   0    0    -z ]
        [ -tau I   A3       A1^T     -x   0    0  ]
        [ A3^T     -tau I   A2^T     0    -y   0  ]
        [ -x^T     0        0        0    0    0  ]
        [ 0        -y^T     0        0    0    0  ]
        [ 0        0        -z^T     0    0    0  ]

    Its core is M without tau's column and the |x| row: the Euclidean Hessian of <T(x,y), z> less tau I, with
    its rows in F's order. tau's column is split into the border columns, and the border rows read -v, which
    flips only the signs of the multipliers; the step drops them. The 0 entries, the off-diagonals of each
    -tau I among them, read the source row's 0.0."""
    n1, n2, n3 = dims
    n = n1 + n2 + n3
    sx, sy, sz = _factor_slices(dims)
    f1, f2, f3 = slice(0, n3), slice(n3, n3 + n1), slice(n3 + n1, n)
    cuts = tuple(np.cumsum([n1 * n3, n3 * n2, n1 * n2, n + 1, n1, 1]).tolist())
    A1, A2, A3, nv, x, zero = np.split(np.arange(cuts[-1]), cuts[:-1])
    A1, A2, A3 = A1.reshape(n1, n3).T, A2.reshape(n3, n2), A3.reshape(n1, n2)
    M = np.empty((n + 1, n + 1), dtype=np.intp)
    for r, c, k in ((f1, sz, n3), (f2, sx, n1), (f3, sy, n2)):
        M[r, c] = np.where(np.eye(k, dtype=bool), nv[-1], zero)
    M[f1, sx], M[f1, sy], M[f2, sy] = A1, A2, A3
    M[f2, sz], M[f3, sx], M[f3, sz] = A1.T, A3.T, A2.T
    M[:-1, -1] = np.concatenate([nv[sz], nv[sx], nv[sy]])
    M[-1, sx], M[-1, n1:] = x, zero
    Mt = np.full((n + 3, n + 3), zero, dtype=np.intp)
    Mt[:n, :n] = M[:n, :n]
    for c, (r, cols) in enumerate(zip((f2, f3, f1), (sx, sy, sz))):
        Mt[r, n + c] = Mt[n + c, cols] = nv[cols]
    M.flags.writeable = Mt.flags.writeable = False
    return M, Mt, (sx, sy, sz), (f1, f2, f3)


def _solve_rows(J: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row gesv solutions of J[r] s = rhs[r], and the mask of the singular rows, whose step is 0.

    If the batched solve raises, slogdet's sign marks the singular rows: it is 0 exactly where getrf, run by
    gesv on the same Fortran-order copy, meets a zero pivot. The rest are solved in one more batched call."""
    try:
        return np.linalg.solve(J, rhs[:, :, None])[:, :, 0], np.zeros(rhs.shape[0], dtype=bool)
    except np.linalg.LinAlgError:
        with np.errstate(all="ignore"):  # only the sign is read; log|det| may be -inf
            step, singular = np.zeros_like(rhs), np.linalg.slogdet(J)[0] == 0
        step[~singular] = np.linalg.solve(J[~singular], rhs[~singular, :, None])[:, :, 0]
        return step, singular
