"""Tag position recovery from estimated delay matrices.

Bistatic delays give range sums (distance to a transmitter plus distance to
a receiver), so the fix is the nonlinear least squares minimizer of

    sum_ij ( c (t[i, j] - delta) - |tx_i - p| - |rx_j - p| )^2

solved by damped Gauss-Newton.  The solver is seeded with an algebraic warm
start: differencing the squared sphere equations makes the system linear in
(p, tau), where tau is the unknown first transmitter range, and the linear
least squares solution lands in the attraction basin of the global minimum
in practice.  A plain centroid start converges to local minima on a few
percent of random scenes, which the warm start eliminates.

Monostatic delays give plain ranges from the diagonal entries, which
linearize exactly by subtracting the first sphere equation; one damped
Gauss-Newton step then polishes the closed-form fix.

All solvers run on stacked batches of independent scenes; the single-scene
functions are batch-of-one wrappers, so both paths share one code path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import SPEED_OF_LIGHT
from .errors import SingularGeometry, UnderDetermined

MAX_ITERATIONS = 100
STEP_TOL = 1e-10          # meters; convergence when the accepted step is shorter
MAX_HALVINGS = 20
_DISTANCE_FLOOR = 1e-12   # meters; avoids 0/0 in unit vectors at an anchor
# Rank tests use the scale-free ratio det(H) / |H|_F^k.  Random scene
# geometry stays above 1e-5 (3x3) / 4e-8 (4x4); collinear or coplanar
# anchors with metrology-level jitter fall below 1e-18.
_DET3_RTOL = 1e-12
_DET4_RTOL = 1e-14


@dataclass
class PositionFix:
    """A position estimate with the residual norm (meters) at the fix and
    the number of accepted solver iterations."""

    position: np.ndarray
    residual_norm: float
    iterations: int


def _range_sum_residuals(
    txs: np.ndarray, rxs: np.ndarray, ks: np.ndarray, p: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Residuals of the range-sum equations for a batch of scenes.

    txs (T,m,3), rxs (T,n,3), ks (T,m,n) range sums in meters, p (T,3).
    Returns residuals (T,m,n), anchor distances (T,m) and (T,n), and the
    residual norms (T,).
    """
    da = np.sqrt(((txs - p[:, None, :]) ** 2).sum(axis=2))
    db = np.sqrt(((rxs - p[:, None, :]) ** 2).sum(axis=2))
    r = ks - (da[:, :, None] + db[:, None, :])
    rnorm = np.sqrt((r * r).sum(axis=(1, 2)))
    return r, da, db, rnorm


def _det3(h: np.ndarray) -> np.ndarray:
    """Closed-form determinants of a (T,3,3) stack."""
    return (
        h[:, 0, 0] * (h[:, 1, 1] * h[:, 2, 2] - h[:, 1, 2] * h[:, 2, 1])
        - h[:, 0, 1] * (h[:, 1, 0] * h[:, 2, 2] - h[:, 1, 2] * h[:, 2, 0])
        + h[:, 0, 2] * (h[:, 1, 0] * h[:, 2, 1] - h[:, 1, 1] * h[:, 2, 0])
    )


def _rank_deficient3(h: np.ndarray) -> np.ndarray:
    frob = np.sqrt((h * h).sum(axis=(1, 2)))
    return np.abs(_det3(h)) <= _DET3_RTOL * np.maximum(frob, 1e-300) ** 3


def _warm_start(txs: np.ndarray, rxs: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """Algebraic initial points for a batch of bistatic scenes.

    With tau the unknown range to the first transmitter, the range-sum
    matrix fixes every other anchor range as an affine function of tau;
    subtracting the first transmitter's squared sphere equation from the
    rest yields m - 1 + n equations linear in (p, tau).  Scenes where that
    system is under-determined or numerically singular fall back to the
    anchor centroid, as do solutions that land far outside the anchor box.
    """
    count, m, _ = txs.shape
    n = rxs.shape[1]
    anchors = np.concatenate([txs, rxs], axis=1)
    centroid = anchors.mean(axis=1)
    if m - 1 + n < 4:
        return centroid
    a1 = txs[:, 0, :]
    h = ks[:, :, 0] - ks[:, 0:1, 0]       # range to tx_i minus range to tx_0
    s1 = ks[:, 0, :]                      # range to tx_0 plus range to rx_j
    a1_sq = (a1 * a1).sum(axis=1)
    rows = m - 1 + n
    design = np.empty((count, rows, 4))
    rhs = np.empty((count, rows))
    design[:, : m - 1, :3] = -2.0 * (txs[:, 1:, :] - a1[:, None, :])
    design[:, : m - 1, 3] = -2.0 * h[:, 1:]
    rhs[:, : m - 1] = h[:, 1:] ** 2 - (txs[:, 1:, :] ** 2).sum(axis=2) + a1_sq[:, None]
    design[:, m - 1 :, :3] = -2.0 * (rxs - a1[:, None, :])
    design[:, m - 1 :, 3] = 2.0 * s1
    rhs[:, m - 1 :] = s1**2 - (rxs**2).sum(axis=2) + a1_sq[:, None]

    normal = np.einsum("tri,trj->tij", design, design)
    moment = np.einsum("tri,tr->ti", design, rhs)
    frob = np.sqrt((normal * normal).sum(axis=(1, 2)))
    solvable = np.abs(np.linalg.det(normal)) > _DET4_RTOL * np.maximum(frob, 1e-300) ** 4
    starts = centroid.copy()
    if solvable.any():
        idx = np.flatnonzero(solvable)
        sol = np.linalg.solve(normal[idx], moment[idx][:, :, None])[:, :, 0]
        candidate = sol[:, :3]
        lo = anchors[idx].min(axis=1)
        hi = anchors[idx].max(axis=1)
        span = np.maximum((hi - lo).max(axis=1), 1.0)
        inside = (
            (candidate >= lo - span[:, None]) & (candidate <= hi + span[:, None])
        ).all(axis=1)
        keep = idx[inside]
        starts[keep] = candidate[inside]
    return starts


def _gauss_newton_batch(
    txs: np.ndarray,
    rxs: np.ndarray,
    ks: np.ndarray,
    p0: np.ndarray,
    history: list[float] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Damped Gauss-Newton on a batch of range-sum problems.

    Each scene iterates independently: the full step is halved up to
    MAX_HALVINGS times whenever it would increase the residual norm, a
    scene stops once its accepted step is shorter than STEP_TOL meters or
    no damped step is accepted, and everything stops after MAX_ITERATIONS.

    Returns (positions, residual_norms, iterations, singular_flags); a set
    singular flag means the Jacobian lost rank 3 at some iterate.  If
    ``history`` is given (batch of one), the residual norm after every
    accepted step is appended to it.
    """
    count, m, _ = txs.shape
    n = rxs.shape[1]
    p = p0.astype(np.float64).copy()
    r, da, db, rnorm = _range_sum_residuals(txs, rxs, ks, p)
    iterations = np.zeros(count, dtype=np.int64)
    active = np.ones(count, dtype=bool)
    singular = np.zeros(count, dtype=bool)

    for it in range(1, MAX_ITERATIONS + 1):
        if not active.any():
            break
        ia = np.flatnonzero(active)
        pa = p[ia]
        ua = (txs[ia] - pa[:, None, :]) / np.maximum(da[ia], _DISTANCE_FLOOR)[:, :, None]
        ub = (rxs[ia] - pa[:, None, :]) / np.maximum(db[ia], _DISTANCE_FLOOR)[:, :, None]
        jac = (ua[:, :, None, :] + ub[:, None, :, :]).reshape(len(ia), m * n, 3)
        rv = r[ia].reshape(len(ia), m * n)
        grad = np.einsum("tki,tk->ti", jac, rv)
        hess = np.einsum("tki,tkj->tij", jac, jac)

        bad = _rank_deficient3(hess)
        if bad.any():
            singular[ia[bad]] = True
            active[ia[bad]] = False
            ia = ia[~bad]
            if ia.size == 0:
                continue
            grad, hess = grad[~bad], hess[~bad]
        step = -np.linalg.solve(hess, grad[:, :, None])[:, :, 0]

        # Damping: per scene, halve the step until the residual does not
        # increase or the halving budget runs out.
        pending = np.ones(ia.size, dtype=bool)
        new_p = p[ia].copy()
        new_r, new_da, new_db = r[ia].copy(), da[ia].copy(), db[ia].copy()
        new_rnorm = rnorm[ia].copy()
        step_len = np.zeros(ia.size)
        for _ in range(MAX_HALVINGS + 1):
            if not pending.any():
                break
            jp = np.flatnonzero(pending)
            sel = ia[jp]
            cand = p[sel] + step[jp]
            r_c, da_c, db_c, rn_c = _range_sum_residuals(txs[sel], rxs[sel], ks[sel], cand)
            ok = rn_c <= rnorm[sel]
            if ok.any():
                hit = jp[ok]
                new_p[hit] = cand[ok]
                new_r[hit], new_da[hit], new_db[hit] = r_c[ok], da_c[ok], db_c[ok]
                new_rnorm[hit] = rn_c[ok]
                step_len[hit] = np.sqrt((step[hit] ** 2).sum(axis=1))
                pending[hit] = False
            step[jp[~ok]] *= 0.5

        stalled = pending
        if stalled.any():
            active[ia[stalled]] = False
        accepted = ~stalled
        if accepted.any():
            sel = ia[accepted]
            p[sel] = new_p[accepted]
            r[sel] = new_r[accepted]
            da[sel], db[sel] = new_da[accepted], new_db[accepted]
            rnorm[sel] = new_rnorm[accepted]
            iterations[sel] = it
            if history is not None:
                history.extend(new_rnorm[accepted].tolist())
            done = step_len[accepted] < STEP_TOL
            active[sel[done]] = False

    return p, rnorm, iterations, singular


def localize_bistatic_batch(
    ts: np.ndarray,
    txs: np.ndarray,
    rxs: np.ndarray,
    delta: float = 0.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fix a batch of scenes from their delay matrices.

    ts (T,m,n) delays in seconds, txs (T,m,3), rxs (T,n,3) in meters.
    Returns (positions (T,3), residual_norms (T,), iterations (T,)).

    Raises:
        UnderDetermined: if m * n < 4.
        SingularGeometry: if any scene's Jacobian loses rank 3.
    """
    ts = np.asarray(ts, dtype=np.float64)
    txs = np.asarray(txs, dtype=np.float64)
    rxs = np.asarray(rxs, dtype=np.float64)
    m, n = txs.shape[1], rxs.shape[1]
    if m * n < 4:
        raise UnderDetermined(f"{m * n} range sums cannot fix a 3D position")
    ks = SPEED_OF_LIGHT * (ts - delta)
    p0 = _warm_start(txs, rxs, ks)
    p, rnorm, iterations, singular = _gauss_newton_batch(txs, rxs, ks, p0)
    if singular.any():
        raise SingularGeometry(
            f"rank-deficient geometry in {int(singular.sum())} of {ts.shape[0]} scenes"
        )
    return p, rnorm, iterations


def localize_bistatic(
    t: np.ndarray,
    tx: np.ndarray,
    rx: np.ndarray,
    delta: float = 0.0,
    initial: np.ndarray | None = None,
) -> PositionFix:
    """Fix the tag position from a bistatic delay matrix.

    With ``initial`` given, Gauss-Newton starts there; otherwise the
    algebraic warm start described in the module docstring is used (with
    the anchor centroid as its fallback).
    """
    t = np.asarray(t, dtype=np.float64)
    tx = np.asarray(tx, dtype=np.float64)
    rx = np.asarray(rx, dtype=np.float64)
    if t.shape != (tx.shape[0], rx.shape[0]):
        raise UnderDetermined(
            f"delay matrix {t.shape} does not match {tx.shape[0]} tx / {rx.shape[0]} rx anchors"
        )
    if t.size < 4:
        raise UnderDetermined(f"{t.size} range sums cannot fix a 3D position")
    ks = SPEED_OF_LIGHT * (t - delta)[None, :, :]
    txs, rxs = tx[None, :, :], rx[None, :, :]
    if initial is None:
        p0 = _warm_start(txs, rxs, ks)
    else:
        p0 = np.asarray(initial, dtype=np.float64).reshape(1, 3)
    p, rnorm, iterations, singular = _gauss_newton_batch(txs, rxs, ks, p0)
    if singular[0]:
        raise SingularGeometry("Jacobian rank < 3; anchor placement is degenerate")
    return PositionFix(
        position=p[0], residual_norm=float(rnorm[0]), iterations=int(iterations[0])
    )


def localize_monostatic_batch(
    ts: np.ndarray,
    anchors: np.ndarray,
    delta: float = 0.0,
    polish: bool = True,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fix a batch of monostatic scenes from their delay matrix diagonals.

    Ranges are c (t[i, i] - delta) / 2.  Subtracting the first squared
    sphere equation from the others leaves a linear system in p, solved by
    least squares; ``polish`` then applies one damped Gauss-Newton step on
    the full range residual.

    Raises:
        UnderDetermined: if fewer than 4 anchors.
        SingularGeometry: if the linear system has rank < 3 (coplanar
            anchors) for any scene.
    """
    ts = np.asarray(ts, dtype=np.float64)
    anchors = np.asarray(anchors, dtype=np.float64)
    count, m = anchors.shape[0], anchors.shape[1]
    if m < 4:
        raise UnderDetermined(f"{m} ranges cannot fix a 3D position")
    ranges = SPEED_OF_LIGHT * (np.diagonal(ts, axis1=1, axis2=2) - delta) / 2.0
    diff = anchors[:, 1:, :] - anchors[:, 0:1, :]
    rhs = 0.5 * (
        (anchors[:, 1:, :] ** 2).sum(axis=2)
        - (anchors[:, 0, :] ** 2).sum(axis=1)[:, None]
        - (ranges[:, 1:] ** 2 - ranges[:, 0:1] ** 2)
    )
    hess = np.einsum("tri,trj->tij", diff, diff)
    bad = _rank_deficient3(hess)
    if bad.any():
        raise SingularGeometry(
            f"coplanar anchors in {int(bad.sum())} of {count} scenes"
        )
    p = np.linalg.solve(hess, np.einsum("tri,tr->ti", diff, rhs)[:, :, None])[:, :, 0]
    f, dist, fnorm = _range_residuals(anchors, ranges, p)
    iterations = np.zeros(count, dtype=np.int64)
    if polish:
        jac = (anchors - p[:, None, :]) / np.maximum(dist, _DISTANCE_FLOOR)[:, :, None]
        hess_p = np.einsum("tri,trj->tij", jac, jac)
        grad = np.einsum("tri,tr->ti", jac, f)
        ok = ~_rank_deficient3(hess_p)
        step = np.zeros_like(p)
        if ok.any():
            step[ok] = -np.linalg.solve(hess_p[ok], grad[ok][:, :, None])[:, :, 0]
        pending = ok.copy()
        for _ in range(MAX_HALVINGS + 1):
            if not pending.any():
                break
            jp = np.flatnonzero(pending)
            cand = p[jp] + step[jp]
            f_c, _, fn_c = _range_residuals(anchors[jp], ranges[jp], cand)
            accept = fn_c <= fnorm[jp]
            hit = jp[accept]
            if accept.any():
                p[hit] = cand[accept]
                f[hit], fnorm[hit] = f_c[accept], fn_c[accept]
                iterations[hit] = 1
                pending[hit] = False
            step[jp[~accept]] *= 0.5
    return p, fnorm, iterations


def _range_residuals(
    anchors: np.ndarray, ranges: np.ndarray, points: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Plain range residuals for a batch: ranges minus anchor distances."""
    dist = np.sqrt(((anchors - points[:, None, :]) ** 2).sum(axis=2))
    f = ranges - dist
    return f, dist, np.sqrt((f * f).sum(axis=1))


def localize_monostatic(
    t: np.ndarray,
    anchors: np.ndarray,
    delta: float = 0.0,
    polish: bool = True,
) -> PositionFix:
    """Fix the tag position from a monostatic delay matrix."""
    t = np.asarray(t, dtype=np.float64)
    anchors = np.asarray(anchors, dtype=np.float64)
    if t.shape != (anchors.shape[0], anchors.shape[0]):
        raise UnderDetermined(
            f"delay matrix {t.shape} does not match {anchors.shape[0]} anchors"
        )
    p, fnorm, iterations = localize_monostatic_batch(
        t[None, :, :], anchors[None, :, :], delta=delta, polish=polish
    )
    return PositionFix(
        position=p[0], residual_norm=float(fnorm[0]), iterations=int(iterations[0])
    )
