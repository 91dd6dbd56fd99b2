"""Tag position recovery from estimated delay matrices.

Bistatic delays give range sums (distance to a transmitter plus distance to
a receiver), so the fix is the nonlinear least squares minimizer of

    sum_ij ( c (t[i, j] - delta) - |tx_i - p| - |rx_j - p| )^2

The model |tx_i - p| + |rx_j - p| is an outer sum, like every noiseless
delay matrix, so the objective splits into the misfit of the range sums'
two-way additive fit a_i + b_j (row mean + column mean - grand mean),
which depends on p, plus the energy off that subspace, which does not.
The solver works on the m + n fitted terms only: each step is the exact
Newton step where the Hessian is positive definite and the Gauss-Newton
step elsewhere, damped by step halving.  Because a matrix and its
projection onto the outer-sum subspace share the fitted terms, the
projection (``refine_bistatic``) does not move the bistatic fix, and an
m x n matrix carries only m + n - 1 independent range sums.

The solver is seeded with an algebraic warm start: differencing the
squared sphere equations makes the system linear in (p, tau), where tau is
the unknown first transmitter range, and the linear least squares solution
lands in the attraction basin of the global minimum in practice.  A plain
centroid start converges to local minima on a few percent of random
scenes, which the warm start eliminates.

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
from .errors import DimensionMismatch, NonFiniteInput, SingularGeometry, UnderDetermined
from .estimator import refine_bistatic

MAX_ITERATIONS = 100
STEP_TOL = 1e-10          # meters; convergence when the accepted step is shorter
MAX_HALVINGS = 20
# A scene also stops when its step predicts a decrease of |R|^2 below this
# share of it: rounding in |R|^2 hides such a decrease, and every halving
# of the step would be rejected.
DECREASE_RTOL = 1e-14
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


def _check_shapes(ts: np.ndarray, txs: np.ndarray, rxs: np.ndarray) -> None:
    """Require delays (T,m,n) with transmitters (T,m,3) and receivers (T,n,3)."""
    if (
        ts.ndim != 3
        or txs.shape != ts.shape[:2] + (3,)
        or rxs.shape != (ts.shape[0], ts.shape[2], 3)
    ):
        raise DimensionMismatch(
            f"delays {ts.shape} do not match anchors {txs.shape} and {rxs.shape}"
        )


def _require_finite(*values) -> None:
    if not all(np.isfinite(v).all() for v in values):
        raise NonFiniteInput("delays, anchor positions and delta must be finite")


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


def _positive_definite3(h: np.ndarray) -> np.ndarray:
    """Sylvester's criterion on a (T,3,3) stack of symmetric matrices."""
    minor2 = h[:, 0, 0] * h[:, 1, 1] - h[:, 0, 1] * h[:, 1, 0]
    return (h[:, 0, 0] > 0.0) & (minor2 > 0.0) & (_det3(h) > 0.0)


def _warm_start(txs: np.ndarray, rxs: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """Algebraic initial points for a batch of bistatic scenes.

    With tau the unknown range to the first transmitter, the range-sum
    matrix fixes every other anchor range as an affine function of tau;
    subtracting the first transmitter's squared sphere equation from the
    rest yields m - 1 + n >= 4 equations linear in (p, tau).  Scenes where
    that system is numerically singular fall back to the anchor centroid,
    as do solutions that land far outside the anchor box.
    """
    count, m, _ = txs.shape
    n = rxs.shape[1]
    anchors = np.concatenate([txs, rxs], axis=1)
    centroid = anchors.mean(axis=1)
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


def _fit_residuals(
    anchors: np.ndarray, fit: np.ndarray, m: int, p: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row/column residuals of a batch of range-sum problems.

    anchors (T,m+n,3) stacks the transmitters over the receivers, fit
    (T,m+n) the row term a over the column term b, p (T,3).  Returns the
    anchor distances d and the residual terms e = fit - d, so that the
    residual matrix is R = x (+) y with x = e[:, :m], y = e[:, m:], and
    |R|_F^2.  The norm is summed from three orthogonal parts of R,
    n |x - mean(x)|^2 + m |y - mean(y)|^2 + m n (mean(x) + mean(y))^2,
    which avoids the cancellation in n |x|^2 + m |y|^2 + 2 sum(x) sum(y):
    a and b share an arbitrary constant, so x and y are large and of
    opposite sign.
    """
    n = anchors.shape[1] - m
    d = np.sqrt(((anchors - p[:, None, :]) ** 2).sum(axis=2))
    e = fit - d
    xm = e[:, :m].mean(axis=1)
    ym = e[:, m:].mean(axis=1)
    sq = (
        n * ((e[:, :m] - xm[:, None]) ** 2).sum(axis=1)
        + m * ((e[:, m:] - ym[:, None]) ** 2).sum(axis=1)
        + (m * n) * (xm + ym) ** 2
    )
    return d, e, sq


def _newton_batch(
    anchors: np.ndarray,
    fit: np.ndarray,
    m: int,
    p0: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Damped Newton on a batch of range-sum problems in row/column form.

    anchors, fit and m are as in ``_fit_residuals``; p0 (T,3) holds the
    initial points.  With R_ij = x_i + y_j, unit vectors u_i (to tx_i) and
    v_j (to rx_j), su = sum_i u_i and sv = sum_j v_j, every term of
    |R|^2 / 2 comes from the (T,m) and (T,n) terms:
      * gradient: sum_i row_i u_i + sum_j col_j v_j, with the row sums
        row_i = n x_i + sum(y) and column sums col_j = m y_j + sum(x);
      * Gauss-Newton matrix: n sum_i u_i u_i' + m sum_j v_j v_j'
        + su sv' + sv su';
      * exact Hessian: that matrix minus sum_i row_i (I - u_i u_i') / da_i
        and sum_j col_j (I - v_j v_j') / db_j.
    A scene takes the full Newton step where the exact Hessian is positive
    definite and the Gauss-Newton step otherwise.  Each step is halved up
    to MAX_HALVINGS times whenever it would increase the residual norm.  A
    scene stops once its accepted step is shorter than STEP_TOL meters, its
    predicted decrease falls below DECREASE_RTOL of |R|^2, or no damped
    step is accepted; everything stops after MAX_ITERATIONS.

    Returns (positions, |R|^2, iterations, singular_flags); a set singular
    flag means the Gauss-Newton matrix lost rank 3 at some iterate.
    """
    count, k, _ = anchors.shape
    n = k - m
    # Each transmitter enters n range sums and each receiver m.
    weight = np.concatenate([np.full(m, float(n)), np.full(n, float(m))])
    p = p0.astype(np.float64).copy()
    d, e, sq = _fit_residuals(anchors, fit, m, p)
    iterations = np.zeros(count, dtype=np.int64)
    active = np.ones(count, dtype=bool)
    singular = np.zeros(count, dtype=bool)

    for it in range(1, MAX_ITERATIONS + 1):
        if not active.any():
            break
        ia = np.flatnonzero(active)
        da, ea = d[ia], e[ia]
        unit = (anchors[ia] - p[ia][:, None, :]) / np.maximum(da, _DISTANCE_FLOOR)[:, :, None]
        su, sv = unit[:, :m].sum(axis=1), unit[:, m:].sum(axis=1)
        # Row sums of R for the transmitters, column sums for the receivers.
        sums = weight * ea
        sums[:, :m] += ea[:, m:].sum(axis=1)[:, None]
        sums[:, m:] += ea[:, :m].sum(axis=1)[:, None]
        grad = (sums[:, None, :] @ unit)[:, 0, :]
        cross = su[:, :, None] * sv[:, None, :]
        unit_t = unit.transpose(0, 2, 1)
        gn = (unit_t * weight) @ unit + cross + cross.transpose(0, 2, 1)

        bad = _rank_deficient3(gn)
        if bad.any():
            singular[ia[bad]] = True
            active[ia[bad]] = False
            ia = ia[~bad]
            if ia.size == 0:
                continue
            grad, gn, unit, unit_t = grad[~bad], gn[~bad], unit[~bad], unit_t[~bad]
            sums, da = sums[~bad], da[~bad]
        curv = sums / np.maximum(da, _DISTANCE_FLOOR)
        hess = gn + (unit_t * curv[:, None, :]) @ unit
        hess -= curv.sum(axis=1)[:, None, None] * np.eye(3)
        newton = _positive_definite3(hess)
        hess[~newton] = gn[~newton]
        step = -np.linalg.solve(hess, grad[:, :, None])[:, :, 0]
        resolved = -(grad * step).sum(axis=1) > DECREASE_RTOL * sq[ia]
        active[ia[~resolved]] = False
        ia, step = ia[resolved], step[resolved]

        # Damping: per scene, halve the step until the residual does not
        # increase or the halving budget runs out.
        pending = np.ones(ia.size, dtype=bool)
        new_p = p[ia].copy()
        new_d, new_e, new_sq = d[ia].copy(), e[ia].copy(), sq[ia].copy()
        step_len = np.zeros(ia.size)
        for _ in range(MAX_HALVINGS + 1):
            if not pending.any():
                break
            jp = np.flatnonzero(pending)
            sel = ia[jp]
            cand = p[sel] + step[jp]
            d_c, e_c, sq_c = _fit_residuals(anchors[sel], fit[sel], m, cand)
            ok = sq_c <= sq[sel]
            if ok.any():
                hit = jp[ok]
                new_p[hit] = cand[ok]
                new_d[hit], new_e[hit], new_sq[hit] = d_c[ok], e_c[ok], sq_c[ok]
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
            d[sel], e[sel], sq[sel] = new_d[accepted], new_e[accepted], new_sq[accepted]
            iterations[sel] = it
            done = step_len[accepted] < STEP_TOL
            active[sel[done]] = False

    return p, sq, iterations, singular


def localize_bistatic_batch(
    ts: np.ndarray,
    txs: np.ndarray,
    rxs: np.ndarray,
    delta: float = 0.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fix a batch of scenes from their delay matrices.

    ts (T,m,n) delays in seconds, txs (T,m,3), rxs (T,n,3) in meters.
    Returns (positions (T,3), residual_norms (T,), iterations (T,)); the
    residual norm is taken over all m n range sums of ``ts``.

    The range sums K = c (ts - delta) are split once into their two-way
    additive fit a (+) b (``refine_bistatic``: row mean + column mean -
    grand mean) and the off-subspace energy |K - a (+) b|^2.  The model da (+) db lies in the
    same subspace, so |K - da (+) db|^2 = |(a - da) (+) (b - db)|^2 plus
    that constant, and the solver works on the (T,m) and (T,n) terms only.
    It follows that a delay matrix and its projection have one fix.

    Raises:
        DimensionMismatch: unless the three stacks agree as above.
        UnderDetermined: if m + n - 1 < 4 (the independent range sums).
        NonFiniteInput: if a delay, anchor coordinate or delta is NaN or inf.
        SingularGeometry: if any scene's Jacobian loses rank 3.
    """
    ts = np.asarray(ts, dtype=np.float64)
    txs = np.asarray(txs, dtype=np.float64)
    rxs = np.asarray(rxs, dtype=np.float64)
    _check_shapes(ts, txs, rxs)
    m, n = txs.shape[1], rxs.shape[1]
    if m + n - 1 < 4:
        raise UnderDetermined(f"{m + n - 1} independent range sums cannot fix a 3D position")
    _require_finite(ts, txs, rxs, delta)
    ks = SPEED_OF_LIGHT * (ts - delta)
    fitted = refine_bistatic(ks)
    off_sq = ((ks - fitted) ** 2).sum(axis=(1, 2))
    # Any split of the fitted matrix into a_i + b_j serves; its first
    # column and its first row less their shared corner give one.
    fit = np.concatenate([fitted[:, :, 0], fitted[:, 0, :] - fitted[:, 0:1, 0]], axis=1)
    p, fit_sq, iterations, singular = _newton_batch(
        np.concatenate([txs, rxs], axis=1), fit, m, _warm_start(txs, rxs, fitted)
    )
    if singular.any():
        raise SingularGeometry(
            f"rank-deficient geometry in {int(singular.sum())} of {ts.shape[0]} scenes"
        )
    return p, np.sqrt(fit_sq + off_sq), iterations


def localize_bistatic(
    t: np.ndarray,
    tx: np.ndarray,
    rx: np.ndarray,
    delta: float = 0.0,
) -> PositionFix:
    """Fix the tag position from a bistatic delay matrix, starting the
    damped Newton solver at the algebraic warm start described in the
    module docstring (with the anchor centroid as its fallback)."""
    p, rnorm, iterations = localize_bistatic_batch(
        np.asarray(t)[None], np.asarray(tx)[None], np.asarray(rx)[None], delta=delta
    )
    return PositionFix(
        position=p[0], residual_norm=float(rnorm[0]), iterations=int(iterations[0])
    )


def localize_monostatic_batch(
    ts: np.ndarray,
    anchors: np.ndarray,
    delta: float = 0.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fix a batch of monostatic scenes from their delay matrix diagonals.

    ts (T,m,m) delays in seconds, anchors (T,m,3) in meters.  Ranges are
    c (t[i, i] - delta) / 2.  Subtracting the first squared sphere equation
    from the others leaves a linear system in p, solved by least squares;
    one damped Gauss-Newton step on the full range residual then polishes
    the fix.

    Raises:
        DimensionMismatch: unless the two stacks agree as above.
        UnderDetermined: if fewer than 4 anchors.
        NonFiniteInput: if a delay, anchor coordinate or delta is NaN or inf.
        SingularGeometry: if the linear system has rank < 3 (coplanar
            anchors) for any scene.
    """
    ts = np.asarray(ts, dtype=np.float64)
    anchors = np.asarray(anchors, dtype=np.float64)
    _check_shapes(ts, anchors, anchors)
    count, m = anchors.shape[0], anchors.shape[1]
    if m < 4:
        raise UnderDetermined(f"{m} ranges cannot fix a 3D position")
    _require_finite(ts, anchors, delta)
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
) -> PositionFix:
    """Fix the tag position from a monostatic delay matrix."""
    p, fnorm, iterations = localize_monostatic_batch(
        np.asarray(t)[None], np.asarray(anchors)[None], delta=delta
    )
    return PositionFix(
        position=p[0], residual_norm=float(fnorm[0]), iterations=int(iterations[0])
    )
