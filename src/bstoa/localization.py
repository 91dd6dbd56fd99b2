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
projection (``refine_estimate``) does not move the bistatic fix, and an
m x n matrix carries only m + n - 1 independent range sums.

Monostatic delays give plain ranges from the diagonal entries, which
linearize exactly by subtracting the first sphere equation; one damped
Gauss-Newton step then polishes the closed-form fix.

The bistatic solver is seeded with the same closed form.  With tau the
unknown range to the first transmitter, every other anchor range is
affine in tau, so the differenced sphere equations are the monostatic
ones with right-hand sides affine in tau.  Their least squares solution
for fixed tau is p0 + tau p1, two right-hand sides through one 3x3 normal
matrix, and the tau that minimizes the residual, which is affine in tau
too, gives the least squares solution in (p, tau).  It lands in the
attraction basin of the global minimum on most scenes, where a plain
centroid start converges to local minima on a few percent of them.

The public localizers take delay matrices ``(..., m, n)`` with any
leading axes, a lone scene included, and flatten them to T scenes.  All
solvers run on batches with the scenes on the last, contiguous axis:
anchors (3, k, T), positions (3, T), per-anchor terms (k, T).  Sums over
anchors or coordinates go through the estimator's ``_sum_in_order``, which
adds whole planes in order in every layout, so no scene's result depends
on its batch, and a lone scene (T = 1) rounds like one of a batch.  3x3
systems are solved in closed form through the adjugate.  The Newton
loop's working arrays hold per scene its position, its anchors and fitted
terms, and its residual terms at the position: no (3, k, T) array but the
anchors, since each step forms its unit vectors from them.  A scene that
stops iterating leaves them.

The solvers ``_fix_bistatic`` and ``_fix_monostatic`` work in scene units,
in which the scene's anchors span about 1, so every length they compare
with a tolerance scales with the scene.  The public localizers take each
scene to its frame (``_to_frame``): they reject anchor coordinates and
ranges beyond ``RANGE_LIMIT`` in meters, subtract the anchor centroid and
divide by a power of two at or above the anchor span and the longest
range, which is exact.  They reduce the delay matrices to per-anchor terms
there, solve, and map the fix and the residual back.  Sweeps call the
solvers directly, with every length of a sweep divided by one power of
two, the one at or above its cube side (``_unit_at_or_above``,
``harness._loc_terms``).  The solvers raise nothing on a scene with
no fix: they flag it in a per-scene mask, and every caller applies one
rule to it.  The public localizers return a NaN position and residual
norm for the scene, and a sweep leaves it out of its point's RMSE and
counts it; each raises ``SingularGeometry`` only where no scene of its
stack or grid point has a fix.  The other scenes' results do not depend
on it.
"""

from __future__ import annotations

import math

import numpy as np

from .channel import SPEED_OF_LIGHT
from .errors import DimensionMismatch, NonFiniteInput, SingularGeometry, UnderDetermined
from .errors import _real_array, _require_real
from .estimator import _sum_in_order, _two_way_fit

MAX_ITERATIONS = 100
# Scene units (module docstring), 1e-10 m and 1e-12 m in the unit of a 10 m
# cube, 16 m: convergence when the accepted step is shorter than STEP_TOL;
# _DISTANCE_FLOOR avoids 0/0 in unit vectors at an anchor.
STEP_TOL = 1e-10 / 16
_DISTANCE_FLOOR = 1e-12 / 16
MAX_HALVINGS = 20
# The step scales that _damped_update tries after a rejected full step.
_HALVINGS = 0.5 ** np.arange(1, MAX_HALVINGS + 1)
# A scene also stops when its step predicts a decrease of |R|^2 below this
# share of it: rounding in |R|^2 hides such a decrease, and every halving
# of the step would be rejected.
DECREASE_RTOL = 1e-14
# Meters; bounds the anchor coordinates and ranges the public localizers take,
# and a sweep's lengths in meters and in scene units.  Below it a scene's
# span and frame stay finite, and so does the 7th power of a length that
# the adjugate solve of the linearized sphere equations forms, with 2^128 to
# spare for sums over anchors.
RANGE_LIMIT = 2.0**128
# The rank test uses the scale-free ratio det(H) / |H|_F^3, at most
# 1 / cond(H), so at 1e-12 a 3x3 solve keeps at most about 4 digits.
# Random geometry does not stay far above it: over the 100,000 scenes of
# chunks 0-199 of a seed-0 monostatic 4 sweep (4 uniform anchors in a
# cube; the closed form's H), 4.5% lie below 1e-5, the 1e-4, 1e-3 and 1e-2
# quantiles are 6.5e-11, 4.4e-9 and 4.9e-7, and 2 scenes (chunks 111 and
# 183) at or below 1e-12.  Collinear or coplanar anchors with
# metrology-level jitter fall below 1e-18.
_DET3_RTOL = 1e-12
# adj[i, j] = h[j+1, i+1] h[j+2, i+2] - h[j+1, i+2] h[j+2, i+1] (indices
# mod 3): the four factors as indices into the flattened (9, T) stack.
_AXIS = np.arange(3)
_COFACTORS = [
    3 * ((_AXIS + r) % 3) + (_AXIS[:, None] + c) % 3 for r, c in ((1, 1), (2, 2), (1, 2), (2, 1))
]
# Symmetric 3x3 matrices are summed as their six upper entries (_ROW[i],
# _COL[i]); _FULL unpacks them into (3, 3, T) stacks.
_ROW, _COL = np.triu_indices(3)
_FULL = np.array([[0, 1, 2], [1, 3, 4], [2, 4, 5]])


def _as_stacks(t, tx, rx) -> tuple[tuple[int, ...], np.ndarray, np.ndarray, np.ndarray]:
    """The leading shape of delays (..., m, n) with transmitters (..., m, 3)
    and receivers (..., n, 3), and the three as (T, m, n), (T, m, 3) and
    (T, n, 3) float stacks."""
    ts = _real_array(t, "delays")
    txs, rxs = (_real_array(x, "anchor coordinates", None) for x in (tx, rx))
    lead = ts.shape[:-2]
    if ts.ndim < 2 or txs.shape != ts.shape[:-1] + (3,) or rxs.shape != (*lead, ts.shape[-1], 3):
        raise DimensionMismatch(
            f"delays {ts.shape} do not match anchors {txs.shape} and {rxs.shape}"
        )
    count = math.prod(lead)
    return lead, *(x.reshape(count, *x.shape[-2:]) for x in (ts, txs, rxs))


def _outputs(what, lead, frame, singular, p, norms, counts) -> tuple:
    """A public localizer's outputs from positions (3, T) and residual
    norms (T,) in scene units and counts (T,): mapped back from the frame
    (centroid, unit) of ``_to_frame`` and reshaped to the leading shape
    ``lead``, (..., 3), (...) and (...).  A scene flagged in ``singular``
    (T,) has no fix, and its position and residual norm are NaN.  Raises
    ``SingularGeometry``, naming ``what``, if the stack holds a scene and
    none of its scenes has a fix."""
    if singular.size and singular.all():
        raise SingularGeometry(f"{what} in {singular.sum()} of {singular.size} scenes")
    centroid, unit = frame
    p[:, singular], norms[singular] = np.nan, np.nan
    p = p * unit + centroid
    return p.T.reshape(*lead, 3), (norms * unit).reshape(lead), counts.reshape(lead)


def _adjugate3(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Adjugate and determinant of a (3, 3, T) stack, so h^-1 = adj / det;
    adj[2, 2] is the leading 2x2 minor, which Sylvester's criterion reads."""
    flat = h.reshape(9, -1)
    adj = flat[_COFACTORS[0]] * flat[_COFACTORS[1]]
    adj -= flat[_COFACTORS[2]] * flat[_COFACTORS[3]]
    return adj, h[0, 0] * adj[0, 0] + h[0, 1] * adj[1, 0] + h[0, 2] * adj[2, 0]


def _rank_below3(h: np.ndarray, det: np.ndarray) -> np.ndarray:
    """Scale-free rank test on a (3, 3, T) stack and its determinants."""
    frob = np.sqrt(_sum_in_order(h.reshape(9, -1) ** 2))
    return np.abs(det) <= _DET3_RTOL * np.maximum(frob, 1e-300) ** 3


def _gram(u: np.ndarray) -> np.ndarray:
    """sum_k u_k u_k' as a (3, 3, T) stack, for u (3, k, T)."""
    return np.stack([_sum_in_order(u[a] * u[b]) for a, b in zip(_ROW, _COL)])[_FULL]


def _solve3(adj: np.ndarray, det: np.ndarray, g: np.ndarray) -> np.ndarray:
    """adj @ g / det on stacks: (3, 3, T), (T,) and (3, T)."""
    return _sum_in_order(adj * g[None], axis=1) / det


def _least_squares3(u: np.ndarray, *rhs: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """For u (3, k, T) and each r (k, T) in ``rhs``, the x (3, T) minimizing
    sum_k (u_k' x - r_k)^2, all through one normal matrix, and the scenes
    whose normal matrix has rank < 3, where x means nothing."""
    h = _gram(u)
    adj, det = _adjugate3(h)
    bad = _rank_below3(h, det)
    det = np.where(bad, 1.0, det)
    return [_solve3(adj, det, _sum_in_order(u * r, axis=1)) for r in rhs], bad


def _unit_at_or_above(length):
    """The power of two at or above each ``length`` (1 for 0), exactly:
    the scene unit of ``_to_frame`` and of a localization sweep
    (``harness._loc_terms``)."""
    mantissa, exponent = np.frexp(length)
    return np.ldexp(1.0, exponent - (mantissa == 0.5))


def _to_frame(anchors: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Check anchors (3, k, T), then lengths (..., T), against
    ``RANGE_LIMIT`` and move both in place into each scene's frame: its
    anchor centroid (3, T) and its unit (T,), ``_unit_at_or_above`` the
    larger of its anchor span and its longest length, both returned.  A
    point x maps to (x - centroid) / unit in scene units, and a length l to
    l / unit; the division is exact."""
    # The check reads the extremes the frame needs; NaN fails it.  c (t -
    # delta) overflows for finite delays, and so do the powers of a length
    # the solvers form.
    hi, lo = anchors.max(axis=1), anchors.min(axis=1)
    longest = np.abs(lengths).max(axis=tuple(range(lengths.ndim - 1)))
    ranges = (
        "ranges c (t - delta) and their fitted sums "
        f"(|t - delta| below {RANGE_LIMIT / SPEED_OF_LIGHT:.3g} s)"
    )
    for extent, what in ((np.maximum(hi, -lo), "anchor coordinates"), (longest, ranges)):
        if not (extent < RANGE_LIMIT).all():
            raise NonFiniteInput(
                f"{what} must be finite and below 2^128 m = {RANGE_LIMIT:.3g} m in magnitude"
            )
    centroid = _sum_in_order(anchors, axis=1) / anchors.shape[1]
    unit = _unit_at_or_above(np.maximum((hi - lo).max(axis=0), longest))
    anchors -= centroid[:, None]
    anchors /= unit
    lengths /= unit
    return centroid, unit


def _warm_start(anchors: np.ndarray, col: np.ndarray, row: np.ndarray) -> np.ndarray:
    """Algebraic initial points (3, T) for bistatic scenes from anchors
    (3, m+n, T) and the range sums' first column (m, T) and row (n, T).

    With tau the unknown range to the first transmitter, the range-sum
    matrix fixes every other anchor range as an affine function of tau.
    Subtracting the first transmitter's squared sphere equation from the
    rest leaves m - 1 + n >= 4 equations (a_k - a_0)' p = base_k +
    tau slope_k: the monostatic fix's equations, with ranges affine in
    tau.  For fixed tau their least squares solution is p0 + tau p1, two
    right-hand sides through one 3x3 normal matrix, and the residual
    r0 + tau r1 is affine in tau, so tau = -(r0 . r1) / (r1 . r1) gives the
    least squares solution in (p, tau).  r1 = U p1 - slope is orthogonal
    to the columns of U, the rows a_k - a_0, so r0 . r1 = -base . r1.
    Scenes whose normal matrix has rank < 3 or whose r1 vanishes fall back
    to the anchor centroid, as do solutions that land far outside the
    anchor box.
    """
    h = col[1:] - col[0]                  # range to tx_i minus range to tx_0
    # One equation per anchor after the first: tx_1..tx_m-1, then every rx.
    u = anchors[:, 1:] - anchors[:, :1]
    norms = _sum_in_order(anchors * anchors)
    base = 0.5 * (norms[1:] - norms[0] - np.concatenate([h, row]) ** 2)
    slope = np.concatenate([-h, row])
    (p0, p1), bad = _least_squares3(u, base, slope)
    # Where bad, p0 and p1 mean nothing and r1 may overflow, as may a
    # barely fixed tau; neither scene passes the tests below.
    with np.errstate(over="ignore", invalid="ignore"):
        r1 = _sum_in_order(u * p1[:, None]) - slope
        r1_sq = _sum_in_order(r1 * r1)
        solvable = ~bad & (r1_sq > 0.0)
        candidate = p0 + (_sum_in_order(base * r1) / np.where(solvable, r1_sq, 1.0)) * p1
    lo, hi = anchors.min(axis=1), anchors.max(axis=1)
    span = (hi - lo).max(axis=0)
    inside = ((candidate >= lo - span) & (candidate <= hi + span)).all(axis=0)
    centroid = _sum_in_order(anchors, axis=1) / anchors.shape[1]
    return np.where(solvable & inside, candidate, centroid)


def _fit_residuals(
    anchors: np.ndarray, fit: np.ndarray, m: int, p: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row/column residuals of a batch of range-sum problems.

    anchors (3,m+n,T) stacks the transmitters over the receivers, fit
    (m+n,T) the row term a over the column term b, p (3,T).  Returns the
    anchor distances d, the residual terms e = fit - d (the residual matrix
    is R = x (+) y with x = e[:m], y = e[m:]) and |R|_F^2, summed from
    three orthogonal parts of R,
    n |x - mean(x)|^2 + m |y - mean(y)|^2 + m n (mean(x) + mean(y))^2.
    That avoids the cancellation in n |x|^2 + m |y|^2 + 2 sum(x) sum(y):
    a and b share an arbitrary constant, so x and y are large and opposite.
    The offsets anchors - p and the centred terms are squared in place,
    which rounds as x * x does.
    """
    n = anchors.shape[1] - m
    offset = anchors - p[:, None, :]
    d = np.sqrt(_sum_in_order(np.square(offset, out=offset)))
    e = fit - d
    xm = _sum_in_order(e[:m]) / m
    ym = _sum_in_order(e[m:]) / n
    xc, yc = e[:m] - xm, e[m:] - ym
    sq = (
        n * _sum_in_order(np.square(xc, out=xc))
        + m * _sum_in_order(np.square(yc, out=yc))
        + (m * n) * (xm + ym) ** 2
    )
    return d, e, sq


def _damped_update(residuals, inputs, p, step, state, tries) -> tuple[np.ndarray, np.ndarray]:
    """Step halving, shared by both solvers: each scene flagged in ``tries``
    takes the first of p + step, p + step / 2, ... (up to MAX_HALVINGS
    halvings) whose objective does not increase.  ``residuals(*inputs, q)``
    returns the (..., T) terms at points q (3, T), the objective last, as
    ``state`` holds them at p; both are updated in place.  The misses of
    the full steps try their halvings in blocks.  Returns the accepted
    flags and step lengths."""
    step_len = np.sqrt(_sum_in_order(step * step))
    cand = p + step
    terms = residuals(*inputs, cand)
    accepted = tries & (terms[-1] <= state[-1])
    where = True if accepted.all() else accepted
    for dst, src in zip((p, *state), (cand, *terms)):
        np.copyto(dst, src, where=where)
    pending = np.flatnonzero(tries & ~accepted)
    scales = _HALVINGS
    while pending.size and scales.size:
        # At most max(T, MAX_HALVINGS) candidates at once bounds the memory.
        block = scales[: max(p.shape[-1], scales.size) // pending.size]
        scene = np.repeat(pending, block.size)
        trial = step[:, pending, None] * block
        cand = (p[:, pending, None] + trial).reshape(3, -1)
        trial = trial.reshape(3, -1)
        terms = residuals(*(np.take(x, scene, axis=-1) for x in inputs), cand)
        ok = terms[-1].reshape(pending.size, block.size) <= state[-1][pending, None]
        found = ok.any(axis=1)
        pick = (np.arange(pending.size) * block.size + ok.argmax(axis=1))[found]
        hit = pending[found]
        for dst, src in zip((p, *state), (cand, *terms)):
            dst[..., hit] = np.take(src, pick, axis=-1)
        accepted[hit] = True
        step_len[hit] = np.sqrt(_sum_in_order(np.take(trial, pick, axis=1) ** 2))
        pending, scales = pending[~found], scales[block.size :]
    return accepted, step_len


def _newton_step(
    anchors: np.ndarray, p: np.ndarray, d: np.ndarray, e: np.ndarray, m: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The step of ``_newton_batch`` at points p (3,T), from anchors
    (3,m+n,T) and the distances d and terms e of ``_fit_residuals`` there,
    its gradient, and the scenes whose Gauss-Newton matrix lost rank 3.
    The unit vectors (anchors - p) / d are formed in the per-anchor buffer,
    by the subtraction and the division ``_fit_residuals`` would make."""
    k, t = d.shape
    n = k - m
    dist = np.maximum(d, _DISTANCE_FLOOR)
    # Row sums of R for the transmitters, column sums for the receivers;
    # each transmitter enters n range sums and each receiver m.
    sums = np.concatenate([n * e[:m] + _sum_in_order(e[m:]), m * e[m:] + _sum_in_order(e[:m])])
    # Per-anchor terms u, u u' (packed), curv u u', sums u and curv, each
    # summed once over the transmitters and once over the receivers.
    terms = np.empty((19, k, t))
    unit = np.subtract(anchors, p[:, None], out=terms[:3])
    unit /= dist
    for i, (a, b) in enumerate(zip(_ROW, _COL)):
        np.multiply(unit[a], unit[b], out=terms[3 + i])
    curv = np.divide(sums, dist, out=terms[18])
    np.multiply(terms[3:9], curv, out=terms[9:15])
    np.multiply(unit, sums, out=terms[15:18])
    tx, rx = _sum_in_order(terms[:, :m], axis=1), _sum_in_order(terms[:, m:], axis=1)
    del terms, unit, curv  # free the per-anchor terms before the 3x3 algebra
    su, sv = tx[:3], rx[:3]
    gn = n * tx[3:9] + m * rx[3:9] + (su[_ROW] * sv[_COL] + sv[_ROW] * su[_COL])
    hess = gn + (tx[9:15] + rx[9:15])
    hess[_FULL.diagonal()] -= tx[18] + rx[18]
    grad = tx[15:18] + rx[15:18]
    # The Gauss-Newton matrices, then the Hessians, as one (3, 3, 2t) stack.
    both = np.concatenate([gn, hess], axis=1)[_FULL]
    adj, det = _adjugate3(both)
    bad = _rank_below3(both[..., :t], det[:t])
    newton = (hess[0] > 0.0) & (adj[2, 2, t:] > 0.0) & (det[t:] > 0.0)
    det = np.where(newton, det[t:], np.where(bad, 1.0, det[:t]))
    return -_solve3(np.where(newton, adj[..., t:], adj[..., :t]), det, grad), grad, bad


def _to_nearest_anchor(work: list, stuck: np.ndarray, m: int) -> None:
    """Move each scene of ``stuck`` (indices into ``_newton_batch``'s
    working set ``work``, updated in place) to its nearest anchor if |R|^2
    is no larger there.  A range |p - anchor| has a cusp at the anchor,
    where a scene's minimum can lie; the Newton steps overshoot it, and
    MAX_HALVINGS halvings of a step leave a scene stuck about 2^-20 steps
    short of it."""
    _, p, anchors, fit, *state = work
    q = anchors[:, state[0][:, stuck].argmin(axis=0), stuck]
    terms = _fit_residuals(anchors[..., stuck], fit[:, stuck], m, q)
    better = terms[-1] <= state[-1][stuck]
    for dst, src in zip((p, *state), (q, *terms)):
        dst[..., stuck[better]] = src[..., better]


def _newton_batch(
    anchors: np.ndarray, fit: np.ndarray, m: int, p0: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Damped Newton on a batch of range-sum problems in row/column form.

    anchors, fit and m are as in ``_fit_residuals``; p0 (3,T) holds the
    initial points.  With R_ij = x_i + y_j, unit vectors u_i (to tx_i) and
    v_j (to rx_j), su = sum_i u_i and sv = sum_j v_j, every term of
    |R|^2 / 2 comes from the (m,T) and (n,T) terms:
      * gradient: sum_i row_i u_i + sum_j col_j v_j, with the row sums
        row_i = n x_i + sum(y) and column sums col_j = m y_j + sum(x);
      * Gauss-Newton matrix: n sum_i u_i u_i' + m sum_j v_j v_j'
        + su sv' + sv su';
      * exact Hessian: that matrix minus sum_i row_i (I - u_i u_i') / da_i
        and sum_j col_j (I - v_j v_j') / db_j.
    A scene takes the full Newton step where the exact Hessian is positive
    definite and the Gauss-Newton step otherwise.  Each step is halved up
    to MAX_HALVINGS times whenever it would increase the residual norm.  A
    scene stops once its accepted step is shorter than STEP_TOL, its
    predicted decrease falls below DECREASE_RTOL of |R|^2, or no damped
    step is accepted, when it takes its nearest anchor if that is no worse
    (``_to_nearest_anchor``); everything stops after MAX_ITERATIONS.  A
    scene that stops writes out its fix and leaves the working set: batch
    indices, positions, anchors, fitted terms and the distances, residual
    terms and |R|^2 of ``_fit_residuals``.

    Returns (positions (3,T), |R|^2, iterations, singular_flags); a set
    singular flag means the Gauss-Newton matrix lost rank 3 at some iterate.
    """
    count = fit.shape[1]
    p = np.array(p0, dtype=np.float64, order="C")
    # The working set: batch index, position, inputs and residual terms.
    work = [np.arange(count), p, anchors, fit, *_fit_residuals(anchors, fit, m, p)]
    out_p, out_sq = p.copy(), work[-1].copy()
    iterations, singular = np.zeros(count, dtype=np.int64), np.zeros(count, dtype=bool)

    def leave(work, stop, steps):
        scene, p, *_, sq = work
        out = scene[stop]
        out_p[:, out], out_sq[out], iterations[out] = p[:, stop], sq[stop], steps
        keep = ~stop
        return [x.compress(keep, axis=-1) for x in work]

    for it in range(1, MAX_ITERATIONS + 1):
        if work[0].size == 0:
            break
        step, grad, bad = _newton_step(work[2], work[1], work[4], work[5], m)
        stop = bad | ~(-_sum_in_order(grad * step) > DECREASE_RTOL * work[-1])
        if stop.any():
            singular[work[0][bad]] = True
            work, step = leave(work, stop, it - 1), step.compress(~stop, axis=1)
            if work[0].size == 0:
                break
        accepted, step_len = _damped_update(
            lambda a, f, q: _fit_residuals(a, f, m, q),
            work[2:4], work[1], step, work[4:], np.ones(step.shape[1], dtype=bool),
        )
        stop = ~accepted | (step_len < STEP_TOL)
        if stop.any():
            if not accepted.all():
                _to_nearest_anchor(work, np.flatnonzero(~accepted), m)
            work = leave(work, stop, np.where(accepted[stop], it, it - 1))
    leave(work, np.ones(work[0].size, dtype=bool), MAX_ITERATIONS)
    return out_p, out_sq, iterations, singular


def localize_bistatic(
    t: np.ndarray, tx: np.ndarray, rx: np.ndarray, delta: float = 0.0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fix the tags of bistatic scenes from their delay matrices.

    t (..., m, n) delays in seconds, tx (..., m, 3) and rx (..., n, 3) in
    meters, with any leading axes, none for a lone scene; the tag delay
    ``delta`` is one real number >= 0 in seconds for the whole stack, the
    rule of ``Scene``.  Returns
    (positions (..., 3), residual_norms (...), iterations (...)); the
    residual norm is taken over all m n range sums of ``t``.  A scene whose
    Jacobian loses rank 3 at some iterate has no fix: its position and
    residual norm are NaN, and the other scenes' outputs are those of the
    stack without it.

    The range sums K = c (t - delta) are split once, in their frame, into
    their two-way additive fit a (+) b, the row means a and the column
    means less the grand mean b, summed as ``refine_estimate`` sums them,
    and the off-subspace energy |K - a (+) b|^2.  The model da (+) db lies
    in the same subspace, so |K - da (+) db|^2 = |(a - da) (+) (b - db)|^2
    plus that constant, and the solver works on the (m + n, T) terms
    [a; b] only (``_fix_bistatic``), from the algebraic warm start of the
    module docstring, so a delay matrix and its projection have one fix.

    Raises:
        InvalidValue: if a stack holds anything but real numbers, or
            ``delta`` is not one real number >= 0.
        DimensionMismatch: unless the three stacks agree as above.
        UnderDetermined: if m + n - 1 < 4 (the independent range sums).
        NonFiniteInput: if a delay or delta is NaN or inf, or an anchor
            coordinate or range sum is out of ``RANGE_LIMIT``.
        SingularGeometry: if the stack holds a scene and none of its
            scenes has a fix.
    """
    lead, ts, txs, rxs = _as_stacks(t, tx, rx)
    m, n = txs.shape[1], rxs.shape[1]
    if m + n - 1 < 4:
        raise UnderDetermined(f"{m + n - 1} independent range sums cannot fix a 3D position")
    delta = _require_real(delta, "delta", 0.0)
    anchors = np.concatenate([txs, rxs], axis=1).transpose(2, 1, 0).copy()
    with np.errstate(over="ignore"):  # rejected in _to_frame
        ks = SPEED_OF_LIGHT * (ts - delta)
    frame = _to_frame(anchors, ks.T)
    rows, cols = _two_way_fit(ks)
    terms = np.concatenate([rows[..., 0].T, cols[:, 0].T])
    p, sq, iterations, singular = _fix_bistatic(anchors, terms, m)
    off = ks - (rows + cols)
    sq += _sum_in_order((off * off).transpose(1, 2, 0).reshape(m * n, -1))
    return _outputs("rank-deficient geometry", lead, frame, singular, p, np.sqrt(sq), iterations)


def _fix_bistatic(anchors: np.ndarray, terms: np.ndarray, m: int) -> tuple[np.ndarray, ...]:
    """Positions (3,T), fitted |R|^2, iterations and the scenes with no fix
    (T,) from anchors (3,m+n,T), transmitters over receivers, and ``terms``
    (m+n,T), the range sums' fit in scene units: its row terms a over its
    column terms b, so that range sum (i, j) is fitted by a_i + b_j.  The
    warm start reads the fit's first column a + b_0 and first row a_0 + b,
    built here; Newton splits the fit into that column and the row less
    their shared corner.  A scene has no fix where ``_newton_batch`` flags
    it singular; its position means nothing, and no other scene's result
    depends on it."""
    col, row = terms[:m] + terms[m], terms[0] + terms[m:]
    p0 = _warm_start(anchors, col, row)
    return _newton_batch(anchors, np.concatenate([col, row - col[0]]), m, p0)


def localize_monostatic(
    t: np.ndarray, anchors: np.ndarray, delta: float = 0.0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fix the tags of monostatic scenes from their delay matrix diagonals.

    t (..., m, m) delays in seconds, anchors (..., m, 3) in meters, with any
    leading axes, none for a lone scene; the tag delay ``delta`` is one
    real number >= 0 in seconds for the whole stack, the rule of
    ``Scene``.  Returns (positions (..., 3),
    range residual norms (...), polish steps taken (...)).  Ranges are
    c (t[i, i] - delta) / 2.  Subtracting the first squared sphere equation
    from the others leaves a linear system in p, solved by least squares;
    one damped Gauss-Newton step on the full range residual then polishes
    the fix (``_fix_monostatic``).  A scene whose linear system has rank < 3
    (coplanar anchors) has no fix: its position and residual norm are NaN,
    its polish step 0, and the other scenes' outputs are those of the stack
    without it.

    Raises:
        InvalidValue: if a stack holds anything but real numbers, or
            ``delta`` is not one real number >= 0.
        DimensionMismatch: unless the two stacks agree as above.
        UnderDetermined: if fewer than 4 anchors.
        NonFiniteInput: if a delay or delta is NaN or inf, or an anchor
            coordinate or range is out of ``RANGE_LIMIT``.
        SingularGeometry: if the stack holds a scene and none of its
            scenes has a fix.
    """
    lead, ts, anchors = _as_stacks(t, anchors, anchors)[:3]
    m = anchors.shape[1]
    if m < 4:
        raise UnderDetermined(f"{m} ranges cannot fix a 3D position")
    delta = _require_real(delta, "delta", 0.0)
    points = anchors.transpose(2, 1, 0).copy()
    with np.errstate(over="ignore"):  # rejected in _to_frame
        ranges = (SPEED_OF_LIGHT * (np.diagonal(ts, axis1=1, axis2=2) - delta) / 2.0).T.copy()
    del t, ts, anchors  # a caller's stacked inputs can be freed; only copies are used below
    frame = _to_frame(points, ranges)
    p, fnorm, accepted, singular = _fix_monostatic(points, ranges)
    accepted &= ~singular
    return _outputs("coplanar anchors", lead, frame, singular, p, fnorm, accepted.astype(np.int64))


def _fix_monostatic(points: np.ndarray, ranges: np.ndarray) -> tuple[np.ndarray, ...]:
    """Positions (3,T), range residual norms, polish-step flags and the
    scenes with no fix (T,) from anchors (3,m,T) and ranges (m,T) in scene
    units.  A scene has no fix where the closed form's normal matrix has
    rank < 3 (coplanar anchors); its position means nothing, and no other
    scene's result depends on it."""
    norms = _sum_in_order(points * points)
    rhs = 0.5 * (norms[1:] - norms[0] - (ranges[1:] ** 2 - ranges[0] ** 2))
    (p,), singular = _least_squares3(points[:, 1:] - points[:, :1], rhs)
    state = list(_range_residuals(points, ranges, p))
    (step,), bad = _least_squares3(  # Gauss-Newton: Jacobian rows are unit vectors
        (points - p[:, None]) / np.maximum(state[0], _DISTANCE_FLOOR), state[1]
    )
    accepted, _ = _damped_update(_range_residuals, [points, ranges], p, -step, state, ~bad)
    return p, state[-1], accepted, singular


def _range_residuals(
    anchors: np.ndarray, ranges: np.ndarray, points: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Range residuals of a batch at points (3,T), from anchors (3,m,T) and
    ranges (m,T): the distances, f = ranges - distances and |f|."""
    offset = anchors - points[:, None, :]
    dist = np.sqrt(_sum_in_order(np.square(offset, out=offset)))
    f = ranges - dist
    return dist, f, np.sqrt(_sum_in_order(f * f))
