"""Delay matrix estimators: plain least squares and the constrained refinement.

The least squares estimate reduces to per-subchannel pilot means, taken
over ``(..., L m, n)`` stacks of pilot rows.  The refined estimate projects
it onto the outer-sum subspace.  That projection is the two-way additive
fit

    row mean + column mean - grand mean,

whose weights on the entries of the input are exactly
:func:`bstoa.topology.entry_weights`, so it equals ``unvec(B vec(t))`` for
the dense projector ``B`` without building it.  Monostatic channels get an
additional symmetrization, which keeps the linear constraint satisfied.

Both estimators act on the last two axes, so a stack of observations or
estimates is processed in one call.
"""

from __future__ import annotations

import sys

import numpy as np

from .errors import ConstraintViolated, DimensionMismatch, NonFiniteInput
from .topology import Kind, Topology


def _require_in_range(x: np.ndarray, limit: float, what: str) -> None:
    """Reject an array holding NaN, inf or a magnitude above ``limit``, the
    largest its caller's sums can take without overflow."""
    if not np.abs(x).max(initial=0.0) <= limit:
        raise NonFiniteInput(f"{what} must be finite and at most {limit:.4g} in magnitude")


def ls_estimate(y: np.ndarray, topo: Topology) -> np.ndarray:
    """Least squares delay estimates from ``(..., L m, n)`` pilot rows: the
    mean over the L rows of each subchannel, shape ``(..., m, n)``.

    Rows ``i L .. i L + L - 1`` observe transmitter i, the layout of
    :func:`bstoa.channel.synth_observations`.  The mean equals the normal
    equations solution for that pilot matrix, at O(L m n) cost.  The L rows
    are added in order and the sum is divided by L once, so the bits do not
    depend on the memory layout of ``y``.

    Raises:
        DimensionMismatch: unless the last axis has n entries and the row
            count is a positive multiple of m.
        NonFiniteInput: if an observation is NaN or inf, or so large that
            the sum of L of them overflows.
    """
    y = np.asarray(y, dtype=np.float64)
    m, n = topo.m, topo.n
    if y.ndim < 2 or y.shape[-1] != n or y.shape[-2] == 0 or y.shape[-2] % m:
        raise DimensionMismatch(
            f"observations {y.shape} are not L*m x n pilot rows for m={m}, n={n}"
        )
    length = y.shape[-2] // m
    _require_in_range(y, sys.float_info.max / length, "observations")
    return _sum_in_order(y.reshape(*y.shape[:-2], m, length, n), -2) / length


def _sum_in_order(x: np.ndarray, axis: int = 0) -> np.ndarray:
    """Sum over ``axis`` by adding its slices in order, from +0.0 as
    ``np.sum`` starts.

    ``np.sum`` adds whole slices in order when the last axis is contiguous,
    holds two or more values and is not the one summed, so it does the
    work then.  It adds a contiguous summed axis pairwise from 8 elements
    on, and so its bits would depend on the memory layout; any other
    layout is summed here by adding views of the slices in a loop.  So a
    matrix or a lone scene sums alike alone or in a batch of any layout.
    A last axis of length 1 (one scene) is summed by ``np.add.accumulate``,
    which adds in the same order at a fraction of the loop's cost there;
    on large strided batches it is the slower of the two.
    """
    axis %= x.ndim
    if axis != x.ndim - 1 and x.shape[-1] > 1 and x.strides[-1] == x.itemsize:
        return x.sum(axis)
    lead = (slice(None),) * axis
    if x.shape[-1] == 1:
        # +0.0 last: a -0.0 first slice gives the loop's +0.0 start either way.
        return np.add.accumulate(x, axis)[(*lead, -1)] + 0.0
    total = x[(*lead, 0)] + 0.0
    for i in range(1, x.shape[axis]):
        total += x[(*lead, i)]
    return total


def refine_bistatic(t_hat: np.ndarray) -> np.ndarray:
    """Project ``(..., m, n)`` estimates onto the constraint subspace:
    row mean + column mean - grand mean of each m x n slice.  The result
    does not depend on the memory layout of the batch.

    Raises:
        DimensionMismatch: if there are fewer than two axes, or no entry
            in a matrix.
        NonFiniteInput: if an estimate is NaN or inf, or so large that a
            row or column sum, or a symmetrized entry, overflows.
    """
    t_hat = np.asarray(t_hat, dtype=np.float64)
    if t_hat.ndim < 2:
        raise DimensionMismatch(f"delay matrices need two axes, got {t_hat.shape}")
    m, n = t_hat.shape[-2:]
    if not m * n:
        raise DimensionMismatch(f"delay matrices need a row and a column, got {t_hat.shape}")
    # Sums of max(m, n) estimates, and a refined entry, up to 3 of them,
    # doubled by refine_monostatic's symmetrization, stay finite.
    _require_in_range(t_hat, sys.float_info.max / (2 * max(m, n, 3)), "delay estimates")
    rows, cols = _two_way_fit(t_hat)
    return rows + cols


def _two_way_fit(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two-way additive fit of ``(..., m, n)`` matrices as its row
    means ``(..., m, 1)`` and its column means less the grand mean
    ``(..., 1, n)``, summed in order; the fit is their sum."""
    m, n = x.shape[-2:]
    rows = _sum_in_order(x, -1)[..., None] / n
    return rows, _sum_in_order(x, -2)[..., None, :] / m - _sum_in_order(rows, -2)[..., None] / m


def refine_monostatic(t_hat: np.ndarray) -> np.ndarray:
    """Project ``(..., m, m)`` estimates onto the constraint subspace, then
    symmetrize.

    The symmetrization (T + T^T) / 2 is applied after the projection and
    preserves the linear constraint, so the result satisfies both.
    """
    t_hat = np.asarray(t_hat, dtype=np.float64)
    if t_hat.ndim < 2 or t_hat.shape[-2] != t_hat.shape[-1]:
        raise DimensionMismatch(f"monostatic delay matrix must be square, got {t_hat.shape}")
    t_bar = refine_bistatic(t_hat)
    return 0.5 * (t_bar + t_bar.swapaxes(-1, -2))


def refine_estimate(t_hat: np.ndarray, topo: Topology) -> np.ndarray:
    """Topology dispatch for the constrained refinement of ``(..., m, n)``
    estimates."""
    if np.shape(t_hat)[-2:] != (topo.m, topo.n):
        raise DimensionMismatch(
            f"delay matrices {np.shape(t_hat)} do not match topology {topo.m}x{topo.n}"
        )
    if topo.kind is Kind.MONOSTATIC:
        return refine_monostatic(t_hat)
    return refine_bistatic(t_hat)


def _constraint_residual(t: np.ndarray) -> float:
    """Max-norm of ``A vec(t)``.  The adjacent 2x2 double differences
    ``diff(diff(t, axis=0), axis=1)`` are the entries of ``A vec(t)``, with
    the same signs, in column-major order, which is A's row order; 0 when
    there is no 2x2 submatrix."""
    return float(np.abs(np.diff(np.diff(t, axis=0), axis=1)).max(initial=0.0))


def decompose_delays(
    t: np.ndarray, delta: float, gauge_g1: float
) -> tuple[np.ndarray, np.ndarray]:
    """Split a constraint-satisfying delay matrix into uplink and downlink
    delay vectors.

    The split is unique only up to a common shift between the two vectors
    (and delta), so the caller fixes the gauge by choosing the first
    downlink delay ``gauge_g1``.  Monostatic callers get equal vectors by
    passing ``gauge_g1 = (t[0, 0] - delta) / 2``.

    Raises:
        DimensionMismatch: unless ``t`` is a matrix with a row and a column.
        NonFiniteInput: if ``t``, ``delta`` or ``gauge_g1`` holds NaN or
            inf, or a magnitude above 1/8 of the largest float, where the
            differences below could overflow.
        ConstraintViolated: if ``t`` does not satisfy the topology
            constraint to within 1e-9 * max(1, max|t|).
    """
    t = np.asarray(t, dtype=np.float64)
    if t.ndim != 2 or not t.size:
        raise DimensionMismatch(f"delay matrix needs two axes, a row and a column, got {t.shape}")
    _require_in_range(
        np.append(t, (delta, gauge_g1)), sys.float_info.max / 8, "delays, delta and gauge_g1"
    )
    residual = _constraint_residual(t)
    tol = 1e-9 * max(1.0, np.abs(t).max())
    if residual > tol:
        raise ConstraintViolated(
            f"constraint residual {residual:.3e} exceeds tolerance {tol:.3e}"
        )
    h = t[:, 0] - delta - gauge_g1
    g = t[0, :] - delta - h[0]
    return h, g
