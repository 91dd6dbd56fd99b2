"""Delay matrix estimators: plain least squares and the constrained refinement.

The least squares estimate reduces to per-subchannel pilot means, taken
over ``(..., L m, n)`` stacks of pilot rows.  The refined estimate projects
it onto the outer-sum subspace.  That projection is the two-way additive
fit

    row mean + column mean - grand mean,

whose weights on the entries of the input are exactly
:func:`bstoa.topology.entry_weights`, so it equals the dense projector ``B``
applied to the column-major flattening of ``t``, without building ``B``.
Monostatic channels get an additional symmetrization, which keeps the
linear constraint satisfied.

Both estimators act on the last two axes, so a stack of observations or
estimates is processed in one call.
"""

from __future__ import annotations

import sys

import numpy as np

from .errors import DimensionMismatch, _real_array, _require_in_range
from .topology import Kind, Topology, _dims


def ls_estimate(y: np.ndarray, topo: Topology) -> np.ndarray:
    """Least squares delay estimates from ``(..., L m, n)`` pilot rows: the
    mean over the L rows of each subchannel, shape ``(..., m, n)``.

    Rows ``i L .. i L + L - 1`` observe transmitter i, the layout of
    :func:`bstoa.channel.synth_observations`.  The mean equals the normal
    equations solution for that pilot matrix, at O(L m n) cost.  The L rows
    are added in order and the sum is divided by L once, so the bits do not
    depend on the memory layout of ``y``.

    Raises:
        InvalidValue: if ``y`` holds anything but real numbers.
        DimensionMismatch: unless the last axis has n entries and the row
            count is a positive multiple of m.
        NonFiniteInput: if an observation is NaN or inf, or so large that
            the sum of L of them overflows.
    """
    y = _real_array(y, "observations", None)
    m, n = _dims(topo)
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
    work then, called as ``np.add.reduce``, which is what it runs.  It
    adds a contiguous summed axis pairwise from 8 elements on, and so its
    bits would depend on the memory layout; any other
    layout is summed here by adding views of the slices in a loop.  So a
    matrix or a lone scene sums alike alone or in a batch of any layout.
    A last axis of length 1 (one scene) is summed by ``np.add.accumulate``,
    which adds in the same order at a fraction of the loop's cost there;
    on large strided batches it is the slower of the two.
    """
    axis %= x.ndim
    if axis != x.ndim - 1 and x.shape[-1] > 1 and x.strides[-1] == x.itemsize:
        return np.add.reduce(x, axis)
    lead = (slice(None),) * axis
    if x.shape[-1] == 1:
        # +0.0 last: a -0.0 first slice gives the loop's +0.0 start either way.
        return np.add.accumulate(x, axis)[(*lead, -1)] + 0.0
    total = x[(*lead, 0)] + 0.0
    for i in range(1, x.shape[axis]):
        total += x[(*lead, i)]
    return total


def _two_way_fit(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two-way additive fit of ``(..., m, n)`` matrices as its row
    means ``(..., m, 1)`` and its column means less the grand mean
    ``(..., 1, n)``, summed in order; the fit is their sum."""
    m, n = x.shape[-2:]
    rows = _sum_in_order(x, -1)[..., None] / n
    return rows, _sum_in_order(x, -2)[..., None, :] / m - _sum_in_order(rows, -2)[..., None] / m


def refine_estimate(t_hat: np.ndarray, topo: Topology) -> np.ndarray:
    """Project ``(..., m, n)`` estimates onto the constraint subspace: row
    mean + column mean - grand mean of each m x n slice.  A monostatic
    topology's projection is then symmetrized as (T + T^T) / 2, which
    preserves the linear constraint, so the result satisfies both.  The
    result does not depend on the memory layout of the batch.

    Raises:
        InvalidValue: if ``t_hat`` holds anything but real numbers.
        DimensionMismatch: unless the last two axes are the topology's
            m x n.
        NonFiniteInput: if an estimate is NaN or inf, or so large that a
            row or column sum, or a symmetrized entry, overflows.
    """
    m, n = _dims(topo)
    # Sums of max(m, n) estimates, and a refined entry, up to 3 of them,
    # doubled by the monostatic symmetrization, stay finite.
    t_hat = _real_array(t_hat, "delay estimates", sys.float_info.max / (2 * max(m, n, 3)))
    if t_hat.shape[-2:] != (m, n):
        raise DimensionMismatch(f"delay matrices {t_hat.shape} do not match topology {m}x{n}")
    rows, cols = _two_way_fit(t_hat)
    t_bar = rows + cols
    if topo.kind is Kind.MONOSTATIC:
        return 0.5 * (t_bar + t_bar.swapaxes(-1, -2))
    return t_bar
