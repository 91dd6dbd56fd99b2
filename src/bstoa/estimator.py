"""Delay matrix estimators: plain least squares and the constrained refinement.

The least squares estimate reduces to per-subchannel pilot means.  The
refined estimate projects it onto the outer-sum subspace.  That projection
is the two-way additive fit

    row mean + column mean - grand mean,

whose weights on the entries of the input are exactly
:func:`bstoa.topology.entry_weights`, so it equals ``unvec(B vec(t))`` for
the dense projector ``B`` without building it.  Monostatic channels get an
additional symmetrization, which keeps the linear constraint satisfied.

The refinements act on the last two axes, so a ``(..., m, n)`` stack of
estimates is refined in one call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ObservationBlock
from .errors import ConstraintViolated, DimensionMismatch
from .topology import Kind, Topology


@dataclass
class EstimateReport:
    """Both estimates for one observation block.

    constraint_residual is the max-norm of the constraint equations at the
    refined estimate; it is zero up to rounding by construction.
    """

    t_hat: np.ndarray
    t_tilde: np.ndarray
    constraint_residual: float


def ls_estimate(obs: ObservationBlock, topo: Topology) -> np.ndarray:
    """Least squares delay estimate: the mean over the L pilot rows of each
    subchannel.

    This equals the normal equations solution for the pilot matrix used by
    :func:`bstoa.channel.synth_observations`, at O(L m n) cost.
    """
    m, n = topo.m, topo.n
    length = obs.pilot_len
    if obs.y.shape != (length * m, n):
        raise DimensionMismatch(
            f"observations {obs.y.shape} do not match L={length}, m={m}, n={n}"
        )
    return obs.y.reshape(m, length, n).mean(axis=1)


def refine_bistatic(t_hat: np.ndarray) -> np.ndarray:
    """Project ``(..., m, n)`` estimates onto the constraint subspace:
    row mean + column mean - grand mean of each m x n slice."""
    t_hat = np.asarray(t_hat, dtype=np.float64)
    if t_hat.ndim < 2:
        raise DimensionMismatch(f"delay matrices need two axes, got {t_hat.shape}")
    m, n = t_hat.shape[-2:]
    row = t_hat.sum(axis=-1, keepdims=True) / n
    col = t_hat.sum(axis=-2, keepdims=True) / m
    return row + (col - row.sum(axis=-2, keepdims=True) / m)


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
    """Max-norm of the adjacent 2x2 double differences, the rows of
    ``A vec(t)`` up to sign and order; 0 when there is no 2x2 submatrix."""
    return float(np.abs(np.diff(np.diff(t, axis=0), axis=1)).max(initial=0.0))


def full_estimate(obs: ObservationBlock, topo: Topology) -> EstimateReport:
    """Run both estimators and report the constraint residual."""
    t_hat = ls_estimate(obs, topo)
    t_tilde = refine_estimate(t_hat, topo)
    return EstimateReport(
        t_hat=t_hat, t_tilde=t_tilde, constraint_residual=_constraint_residual(t_tilde)
    )


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
        ConstraintViolated: if ``t`` does not satisfy the topology
            constraint to within 1e-9 * max(1, max|t|).
    """
    t = np.asarray(t, dtype=np.float64)
    if t.ndim != 2:
        raise DimensionMismatch(f"delay matrix must have two axes, got {t.shape}")
    residual = _constraint_residual(t)
    tol = 1e-9 * max(1.0, np.abs(t).max())
    if residual > tol:
        raise ConstraintViolated(
            f"constraint residual {residual:.3e} exceeds tolerance {tol:.3e}"
        )
    h = t[:, 0] - delta - gauge_g1
    g = t[0, :] - delta - h[0]
    return h, g
