"""Closed-form MSE expressions, Cramer-Rao bounds, and empirical statistics.

All per-subchannel variances here are estimate-level: the observation noise
variance sigma^2 divided by the pilot length L.  The plain least squares
estimator attains exactly sigma0^2 = sigma^2 / L per entry; the refined
estimator attains

    bistatic:             (m + n - 1) / (m n) * sigma0^2   (every entry)
    monostatic diagonal:  (2 m - 1) / m^2    * sigma0^2
    monostatic off-diag:  (m - 1) / m^2      * sigma0^2

which coincide with the corresponding Cramer-Rao bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionMismatch, EmptyInput, WrongTopology
from .topology import (
    Kind,
    Topology,
    correlation_matrix,
    entry_weights,
    unvec,
    vec,
    weighting_matrix,
)


@dataclass
class MseReport:
    """Per-subchannel mean square errors in seconds^2.

    sigma0_sq is the estimate-level noise variance when a single value
    applies (iid noise); error_covariance is filled by empirical runs only.
    """

    per_entry_mse: np.ndarray
    sigma0_sq: float | None = None
    error_covariance: np.ndarray | None = None


@dataclass
class CrlbReport:
    """Lower bound on the error covariance of any unbiased delay estimator.

    covariance_bound is the full matrix bound: (m n) x (m n) for bistatic
    estimates, and the m x m bound on the one-way delay vector for
    monostatic.  subchannel_bounds restates it per delay matrix entry.
    """

    covariance_bound: np.ndarray
    subchannel_bounds: np.ndarray


def theoretical_mse_iid(topo: Topology, sigma0_sq: float) -> MseReport:
    """Refined-estimator MSE per subchannel under iid noise."""
    if sigma0_sq < 0.0:
        raise ValueError(f"sigma0_sq must be >= 0, got {sigma0_sq}")
    m, n = topo.m, topo.n
    if topo.kind is Kind.MONOSTATIC:
        per_entry = np.full((m, m), (m - 1) / m**2 * sigma0_sq)
        np.fill_diagonal(per_entry, (2 * m - 1) / m**2 * sigma0_sq)
    else:
        per_entry = np.full((m, n), (m + n - 1) / (m * n) * sigma0_sq)
    return MseReport(per_entry_mse=per_entry, sigma0_sq=sigma0_sq)


def theoretical_mse_independent(
    topo: Topology, sigmas_sq: np.ndarray, pilot_len: int
) -> MseReport:
    """Refined-estimator MSE when noise is independent but not identical.

    ``sigmas_sq`` holds observation-level variances per subchannel; they are
    divided by ``pilot_len`` internally into ``v``.  Entry z of the result
    is the weighted sum over source subchannels r:

        bistatic:    sum_r B[z, r]^2 v_r
        monostatic:  sum_r ((B[z, r] + B[zbar, r]) / 2)^2 v_r

    where zbar is the transposed position of z.  B takes one of four entry
    weights by what r shares with z, so with row sums R, column sums C and
    total S of ``v`` the bistatic sum is

        w1^2 v + w2^2 (R_i - v) + w3^2 (C_j - v) + w4^2 (S - R_i - C_j + v).

    For monostatic entry (i, j) the weight on source (k, l) is
    ``u_k + u_l - 1/m^2`` with ``u = (e_i + e_j) / 2m``.  Expanding the
    square with D = R + C gives

        (D_i + D_j + 2 (v_ii + v_jj + v_ij + v_ji)) / 4m^2 + [i == j] D_i / 2m^2
            - (D_i + D_j) / m^3 + S / m^4.

    Both forms cost O(m n).
    """
    m, n = topo.m, topo.n
    sigmas_sq = np.asarray(sigmas_sq, dtype=np.float64)
    if sigmas_sq.shape != (m, n):
        raise DimensionMismatch(
            f"sigmas_sq shape {sigmas_sq.shape} does not match topology {m}x{n}"
        )
    if np.any(sigmas_sq < 0.0):
        raise ValueError("all subchannel variances must be >= 0")
    if pilot_len < 1:
        raise ValueError(f"pilot_len must be >= 1, got {pilot_len}")
    v = sigmas_sq / pilot_len
    rows = v.sum(axis=1)[:, None]
    cols = v.sum(axis=0)[None, :]
    total = v.sum()
    if topo.kind is Kind.MONOSTATIC:
        d = rows + cols.T
        diag = np.diag(v)[:, None]
        pairs = d + d.T
        per_entry = (
            (pairs + 2.0 * (diag + diag.T + v + v.T)) / (4.0 * m**2)
            + np.diagflat(d) / (2.0 * m**2)
            - pairs / m**3
            + total / m**4
        )
    else:
        w1, w2, w3, w4 = entry_weights(topo)
        per_entry = (
            w1**2 * v
            + w2**2 * (rows - v)
            + w3**2 * (cols - v)
            + w4**2 * (total - rows - cols + v)
        )
    return MseReport(per_entry_mse=per_entry)


def crlb_bistatic(topo: Topology, sigma_sq: float, pilot_len: int) -> CrlbReport:
    """Error covariance bound for bistatic delay estimation.

    The bound is (sigma^2 / L) B, the noise variance scaled projector, so
    its diagonal equals the refined estimator's per-entry MSE.
    """
    if topo.kind is not Kind.BISTATIC:
        raise WrongTopology("crlb_bistatic requires a bistatic topology")
    bound = (sigma_sq / pilot_len) * weighting_matrix(correlation_matrix(topo))
    per_entry = unvec(np.diag(bound).copy(), topo.m, topo.n)
    return CrlbReport(covariance_bound=bound, subchannel_bounds=per_entry)


def crlb_monostatic(topo: Topology, sigma_sq: float, pilot_len: int) -> CrlbReport:
    """Error covariance bound for monostatic delay estimation.

    The Fisher information of the one-way delay vector is
    (2 L / sigma^2) (m I + 1 1^T); its inverse follows from the rank-one
    update identity and is built here in closed form:

        C[i, i] = (sigma^2 / 4 L) (2 m - 1) / m^2
        C[i, j] = (sigma^2 / 4 L) (-1) / m^2     (i != j)

    The derived subchannel bounds are 4 C[i, i] on the diagonal of the delay
    matrix and C[i, i] + C[j, j] + 2 C[i, j] off it.
    """
    if topo.kind is not Kind.MONOSTATIC:
        raise WrongTopology("crlb_monostatic requires a monostatic topology")
    m = topo.m
    scale = sigma_sq / (4.0 * pilot_len)
    cov = np.full((m, m), scale * (-1.0) / m**2)
    np.fill_diagonal(cov, scale * (2 * m - 1) / m**2)
    sigma0_sq = sigma_sq / pilot_len
    per_entry = np.full((m, m), (m - 1) / m**2 * sigma0_sq)
    np.fill_diagonal(per_entry, (2 * m - 1) / m**2 * sigma0_sq)
    return CrlbReport(covariance_bound=cov, subchannel_bounds=per_entry)


def empirical_mse(
    trials: Iterable[tuple[np.ndarray, np.ndarray]] | Sequence[tuple[np.ndarray, np.ndarray]],
) -> MseReport:
    """Per-entry MSE and full error covariance over (truth, estimate) pairs.

    Errors are centered at the known truth, not the sample mean; both
    estimators are unbiased, and this avoids estimating the center.
    """
    errors = []
    shape = None
    for t_true, t_est in trials:
        t_true = np.asarray(t_true, dtype=np.float64)
        t_est = np.asarray(t_est, dtype=np.float64)
        if t_true.shape != t_est.shape:
            raise DimensionMismatch(
                f"trial shapes differ: {t_true.shape} vs {t_est.shape}"
            )
        if shape is None:
            shape = t_true.shape
        elif t_true.shape != shape:
            raise DimensionMismatch(
                f"inconsistent trial shapes: {t_true.shape} vs {shape}"
            )
        errors.append(vec(t_est - t_true))
    if not errors:
        raise EmptyInput("empirical_mse needs at least one trial")
    err = np.array(errors)
    count = err.shape[0]
    per_entry = unvec((err * err).sum(axis=0) / count, shape[0], shape[1])
    covariance = err.T @ err / count
    return MseReport(per_entry_mse=per_entry, error_covariance=covariance)
