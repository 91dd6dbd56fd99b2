"""Closed-form MSE expressions and Cramer-Rao bounds.

Every function here but ``check_sigma`` takes the estimate-level variance
sigma0^2 = sigma^2 / L, the observation noise variance over the pilot
length, which is the MSE of the plain least squares estimator per entry,
and returns a plain array.  The caller divides by L once, after
``check_sigma``, which with ``channel.synth_observations`` owns the
pilot-length rule.  The refined estimator attains

    bistatic:             (m + n - 1) / (m n) * sigma0^2   (every entry)
    monostatic diagonal:  (2 m - 1) / m^2    * sigma0^2
    monostatic off-diag:  (m - 1) / m^2      * sigma0^2

which coincide with the corresponding Cramer-Rao bounds.  The per-entry
bound is read off the covariance bound C: bistatic, its diagonal, reshaped
column-major to (m, n); monostatic, ``C[i, i] + C[j, j] + 2 C[i, j]`` for
the delay matrix entry (i, j), the variance of ``t_i + t_j``, which is
4 C[i, i] on the diagonal.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import DimensionMismatch, InvalidValue, NonFiniteInput
from .errors import _real_array, _require_integer, _require_real, _require_sequence
from .topology import Kind, Topology, _dims, entry_weights, weighting_matrix


def _check_variance(name: str, value: float, *entries: float) -> None:
    """Accept an estimate-level variance only where it is a positive normal
    float, ``check_sigma``'s rule in variance form, and every nonzero
    entry built on it, given as the scalars that fill the arrays (so that
    no array is checked entry by entry), is a finite normal float: below
    that, every MSE and bound built on it reads 0 or has lost its
    precision."""
    if not all(math.isfinite(e) for e in entries):
        raise NonFiniteInput(f"{name} = {value!r} overflows in an entry built on it")
    tiny = sys.float_info.min
    if not value >= tiny:
        raise InvalidValue(f"{name} must be a normal float of at least {tiny:.4g}, got {value}")
    smallest = min((abs(e) for e in entries if e), default=value)
    if smallest < tiny:
        raise InvalidValue(
            f"{name} = {value!r} gives a subnormal entry, {smallest:.4g}; it must be at "
            f"least {value * (tiny / smallest):.4g}, so that every entry is a normal float"
        )


def check_sigma(
    sigma: float, pilot_lengths: tuple[int, ...], max_variance: float = sys.float_info.max
) -> None:
    """Accept a noise standard deviation ``sigma`` (seconds) only where it
    is positive, its estimate-level variance ``sigma^2 / L`` is a positive
    normal float no larger than ``max_variance`` for every pilot length L,
    and ``sigma^2`` is finite.  ``pilot_lengths`` is any iterable but a
    string, with at least one length: with none, no variance would be
    checked and any sigma would pass.

    Below that range ``sigma^2 / L`` underflows, and every MSE, bound and
    ratio built on it reads 0 or divides by it; above it the caller's sums
    would overflow.  ``sigma * sigma`` is taken, not ``sigma**2``, so an
    overflow is a comparison with inf rather than an ``OverflowError``.

    Raises:
        InvalidValue: for ``pilot_lengths`` that is a string, not iterable
            or empty, a pilot length that is not an integer >= 1, a sigma
            or ``max_variance`` that is not one real number, a negative
            ``max_variance``, or a sigma outside the range (NaN and inf
            included), which the message names.
        NonFiniteInput: if ``max_variance`` is NaN or inf.
    """
    pilot_lengths = _require_sequence(pilot_lengths, "pilot_lengths")
    if not pilot_lengths:
        raise InvalidValue("pilot_lengths must not be empty")
    for length in pilot_lengths:
        _require_integer(length, "pilot_len", low=1)
    _require_real(sigma, "sigma", finite=False)
    _require_real(max_variance, "max_variance", 0.0)
    tiny = sys.float_info.min
    variances = (sigma * sigma / length for length in pilot_lengths)
    if 0.0 < sigma <= sys.float_info.max and all(tiny <= v <= max_variance for v in variances):
        return
    low = math.sqrt(tiny * max(pilot_lengths))
    high = min(
        math.sqrt(max_variance) * math.sqrt(min(pilot_lengths)), math.sqrt(sys.float_info.max)
    )
    raise InvalidValue(
        f"sigma must lie in [{low:.4g}, {high:.4g}] s for pilot lengths "
        f"{pilot_lengths}, so that sigma^2 / L is a normal float between "
        f"{tiny:.4g} and {max_variance:.4g} s^2; got {sigma!r}"
    )


def theoretical_mse_iid(topo: Topology, sigma0_sq: float) -> np.ndarray:
    """Refined-estimator MSE per subchannel under iid noise, the (m, n)
    array of per-entry MSEs for the estimate-level variance ``sigma0_sq``.

    Raises:
        NonFiniteInput: if ``sigma0_sq`` is NaN or infinite.
        InvalidValue: if ``sigma0_sq`` is not one real number, or it or an
            entry is not a positive normal float.
    """
    _require_real(sigma0_sq, "sigma0_sq")
    m, n = _dims(topo)
    if topo.kind is Kind.MONOSTATIC:
        off, diag = (m - 1) / m**2 * sigma0_sq, (2 * m - 1) / m**2 * sigma0_sq
        _check_variance("sigma0_sq", sigma0_sq, off, diag)
        per_entry = np.full((m, m), off)
        np.fill_diagonal(per_entry, diag)
        return per_entry
    entry = (m + n - 1) / (m * n) * sigma0_sq
    _check_variance("sigma0_sq", sigma0_sq, entry)
    return np.full((m, n), entry)


def theoretical_mse_independent(topo: Topology, sigma0_sq: np.ndarray) -> np.ndarray:
    """Refined-estimator MSE when noise is independent but not identical.

    ``sigma0_sq`` is the (m, n) array ``v`` of estimate-level variances
    sigma_ij^2 / L.  Entry z of the (m, n) result is the weighted sum over
    source subchannels r:

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

    Raises:
        DimensionMismatch: unless ``sigma0_sq`` is (m, n).
        NonFiniteInput: if a variance is NaN, inf or so large that the sums
            overflow.
        InvalidValue: if ``sigma0_sq`` holds anything but real numbers, a
            variance is negative, or a nonzero variance or a nonzero entry
            is subnormal.
    """
    m, n = _dims(topo)
    # The sums below add up to (m + 1)(n + 1) variances, times at most 4.
    v = _real_array(sigma0_sq, "sigma0_sq", sys.float_info.max / (4 * (m + 1) * (n + 1)))
    if v.shape != (m, n):
        raise DimensionMismatch(f"sigma0_sq shape {v.shape} does not match topology {m}x{n}")
    if np.any(v < 0.0):
        raise InvalidValue("all subchannel variances must be >= 0")
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
    # Zero-variance subchannels may give zero entries; no nonzero variance
    # or entry may be subnormal, as _check_variance rules for the iid theory.
    built = np.abs(np.concatenate([v[v != 0.0], per_entry[per_entry != 0.0]]))
    if built.min(initial=math.inf) < sys.float_info.min:
        raise InvalidValue(
            f"subchannel variances give a subnormal value, {built.min():.4g}; "
            "every nonzero variance and entry must be a normal float"
        )
    return per_entry


def crlb(topo: Topology, sigma0_sq: float) -> np.ndarray:
    """Error covariance bound for delay estimation at the estimate-level
    variance ``sigma0_sq``, by the topology's kind.

    Bistatic: the (m n) x (m n) bound on the column-major delay matrix,
    sigma0^2 B, the variance times the projector (``weighting_matrix``).
    Its diagonal, reshaped column-major to an (m, n) array, is the
    per-entry bound, the refined estimator's MSE.

    Monostatic: the m x m bound on the one-way delay vector.  Its Fisher
    information is (2 / sigma0^2) (m I + 1 1^T); the inverse follows from
    the rank-one update identity and is built here in closed form:

        C[i, i] = (sigma0^2 / 4) (2 m - 1) / m^2
        C[i, j] = (sigma0^2 / 4) (-1) / m^2     (i != j)

    The per-entry bounds of the delay matrix, 4 C[i, i] on its diagonal and
    C[i, i] + C[j, j] + 2 C[i, j] off it, are the refined estimator's MSE.

    Raises:
        NonFiniteInput: if ``sigma0_sq`` is NaN or infinite.
        InvalidValue: if ``sigma0_sq`` is not one real number, or it or
            an entry of the bound is not a positive normal float (zero,
            subnormal or negative).
    """
    _require_real(sigma0_sq, "sigma0_sq")
    m, n = _dims(topo)
    if topo.kind is Kind.MONOSTATIC:
        scale = sigma0_sq / 4.0
        off, diag = scale * (-1.0) / m**2, scale * (2 * m - 1) / m**2
        _check_variance("sigma0_sq", sigma0_sq, off if m > 1 else 0.0, diag)
        cov = np.full((m, m), off)
        np.fill_diagonal(cov, diag)
        return cov
    # B's smallest entry is -1 / (m n), where an entry shares neither
    # antenna; with m or n at 1 every entry shares one, and each is 0 or ~1.
    smallest = sigma0_sq * (1.0 / (m * n)) if m > 1 and n > 1 else sigma0_sq
    _check_variance("sigma0_sq", sigma0_sq, smallest)
    return sigma0_sq * weighting_matrix(topo)
