"""Closed-form MSE and bound tests, with numeric oracles."""

import math
import re
import sys

import numpy as np
import pytest

from bstoa.analysis import (
    check_sigma,
    crlb_bistatic,
    crlb_monostatic,
    theoretical_mse_iid,
    theoretical_mse_independent,
)
from bstoa.channel import noise_rng
from bstoa.errors import (
    BstoaError,
    DimensionMismatch,
    InvalidValue,
    NonFiniteInput,
    WrongTopology,
)
from bstoa.topology import Kind, Topology, correlation_matrix, weighting_matrix


def test_iid_mse_bistatic_4x3():
    per_entry = theoretical_mse_iid(Topology.bistatic(4, 3), 1.0)
    assert per_entry.shape == (4, 3)
    assert np.abs(per_entry - 0.5).max() < 1e-15


def test_iid_mse_monostatic_6():
    per_entry = theoretical_mse_iid(Topology.monostatic(6), 1.0)
    assert np.abs(np.diag(per_entry) - 11 / 36).max() < 1e-15
    off = per_entry[~np.eye(6, dtype=bool)]
    assert np.abs(off - 5 / 36).max() < 1e-15


def test_iid_mse_degenerate_1x1():
    per_entry = theoretical_mse_iid(Topology.bistatic(1, 1), 3.7e-19)
    assert per_entry[0, 0] == pytest.approx(3.7e-19, rel=1e-15)


def test_independent_mse_bistatic_2x2_first_entry():
    sigma0_sq = np.array([[1.0, 3.0], [2.0, 4.0]])
    per_entry = theoretical_mse_independent(Topology.bistatic(2, 2), sigma0_sq)
    expected = (9 * 1.0 + 2.0 + 3.0 + 4.0) / 16
    assert per_entry[0, 0] == pytest.approx(expected, rel=1e-14)


def test_independent_mse_monostatic_2_offdiagonal():
    sigma0_sq = np.array([[1.0, 3.0], [2.0, 4.0]])
    per_entry = theoretical_mse_independent(Topology.monostatic(2), sigma0_sq)
    expected = (1.0 + 2.0 + 3.0 + 4.0) / 16
    assert per_entry[1, 0] == pytest.approx(expected, rel=1e-14)
    assert per_entry[0, 1] == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("topo", [Topology.bistatic(4, 3), Topology.monostatic(5)])
def test_independent_mse_reduces_to_iid(topo):
    sigma_sq, length = 2.56e-18, 4
    equal = np.full((topo.m, topo.n), sigma_sq / length)
    independent = theoretical_mse_independent(topo, equal)
    iid = theoretical_mse_iid(topo, sigma_sq / length)
    assert np.abs(independent - iid).max() < 1e-12 * sigma_sq


def test_independent_mse_scaling_by_pilot_length():
    topo = Topology.bistatic(2, 2)
    sigmas_sq = np.full((2, 2), 4.0)
    by_one = theoretical_mse_independent(topo, sigmas_sq)
    by_four = theoretical_mse_independent(topo, sigmas_sq / 4)
    assert np.abs(by_one - 4.0 * by_four).max() < 1e-14


def _dense_independent_mse(topo, sigma0_sq):
    """Reference: weights from the dense projector B, squared and applied
    to the estimate-level variances."""
    m, n = topo.m, topo.n
    b = weighting_matrix(topo)
    if topo.kind is Kind.MONOSTATIC:
        flat = np.arange(m * n)
        zbar = (flat // m) + (flat % m) * m
        b = 0.5 * (b + b[zbar, :])
    return np.reshape((b**2) @ np.ravel(sigma0_sq, order="F"), (m, n), order="F")


def test_independent_mse_matches_dense_formula():
    rng = noise_rng(31, 0)
    for m in range(1, 8):
        topologies = [Topology.bistatic(m, n) for n in range(1, 8)]
        topologies.append(Topology.monostatic(m))
        for topo in topologies:
            sigma0_sq = rng.uniform(0.1, 4.0, size=(topo.m, topo.n)) * 1e-18 / 3
            got = theoretical_mse_independent(topo, sigma0_sq)
            expected = _dense_independent_mse(topo, sigma0_sq)
            assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max(), topo


def test_independent_mse_takes_zero_variance_subchannels():
    """Zero-variance subchannels are legal: with one noisy subchannel, or
    none, the entries match the dense formula, zeros included."""
    for topo in (Topology.bistatic(4, 3), Topology.monostatic(3)):
        for sigmas_sq in (np.zeros((topo.m, topo.n)), np.eye(topo.m, topo.n, 1) * 1e-18):
            got = theoretical_mse_independent(topo, sigmas_sq / 2)
            expected = _dense_independent_mse(topo, sigmas_sq / 2)
            assert np.abs(got - expected).max() <= 1e-12 * max(np.abs(expected).max(), 1e-300)


def test_independent_mse_shape_check():
    with pytest.raises(DimensionMismatch):
        theoretical_mse_independent(Topology.bistatic(2, 2), np.ones((3, 2)))


@pytest.mark.parametrize(
    "call",
    [
        lambda: theoretical_mse_iid(Topology.bistatic(2, 2), -1e-18),
        lambda: theoretical_mse_iid(Topology.bistatic(4, 3), 0.0),
        lambda: theoretical_mse_iid(Topology.bistatic(4, 3), 1e-320),
        lambda: theoretical_mse_iid(Topology.monostatic(3), sys.float_info.min / 2),
        lambda: theoretical_mse_iid(Topology.bistatic(48, 48), 2.3e-308),
        lambda: theoretical_mse_iid(Topology.monostatic(3), 2.3e-308),
        lambda: theoretical_mse_independent(Topology.bistatic(2, 2), -np.ones((2, 2))),
        lambda: theoretical_mse_independent(Topology.bistatic(4, 3), np.full((4, 3), 2.3e-308)),
        lambda: theoretical_mse_independent(Topology.monostatic(3), np.full((3, 3), 2.3e-308)),
    ],
    ids=[
        "iid-sigma0-sq", "iid-zero-sigma0-sq", "iid-subnormal-sigma0-sq",
        "iid-subnormal-monostatic", "iid-subnormal-entry-48x48", "iid-subnormal-entry-monostatic",
        "independent-variance", "independent-subnormal-entry-4x3",
        "independent-subnormal-entry-monostatic",
    ],
)
def test_bad_scalar_arguments_raise_package_error(call):
    with pytest.raises(BstoaError) as info:
        call()
    assert isinstance(info.value, ValueError)


@pytest.mark.parametrize(
    "sigma, lengths, limit, ok",
    [
        (2e-154, (1,), sys.float_info.max, True),
        (1e-154, (1,), sys.float_info.max, False),  # 1e-308 is subnormal
        (2e-154, (1, 8), sys.float_info.max, False),  # 5e-309 at L = 8
        (1e154, (1,), sys.float_info.max, True),
        (2e154, (1,), sys.float_info.max, False),  # 4e308 overflows
        (2e154, (8,), sys.float_info.max, False),  # sigma^2 overflows
        (1e-9, (2,), 1e-18, True),
        (1e-9, (1, 4), 6e-19, False),  # 1e-18 at L = 1
        (math.nan, (1,), sys.float_info.max, False),
        (math.inf, (1,), sys.float_info.max, False),
        # An integer sigma beyond the float range raised OverflowError.
        pytest.param(10**400, (1,), sys.float_info.max, False, id="int-beyond-float-range"),
    ],
)
def test_check_sigma_takes_positive_normal_variances(sigma, lengths, limit, ok):
    """sigma passes when sigma^2 / L is a normal float at most ``limit``
    for every pilot length L; otherwise the message names the range."""
    if ok:
        check_sigma(sigma, lengths, limit)
        return
    low = math.sqrt(sys.float_info.min * max(lengths))
    high = min(math.sqrt(limit * min(lengths)), math.sqrt(sys.float_info.max))
    message = re.escape(f"sigma must lie in [{low:.4g}, {high:.4g}] s")
    with pytest.raises(InvalidValue, match=message):
        check_sigma(sigma, lengths, limit)


@pytest.mark.parametrize("lengths", [(0,), (2, -1)])
def test_check_sigma_rejects_pilot_lengths_below_one(lengths):
    with pytest.raises(InvalidValue, match="pilot_len must be >= 1"):
        check_sigma(1e-9, lengths)


def _per_entry_bounds(topo, cov):
    """The per-entry bound read off a covariance bound: bistatic, its
    diagonal; monostatic, the variance of t_i + t_j, C_ii + C_jj + 2 C_ij,
    which is 4 C_ii on the diagonal."""
    if topo.kind is Kind.BISTATIC:
        return np.reshape(np.diag(cov), (topo.m, topo.n), order="F")
    d = np.diag(cov)
    return d[:, None] + d[None, :] + 2.0 * cov


def test_crlb_bistatic_2x2_is_projector():
    topo = Topology.bistatic(2, 2)
    cov = crlb_bistatic(topo, 1.0)
    b = weighting_matrix(topo)
    assert np.abs(cov - b).max() < 1e-14
    assert np.abs(np.diag(cov) - 0.75).max() < 1e-14


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("m", range(1, 9))
def test_crlb_bistatic_matches_dense_projector(m, n):
    """The bound equals sigma0^2 B with B from the pseudoinverse of the
    constraint matrix, and its diagonal, the per-entry bound, is the iid
    MSE up to rounding."""
    topo = Topology.bistatic(m, n)
    sigma0_sq = 2.5e-19 / 4
    a = correlation_matrix(topo).astype(float)
    oracle = np.eye(m * n) - np.linalg.pinv(a) @ a if a.shape[0] else np.eye(m * n)
    dense = sigma0_sq * oracle
    cov = crlb_bistatic(topo, sigma0_sq)
    assert cov.shape == (m * n, m * n)
    assert np.abs(cov - dense).max() <= 1e-12 * np.abs(dense).max()
    iid = theoretical_mse_iid(topo, sigma0_sq)
    assert np.abs(_per_entry_bounds(topo, cov) / iid - 1.0).max() <= 1e-15


_BISTATIC_BOUND = (crlb_bistatic, Topology.bistatic(3, 2))
_MONOSTATIC_BOUND = (crlb_monostatic, Topology.monostatic(3))


@pytest.mark.parametrize("bound, topo", [_BISTATIC_BOUND, _MONOSTATIC_BOUND], ids=["bi", "mono"])
@pytest.mark.parametrize(
    "sigma0_sq, error",
    [
        (np.nan, NonFiniteInput),
        (np.inf, NonFiniteInput),
        (-1e-18, InvalidValue),
        (0.0, InvalidValue),
        (1e-320, InvalidValue),
        # sigma^2 = 2.2e-308, the smallest normal float, over L = 2.
        (sys.float_info.min / 2, InvalidValue),
        (2.3e-308, InvalidValue),
    ],
    ids=[
        "nan-variance", "inf-variance", "negative-variance", "zero-variance",
        "subnormal-variance", "subnormal-over-pilot-len", "subnormal-entry",
    ],
)
def test_crlb_rejects_bad_arguments(bound, topo, sigma0_sq, error):
    with pytest.raises(error):
        bound(topo, sigma0_sq)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("topo", [Topology.bistatic(4, 3), Topology.monostatic(3)])
def test_theoretical_mse_rejects_non_finite_variance(topo, bad):
    with pytest.raises(NonFiniteInput):
        theoretical_mse_iid(topo, bad)
    sigma0_sq = np.ones((topo.m, topo.n))
    sigma0_sq[0, -1] = bad
    with pytest.raises(NonFiniteInput):
        theoretical_mse_independent(topo, sigma0_sq)


def test_crlb_bistatic_1x1_scalar():
    cov = crlb_bistatic(Topology.bistatic(1, 1), 4.0 / 8)
    assert cov.shape == (1, 1)
    assert cov[0, 0] == pytest.approx(0.5, rel=1e-15)


def test_crlb_bistatic_4x3_diagonal():
    topo = Topology.bistatic(4, 3)
    cov = crlb_bistatic(topo, 2.0 / 8)
    assert np.abs(np.diag(cov) - 0.125).max() < 1e-15
    assert np.abs(_per_entry_bounds(topo, cov) - 0.125).max() < 1e-15


def test_crlb_bistatic_rejects_monostatic():
    with pytest.raises(WrongTopology):
        crlb_bistatic(Topology.monostatic(3), 1.0)


def test_crlb_monostatic_m2_value():
    cov = crlb_monostatic(Topology.monostatic(2), 1.0)
    expected = 0.25 * np.array([[0.75, -0.25], [-0.25, 0.75]])
    assert np.abs(cov - expected).max() < 1e-15


def test_crlb_monostatic_m6_subchannel_bounds():
    topo = Topology.monostatic(6)
    bounds = _per_entry_bounds(topo, crlb_monostatic(topo, 1.0))
    assert np.abs(np.diag(bounds) - 11 / 36).max() < 1e-15
    off = bounds[~np.eye(6, dtype=bool)]
    assert np.abs(off - 5 / 36).max() < 1e-15


@pytest.mark.parametrize("m", range(1, 9))
def test_crlb_monostatic_matches_numeric_fisher_inverse(m):
    """Dense-inverse oracle for the closed-form covariance, whose
    per-entry bounds are the iid MSE up to rounding."""
    topo = Topology.monostatic(m)
    sigma0_sq = 3.0 / 4
    fisher = (2 / sigma0_sq) * (m * np.eye(m) + np.ones((m, m)))
    oracle = np.linalg.inv(fisher)
    cov = crlb_monostatic(topo, sigma0_sq)
    assert np.abs(cov - oracle).max() < 1e-10
    iid = theoretical_mse_iid(topo, sigma0_sq)
    assert np.abs(_per_entry_bounds(topo, cov) / iid - 1.0).max() <= 1e-15


def test_crlb_monostatic_rejects_bistatic():
    with pytest.raises(WrongTopology):
        crlb_monostatic(Topology.bistatic(2, 2), 1.0)


@pytest.mark.parametrize("topo", [Topology.bistatic(4, 3), Topology.monostatic(4)])
def test_crlb_reports_are_symmetric_psd(topo):
    if topo.kind.value == "bistatic":
        cov = crlb_bistatic(topo, 1.0 / 2)
    else:
        cov = crlb_monostatic(topo, 1.0 / 2)
    assert np.abs(cov - cov.T).max() < 1e-14
    assert np.linalg.eigvalsh(cov).min() > -1e-12


def test_independent_mse_monostatic_matches_simulation():
    """Brute-force check of the averaged-row weighting at M=3 with random
    per-subchannel variances."""
    m = 3
    topo = Topology.monostatic(m)
    rng = noise_rng(91, 0)
    sigmas = rng.uniform(0.5, 2.0, size=(m, m))
    sigmas = 0.5 * (sigmas + sigmas.T)  # any positive matrix works; keep it tidy
    predicted = theoretical_mse_independent(topo, sigmas**2)

    b = weighting_matrix(topo)
    trials = 200_000
    noise = noise_rng(91, 1).normal(size=(trials, m, m)) * sigmas
    flat = noise.transpose(0, 2, 1).reshape(trials, m * m)
    projected = flat @ b.T
    bar = projected.reshape(trials, m, m).transpose(0, 2, 1)
    refined_err = 0.5 * (bar + bar.transpose(0, 2, 1))
    empirical = (refined_err**2).mean(axis=0)
    assert np.abs(empirical / predicted - 1.0).max() < 0.03


def test_refinement_gain_strictly_decreasing():
    """(m + n - 1) / (m n) decreases in both m and n on the 1..16 grid.

    The decrease is strict whenever the other antenna count exceeds one;
    with a single antenna on the other side there is nothing to refine and
    the ratio is constant at 1.
    """
    def gain(m, n):
        return (m + n - 1) / (m * n)

    for m in range(1, 17):
        for n in range(1, 17):
            if m < 16:
                if n > 1:
                    assert gain(m + 1, n) < gain(m, n)
                else:
                    assert gain(m + 1, n) == gain(m, n) == 1.0
            if n < 16:
                if m > 1:
                    assert gain(m, n + 1) < gain(m, n)
                else:
                    assert gain(m, n + 1) == gain(m, n) == 1.0
