"""Closed-form MSE and bound tests, with numeric oracles."""

import numpy as np
import pytest

from bstoa.analysis import (
    crlb_bistatic,
    crlb_monostatic,
    empirical_mse,
    theoretical_mse_iid,
    theoretical_mse_independent,
)
from bstoa.channel import stream_rng
from bstoa.errors import DimensionMismatch, EmptyInput, WrongTopology
from bstoa.topology import Kind, Topology, correlation_matrix, unvec, vec, weighting_matrix


def test_iid_mse_bistatic_4x3():
    report = theoretical_mse_iid(Topology.bistatic(4, 3), 1.0)
    assert report.per_entry_mse.shape == (4, 3)
    assert np.abs(report.per_entry_mse - 0.5).max() < 1e-15


def test_iid_mse_monostatic_6():
    report = theoretical_mse_iid(Topology.monostatic(6), 1.0)
    assert np.abs(np.diag(report.per_entry_mse) - 11 / 36).max() < 1e-15
    off = report.per_entry_mse[~np.eye(6, dtype=bool)]
    assert np.abs(off - 5 / 36).max() < 1e-15


def test_iid_mse_degenerate_1x1():
    report = theoretical_mse_iid(Topology.bistatic(1, 1), 3.7e-19)
    assert report.per_entry_mse[0, 0] == pytest.approx(3.7e-19, rel=1e-15)


def test_independent_mse_bistatic_2x2_first_entry():
    sigmas_sq = unvec(np.array([1.0, 2.0, 3.0, 4.0]), 2, 2)
    report = theoretical_mse_independent(Topology.bistatic(2, 2), sigmas_sq, 1)
    expected = (9 * 1.0 + 2.0 + 3.0 + 4.0) / 16
    assert report.per_entry_mse[0, 0] == pytest.approx(expected, rel=1e-14)


def test_independent_mse_monostatic_2_offdiagonal():
    sigmas_sq = unvec(np.array([1.0, 2.0, 3.0, 4.0]), 2, 2)
    report = theoretical_mse_independent(Topology.monostatic(2), sigmas_sq, 1)
    expected = (1.0 + 2.0 + 3.0 + 4.0) / 16
    assert report.per_entry_mse[1, 0] == pytest.approx(expected, rel=1e-14)
    assert report.per_entry_mse[0, 1] == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("topo", [Topology.bistatic(4, 3), Topology.monostatic(5)])
def test_independent_mse_reduces_to_iid(topo):
    sigma_sq, length = 2.56e-18, 4
    equal = np.full((topo.m, topo.n), sigma_sq)
    independent = theoretical_mse_independent(topo, equal, length)
    iid = theoretical_mse_iid(topo, sigma_sq / length)
    assert np.abs(independent.per_entry_mse - iid.per_entry_mse).max() < 1e-12 * sigma_sq


def test_independent_mse_scaling_by_pilot_length():
    topo = Topology.bistatic(2, 2)
    sigmas_sq = np.full((2, 2), 4.0)
    by_one = theoretical_mse_independent(topo, sigmas_sq, 1)
    by_four = theoretical_mse_independent(topo, sigmas_sq, 4)
    assert np.abs(by_one.per_entry_mse - 4.0 * by_four.per_entry_mse).max() < 1e-14


def _dense_independent_mse(topo, sigmas_sq, pilot_len):
    """Reference: weights from the dense projector B, squared and applied
    to the estimate-level variances."""
    m, n = topo.m, topo.n
    b = weighting_matrix(correlation_matrix(topo))
    if topo.kind is Kind.MONOSTATIC:
        flat = np.arange(m * n)
        zbar = (flat // m) + (flat % m) * m
        b = 0.5 * (b + b[zbar, :])
    return unvec((b**2) @ (vec(sigmas_sq) / pilot_len), m, n)


def test_independent_mse_matches_dense_formula():
    rng = stream_rng(31, 0)
    for m in range(1, 8):
        topologies = [Topology.bistatic(m, n) for n in range(1, 8)]
        topologies.append(Topology.monostatic(m))
        for topo in topologies:
            sigmas_sq = rng.uniform(0.1, 4.0, size=(topo.m, topo.n)) * 1e-18
            got = theoretical_mse_independent(topo, sigmas_sq, 3).per_entry_mse
            expected = _dense_independent_mse(topo, sigmas_sq, 3)
            assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max(), topo


def test_independent_mse_shape_check():
    with pytest.raises(DimensionMismatch):
        theoretical_mse_independent(Topology.bistatic(2, 2), np.ones((3, 2)), 1)


def test_crlb_bistatic_2x2_is_projector():
    topo = Topology.bistatic(2, 2)
    report = crlb_bistatic(topo, 1.0, 1)
    b = weighting_matrix(correlation_matrix(topo))
    assert np.abs(report.covariance_bound - b).max() < 1e-14
    assert np.abs(np.diag(report.covariance_bound) - 0.75).max() < 1e-14


def test_crlb_bistatic_1x1_scalar():
    report = crlb_bistatic(Topology.bistatic(1, 1), 4.0, 8)
    assert report.covariance_bound.shape == (1, 1)
    assert report.covariance_bound[0, 0] == pytest.approx(0.5, rel=1e-15)


def test_crlb_bistatic_4x3_diagonal():
    report = crlb_bistatic(Topology.bistatic(4, 3), 2.0, 8)
    assert np.abs(np.diag(report.covariance_bound) - 0.125).max() < 1e-15
    assert np.abs(report.subchannel_bounds - 0.125).max() < 1e-15


def test_crlb_bistatic_rejects_monostatic():
    with pytest.raises(WrongTopology):
        crlb_bistatic(Topology.monostatic(3), 1.0, 1)


def test_crlb_monostatic_m2_value():
    report = crlb_monostatic(Topology.monostatic(2), 1.0, 1)
    expected = 0.25 * np.array([[0.75, -0.25], [-0.25, 0.75]])
    assert np.abs(report.covariance_bound - expected).max() < 1e-15


def test_crlb_monostatic_m6_subchannel_bounds():
    sigma_sq, length = 1.0, 1
    report = crlb_monostatic(Topology.monostatic(6), sigma_sq, length)
    assert np.abs(np.diag(report.subchannel_bounds) - 11 / 36).max() < 1e-15
    off = report.subchannel_bounds[~np.eye(6, dtype=bool)]
    assert np.abs(off - 5 / 36).max() < 1e-15


@pytest.mark.parametrize("m", range(1, 9))
def test_crlb_monostatic_matches_numeric_fisher_inverse(m):
    """Dense-inverse oracle for the closed-form covariance."""
    sigma_sq, length = 3.0, 4
    fisher = (2 * length / sigma_sq) * (m * np.eye(m) + np.ones((m, m)))
    oracle = np.linalg.inv(fisher)
    report = crlb_monostatic(Topology.monostatic(m), sigma_sq, length)
    assert np.abs(report.covariance_bound - oracle).max() < 1e-10


def test_crlb_monostatic_rejects_bistatic():
    with pytest.raises(WrongTopology):
        crlb_monostatic(Topology.bistatic(2, 2), 1.0, 1)


@pytest.mark.parametrize("topo", [Topology.bistatic(4, 3), Topology.monostatic(4)])
def test_crlb_reports_are_symmetric_psd(topo):
    if topo.kind.value == "bistatic":
        cov = crlb_bistatic(topo, 1.0, 2).covariance_bound
    else:
        cov = crlb_monostatic(topo, 1.0, 2).covariance_bound
    assert np.abs(cov - cov.T).max() < 1e-14
    assert np.linalg.eigvalsh(cov).min() > -1e-12


def test_empirical_mse_single_trial():
    truth = np.zeros((2, 2))
    estimate = np.full((2, 2), 2e-9)
    report = empirical_mse([(truth, estimate)])
    assert np.abs(report.per_entry_mse - 4e-18).max() < 1e-30


def test_empirical_mse_exact_estimates():
    truth = np.arange(6.0).reshape(2, 3)
    report = empirical_mse([(truth, truth.copy())] * 3)
    assert np.count_nonzero(report.per_entry_mse) == 0
    assert np.count_nonzero(report.error_covariance) == 0


def test_empirical_mse_rejects_empty_and_mismatched():
    with pytest.raises(EmptyInput):
        empirical_mse([])
    with pytest.raises(DimensionMismatch):
        empirical_mse([(np.zeros((2, 2)), np.zeros((2, 3)))])


def test_empirical_mse_ls_sampling_check():
    """LS error at sigma=1e-9, L=4 concentrates at 2.5e-19 per entry."""
    m, n, length, sigma, trials = 2, 2, 4, 1e-9, 100_000
    noise = stream_rng(90, 0).normal(0.0, sigma, size=(trials, m * length, n))
    errors = noise.reshape(trials, m, length, n).mean(axis=2)
    truth = np.zeros((m, n))
    report = empirical_mse((truth, err) for err in errors)
    expected = sigma**2 / length
    assert np.abs(report.per_entry_mse / expected - 1.0).max() < 0.03


def test_independent_mse_monostatic_matches_simulation():
    """Brute-force check of the averaged-row weighting at M=3 with random
    per-subchannel variances."""
    m = 3
    topo = Topology.monostatic(m)
    rng = stream_rng(91, 0)
    sigmas = rng.uniform(0.5, 2.0, size=(m, m))
    sigmas = 0.5 * (sigmas + sigmas.T)  # any positive matrix works; keep it tidy
    predicted = theoretical_mse_independent(topo, sigmas**2, 1).per_entry_mse

    b = weighting_matrix(correlation_matrix(topo))
    trials = 200_000
    noise = stream_rng(91, 1).normal(size=(trials, m, m)) * sigmas
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
