"""Localization solver tests, with a brute-force grid oracle."""

import numpy as np
import pytest

from bstoa.channel import SPEED_OF_LIGHT, random_scene, stream_rng, true_delays
from bstoa.errors import SingularGeometry, UnderDetermined
from bstoa.localization import (
    _gauss_newton_batch,
    localize_bistatic,
    localize_bistatic_batch,
    localize_monostatic,
    localize_monostatic_batch,
)
from bstoa.topology import Topology


def _bistatic_case(seed, m=4, n=3, sigma=0.0):
    rng = stream_rng(seed, 0)
    scene = random_scene(Topology.bistatic(m, n), 10.0, rng)
    t = true_delays(scene)
    if sigma > 0.0:
        t = t + rng.normal(0.0, sigma, t.shape)
    return scene, t


def _monostatic_case(seed, m=6, sigma=0.0):
    rng = stream_rng(seed, 0)
    scene = random_scene(Topology.monostatic(m), 10.0, rng)
    t = true_delays(scene)
    if sigma > 0.0:
        noise = rng.normal(0.0, sigma, t.shape)
        t = t + noise
    return scene, t


def _oracle_localize(t, tx, rx, delta, grid_step, bounds):
    """Exhaustive grid minimizer of the bistatic range-sum residual: scans
    an axis-aligned box at ``grid_step`` resolution and returns the best
    grid point.  Meant for small boxes or coarse steps."""
    if grid_step <= 0.0:
        raise ValueError(f"grid_step must be > 0, got {grid_step}")
    lo, hi = bounds
    k = SPEED_OF_LIGHT * (t - delta)
    axes = [np.arange(lo[d], hi[d] + 0.5 * grid_step, grid_step) for d in range(3)]
    gx, gy, gz = np.meshgrid(*axes, indexing="ij")
    grid = np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()])
    da = np.sqrt(((grid[:, None, :] - tx[None, :, :]) ** 2).sum(axis=2))
    db = np.sqrt(((grid[:, None, :] - rx[None, :, :]) ** 2).sum(axis=2))
    total = np.zeros(grid.shape[0])
    for i in range(tx.shape[0]):
        for j in range(rx.shape[0]):
            d = k[i, j] - da[:, i] - db[:, j]
            total += d * d
    return grid[int(np.argmin(total))]


def _sum_squared_residual(t, tx, rx, delta, p):
    k = SPEED_OF_LIGHT * (t - delta)
    da = np.linalg.norm(tx - p, axis=1)
    db = np.linalg.norm(rx - p, axis=1)
    return float(((k - (da[:, None] + db[None, :])) ** 2).sum())


@pytest.mark.parametrize("seed", range(20))
def test_bistatic_noiseless_exact_recovery(seed):
    scene, t = _bistatic_case(1000 + seed)
    fix = localize_bistatic(t, scene.tx, scene.rx)
    assert np.linalg.norm(fix.position - scene.tag) < 1e-6
    assert fix.iterations <= 100
    assert fix.residual_norm >= 0.0


@pytest.mark.parametrize("seed", range(20))
def test_monostatic_noiseless_exact_recovery(seed):
    scene, t = _monostatic_case(2000 + seed)
    fix = localize_monostatic(t, scene.tx)
    assert np.linalg.norm(fix.position - scene.tag) < 1e-6


def test_bistatic_under_determined():
    scene, t = _bistatic_case(3000, m=1, n=3)
    with pytest.raises(UnderDetermined):
        localize_bistatic(t, scene.tx, scene.rx)


def test_monostatic_under_determined():
    scene, t = _monostatic_case(3001, m=3)
    with pytest.raises(UnderDetermined):
        localize_monostatic(t, scene.tx)


def test_monostatic_coplanar_anchors_detected():
    anchors = np.array(
        [[0.0, 0.0, 0.0], [10.0, 0.0, 0.0], [0.0, 10.0, 0.0], [10.0, 10.0, 0.0], [5.0, 2.0, 0.0]]
    )
    tag = np.array([4.0, 6.0, 3.0])
    d = np.linalg.norm(anchors - tag, axis=1)
    t = (d[:, None] + d[None, :]) / SPEED_OF_LIGHT
    with pytest.raises(SingularGeometry):
        localize_monostatic(t, anchors)


def test_bistatic_collinear_anchors_detected():
    tx = np.column_stack([np.arange(1.0, 5.0), np.zeros(4), np.zeros(4)])
    rx = np.column_stack([np.arange(6.0, 9.0), np.zeros(3), np.zeros(3)])
    tag = np.array([2.0, 0.0, 0.0])
    t = (
        np.linalg.norm(tx - tag, axis=1)[:, None]
        + np.linalg.norm(rx - tag, axis=1)[None, :]
    ) / SPEED_OF_LIGHT
    with pytest.raises(SingularGeometry):
        localize_bistatic(t, tx, rx)


def test_explicit_initial_point_is_used():
    scene, t = _bistatic_case(3100)
    fix = localize_bistatic(t, scene.tx, scene.rx, initial=scene.tag + 0.1)
    assert np.linalg.norm(fix.position - scene.tag) < 1e-6


def test_residual_nonincreasing_across_accepted_steps():
    scene, t = _bistatic_case(3200, sigma=3e-9)
    ks = SPEED_OF_LIGHT * t[None, :, :]
    start = np.vstack([scene.tx, scene.rx]).mean(axis=0)[None, :]
    history: list[float] = []
    _gauss_newton_batch(
        scene.tx[None, :, :], scene.rx[None, :, :], ks, start, history=history
    )
    assert len(history) >= 2
    assert all(b <= a for a, b in zip(history, history[1:]))


def test_batch_matches_scalar_calls():
    scenes = [_bistatic_case(3300 + i, sigma=1e-9) for i in range(6)]
    ts = np.stack([t for _, t in scenes])
    txs = np.stack([s.tx for s, _ in scenes])
    rxs = np.stack([s.rx for s, _ in scenes])
    batch_p, batch_rn, batch_it = localize_bistatic_batch(ts, txs, rxs)
    for i, (scene, t) in enumerate(scenes):
        fix = localize_bistatic(t, scene.tx, scene.rx)
        assert np.array_equal(fix.position, batch_p[i])
        assert fix.residual_norm == batch_rn[i]
        assert fix.iterations == batch_it[i]


def test_monostatic_batch_matches_scalar_calls():
    scenes = [_monostatic_case(3400 + i, sigma=1e-9) for i in range(6)]
    ts = np.stack([t for _, t in scenes])
    anchors = np.stack([s.tx for s, _ in scenes])
    batch_p, batch_rn, batch_it = localize_monostatic_batch(ts, anchors)
    for i, (scene, t) in enumerate(scenes):
        fix = localize_monostatic(t, scene.tx)
        assert np.array_equal(fix.position, batch_p[i])


def test_monostatic_polish_flag():
    scene, t = _monostatic_case(3500, sigma=1e-9)
    raw = localize_monostatic(t, scene.tx, polish=False)
    polished = localize_monostatic(t, scene.tx, polish=True)
    assert raw.iterations == 0
    assert polished.iterations <= 1
    assert polished.residual_norm <= raw.residual_norm


def test_oracle_noiseless_grid_bound():
    scene, t = _bistatic_case(3600)
    bounds = (np.zeros(3), np.full(3, 10.0))
    point = _oracle_localize(t, scene.tx, scene.rx, 0.0, 0.1, bounds)
    assert np.linalg.norm(point - scene.tag) < 0.1


def test_oracle_refinement_non_increasing():
    scene, t = _bistatic_case(3700)
    # Off-center box so no grid node coincides with the true optimum.
    lo, hi = scene.tag - 0.47, scene.tag + 0.53
    coarse = _oracle_localize(t, scene.tx, scene.rx, 0.0, 0.1, (lo, hi))
    fine = _oracle_localize(t, scene.tx, scene.rx, 0.0, 0.02, (lo, hi))
    ss_coarse = _sum_squared_residual(t, scene.tx, scene.rx, 0.0, coarse)
    ss_fine = _sum_squared_residual(t, scene.tx, scene.rx, 0.0, fine)
    assert ss_fine <= ss_coarse


@pytest.mark.parametrize("seed", range(3))
def test_solver_agrees_with_oracle_on_noisy_instances(seed):
    scene, t = _bistatic_case(3800 + seed, sigma=1e-9)
    grid_step = 0.25
    bounds = (np.zeros(3), np.full(3, 10.0))
    oracle_point = _oracle_localize(t, scene.tx, scene.rx, 0.0, grid_step, bounds)
    fix = localize_bistatic(t, scene.tx, scene.rx)
    assert np.linalg.norm(fix.position - oracle_point) < 2 * grid_step
    # The solver point should beat the grid point on the shared objective.
    ss_solver = _sum_squared_residual(t, scene.tx, scene.rx, 0.0, fix.position)
    ss_oracle = _sum_squared_residual(t, scene.tx, scene.rx, 0.0, oracle_point)
    assert ss_solver <= ss_oracle + 1e-12


def test_noisy_fix_within_grid_resolution_of_oracle():
    scene, t = _bistatic_case(3900, sigma=1e-9)
    grid_step = 0.25
    bounds = (np.zeros(3), np.full(3, 10.0))
    oracle_point = _oracle_localize(t, scene.tx, scene.rx, 0.0, grid_step, bounds)
    fix = localize_bistatic(t, scene.tx, scene.rx)
    assert np.linalg.norm(fix.position - oracle_point) < 3 * grid_step


def test_oracle_rejects_bad_step():
    scene, t = _bistatic_case(4000)
    with pytest.raises(ValueError):
        _oracle_localize(t, scene.tx, scene.rx, 0.0, 0.0, (np.zeros(3), np.ones(3)))


def test_refinement_does_not_move_the_global_minimizer():
    """The range-sum model satisfies the topology constraint for every p,
    so projecting the delay estimate shifts the objective by a constant and
    leaves the minimizer unchanged; converged fixes agree to solver
    precision."""
    from bstoa.estimator import ls_estimate, refine_bistatic
    from bstoa.channel import synth_observations

    topo = Topology.bistatic(4, 3)
    for index in range(10):
        rng = stream_rng(4200, index)
        scene = random_scene(topo, 10.0, rng)
        t_true = true_delays(scene)
        obs = synth_observations(t_true, 8, 1e-10, rng)
        t_hat = ls_estimate(obs, topo)
        t_ref = refine_bistatic(t_hat)
        fix_hat = localize_bistatic(t_hat, scene.tx, scene.rx)
        fix_ref = localize_bistatic(t_ref, scene.tx, scene.rx)
        assert np.linalg.norm(fix_hat.position - fix_ref.position) < 1e-6


def test_delta_is_honored():
    scene, _ = _bistatic_case(4100)
    scene.delta = 3e-8
    t = true_delays(scene)
    fix = localize_bistatic(t, scene.tx, scene.rx, delta=scene.delta)
    assert np.linalg.norm(fix.position - scene.tag) < 1e-6
