"""Sweep driver tests: config parsing, determinism, row contents."""

import numpy as np
import pytest

from bstoa.analysis import theoretical_mse_iid
from bstoa.channel import random_scene, stream_rng, synth_observations, true_delays
from bstoa.errors import ConfigInvalid, UnderDetermined
from bstoa.estimator import ls_estimate
from bstoa.harness import (
    DEFAULT_PILOT_LENGTHS,
    DEFAULT_SIGMA_GRID,
    ExperimentKind,
    SweepConfig,
    _chunk_tasks,
    _run_crlb_chunk,
    _run_mse_chunk,
    parse_config,
    run_crlb_check,
    run_localization_sweep,
    run_mse_sweep,
    run_sweep,
)
from bstoa.topology import Kind, Topology, correlation_matrix, unvec, vec, weighting_matrix


def _cfg(**overrides):
    base = dict(
        experiment=ExperimentKind.MSE,
        kind=Kind.BISTATIC,
        m=2,
        n=2,
        pilot_lengths=(2,),
        sigma_grid=(1e-9, 2e-9),
        trials=200,
        master_seed=303,
    )
    base.update(overrides)
    return SweepConfig(**base)


def test_parse_config_full():
    cfg = parse_config(
        """
        # comment line
        experiment = mse
        kind = bistatic
        m = 4
        n = 3
        pilot_lengths = 2, 8
        sigma_grid = 1e-10, 1e-9
        trials = 500
        cube_side = 10
        master_seed = 99
        """
    )
    assert cfg.experiment is ExperimentKind.MSE
    assert cfg.topology == Topology.bistatic(4, 3)
    assert cfg.pilot_lengths == (2, 8)
    assert cfg.sigma_grid == (1e-10, 1e-9)
    assert cfg.trials == 500
    assert cfg.master_seed == 99


def test_parse_config_defaults():
    cfg = parse_config("experiment = crlb\nkind = monostatic\nm = 6\n")
    assert cfg.n == 6
    assert cfg.pilot_lengths == DEFAULT_PILOT_LENGTHS
    assert cfg.sigma_grid == DEFAULT_SIGMA_GRID
    assert cfg.trials == 10_000
    assert cfg.cube_side == 10.0


@pytest.mark.parametrize(
    "text",
    [
        "kind = bistatic\nm = 2\n",                                  # missing experiment
        "experiment = mse\nkind = bistatic\n",                       # missing m
        "experiment = warp\nkind = bistatic\nm = 2\n",               # bad experiment
        "experiment = mse\nkind = tri\nm = 2\n",                     # bad kind
        "experiment = mse\nkind = bistatic\nm = 2\nbogus = 1\n",     # unknown key
        "experiment = mse\nkind = bistatic\nm = 2\nm = 3\n",         # duplicate
        "experiment = mse\nkind = bistatic\nm = two\n",              # bad int
        "experiment = mse\nkind = monostatic\nm = 2\nn = 3\n",       # mono m != n
        "experiment = mse\nkind = bistatic\nm = 2\ntrials = 0\n",    # bad trials
        "experiment = mse\nkind = bistatic\nm = 2\nsigma_grid = 2e-9, 1e-9\n",
        "experiment = mse\nkind = bistatic\nm = 2\nsigma_grid = 0, 1e-9\n",
        "experiment = mse\nkind = bistatic\nm = 2\npilot_lengths = 0\n",
        "experiment = mse\nkind = bistatic\nm = 2\nsigma_grid = nan\n",
        "experiment = mse\nkind = bistatic\nm = 2\nsigma_grid = 1e-9, inf\n",
        "experiment = mse\nkind = bistatic\nm = 2\ncube_side = inf\n",
        "experiment = mse\nkind = bistatic\nm = 2\ncube_side = nan\n",
    ],
)
def test_parse_config_rejects(text):
    with pytest.raises(ConfigInvalid):
        parse_config(text)


def test_wrong_experiment_kind_rejected():
    cfg = _cfg(experiment=ExperimentKind.CRLB)
    with pytest.raises(ConfigInvalid):
        run_mse_sweep(cfg, workers=1)
    with pytest.raises(ConfigInvalid):
        run_localization_sweep(cfg, workers=1)
    with pytest.raises(ConfigInvalid):
        run_crlb_check(_cfg(experiment=ExperimentKind.MSE), workers=1)


def test_localization_sweep_under_determined():
    cfg = _cfg(experiment=ExperimentKind.LOCALIZATION, m=1, n=3)
    with pytest.raises(UnderDetermined):
        run_localization_sweep(cfg, workers=1)


def test_mse_sweep_rows_and_theory_column():
    cfg = _cfg(trials=400)
    result = run_mse_sweep(cfg, workers=1)
    rows = result.sorted_rows()
    assert len(rows) == 2 * 2 * 1  # 2 sigma x (ls, proposed) x 1 pilot
    for row in rows:
        sigma0_sq = row.sigma**2 / row.pilot_len
        if row.method == "proposed":
            expected = theoretical_mse_iid(cfg.topology, sigma0_sq).per_entry_mse[0, 0]
        else:
            expected = sigma0_sq
        assert row.theory == pytest.approx(expected, rel=1e-12)
        assert 0.5 < row.value / row.theory < 2.0  # loose at 400 trials
        assert row.low_confidence == 1


def test_mse_sweep_monostatic_emits_diag_and_offdiag():
    cfg = _cfg(kind=Kind.MONOSTATIC, m=3, n=3, trials=64)
    result = run_mse_sweep(cfg, workers=1)
    metrics = {(r.method, r.metric) for r in result.rows}
    assert metrics == {
        ("ls", "diag_mse"),
        ("ls", "offdiag_mse"),
        ("proposed", "diag_mse"),
        ("proposed", "offdiag_mse"),
    }


def test_mse_sweep_single_point_concentration():
    """10^4 trials put the empirical/theory ratio within 5%."""
    cfg = _cfg(
        kind=Kind.BISTATIC, m=4, n=3, pilot_lengths=(8,), sigma_grid=(1e-9,),
        trials=10_000, master_seed=404,
    )
    result = run_mse_sweep(cfg, workers=1)
    for row in result.rows:
        assert 0.95 < row.value / row.theory < 1.05
        assert row.low_confidence == 0


def test_mse_sweep_single_trial_tiny_sigma():
    cfg = _cfg(sigma_grid=(1e-15,), trials=1)
    result = run_mse_sweep(cfg, workers=1)
    for row in result.rows:
        assert row.value < 1e-20


def test_crlb_check_rows():
    bist = _cfg(experiment=ExperimentKind.CRLB, trials=10)
    rows = run_crlb_check(bist, workers=1).rows
    assert [r.metric for r in rows] == ["cov_frob_rel_err"] * len(rows)
    assert all(r.low_confidence == 1 for r in rows)
    mono = _cfg(
        experiment=ExperimentKind.CRLB, kind=Kind.MONOSTATIC, m=3, n=3, trials=10
    )
    metrics = {r.metric for r in run_crlb_check(mono, workers=1).rows}
    assert metrics == {"diag_bound_ratio", "offdiag_bound_ratio"}


def test_localization_sweep_rows():
    cfg = _cfg(
        experiment=ExperimentKind.LOCALIZATION, m=2, n=2,
        sigma_grid=(1e-10,), trials=64,
    )
    rows = run_localization_sweep(cfg, workers=1).rows
    assert {(r.method, r.metric) for r in rows} == {("ls", "rmse"), ("proposed", "rmse")}
    assert all(r.theory is None for r in rows)


def test_chunk_matches_per_trial_reference():
    """A batched chunk reproduces a per-trial loop over the same streams,
    refined through the dense projector B."""
    cfg = _cfg(experiment=ExperimentKind.CRLB, m=3, n=2, trials=40)
    topo = cfg.topology
    b = weighting_matrix(correlation_matrix(topo))
    task = _chunk_tasks(cfg)[1]
    sq_ls = np.zeros((topo.m, topo.n))
    sq_ref = np.zeros((topo.m, topo.n))
    cov = np.zeros((topo.mn, topo.mn))
    for trial in range(task.start, task.stop):
        rng = stream_rng(cfg.master_seed, task.point_index * cfg.trials + trial)
        truth = true_delays(random_scene(topo, cfg.cube_side, rng))
        t_hat = ls_estimate(synth_observations(truth, task.pilot_len, task.sigma, rng), topo)
        err_ref = b @ vec(t_hat) - vec(truth)
        sq_ls += (t_hat - truth) ** 2
        sq_ref += unvec(err_ref**2, topo.m, topo.n)
        cov += np.outer(err_ref, err_ref)
    mse = _run_mse_chunk(task)
    crlb = _run_crlb_chunk(task)
    assert np.abs(mse["sq_ls"] - sq_ls).max() <= 1e-12 * sq_ls.max()
    assert np.abs(mse["sq_proposed"] - sq_ref).max() <= 1e-12 * sq_ref.max()
    assert np.abs(crlb["cov_proposed"] - cov).max() <= 1e-12 * np.abs(cov).max()


def test_sweep_determinism_same_config():
    cfg = _cfg(trials=300)
    assert run_sweep(cfg, workers=1).to_csv() == run_sweep(cfg, workers=1).to_csv()


def test_sweep_determinism_across_worker_counts():
    cfg = _cfg(trials=600)  # spans two chunks
    csv_one = run_sweep(cfg, workers=1).to_csv()
    csv_three = run_sweep(cfg, workers=3).to_csv()
    assert csv_one == csv_three


def test_seed_changes_output():
    one = run_sweep(_cfg(master_seed=1), workers=1).to_csv()
    two = run_sweep(_cfg(master_seed=2), workers=1).to_csv()
    assert one != two


def test_csv_format_and_sorting(tmp_path):
    cfg = _cfg(trials=16, pilot_lengths=(4, 2))
    result = run_sweep(cfg, workers=1)
    csv_text = result.to_csv()
    lines = csv_text.strip().split("\n")
    assert lines[0] == "sigma,pilot_len,method,metric,value,theory,low_confidence"
    keys = []
    for line in lines[1:]:
        parts = line.split(",")
        assert len(parts) == 7
        keys.append((float(parts[0]), int(parts[1]), parts[2], parts[3]))
    assert keys == sorted(keys)
    out = tmp_path / "out.csv"
    result.write_csv(str(out))
    assert out.read_bytes().decode() == csv_text
