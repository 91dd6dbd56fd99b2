"""Command line interface tests."""

import numpy as np
import pytest

from bstoa.channel import Scene, random_scene, stream_rng, synth_observations, true_delays
from bstoa.cli import main
from bstoa.topology import Topology, correlation_matrix, weighting_matrix


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_matrix_a(capsys):
    code, out, _ = run_cli(capsys, "gen-matrix", "--topology", "bi", "--m", "2", "--n", "2", "--which", "a")
    assert code == 0
    assert out.strip() == "1,-1,-1,1"


def test_gen_matrix_a_empty(capsys):
    code, out, _ = run_cli(capsys, "gen-matrix", "--topology", "bi", "--m", "1", "--n", "5", "--which", "a")
    assert code == 0
    assert out == ""


def test_gen_matrix_b_matches_library(capsys):
    code, out, _ = run_cli(capsys, "gen-matrix", "--topology", "mono", "--m", "2", "--which", "b")
    assert code == 0
    got = np.array([[float(x) for x in line.split(",")] for line in out.strip().split("\n")])
    expected = weighting_matrix(correlation_matrix(Topology.monostatic(2)))
    assert np.abs(got - expected).max() < 1e-15


def test_estimate_roundtrip(tmp_path, capsys):
    topo = Topology.bistatic(2, 2)
    t = true_delays(random_scene(topo, 10.0, stream_rng(1, 0)))
    obs = synth_observations(t, 4, 0.0, stream_rng(1, 1))
    path = tmp_path / "obs.csv"
    np.savetxt(path, obs.y, delimiter=",")
    code, out, _ = run_cli(
        capsys, "estimate", "--topology", "bi", "--m", "2", "--n", "2",
        "--input", str(path), "--method", "ls",
    )
    assert code == 0
    got = np.array([[float(x) for x in line.split(",")] for line in out.strip().split("\n")])
    assert np.abs(got - t).max() < 1e-12 * np.abs(t).max()


def test_estimate_proposed_satisfies_constraint(tmp_path, capsys):
    topo = Topology.bistatic(2, 2)
    rng = stream_rng(2, 0)
    t = true_delays(random_scene(topo, 10.0, rng))
    obs = synth_observations(t, 2, 1e-9, rng)
    path = tmp_path / "obs.csv"
    np.savetxt(path, obs.y, delimiter=",")
    code, out, _ = run_cli(
        capsys, "estimate", "--topology", "bi", "--m", "2", "--n", "2",
        "--input", str(path), "--method", "proposed",
    )
    assert code == 0
    got = np.array([[float(x) for x in line.split(",")] for line in out.strip().split("\n")])
    assert abs(got[0, 0] - got[0, 1] - got[1, 0] + got[1, 1]) < 1e-9 * np.abs(got).max()


def test_estimate_bad_row_count(tmp_path, capsys):
    path = tmp_path / "obs.csv"
    np.savetxt(path, np.zeros((5, 2)), delimiter=",")
    code, _, err = run_cli(
        capsys, "estimate", "--topology", "bi", "--m", "2", "--n", "2",
        "--input", str(path),
    )
    assert code == 2
    assert "error" in err


def test_crlb_output(capsys):
    code, out, _ = run_cli(
        capsys, "crlb", "--topology", "mono", "--m", "2", "--sigma", "1.0", "--pilot-len", "1",
    )
    assert code == 0
    got = np.array([[float(x) for x in line.split(",")] for line in out.strip().split("\n")])
    assert np.abs(got - 0.25 * np.array([[0.75, -0.25], [-0.25, 0.75]])).max() < 1e-15


def test_localize_scene_file(tmp_path, capsys):
    topo = Topology.bistatic(4, 3)
    scene = random_scene(topo, 10.0, stream_rng(3, 0))
    scene_path = tmp_path / "scene.txt"
    scene_path.write_text(scene.to_text())
    toa_path = tmp_path / "toa.csv"
    np.savetxt(toa_path, true_delays(scene), delimiter=",")
    code, out, _ = run_cli(
        capsys, "localize", "--scene", str(scene_path), "--toa", str(toa_path), "--method", "ls",
    )
    assert code == 0
    values = [float(x) for x in out.strip().split(",")]
    assert len(values) == 4
    assert np.linalg.norm(np.array(values[:3]) - scene.tag) < 1e-6


def test_localize_monostatic_proposed(tmp_path, capsys):
    scene = random_scene(Topology.monostatic(5), 10.0, stream_rng(4, 0))
    scene_path = tmp_path / "scene.txt"
    scene_path.write_text(scene.to_text())
    t = true_delays(scene) + stream_rng(4, 1).normal(0.0, 1e-10, (5, 5))
    toa_path = tmp_path / "toa.csv"
    np.savetxt(toa_path, t, delimiter=",")
    code, out, _ = run_cli(
        capsys, "localize", "--scene", str(scene_path), "--toa", str(toa_path),
        "--method", "proposed",
    )
    assert code == 0
    values = [float(x) for x in out.strip().split(",")]
    assert np.linalg.norm(np.array(values[:3]) - scene.tag) < 0.5


def test_sweep_cli_roundtrip_and_determinism(tmp_path, capsys):
    config = tmp_path / "sweep.cfg"
    config.write_text(
        "experiment = mse\nkind = bistatic\nm = 2\nn = 2\n"
        "pilot_lengths = 2\nsigma_grid = 1e-9\ntrials = 128\nmaster_seed = 5\n"
    )
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(["sweep", "--config", str(config), "--out", str(out_a)]) == 0
    assert main(["sweep", "--config", str(config), "--out", str(out_b), "--workers", "2"]) == 0
    capsys.readouterr()
    assert out_a.read_bytes() == out_b.read_bytes()
    header = out_a.read_text().splitlines()[0]
    assert header == "sigma,pilot_len,method,metric,value,theory,low_confidence"


def test_sweep_cli_seed_override(tmp_path, capsys):
    config = tmp_path / "sweep.cfg"
    config.write_text(
        "experiment = mse\nkind = bistatic\nm = 2\nn = 2\n"
        "pilot_lengths = 2\nsigma_grid = 1e-9\ntrials = 64\nmaster_seed = 5\n"
    )
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(["sweep", "--config", str(config), "--out", str(out_a)]) == 0
    assert main(["sweep", "--config", str(config), "--out", str(out_b), "--seed", "6"]) == 0
    capsys.readouterr()
    assert out_a.read_bytes() != out_b.read_bytes()


def test_sweep_cli_bad_config_exit_code(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("experiment = mse\nkind = bistatic\nm = 2\nsigma_grid = 2e-9, 1e-9\n")
    code, _, err = run_cli(capsys, "sweep", "--config", str(config), "--out", str(tmp_path / "x.csv"))
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("line", ["sigma_grid = nan", "cube_side = inf"])
def test_sweep_cli_non_finite_config_exit_code(tmp_path, capsys, line):
    config = tmp_path / "bad.cfg"
    config.write_text(f"experiment = mse\nkind = bistatic\nm = 2\ntrials = 4\n{line}\n")
    out = tmp_path / "x.csv"
    code, _, err = run_cli(capsys, "sweep", "--config", str(config), "--out", str(out))
    assert code == 2
    assert "error" in err
    assert not out.exists()


def test_sweep_cli_missing_config_exit_code(tmp_path, capsys):
    code, _, err = run_cli(capsys, "sweep", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "x.csv"))
    assert code == 2


def test_localize_singular_geometry_exit_code(tmp_path, capsys):
    anchors = np.array(
        [[0.0, 0.0, 0.0], [10.0, 0.0, 0.0], [0.0, 10.0, 0.0], [10.0, 10.0, 0.0]]
    )
    tag = np.array([4.0, 6.0, 3.0])
    scene = Scene(topo=Topology.monostatic(4), tx=anchors, tag=tag)
    scene_path = tmp_path / "scene.txt"
    scene_path.write_text(scene.to_text())
    d = np.linalg.norm(anchors - tag, axis=1)
    toa_path = tmp_path / "toa.csv"
    np.savetxt(toa_path, (d[:, None] + d[None, :]) / 299792458.0, delimiter=",")
    code, _, err = run_cli(
        capsys, "localize", "--scene", str(scene_path), "--toa", str(toa_path),
    )
    assert code == 3
    assert "error" in err
