"""Command line interface tests."""

import contextlib
import hashlib
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bstoa
from bstoa.channel import Scene, noise_rng, random_scene, synth_observations, true_delays
from bstoa.cli import main
from bstoa.harness import DEFAULT_SIGMA_GRID
from bstoa.topology import Kind, Topology, weighting_matrix


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
    expected = weighting_matrix(Topology.monostatic(2))
    assert np.abs(got - expected).max() < 1e-15


def test_estimate_roundtrip(tmp_path, capsys):
    topo = Topology.bistatic(2, 2)
    scene = random_scene(topo, 10.0, noise_rng(1, 0))
    t = true_delays(scene.tx, scene.rx, scene.tag)
    path = tmp_path / "obs.csv"
    np.savetxt(path, synth_observations(t, 4, 0.0, noise_rng(1, 1)), delimiter=",")
    code, out, _ = run_cli(
        capsys, "estimate", "--topology", "bi", "--m", "2", "--n", "2",
        "--input", str(path), "--method", "ls",
    )
    assert code == 0
    got = np.array([[float(x) for x in line.split(",")] for line in out.strip().split("\n")])
    assert np.abs(got - t).max() < 1e-12 * np.abs(t).max()


def test_estimate_proposed_satisfies_constraint(tmp_path, capsys):
    topo = Topology.bistatic(2, 2)
    rng = noise_rng(2, 0)
    scene = random_scene(topo, 10.0, rng)
    t = true_delays(scene.tx, scene.rx, scene.tag)
    path = tmp_path / "obs.csv"
    np.savetxt(path, synth_observations(t, 2, 1e-9, rng), delimiter=",")
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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("method", ["ls", "proposed"])
def test_estimate_non_finite_observation_exit_code(tmp_path, capsys, bad, method):
    y = np.ones((4, 2))
    y[1, 0] = bad
    path = tmp_path / "obs.csv"
    np.savetxt(path, y, delimiter=",")
    code, out, err = run_cli(
        capsys, "estimate", "--topology", "bi", "--m", "2", "--n", "2",
        "--input", str(path), "--method", method,
    )
    assert code == 2
    assert out == ""
    assert "finite" in err


def test_crlb_output(capsys):
    code, out, _ = run_cli(
        capsys, "crlb", "--topology", "mono", "--m", "2", "--sigma", "1.0", "--pilot-len", "1",
    )
    assert code == 0
    got = np.array([[float(x) for x in line.split(",")] for line in out.strip().split("\n")])
    assert np.abs(got - 0.25 * np.array([[0.75, -0.25], [-0.25, 0.75]])).max() < 1e-15


@pytest.mark.parametrize("m, n", [("1", "1"), ("1", "3"), ("3", "2"), ("4", "5")])
def test_crlb_at_unit_variance_prints_gen_matrix_b(capsys, m, n):
    """The bistatic bound at sigma = 1, L = 1 is B itself, to the byte, and
    the printed B is exactly symmetric."""
    topo = ["--topology", "bi", "--m", m, "--n", n]
    code, b_text, _ = run_cli(capsys, "gen-matrix", *topo, "--which", "b")
    assert code == 0
    code, bound_text, _ = run_cli(capsys, "crlb", *topo, "--sigma", "1", "--pilot-len", "1")
    assert code == 0
    assert bound_text == b_text
    cells = [line.split(",") for line in b_text.splitlines()]
    assert cells == [list(column) for column in zip(*cells)]


# sha256 of ``bstoa crlb``'s stdout per argument list.  Away from the unit
# variance of test_crlb_at_unit_variance_prints_gen_matrix_b, these pin the
# division by L and the scaling of each bound, to the byte.
_CRLB_STDOUT_SHA256 = {
    "bi-4x3": (
        ["--topology", "bi", "--m", "4", "--n", "3", "--sigma", "1e-9", "--pilot-len", "8"],
        "0ffca560d526119c5b291a09a4b00aae8ce35997b9786cd4ea056cb3543797a3",
    ),
    "mono-6": (
        ["--topology", "mono", "--m", "6", "--sigma", "1e-9", "--pilot-len", "8"],
        "25cd21e10222b505804826771aa53dd823347c5b854ada0b2590de635d41b6a9",
    ),
    "mono-5": (
        ["--topology", "mono", "--m", "5", "--sigma", "3.3e-10", "--pilot-len", "3"],
        "d7b6aa6af182a766292524931279d9bcbca591ed26ffc3cd1d6498d1d50ee29b",
    ),
}


@pytest.mark.parametrize("case", list(_CRLB_STDOUT_SHA256))
def test_crlb_stdout_bytes_are_pinned(capsys, case):
    argv, digest = _CRLB_STDOUT_SHA256[case]
    code, out, _ = run_cli(capsys, "crlb", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv",
    [
        ["gen-matrix", "--topology", "bi", "--m", "200", "--n", "200", "--which", "b"],
        ["crlb", "--topology", "bi", "--m", "200", "--n", "200", "--sigma", "1e-9"],
    ],
    ids=["gen-matrix", "crlb"],
)
def test_dense_matrix_out_of_memory_exit_code(monkeypatch, capsys, argv):
    """A dense B that does not fit in memory ends in exit 2 and an error
    line, not a traceback.  The allocation failure is simulated."""
    import bstoa.analysis
    import bstoa.cli

    def out_of_memory(topo):
        raise MemoryError(f"Unable to allocate B for {topo.mn} subchannels")

    monkeypatch.setattr(bstoa.cli, "weighting_matrix", out_of_memory)
    monkeypatch.setattr(bstoa.analysis, "weighting_matrix", out_of_memory)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "error: Unable to allocate B for 40000 subchannels\n"


@pytest.mark.parametrize(
    "topology, error",
    [
        (["bi", "--m", "3", "--n", "2"], "error: "),
        (["mono", "--m", "3"], "error: "),
        # A monostatic --n that contradicts --m fails before the sigma checks.
        (["mono", "--m", "3", "--n", "2"], "error: monostatic requires m == n, got m=3, n=2\n"),
    ],
    ids=["bi", "mono", "mono-3x2"],
)
@pytest.mark.parametrize(
    "sigma, pilot_len",
    [("nan", "2"), ("1e200", "2"), ("-1e-9", "2"), ("1e-9", "0"), ("1e-9", "-3")],
    ids=["sigma-nan", "sigma-overflow", "sigma-negative", "pilot-len-0", "pilot-len-negative"],
)
def test_crlb_bad_input_exit_code(capsys, topology, error, sigma, pilot_len):
    code, out, err = run_cli(
        capsys, "crlb", "--topology", *topology, f"--sigma={sigma}", "--pilot-len", pilot_len,
    )
    assert code == 2
    assert out == ""
    assert err.startswith(error)


def test_localize_scene_file(tmp_path, capsys):
    topo = Topology.bistatic(4, 3)
    scene = random_scene(topo, 10.0, noise_rng(3, 0))
    scene_path = tmp_path / "scene.txt"
    scene_path.write_text(scene.to_text())
    toa_path = tmp_path / "toa.csv"
    np.savetxt(toa_path, true_delays(scene.tx, scene.rx, scene.tag, scene.delta), delimiter=",")
    code, out, _ = run_cli(
        capsys, "localize", "--scene", str(scene_path), "--toa", str(toa_path), "--method", "ls",
    )
    assert code == 0
    values = [float(x) for x in out.strip().split(",")]
    assert len(values) == 4
    assert np.linalg.norm(np.array(values[:3]) - scene.tag) < 1e-6


def test_localize_scene_scaled_by_1e_minus_50(tmp_path, capsys):
    """A bistatic 4x3 scene file scaled by 1e-50 fixes its tag within 1e-9
    of its 1e-49 m cube: the localizers solve in the scene's own frame.  It
    used to print a fix 0.87 cube sides off with exit 0."""
    scene = random_scene(Topology.bistatic(4, 3), 10.0, noise_rng(1, 0))
    small = Scene(
        topo=scene.topo, tx=scene.tx * 1e-50, rx=scene.rx * 1e-50, tag=scene.tag * 1e-50
    )
    scene_path, toa_path = _localize_files(tmp_path, small)
    code, out, err = run_cli(capsys, "localize", "--scene", scene_path, "--toa", toa_path)
    assert (code, err) == (0, "")
    values = [float(x) for x in out.strip().split(",")]
    assert np.linalg.norm(np.array(values[:3]) - small.tag) <= 1e-9 * 1e-49


def test_localize_monostatic_proposed(tmp_path, capsys):
    scene = random_scene(Topology.monostatic(5), 10.0, noise_rng(4, 0))
    scene_path = tmp_path / "scene.txt"
    scene_path.write_text(scene.to_text())
    t = true_delays(scene.tx, scene.rx, scene.tag, scene.delta)
    t += noise_rng(4, 1).normal(0.0, 1e-10, (5, 5))
    toa_path = tmp_path / "toa.csv"
    np.savetxt(toa_path, t, delimiter=",")
    code, out, _ = run_cli(
        capsys, "localize", "--scene", str(scene_path), "--toa", str(toa_path),
        "--method", "proposed",
    )
    assert code == 0
    values = [float(x) for x in out.strip().split(",")]
    assert np.linalg.norm(np.array(values[:3]) - scene.tag) < 0.5


def _localize_files(tmp_path, scene, t=None):
    """Write the scene record and the delay CSV ``t``, by default the
    scene's true delays; return both paths."""
    if t is None:
        t = true_delays(scene.tx, scene.rx, scene.tag, scene.delta)
    scene_path = tmp_path / "scene.txt"
    scene_path.write_text(scene.to_text())
    toa_path = tmp_path / "toa.csv"
    np.savetxt(toa_path, t, delimiter=",")
    return str(scene_path), str(toa_path)


@pytest.mark.parametrize("topo", [Topology.bistatic(4, 3), Topology.monostatic(5)])
@pytest.mark.parametrize("method", ["ls", "proposed"])
def test_localize_non_finite_toa_exit_code(tmp_path, capsys, topo, method):
    scene = random_scene(topo, 10.0, noise_rng(5, 0))
    t = true_delays(scene.tx, scene.rx, scene.tag, scene.delta)
    t[0, 0] = np.nan
    scene_path, toa_path = _localize_files(tmp_path, scene, t)
    code, out, err = run_cli(
        capsys, "localize", "--scene", scene_path, "--toa", toa_path, "--method", method,
    )
    assert code == 2
    assert out == ""
    assert "finite" in err


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_localize_non_finite_scene_exit_code(tmp_path, capsys, bad):
    scene = random_scene(Topology.bistatic(4, 3), 10.0, noise_rng(5, 1))
    t = true_delays(scene.tx, scene.rx, scene.tag, scene.delta)
    scene.tx[2, 1] = bad
    scene_path, toa_path = _localize_files(tmp_path, scene, t)
    code, out, err = run_cli(capsys, "localize", "--scene", scene_path, "--toa", toa_path)
    assert code == 2
    assert out == ""
    assert "finite" in err


@pytest.mark.parametrize("topo", [Topology.bistatic(4, 3), Topology.monostatic(5)])
@pytest.mark.parametrize("method", ["ls", "proposed"])
def test_localize_toa_shape_mismatch_exit_code(tmp_path, capsys, topo, method):
    scene = random_scene(topo, 10.0, noise_rng(5, 2))
    t = true_delays(scene.tx, scene.rx, scene.tag, scene.delta)
    scene_path, toa_path = _localize_files(tmp_path, scene, t[:, 1:])
    code, out, err = run_cli(
        capsys, "localize", "--scene", scene_path, "--toa", toa_path, "--method", method,
    )
    assert code == 2
    assert out == ""
    assert "error" in err


@pytest.mark.parametrize("drop", ["n", "tx1", "tag"])
def test_localize_malformed_scene_exit_code(tmp_path, capsys, drop):
    scene = random_scene(Topology.bistatic(4, 3), 10.0, noise_rng(5, 3))
    scene_path, toa_path = _localize_files(tmp_path, scene)
    lines = scene.to_text().splitlines()
    (tmp_path / "scene.txt").write_text("\n".join(x for x in lines if x.partition("=")[0] != drop))
    code, out, err = run_cli(capsys, "localize", "--scene", scene_path, "--toa", toa_path)
    assert code == 2
    assert out == ""
    assert f"{drop!r}" in err


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda text: text.replace("delta=", "dleta="), "unknown"),
        (lambda text: text + "tx7=1.0,2.0,3.0\n", "unknown"),
        (lambda text: text + text.splitlines()[-1] + "\n", "duplicate"),
    ],
    ids=["misspelt-delta", "stray-tx7", "duplicate-tag"],
)
def test_localize_scene_with_unknown_or_duplicate_key_exit_code(tmp_path, capsys, edit, message):
    scene = random_scene(Topology.bistatic(4, 3), 10.0, noise_rng(5, 4))
    scene_path, toa_path = _localize_files(tmp_path, scene)
    (tmp_path / "scene.txt").write_text(edit(scene.to_text()))
    code, out, err = run_cli(capsys, "localize", "--scene", scene_path, "--toa", toa_path)
    assert code == 2
    assert out == ""
    assert message in err


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


@pytest.mark.parametrize("workers", ["0", "-4"])
def test_sweep_cli_workers_below_one_exit_code(tmp_path, capsys, workers):
    config = tmp_path / "sweep.cfg"
    config.write_text("experiment = mse\nkind = bistatic\nm = 2\ntrials = 8\n")
    out = tmp_path / "x.csv"
    code, _, err = run_cli(
        capsys, "sweep", "--config", str(config), "--out", str(out), "--workers", workers
    )
    assert code == 2
    assert "workers" in err
    assert not out.exists()


def test_sweep_cli_bad_config_exit_code(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("experiment = mse\nkind = bistatic\nm = 2\nsigma_grid = 2e-9, 1e-9\n")
    code, _, err = run_cli(capsys, "sweep", "--config", str(config), "--out", str(tmp_path / "x.csv"))
    assert code == 2
    assert "error" in err


def test_sweep_cli_duplicate_pilot_length_exit_code(tmp_path, capsys):
    """Two equal pilot lengths would emit two rows under one CSV key."""
    config = tmp_path / "dup.cfg"
    config.write_text("experiment = mse\nkind = bistatic\nm = 2\ntrials = 4\npilot_lengths = 2, 2\n")
    out = tmp_path / "x.csv"
    code, _, err = run_cli(capsys, "sweep", "--config", str(config), "--out", str(out))
    assert code == 2
    assert "distinct" in err
    assert not out.exists()


@pytest.mark.parametrize("line", ["sigma_grid = nan", "cube_side = inf"])
def test_sweep_cli_non_finite_config_exit_code(tmp_path, capsys, line):
    config = tmp_path / "bad.cfg"
    config.write_text(f"experiment = mse\nkind = bistatic\nm = 2\ntrials = 4\n{line}\n")
    out = tmp_path / "x.csv"
    code, _, err = run_cli(capsys, "sweep", "--config", str(config), "--out", str(out))
    assert code == 2
    assert "error" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "body",
    [
        "experiment = mse\nkind = bistatic\nm = 4\nn = 3\nsigma_grid = 1e200\n",
        "experiment = crlb\nkind = bistatic\nm = 4\nn = 3\nsigma_grid = 1e-320\n",
        "experiment = mse\nkind = bistatic\nm = 4\nn = 3\nsigma_grid = 1e-170\n",
        "experiment = localization\nkind = bistatic\nm = 4\nn = 3\nsigma_grid = 1e300\n",
        "experiment = localization\nkind = monostatic\nm = 6\nsigma_grid = 1e300\n",
    ],
    ids=["mse-overflow", "crlb-underflow", "mse-underflow", "loc-bistatic", "loc-monostatic"],
)
def test_sweep_cli_sigma_out_of_range_exit_code(tmp_path, capsys, body):
    """A sigma outside the float range of its sweep exits 2 and names the
    range, with no CSV written: no traceback, no rows of 0, inf or nan."""
    config = tmp_path / "sigma.cfg"
    config.write_text(body + "trials = 64\npilot_lengths = 2\n")
    out = tmp_path / "x.csv"
    code, _, err = run_cli(capsys, "sweep", "--config", str(config), "--out", str(out))
    assert code == 2
    assert err.startswith("error: ") and "sigma must lie in [" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "topology", [["bi", "--m", "3", "--n", "2"], ["mono", "--m", "3"]], ids=["bi", "mono"]
)
@pytest.mark.parametrize("sigma", ["1e-200", "1e-320", "2e154"])
def test_crlb_sigma_out_of_range_exit_code(capsys, topology, sigma):
    """``crlb --sigma`` takes the sweep's rule: a sigma whose sigma^2 / L
    underflows (it used to print an all-zero bound) or overflows exits 2."""
    code, out, err = run_cli(capsys, "crlb", "--topology", *topology, "--sigma", sigma)
    assert code == 2
    assert out == ""
    assert "sigma must lie in [" in err


def test_sweep_cli_cube_beyond_the_range_limit_exit_code(tmp_path, capsys):
    """A localization cube of 1e40 m exits 2 at the config check and names
    the accepted cube_side; it used to fail in its first chunk with a
    message about delays that the config never gave."""
    config = tmp_path / "cube.cfg"
    config.write_text(
        "experiment = localization\nkind = bistatic\nm = 4\nn = 3\ntrials = 16\n"
        "cube_side = 1e40\n"
    )
    out = tmp_path / "x.csv"
    code, _, err = run_cli(capsys, "sweep", "--config", str(config), "--out", str(out))
    assert code == 2
    assert "cube_side must be below 9.823e+37 m" in err
    assert not out.exists()


def test_sweep_cli_tiny_cube_runs(tmp_path, capsys):
    """A localization cube of 1e-12 m runs: the solvers work in scene
    units, so no cube is too small for their tolerances.  It used to exit 2
    at a cube floor of 1e-6 m."""
    config = tmp_path / "cube.cfg"
    config.write_text(
        "experiment = localization\nkind = monostatic\nm = 6\ntrials = 16\n"
        "cube_side = 1e-12\n"
    )
    out = tmp_path / "x.csv"
    code, _, err = run_cli(capsys, "sweep", "--config", str(config), "--out", str(out))
    assert (code, err) == (0, "")
    assert len(out.read_text().splitlines()) == 1 + 2 * 2 * len(DEFAULT_SIGMA_GRID)


@pytest.mark.parametrize(
    "anchors",
    [1e100 * np.random.default_rng(5).random((5, 3)), 1e100 * np.vstack([np.zeros(3), np.eye(3)])],
    ids=["random", "tetrahedron"],
)
def test_localize_anchors_beyond_the_range_limit_exit_code(tmp_path, capsys, anchors):
    """Monostatic anchors near 1e100 m with delays of 100 ns exit 2 and name
    the accepted range.  Random anchors used to print nan,nan,nan,nan with
    exit 0, and an axis-aligned tetrahedron to exit 3 for "coplanar
    anchors": the solvers' sums of squared coordinates overflowed."""
    scene = Scene(topo=Topology.monostatic(len(anchors)), tx=anchors, tag=anchors.mean(axis=0))
    scene_path, toa_path = _localize_files(tmp_path, scene, np.full((len(anchors),) * 2, 1e-7))
    code, out, err = run_cli(capsys, "localize", "--scene", scene_path, "--toa", toa_path)
    assert code == 2
    assert out == ""
    assert "anchor coordinates must be finite and below 2^128 m" in err


def test_sweep_cli_under_determined_localization_exit_code(tmp_path, capsys):
    """A bistatic 2x2 matrix holds 3 independent range sums: too few."""
    config = tmp_path / "loc.cfg"
    config.write_text(
        "experiment = localization\nkind = bistatic\nm = 2\nn = 2\n"
        "pilot_lengths = 2\nsigma_grid = 1e-10\ntrials = 512\nmaster_seed = 77\n"
    )
    out = tmp_path / "x.csv"
    code, _, err = run_cli(capsys, "sweep", "--config", str(config), "--out", str(out))
    assert code == 2
    assert "error" in err
    assert not out.exists()


def test_localize_bistatic_2x2_exit_code(tmp_path, capsys):
    scene = random_scene(Topology.bistatic(2, 2), 10.0, noise_rng(6, 0))
    scene_path, toa_path = _localize_files(tmp_path, scene)
    code, out, err = run_cli(capsys, "localize", "--scene", scene_path, "--toa", toa_path)
    assert code == 2
    assert out == ""
    assert "error" in err


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


def test_sweep_cli_singular_geometry_names_the_grid_point(tmp_path, capsys):
    """A localization sweep leaves the scenes with no fix out of its RMSE
    and writes a no_fix row per method with their count, exit 0; both
    configs used to exit 3.  Bistatic: range noise swamps the cube, and the
    rank test reads the noisy range sums.  Monostatic 4 at seed 0: chunk 111
    holds one coplanar scene, left out of both rows.  A grid point where no
    scene has a fix exits 3, and the message names the grid point."""
    config = tmp_path / "noisy.cfg"
    out = tmp_path / "x.csv"

    def no_fix_rows(text):
        config.write_text(text)
        argv = ("sweep", "--config", str(config), "--out", str(out), "--workers", "1")
        assert run_cli(capsys, *argv) == (0, "", "")
        rows = [line.split(",") for line in out.read_text().splitlines()]
        return [(row[2], row[4], row[5]) for row in rows if row[3] == "no_fix"]

    assert no_fix_rows(
        "experiment = localization\nkind = bistatic\nm = 4\nn = 3\npilot_lengths = 2\n"
        "sigma_grid = 1e-4\ntrials = 512\nmaster_seed = 11\n"
    ) == [("ls", f"{157.0:.17e}", ""), ("proposed", f"{157.0:.17e}", "")]
    assert no_fix_rows(
        "experiment = localization\nkind = monostatic\nm = 4\npilot_lengths = 2\n"
        f"sigma_grid = 1e-9\ntrials = {112 * 512}\nmaster_seed = 0\n"
    ) == [("ls", f"{1.0:.17e}", ""), ("proposed", f"{1.0:.17e}", "")]
    out.unlink()
    config.write_text(
        "experiment = localization\nkind = bistatic\nm = 4\nn = 3\npilot_lengths = 2\n"
        "sigma_grid = 1e-4\ntrials = 1\nmaster_seed = 1\n"
    )
    code, _, err = run_cli(capsys, "sweep", "--config", str(config), "--out", str(out))
    assert (code, err) == (3, "error: no scene has a fix at sigma = 0.0001 s, L = 2\n")
    assert not out.exists()


def test_reader_closing_the_pipe_early_exits_zero():
    """A reader that takes the first bytes and closes the pipe (as ``head
    -c 20`` does) ends the command with exit 0 and nothing on stderr; the
    30x30 projector's ~20 MB of CSV cannot fit in the pipe's buffer."""
    paths = (str(Path(bstoa.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    argv = ["gen-matrix", "--topology", "bi", "--m", "30", "--n", "30", "--which", "b"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "bstoa.cli", *argv],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    head = proc.stdout.read(20)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0
    assert err == b""
    assert head.startswith(b"6.5555555555555")


@pytest.mark.parametrize("content", ["", "# no data\n"], ids=["empty", "comment-only"])
@pytest.mark.parametrize("command", ["estimate", "localize"])
def test_csv_with_no_data_exit_code(tmp_path, capsys, command, content):
    """An observations or delay CSV with no data is bad input: exit 2 with
    one error line, and no numpy warning on stderr (under the project's
    warnings-as-errors, no exception out of ``main``)."""
    empty = tmp_path / "empty.csv"
    empty.write_text(content)
    if command == "estimate":
        argv = ["estimate", "--topology", "bi", "--m", "2", "--n", "2", "--input", str(empty)]
        what = "observations"
    else:
        scene = random_scene(Topology.bistatic(4, 3), 10.0, noise_rng(5, 5))
        scene_path, _ = _localize_files(tmp_path, scene)
        argv = ["localize", "--scene", scene_path, "--toa", str(empty)]
        what = "delays"
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {what} in {empty}: the file holds no data\n"


_CELLS = st.one_of(
    st.floats(-1e-6, 1e-6).map(repr), st.sampled_from(["nan", "inf", "-1e300", "x", ""])
)
# CSV text: rows of up to 6 cells, not always of one length, or no rows.
_CSV_TEXTS = st.lists(
    st.lists(_CELLS, min_size=1, max_size=6).map(",".join), max_size=8
).map(lambda rows: "".join(row + "\n" for row in rows))
_TOPOLOGY_ARGS = st.builds(
    lambda topology, m, n: ["--topology", topology, "--m", m, *([] if n is None else ["--n", n])],
    st.sampled_from(["bi", "mono"]),
    st.sampled_from(["2", "1", "3", "4", "6", "0", "-1"]),
    st.none() | st.sampled_from(["2", "1", "3", "6", "0"]),
)
_METHOD_ARGS = st.sampled_from([[], ["--method", "ls"], ["--method", "proposed"]])


@st.composite
def _scene_files(draw):
    """A scene record, possibly with a line dropped or a coordinate spoilt,
    and a delay CSV: the scene's true delays plus noise, or any CSV text."""
    kind = draw(st.sampled_from([Kind.BISTATIC, Kind.MONOSTATIC]))
    counts = st.sampled_from([4, 3, 6, 1])
    m = draw(counts)
    topo = Topology(kind, m, m if kind is Kind.MONOSTATIC else draw(counts))
    cube_side = draw(st.sampled_from([1e-3, 10.0, 1e6]))
    scene = random_scene(topo, cube_side, noise_rng(draw(st.integers(0, 99)), 0))
    lines = scene.to_text().splitlines()
    edit = draw(st.sampled_from(["none", "drop", "nan"]))
    index = draw(st.integers(0, len(lines) - 1))
    if edit == "drop":
        del lines[index]
    elif edit == "nan":
        key, _, value = lines[index].partition("=")
        lines[index] = f"{key}=nan{value[value.find(','):] if ',' in value else ''}"
    noise = draw(st.sampled_from([0.0, 1e-9, 1e-6]))
    t = true_delays(scene.tx, scene.rx, scene.tag, scene.delta)
    t += noise * noise_rng(1, 1).standard_normal((topo.m, topo.n))
    delays = "".join(",".join(repr(float(x)) for x in row) + "\n" for row in t)
    toa = draw(st.just(delays) | _CSV_TEXTS)
    return "\n".join(lines) + "\n", toa


# Sweep configs, n absent (n = m) half the time; the last value in each of
# the last three lists is invalid.
_SWEEP_CONFIGS = st.builds(
    "experiment = {}\nkind = {}\nm = {}\n{}trials = {}\nsigma_grid = {}\npilot_lengths = {}\n".format,
    st.sampled_from(["mse", "crlb", "localization"]),
    st.sampled_from(["bistatic", "monostatic"]),
    st.sampled_from(["4", "6", "2", "1"]),
    st.sampled_from(["", "n = 3\n"]),
    st.sampled_from(["600", "64", "1", "0"]),
    st.sampled_from(["1e-9", "1e-9, 3e-9", "1e-5", "1e300"]),
    st.sampled_from(["2", "1, 8", "0"]),
)


@st.composite
def _cli_calls(draw):
    """argv of one subcommand drawn from the parser's grammar, each value
    one that its argparse type accepts, and the files it names: (argv,
    {file name: text})."""
    command = draw(st.sampled_from(["gen-matrix", "estimate", "crlb", "localize", "sweep"]))
    if command == "gen-matrix":
        return [command, *draw(_TOPOLOGY_ARGS), "--which", draw(st.sampled_from(["a", "b"]))], {}
    if command == "estimate":
        argv = [command, *draw(_TOPOLOGY_ARGS), "--input", "obs.csv", *draw(_METHOD_ARGS)]
        return argv, {"obs.csv": draw(_CSV_TEXTS)}
    if command == "crlb":
        sigma = draw(st.sampled_from(["1e-9", "1", "0", "-1e-9", "1e-160", "1e200", "nan", "inf"]))
        pilot = draw(st.sampled_from([[], *(["--pilot-len", k] for k in ("1", "8", "0"))]))
        return [command, *draw(_TOPOLOGY_ARGS), f"--sigma={sigma}", *pilot], {}
    if command == "localize":
        scene, toa = draw(_scene_files())
        argv = [command, "--scene", "scene.txt", "--toa", "toa.csv", *draw(_METHOD_ARGS)]
        return argv, {"scene.txt": scene, "toa.csv": toa}
    workers = draw(st.sampled_from(["1", "0"]))
    seed = draw(st.sampled_from([[], ["--seed", "7"]]))
    argv = [command, "--config", "sweep.cfg", "--out", "out.csv", "--workers", workers, *seed]
    return argv, {"sweep.cfg": draw(_SWEEP_CONFIGS)}


@settings(max_examples=40, deadline=None)
@given(call=_cli_calls())
def test_cli_exits_0_2_or_3_without_traceback_or_warning(call):
    """``main`` on argv drawn from the parser's grammar, with small drawn
    files, returns 0, 2 or 3, and its stderr holds neither a traceback nor
    a warning (warnings are errors here, so none escapes ``main``)."""
    argv, files = call
    with tempfile.TemporaryDirectory() as folder:
        for name, text in files.items():
            Path(folder, name).write_text(text)
        argv = [str(Path(folder, arg)) if arg in files or arg == "out.csv" else arg for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 2, 3), err.getvalue()
    assert "Traceback" not in err.getvalue() and "Warning" not in err.getvalue()
    assert (code == 0) == (err.getvalue() == "")
