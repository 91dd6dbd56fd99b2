"""The A/B tool, ``tools/ab.py``, on a copy of the package instead of a git
revision."""

import hashlib
import importlib.util
import shutil
import sys
from pathlib import Path

import pytest

import bstoa

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "ab.py"
_TINY = dict(
    experiment="localization", kind="bistatic", m=4, n=3, sigma_grid=(1e-9,),
    pilot_lengths=(2,), trials=64,
)


def _ab():
    spec = importlib.util.spec_from_file_location("ab", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def ab_and_copy(tmp_path, monkeypatch):
    """The tool and a copy of ``src/bstoa`` loaded by it as ``bstoa_copy``,
    dropped from ``sys.modules`` afterwards."""
    ab = _ab()
    shutil.copytree(Path(bstoa.__file__).parent, tmp_path / "bstoa_copy")
    monkeypatch.setattr(sys, "path", list(sys.path))
    try:
        yield ab, ab.load(tmp_path, "bstoa_copy")
    finally:
        for name in [name for name in sys.modules if name.split(".")[0] == "bstoa_copy"]:
            del sys.modules[name]


def test_ab_loads_a_package_copy_and_compares_one_tiny_sweep(ab_and_copy, tmp_path):
    """The loader imports a copy of ``src/bstoa`` beside ``bstoa`` under
    another name, and one round of a tiny sweep runs on both sides, with
    one CSV sha256 and a ratio for the pair."""
    ab, copy = ab_and_copy
    assert copy is not bstoa
    assert Path(copy.__file__).parent == tmp_path / "bstoa_copy"
    assert copy.harness.SweepConfig is not bstoa.SweepConfig
    lines = []
    (result,) = ab.compare(copy, bstoa, [("tiny", _TINY)], rounds=1, out=lines.append)
    assert result["pairs"] == 1 and result["csv_equal_pairs"] == 1
    assert result["parent_sha256"] == result["change_sha256"]
    assert len(result["ratios"]) == 1 and result["ratios"][0] > 0.0
    assert result["parent_peak_mb"] > 0.0 and result["change_peak_mb"] > 0.0
    assert len(lines) == 1 and lines[0].startswith("tiny (workers=1): change/parent median")


def test_ab_points_runs_one_chunk_per_grid_point(ab_and_copy):
    """With ``points``, each grid point runs as its own 512-trial sweep at
    workers 1; a pair sums a round's point times, its hash covers the
    points' CSVs in grid order, and the result counts the pairs the change
    won and gives the parent's own interquartile range."""
    ab, copy = ab_and_copy
    sweep = dict(_TINY, sigma_grid=(1e-9, 3e-9))
    runs = ab.point_sweeps(bstoa, sweep)
    assert [(r["sigma_grid"], r["pilot_lengths"], r["trials"]) for r in runs] == [
        ((1e-9,), (2,), 512), ((3e-9,), (2,), 512),
    ]
    csvs = [bstoa.run_sweep(bstoa.SweepConfig(**r), workers=1).to_csv() for r in runs]
    lines = []
    (result,) = ab.compare(copy, bstoa, [("tiny", sweep)], rounds=2, out=lines.append, points=True)
    assert result["pairs"] == 2 and result["csv_equal_pairs"] == 2
    assert result["change_sha256"] == [hashlib.sha256("".join(csvs).encode()).hexdigest()]
    assert result["parent_sha256"] == result["change_sha256"]
    assert len(result["ratios"]) == 2 and 0 <= result["change_won_pairs"] <= 2
    assert result["parent_s_iqr"] >= 0.0
    assert len(lines) == 1 and lines[0].startswith("tiny, 2 points (workers=1): change/parent")
    assert "change faster in" in lines[0] and "parent IQR" in lines[0]
