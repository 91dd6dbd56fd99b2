"""The A/B tool, ``tools/ab.py``, on a copy of the package instead of a git
revision."""

import importlib.util
import shutil
import sys
from pathlib import Path

import bstoa

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "ab.py"


def _ab():
    spec = importlib.util.spec_from_file_location("ab", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ab_loads_a_package_copy_and_compares_one_tiny_sweep(tmp_path, monkeypatch):
    """The loader imports a copy of ``src/bstoa`` beside ``bstoa`` under
    another name, and one round of a tiny sweep runs on both sides, with
    one CSV sha256 and a ratio for the pair."""
    ab = _ab()
    shutil.copytree(Path(bstoa.__file__).parent, tmp_path / "bstoa_copy")
    monkeypatch.setattr(sys, "path", list(sys.path))
    try:
        copy = ab.load(tmp_path, "bstoa_copy")
        assert copy is not bstoa
        assert Path(copy.__file__).parent == tmp_path / "bstoa_copy"
        assert copy.harness.SweepConfig is not bstoa.SweepConfig
        sweep = dict(
            experiment="localization", kind="bistatic", m=4, n=3, sigma_grid=(1e-9,),
            pilot_lengths=(2,), trials=64,
        )
        lines = []
        (result,) = ab.compare(copy, bstoa, [("tiny", sweep)], rounds=1, out=lines.append)
    finally:
        for name in [name for name in sys.modules if name.split(".")[0] == "bstoa_copy"]:
            del sys.modules[name]
    assert result["pairs"] == 1 and result["csv_equal_pairs"] == 1
    assert result["parent_sha256"] == result["change_sha256"]
    assert len(result["ratios"]) == 1 and result["ratios"][0] > 0.0
    assert result["parent_peak_mb"] > 0.0 and result["change_peak_mb"] > 0.0
    assert len(lines) == 1 and lines[0].startswith("tiny (workers=1): change/parent median")
