"""The README's library example runs as written."""

import contextlib
import io
import math
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _library_example() -> str:
    """The fenced python block under the README's "Library example" heading."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library example\n", 1)[1]
    return re.search(r"```python\n(.*?)\n```", section, re.DOTALL).group(1)


def test_readme_library_example_runs():
    """It prints the refined per-entry MSE theory and the fix's error: a
    positive MSE and an error below a meter at sigma = 1 ns."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_library_example(), str(README), "exec"), {"__name__": "readme"})
    mse, error = (float(line) for line in out.getvalue().split())
    assert 0.0 < mse < 1e-18 / 8
    assert math.isfinite(error) and error < 1.0
