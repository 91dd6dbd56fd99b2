"""The library line counter, ``tools/library_lines.py``."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "library_lines.py"

_SOURCE = '''"""A module docstring,
over two lines."""

# A comment.
import math


def f(x):
    """A function docstring."""

    # Another comment.
    total = (
        x
        + math.pi
    )
    return total
'''


def _tool():
    spec = importlib.util.spec_from_file_location("library_lines", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_leave_out_docstrings_comments_and_blank_lines(tmp_path, capsys):
    """Module and function docstrings, comments and blank lines count 0,
    and one statement written over three lines counts 3: the import, the
    def, the four lines of ``total`` and the return make 7.  The tool
    prints the total, then each module's count, largest first."""
    package = tmp_path / "src" / "bstoa"
    package.mkdir(parents=True)
    (package / "big.py").write_text(_SOURCE, encoding="utf-8")
    (package / "small.py").write_text("x = (\n    1,\n    2,\n)\n\n# done\n", encoding="utf-8")
    tool = _tool()
    assert tool.code_lines(_SOURCE) == 7
    assert tool.code_lines("y = 1 + (\n    2\n    + 3)\n") == 3
    assert tool.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "library code lines: 11"
    assert [line.split() for line in lines[1:]] == [["big.py", "7"], ["small.py", "4"]]


def test_a_closed_pipe_exits_zero_without_a_traceback(tmp_path):
    """The reader closes the pipe before the tool writes: the tool exits 0
    and writes nothing to stderr.  It used to print a ``BrokenPipeError``
    traceback and exit 1."""
    package = tmp_path / "src" / "bstoa"
    package.mkdir(parents=True)
    (package / "only.py").write_text(_SOURCE, encoding="utf-8")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, str(_TOOL), str(tmp_path)],
            stdout=write_end, stderr=subprocess.PIPE, timeout=60,
        )
    finally:
        os.close(write_end)
    assert done.stderr == b""
    assert done.returncode == 0
