"""The README's library example runs as written, and every name that
``bstoa`` exports has a caller outside the tests."""

import collections
import contextlib
import io
import math
import pathlib
import re
import tokenize
import types

import bstoa

ROOT = pathlib.Path(__file__).resolve().parents[1]
README = ROOT / "README.md"

# Exported names that no library module, benchmark script or README example
# uses, each with the reason it stays in the package.
_UNCALLED_EXPORTS = {
    "theoretical_mse_independent":
        "the paper's MSE under independent noise; acceptance criterion 7 checks it",
    "STREAM_CONTRACT":
        "the README's reproducibility paragraph names it, and tests/contract.py replays "
        "the contract it numbers",
}


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


def _name_uses() -> collections.Counter:
    """How often each name appears as a NAME token in the library modules
    but ``__init__``, in ``bench/`` and in the README's library example,
    leaving out each definition's own name: the one after ``def`` or
    ``class``, and a target assigned at column 0.  Strings, docstrings and
    comments are not NAME tokens, so they do not count."""
    paths = [p for p in sorted((ROOT / "src" / "bstoa").glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((ROOT / "bench").glob("*.py"))
    sources = [p.read_text(encoding="utf-8") for p in paths] + [_library_example()]
    uses = collections.Counter()
    for source in sources:
        tokens = [
            tok for tok in tokenize.generate_tokens(io.StringIO(source).readline)
            if tok.type in (tokenize.NAME, tokenize.OP)
        ]
        for before, tok, after in zip([None, *tokens], tokens, [*tokens[1:], None]):
            defines = (before is not None and before.string in ("def", "class")) or (
                tok.start[1] == 0 and after is not None and after.string in ("=", ":")
            )
            if tok.type == tokenize.NAME and not defines:
                uses[tok.string] += 1
    return uses


def test_every_exported_name_has_a_caller_outside_the_tests():
    """A name that ``bstoa`` exports is used somewhere in the library, the
    benchmark or the README's example, or is listed with its reason in
    ``_UNCALLED_EXPORTS``; so a helper that only the tests call cannot
    join the package, and the list holds no name that has since found a
    caller."""
    exported = {
        name for name, obj in vars(bstoa).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
    }
    uses = _name_uses()
    assert {name for name in exported if not uses[name]} == set(_UNCALLED_EXPORTS)
