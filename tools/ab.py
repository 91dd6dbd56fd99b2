"""Time the library of this checkout against the library of an earlier
revision, in one process, on the same sweeps.

Usage, from anywhere inside a checkout:

    python3 tools/ab.py PARENT_REV [--quick] [--workers W ...] [--json FILE]

``git archive PARENT_REV src/bstoa`` is extracted into a temporary
directory as the package ``bstoa_parent`` and imported beside ``bstoa``
from ``src/`` (every import inside the package is relative, so the renamed
tree imports as it is).  Each of 10 rounds (5 with ``--quick``) runs
every sweep once on each side, with the first side alternating from round
to round, so that slow drift of the host falls on both sides alike.  Per sweep and worker count it prints
the median and interquartile range of the change/parent wall-time ratio
over the pairs, each side's median seconds, whether every pair wrote CSVs
with one sha256 (and the hashes), and each side's ``tracemalloc`` peak in
this process, from one extra run a side outside the timed rounds; a pool's
workers are not traced.

The default sweeps are 10^4-trial default grids: localization bistatic 4x3
and 8x8 and monostatic 6, and mse and crlb bistatic 24x24; then a scaling
set of two sigma points of 4,096 trials at L = 2: localization bistatic
16x16 and 32x32 and monostatic 32, and mse and crlb bistatic 32x32.  They
run at workers 1 and 2 unless ``--workers`` says otherwise; a worker count
of ``None`` means one per CPU.  ``--quick`` runs small sweeps in a few
seconds, for CI.  ``--json`` also writes the results as JSON.  The tool uses
only ``git``, the standard library, numpy and the two packages; it reads no
network and nothing under ``bench/``.  It exits 0 whatever the ratios and
hashes, since a change may move them on purpose, and nonzero only if it
fails itself.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import subprocess
import sys
import tarfile
import tempfile
import time
import tracemalloc
from pathlib import Path
from types import ModuleType

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def _sweep(experiment: str, kind: str, m: int, n: int, **fields) -> tuple[str, dict]:
    """A sweep's name and its SweepConfig fields; omitted fields keep their
    defaults."""
    shape = f"{m}x{n}" if kind == "bistatic" else f"{m}"
    fields.update(experiment=experiment, kind=kind, m=m, n=n)
    return f"{experiment} {kind} {shape}", fields


_SCALING = dict(sigma_grid=(1e-9, 1e-8), pilot_lengths=(2,), trials=4096)
SWEEPS = (
    _sweep("localization", "bistatic", 4, 3),
    _sweep("localization", "bistatic", 8, 8),
    _sweep("localization", "monostatic", 6, 6),
    _sweep("mse", "bistatic", 24, 24),
    _sweep("crlb", "bistatic", 24, 24),
    _sweep("localization", "bistatic", 16, 16, **_SCALING),
    _sweep("localization", "bistatic", 32, 32, **_SCALING),
    _sweep("localization", "monostatic", 32, 32, **_SCALING),
    _sweep("mse", "bistatic", 32, 32, **_SCALING),
    _sweep("crlb", "bistatic", 32, 32, **_SCALING),
)
_QUICK = dict(sigma_grid=(1e-9, 1e-8), pilot_lengths=(2,), trials=1024)
QUICK_SWEEPS = (
    _sweep("localization", "bistatic", 4, 3, **_QUICK),
    _sweep("localization", "monostatic", 6, 6, **_QUICK),
    _sweep("mse", "bistatic", 8, 8, **_QUICK),
    _sweep("crlb", "bistatic", 8, 8, **_QUICK),
)


def extract(rev: str, root: Path, name: str = "bstoa_parent") -> Path:
    """Write the files of ``src/bstoa`` at git revision ``rev`` under
    ``root / name`` and return that directory."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev, "src/bstoa"],
        cwd=ROOT, check=True, capture_output=True,
    ).stdout
    package = root / name
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        for member in tar.getmembers():
            if member.isfile():
                path = package / Path(member.name).relative_to("src/bstoa")
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_bytes(tar.extractfile(member).read())
    return package


def load(root: Path, name: str) -> ModuleType:
    """Import the package directory ``root / name`` (a tree of
    ``src/bstoa``) as the package ``name``.  ``root`` goes on ``sys.path``,
    so a spawned pool worker finds the package too."""
    if str(root) not in sys.path:
        sys.path.insert(0, str(root))
    importlib.invalidate_caches()
    return importlib.import_module(name)


def run(package: ModuleType, fields: dict, workers: int | None) -> tuple[float, str]:
    """Seconds and CSV sha256 of one sweep with ``package``."""
    cfg = package.SweepConfig(**fields)
    gc.collect()
    begin = time.perf_counter()
    result = package.run_sweep(cfg, workers=workers)
    seconds = time.perf_counter() - begin
    return seconds, hashlib.sha256(result.to_csv().encode()).hexdigest()


def peak_mb(package: ModuleType, fields: dict, workers: int | None) -> float:
    """The ``tracemalloc`` peak of one sweep with ``package``, in MB."""
    gc.collect()
    tracemalloc.start()
    try:
        run(package, fields, workers)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def compare(
    parent: ModuleType, change: ModuleType, sweeps, rounds: int, workers=(1,), out=print
) -> list[dict]:
    """Interleaved rounds of ``sweeps`` at each worker count; one result
    dict per sweep and worker count, printed through ``out`` as it ends."""
    results = []
    for w in workers:
        for name, fields in sweeps:
            times = {"parent": [], "change": []}
            hashes = {"parent": [], "change": []}
            for r in range(rounds):
                sides = ("parent", "change") if r % 2 == 0 else ("change", "parent")
                for side in sides:
                    seconds, digest = run(parent if side == "parent" else change, fields, w)
                    times[side].append(seconds)
                    hashes[side].append(digest)
            ratios = np.array(times["change"]) / np.array(times["parent"])
            q1, median, q3 = np.percentile(ratios, [25, 50, 75])
            result = {
                "sweep": name,
                "workers": w,
                "pairs": rounds,
                "ratio_median": float(median),
                "ratio_q1": float(q1),
                "ratio_q3": float(q3),
                "parent_s_median": float(np.median(times["parent"])),
                "change_s_median": float(np.median(times["change"])),
                "ratios": [float(x) for x in ratios],
                "csv_equal_pairs": sum(a == b for a, b in zip(hashes["parent"], hashes["change"])),
                "parent_sha256": sorted(set(hashes["parent"])),
                "change_sha256": sorted(set(hashes["change"])),
                "parent_peak_mb": peak_mb(parent, fields, w),
                "change_peak_mb": peak_mb(change, fields, w),
            }
            results.append(result)
            out(
                f"{name} (workers={w}): change/parent median {median:.3f}, IQR {q1:.3f}-{q3:.3f} "
                f"over {rounds} pairs; {result['parent_s_median']:.3f} s -> "
                f"{result['change_s_median']:.3f} s; CSV equal in "
                f"{result['csv_equal_pairs']}/{rounds} pairs "
                f"(parent {' '.join(h[:16] for h in result['parent_sha256'])}, "
                f"change {' '.join(h[:16] for h in result['change_sha256'])}); tracemalloc peak "
                f"{result['parent_peak_mb']:.1f} MB -> {result['change_peak_mb']:.1f} MB"
            )
    return results


def _workers(text: str) -> int | None:
    return None if text == "None" else int(text)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_rev", help="the git revision to compare against, e.g. HEAD~1")
    parser.add_argument("--quick", action="store_true", help="small sweeps, a few seconds")
    parser.add_argument(
        "--workers", type=_workers, nargs="+", default=[1, 2], help="worker counts (None: per CPU)"
    )
    parser.add_argument("--json", type=Path, help="also write the results here")
    args = parser.parse_args(argv)
    rounds = 5 if args.quick else 10
    sys.path.insert(0, str(ROOT / "src"))
    change = importlib.import_module("bstoa")
    with tempfile.TemporaryDirectory() as tmp:
        extract(args.parent_rev, Path(tmp))
        parent = load(Path(tmp), "bstoa_parent")
        print(f"parent {args.parent_rev}: {Path(parent.__file__).parent}")
        print(f"change: {Path(change.__file__).parent}")
        sweeps = QUICK_SWEEPS if args.quick else SWEEPS
        results = compare(parent, change, sweeps, rounds, args.workers)
    if args.json:
        record = {"parent_rev": args.parent_rev, "results": results}
        args.json.write_text(json.dumps(record, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
