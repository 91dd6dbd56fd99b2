"""Sweep benchmark of bstoa: end-to-end throughput and per-layer self time.

Usage, from the root of a checkout:

    python3 bench/run.py --workload mse-small --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 1

For each workload this script
  * times ``SETUP_REPEATS`` fresh interpreters that import bstoa, parse a
    config and finish a one-chunk sweep (``setup_s``, the median);
  * runs ``passes.py`` in a child interpreter, which makes the timed pass,
    the workers=2 pass and the traced pass and checks every output.

Children run with BLAS and OpenMP pinned to one thread: unpinned, OpenBLAS
spreads each small solve over every core and the figures measure the
scheduler (see README.md).  The report goes to stdout; the last line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``.  Only the standard library is used here.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
sys.path.insert(0, str(BENCH))

from workloads import SETUP_TRIALS, WORKLOADS, config_text, derive_seed  # noqa: E402

PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
SETUP_REPEATS = 7
SETUP_SEED_INDEX = 800_000  # derive_seed index of the first set-up sweep
BUDGET_S = 170.0  # wall-time limit of one workload, set-up included

END_TO_END = {
    "trials_per_s": "trials/s",
    "point_ms_p50": "ms",
    "point_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "channel.stream_us": "us",
    "channel.scene_us": "us",
    "channel.delays_us": "us",
    "channel.pilots_us": "us",
    "channel.calls_per_trial": "count",
    "estimator.ls_us": "us",
    "estimator.refine_us": "us",
    "estimator.calls_per_trial": "count",
    "topology.build_ms": "ms",
    "topology.builds_per_ktrial": "count",
    "topology.dense_mb": "MB",
    "analysis.theory_ms": "ms",
    "localization.bi_fix_us": "us",
    "localization.mono_fix_us": "us",
    "localization.gn_iter_p50": "count",
    "localization.gn_iter_p99": "count",
    "localization.iter_cap_ratio": "ratio",
    "localization.singular_batches": "count",
    "harness.self_us": "us",
    "harness.trials_per_s_w2": "trials/s",
    "harness.pool_speedup_w2": "ratio",
    "cli.self_ms": "ms",
    "trace.overhead_ratio": "ratio",
}

# A fresh interpreter imports bstoa from the checkout, parses the config
# given as argv[2] and runs it once, then prints when it was done and the
# speed scale factor from three runs of the reference kernels argv[4:].
# perf_counter reads CLOCK_MONOTONIC, which all processes share.
SETUP_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); import bstoa; "
    "bstoa.run_sweep(bstoa.parse_config(sys.argv[2]), workers=1); "
    "done = time.perf_counter(); sys.path.insert(0, sys.argv[3]); import speed; "
    "kernels = sys.argv[4:]; ref = speed.Speed(kernels); "
    "print(done, ref.scale([ref.sample() for _ in range(3)], kernels))"
)


def child(argv: list[str], deadline: float) -> str:
    """Run a pinned child interpreter to completion; return its stdout."""
    return subprocess.run(
        [sys.executable, *argv], env=dict(os.environ, **PINNED), cwd=ROOT, check=True,
        timeout=max(deadline - time.monotonic(), 1.0), stdout=subprocess.PIPE, text=True,
    ).stdout


def measure_setup(
    name: str, seed: int, repeats: int, max_trials: int | None, deadline: float
) -> list[float]:
    work = WORKLOADS[name]
    leg = work.legs[0]
    sigma, length = leg.points()[0]
    trials = min(SETUP_TRIALS, max_trials or SETUP_TRIALS)
    times = []
    for k in range(repeats):
        seed_k = derive_seed(seed, SETUP_SEED_INDEX + k)
        text = config_text(leg.shape, (sigma,), (length,), trials, seed_k)
        t0 = time.perf_counter()
        out = child(["-c", SETUP_CODE, str(SRC), text, str(BENCH), *leg.kernels], deadline)
        finished, factor = (float(x) for x in out.split())
        times.append((finished - t0) * factor)
    return times


def run_workload(name: str, seed: int, seconds: float, max_trials: int | None) -> dict:
    deadline = time.monotonic() + BUDGET_S
    setup = measure_setup(name, seed, 1 if max_trials else SETUP_REPEATS, max_trials, deadline)
    argv = [
        str(BENCH / "passes.py"), "--workload", name,
        "--seed", str(seed), "--seconds", str(seconds), "--run-dir", str(RUN_DIR),
    ]
    if max_trials:
        argv += ["--max-trials", str(max_trials)]
    result = json.loads(child(argv, deadline).strip().splitlines()[-1])
    timed = result["timed"]
    result["end_to_end"] = {
        "trials_per_s": timed["trials_per_s"],
        "point_ms_p50": timed["point_ms_p50"],
        "point_ms_p90": timed["point_ms_p90"],
        "setup_s": statistics.median(setup),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    result["setup_samples"] = len(setup)
    result["correct"] = result["failed"] == 0 and result["accounting"]["ok"]
    return result


def report(name: str, seed: int, r: dict) -> None:
    timed, e2e, checks, acc = r["timed"], r["end_to_end"], r["checks"], r["accounting"]
    samples = {
        "trials_per_s": (
            f"{timed['trials']} trials in {timed['cycles']} cycles; "
            f"unscaled {timed['trials'] / timed['sweep_s']:.6g}"
        ),
        "point_ms_p50": f"n={timed['samples']} point sweeps",
        "point_ms_p90": f"n={timed['samples']} point sweeps",
        "setup_s": f"median of n={r['setup_samples']} fresh interpreters",
        "peak_rss_mb": "ru_maxrss of the workload process before tracing",
    }
    print(f"== workload {name}  seed {seed}")
    print("host: " + "  ".join(f"{k}={v}" for k, v in r["host"].items()))
    print(
        f"end-to-end (timings scaled to nominal host speed; host ran at "
        f"{timed['speed']:.3f} of it in the timed pass):"
    )
    for key, unit in END_TO_END.items():
        print(f"  {key:<16} {e2e[key]:>14.6g} {unit:<9} ({samples[key]})")
    print(
        f"  {'trials_per_s_w2':<16} {r['per_layer']['harness.trials_per_s_w2']:>14.6g} "
        f"{'trials/s':<9} (unscaled, not bounded; median of {r['w2_repeats']} passes of "
        f"{r['w2_trials']} trials: " + ", ".join(f"{x:.6g}" for x in r["w2_rates"]) + ")"
    )
    print(
        f"output checks: {checks['attempted'] - checks['failed']} of {checks['attempted']} "
        f"passed (ratio rows |v/theory-1| <= {checks['mse_sigmas']}*sqrt(2/N); "
        f"cov_frob_rel_err <= {checks['frob_factor']}*sqrt((m+n)/N); "
        f"pooled rmse proposed <= ls + {checks['rmse_tie_m']} m; "
        "workers=2 CSV == workers=1 CSV)"
    )
    if timed["rmse_compared"]:
        print(
            f"  rmse order inverted in {timed['rmse_inversions']} of {timed['rmse_compared']} "
            "single point sweeps (counted, not failed; the order is checked on pooled RMSE)"
        )
    for failure in checks["failures"]:
        print(f"  FAILED {failure}")
    print(
        f"error_rate: {r['failed'] / r['attempted']:.6g} "
        f"({r['failed']} failed of {r['attempted']} attempted)"
    )
    print(
        f"per-layer (traced pass, {r['traced_trials']} trials; "
        "us values are self time per trial):"
    )
    for key, unit in PER_LAYER.items():
        print(f"  {key:<30} {r['per_layer'][key]:>14.6g} {unit}")
    print(
        f"self-time accounting: {acc['self_sum_s']:.4f} s over {acc['spans']} spans vs "
        f"traced wall {acc['traced_wall_s']:.4f} s, gap {acc['gap']:.3%} "
        f"(tolerance {acc['tolerance']:.0%}), unwrapped bindings "
        f"{acc['stale_bindings'] or 'none'}: {'ok' if acc['ok'] else 'REJECTED'}"
    )
    layers = acc["layer_self_s"].items()
    print("  layer self s: " + "  ".join(f"{k}={v:.4f}" for k, v in layers))


def main() -> int:
    parser = argparse.ArgumentParser(description="bstoa sweep benchmark")
    parser.add_argument("--workload", choices=list(WORKLOADS) + ["all"], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--max-trials", type=int, default=None,
        help="cap every sweep's trial count and set up once (smoke test sizes)",
    )
    args = parser.parse_args()
    if not (SRC / "bstoa" / "__init__.py").is_file():
        print(f"error: no bstoa package under {SRC}", file=sys.stderr)
        return 2
    RUN_DIR.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, args.max_trials)
        report(name, args.seed, results[name])

    units = PER_LAYER if args.trace else END_TO_END
    metrics = {}
    for name, r in results.items():
        values = r["per_layer"] if args.trace else r["end_to_end"]
        prefix = f"{name}." if len(results) > 1 else ""
        for key, unit in units.items():
            metrics[prefix + key] = {"value": values[key], "unit": unit}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
