"""Workload process of the sweep benchmark: the three passes and the checks.

Run by ``run.py`` in a child interpreter whose BLAS and OpenMP pools are
pinned to one thread; prints one JSON object on its last stdout line.

(a) timed point sweeps, ``run_sweep(cfg, workers=1)``, tracing off, whole
    cycles of the workload's points until ``--seconds`` have passed; each
    sweep's time is scaled to nominal host speed by its leg's reference
    kernels (``speed.py``), which run before every sweep;
(b) one whole-grid ``bstoa sweep --workers 2`` per leg, three times;
(c) the same sweeps at ``--workers 1`` under the span tracer.
Every pass runs the workload's trials per grid point, so the rates of the
passes compare the same work.

Output checks (each one counts as an attempted operation):
  * MSE and CRLB ratio rows: |value / theory - 1| <= MSE_SIGMAS * sqrt(2/N).
    sqrt(2/N) is the relative standard error of one entry's mean squared
    error over N trials; the rows average several entries, so their true
    spread is smaller and the check is conservative.
  * cov_frob_rel_err rows: value <= FROB_FACTOR * sqrt((r + 1) / N) with
    r = m + n - 1, the expected relative Frobenius error of an N-sample
    covariance of a rank-r projector.
  * rmse rows: finite in every sweep.  Acceptance criterion 10 orders the
    methods, proposed <= ls + RMSE_TIE_M, at 10^4 trials per grid point;
    single point sweeps are too small for that (fix errors are heavy-tailed
    and 2-10% of 512-trial bistatic sweeps invert the order by chance), so
    the order is checked on the RMSE pooled over all cycles of the timed
    pass, and per-sweep inversions are only counted and reported.
  * the pass (b) CSV equals the pass (c) CSV byte for byte.

Self-time accounting of pass (c) (``accounting``): the spans' self times
must add up to the wall time of the whole traced pass, which is timed
around the loop over its ``bstoa sweep`` calls, within SELF_TIME_TOL; no
span may have negative self time; and no traced function may be left
unwrapped anywhere the tracer can see.  Work outside every span, such as a
call through a binding the tracer missed at the top of a call chain, opens
a gap.  Work in private helpers or in numpy called from a traced function
is that function's self time by definition, so no sum can find it; the
stale-binding scan is what guards the wrappers below the top.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(BENCH))

import bstoa  # noqa: E402
import bstoa.cli  # noqa: E402
from bstoa import ExperimentKind, Kind, SweepConfig, SweepRow, run_sweep  # noqa: E402
from bstoa.localization import MAX_ITERATIONS  # noqa: E402

from spans import LAYERS, Tracer  # noqa: E402
from speed import Speed  # noqa: E402
from workloads import WORKLOADS, Workload, config_text, derive_seed  # noqa: E402

MSE_SIGMAS = 5.0
FROB_FACTOR = 1.5
RMSE_TIE_M = 1e-6        # meters; the tie margin of acceptance criterion 10
SELF_TIME_TOL = 0.01     # share of the traced wall time
RATIO_METRICS = ("mse", "diag_mse", "offdiag_mse", "diag_bound_ratio", "offdiag_bound_ratio")
MIN_SAMPLES = 100        # point sweeps, so that >= 10 lie beyond p90
SPEED_WINDOW = 2         # sweeps on each side whose reference times scale a sweep
W2_REPEATS = 3           # workers=2 passes; the median rate is reported
GRID_SEED_BASE = 900_000  # derive_seed index of the first whole-grid sweep
WARMUP_SEED_BASE = 700_000


class Checks:
    """Tally of output checks; keeps the first few failures for the report."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def add(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(what)


def check_rows(
    rows: list[SweepRow], shape, trials: int, checks: Checks, where: str, pooled=None
) -> None:
    """Check one sweep's rows; add its squared RMSE sums to ``pooled``."""
    rmse: dict[tuple[float, int], dict[str, float]] = {}
    for row in rows:
        what = (
            f"{where} {shape.kind} {shape.m}x{shape.n} sigma={row.sigma:.3e} "
            f"L={row.pilot_len} {row.method} {row.metric}={row.value:.6g}"
        )
        if row.metric in RATIO_METRICS:
            bound = MSE_SIGMAS * math.sqrt(2.0 / trials)
            ratio = row.value / row.theory
            ok = math.isfinite(ratio) and abs(ratio - 1.0) <= bound
            checks.add(ok, f"{what} theory={row.theory:.6g}")
        elif row.metric == "cov_frob_rel_err":
            rank = shape.m + shape.n - 1
            bound = FROB_FACTOR * math.sqrt((rank + 1) / trials)
            ok = math.isfinite(row.value) and row.value <= bound
            checks.add(ok, f"{what} bound={bound:.4g}")
        elif row.metric == "rmse":
            rmse.setdefault((row.sigma, row.pilot_len), {})[row.method] = row.value
        else:
            checks.add(False, f"{what}: unknown metric")
    for (sigma, length), methods in rmse.items():
        ls, proposed = methods.get("ls", math.nan), methods.get("proposed", math.nan)
        checks.add(
            math.isfinite(ls) and math.isfinite(proposed),
            f"{where} {shape.kind} sigma={sigma:.3e} L={length} "
            f"rmse ls={ls:.9g} proposed={proposed:.9g}",
        )
        if pooled is not None:
            sums = pooled.setdefault((shape, sigma, length), [0.0, 0.0, 0, 0, 0])
            sums[0] += ls * ls * trials
            sums[1] += proposed * proposed * trials
            sums[2] += trials
            sums[3] += proposed > ls + RMSE_TIE_M
            sums[4] += 1


def check_order(pooled: dict, checks: Checks) -> tuple[int, int]:
    """Criterion 10's ordering on pooled RMSE; returns the per-sweep
    inversion count and the number of sweeps it was taken over."""
    for (shape, sigma, length), (sse_ls, sse_proposed, trials, _, _) in pooled.items():
        ls, proposed = math.sqrt(sse_ls / trials), math.sqrt(sse_proposed / trials)
        checks.add(
            proposed <= ls + RMSE_TIE_M,
            f"pooled {shape.kind} {shape.m}x{shape.n} sigma={sigma:.3e} L={length} over "
            f"{trials} trials: rmse ls={ls:.9g} proposed={proposed:.9g}",
        )
    return sum(v[3] for v in pooled.values()), sum(v[4] for v in pooled.values())


def rows_from_csv(text: str) -> list[SweepRow]:
    return [
        SweepRow(
            float(r["sigma"]), int(r["pilot_len"]), r["method"], r["metric"],
            float(r["value"]), float(r["theory"]) if r["theory"] else None,
            int(r["low_confidence"]),
        )
        for r in csv.DictReader(io.StringIO(text))
    ]


def point_config(shape, sigma: float, length: int, trials: int, master_seed: int) -> SweepConfig:
    return SweepConfig(
        experiment=ExperimentKind(shape.experiment), kind=Kind(shape.kind),
        m=shape.m, n=shape.n, pilot_lengths=(length,), sigma_grid=(sigma,),
        trials=trials, master_seed=master_seed,
    )


def attempt(cfg: SweepConfig):
    """``run_sweep`` at workers=1; a sweep that raises is reported and
    yields None."""
    try:
        return run_sweep(cfg, workers=1)
    except Exception:
        traceback.print_exc()
        return None


def timed_pass(work: Workload, seed: int, seconds: float, checks: Checks) -> dict:
    """Pass (a): whole cycles of point sweeps until ``seconds`` have passed
    and at least MIN_SAMPLES sweeps were made, after one untimed warm-up
    sweep per leg."""
    for leg in work.legs:
        sigma, length = leg.points()[0]
        attempt(point_config(
            leg.shape, sigma, length, work.trials, derive_seed(seed, WARMUP_SEED_BASE)
        ))
    points = work.points()
    speed = Speed(work.kernels())
    samples: list[float] = []
    legs = []        # the leg of each sample
    references = []  # kernel times just before each sample
    pooled: dict = {}
    trials = 0
    failed = 0
    cycle = 0
    begin = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        for k, (sigma, length, leg) in enumerate(points):
            cfg = point_config(
                leg.shape, sigma, length, work.trials,
                derive_seed(seed, cycle * len(points) + k),
            )
            reference = speed.sample()
            t0 = time.perf_counter()
            result = attempt(cfg)
            elapsed = time.perf_counter() - t0
            if result is None:
                failed += 1
                continue
            samples.append(elapsed)
            legs.append(leg)
            references.append(reference)
            trials += work.trials
            check_rows(result.rows, leg.shape, work.trials, checks, "point", pooled)
        cycle += 1
        now = time.perf_counter()
        enough = cycle * len(points) >= MIN_SAMPLES
        if enough and now - begin + (now - cycle_start) / 2.0 >= seconds:
            break
    wall = time.perf_counter() - begin
    inversions, compared = check_order(pooled, checks)
    factors = [
        speed.scale(references[max(0, i - SPEED_WINDOW): i + SPEED_WINDOW + 1], leg.kernels)
        for i, leg in enumerate(legs)
    ]
    ms = np.array(samples) * np.array(factors) * 1e3
    return {
        "attempted": cycle * len(points),
        "failed": failed,
        "trials": trials,
        "wall_s": wall,
        "sweep_s": sum(samples),
        "cycles": cycle,
        "speed": 1.0 / statistics.median(factors) if factors else math.nan,
        "trials_per_s": trials / (ms.sum() / 1e3),
        "point_ms_p50": float(np.percentile(ms, 50)) if samples else math.nan,
        "point_ms_p90": float(np.percentile(ms, 90)) if samples else math.nan,
        "samples": len(samples),
        "rmse_inversions": inversions,
        "rmse_compared": compared,
    }


def grid_pass(
    work: Workload, seed: int, workers: int, tag: str, run_dir: Path, tracer=None
) -> dict:
    """Passes (b) and (c): one ``bstoa sweep`` per leg over its whole grid.

    These rates are not scaled to nominal host speed: a one-process
    reference does not track a two-process pool, and the traced rate is
    compared only with the unscaled rate of pass (a).  The configs are
    written before the clock starts; ``wall_s`` covers the whole loop of
    ``bstoa sweep`` calls, so that the self-time accounting sees any work
    in it that no span covers."""
    failed = 0
    argvs, outs = [], []
    for i, leg in enumerate(work.legs):
        config = run_dir / f"{work.name}-{i}.cfg"
        config.write_text(config_text(leg.shape, leg.sigmas, leg.pilot_lengths, work.trials, 0))
        out = run_dir / f"{work.name}-{i}-{tag}.csv"
        out.unlink(missing_ok=True)
        argvs.append([
            "sweep", "--config", str(config), "--out", str(out),
            "--workers", str(workers), "--seed", str(derive_seed(seed, GRID_SEED_BASE + i)),
        ])
        outs.append(out)
    with tracer if tracer is not None else contextlib.nullcontext():
        begin = time.perf_counter()
        for argv in argvs:
            try:
                code = bstoa.cli.main(argv)
            except Exception:
                traceback.print_exc()
                code = None
            failed += code != 0
        wall = time.perf_counter() - begin
    csvs = [out.read_text(encoding="utf-8") if out.exists() else "" for out in outs]
    points = sum(len(leg.points()) for leg in work.legs)
    trials = points * work.trials
    return {
        "attempted": len(work.legs), "failed": failed, "csvs": csvs,
        "wall_s": wall, "trials": trials, "points": points, "trials_per_s": trials / wall,
    }


def layer_metrics(tracer: Tracer, traced: dict, rate_a: float, rate_b: float) -> dict:
    """Per-layer metrics of pass (c); rate_a and rate_b are the unscaled
    trial rates of passes (a) and (b)."""
    names = tracer.names
    kind, dur, own = tracer.self_times()
    calls = np.bincount(kind, minlength=len(names))
    inclusive = np.bincount(kind, weights=dur, minlength=len(names))
    self_time = np.bincount(kind, weights=own, minlength=len(names))

    def total(array, *fns):
        return float(sum(array[names.index(f)] for f in fns if f in names))

    def layer(array, prefix):
        return layer_total(names, array, prefix)

    trials, sweeps = traced["trials"], traced["attempted"]
    per_trial_us = 1e6 / trials
    builds = total(calls, "topology.weighting_matrix")
    # Loading the config file is the CLI's work even though the loader
    # lives in the harness module, so it is booked to the CLI.
    config_s = total(self_time, "harness.load_config", "harness.parse_config")
    iters = (
        np.concatenate(tracer.gn_iterations) if tracer.gn_iterations else np.zeros(0, np.int64)
    )
    singular = sum(
        1 for fn, exc in tracer.raised
        if fn.startswith("localization.") and exc == "SingularGeometry"
    )
    metrics = {
        "channel.stream_us": total(self_time, "channel.stream_rng") * per_trial_us,
        "channel.scene_us": total(self_time, "channel.random_scene") * per_trial_us,
        "channel.delays_us": total(self_time, "channel.true_delays") * per_trial_us,
        "channel.pilots_us": total(self_time, "channel.synth_observations") * per_trial_us,
        "channel.calls_per_trial": layer(calls, "channel") / trials,
        "estimator.ls_us": total(self_time, "estimator.ls_estimate") * per_trial_us,
        "estimator.refine_us": total(
            self_time, "estimator.refine_estimate", "estimator.refine_bistatic",
            "estimator.refine_monostatic",
        ) * per_trial_us,
        "estimator.calls_per_trial": layer(calls, "estimator") / trials,
        "topology.build_ms": (
            total(self_time, "topology.correlation_matrix", "topology.weighting_matrix")
            / builds * 1e3 if builds else 0.0
        ),
        "topology.builds_per_ktrial": builds / trials * 1e3,
        "topology.dense_mb": max(tracer.dense_bytes, default=0) / 1e6,
        "analysis.theory_ms": layer(inclusive, "analysis") / traced["points"] * 1e3,
        "localization.bi_fix_us":
            total(self_time, "localization.localize_bistatic_batch") * per_trial_us,
        "localization.mono_fix_us":
            total(self_time, "localization.localize_monostatic_batch") * per_trial_us,
        "localization.gn_iter_p50": float(np.percentile(iters, 50)) if iters.size else 0.0,
        "localization.gn_iter_p99": float(np.percentile(iters, 99)) if iters.size else 0.0,
        "localization.iter_cap_ratio":
            float((iters >= MAX_ITERATIONS).mean()) if iters.size else 0.0,
        "localization.singular_batches": float(singular),
        "harness.self_us": (layer(self_time, "harness") - config_s) * per_trial_us,
        "harness.trials_per_s_w2": rate_b,
        "harness.pool_speedup_w2": rate_b / rate_a,
        "cli.self_ms": (layer(self_time, "cli") + config_s) / sweeps * 1e3,
        "trace.overhead_ratio": rate_a / traced["trials_per_s"],
    }
    return metrics


def layer_total(names: list[str], array, prefix: str) -> float:
    """Sum of ``array`` over the traced functions of one layer."""
    return float(sum(v for f, v in zip(names, array) if f.startswith(prefix + ".")))


def accounting(tracer: Tracer, wall_s: float) -> dict:
    """Self-time accounting of a traced pass that took ``wall_s``."""
    kind, dur, own = tracer.self_times()
    self_sum = float(own.sum())
    gap = abs(self_sum - wall_s) / wall_s
    layer_self = np.bincount(kind, weights=own, minlength=len(tracer.names))
    return {
        "self_sum_s": self_sum,
        "traced_wall_s": wall_s,
        "gap": gap,
        "tolerance": SELF_TIME_TOL,
        "min_self_s": float(own.min()) if own.size else 0.0,
        "spans": int(dur.size),
        "stale_bindings": tracer.stale,
        "ok": bool(
            dur.size and gap <= SELF_TIME_TOL and own.min() > -1e-9 and not tracer.stale
        ),
        "layer_self_s": {
            prefix: layer_total(tracer.names, layer_self, prefix) for prefix in LAYERS
        },
    }


def host() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--run-dir", type=Path, required=True)
    parser.add_argument("--max-trials", type=int, default=None)
    args = parser.parse_args()
    if Path(bstoa.__file__).resolve().parent != (SRC / "bstoa").resolve():
        print(f"error: bstoa imported from {bstoa.__file__}, not {SRC}", file=sys.stderr)
        return 2
    work = WORKLOADS[args.workload]
    if args.max_trials:
        work = work.shrunk(args.max_trials)

    checks = Checks()
    timed = timed_pass(work, args.seed, args.seconds, checks)
    pooled_runs = [
        grid_pass(work, args.seed, 2, f"w2-{k}", args.run_dir)
        for k in range(W2_REPEATS)
    ]
    pooled = pooled_runs[0]
    for leg, text in zip(work.legs, pooled["csvs"]):
        check_rows(rows_from_csv(text), leg.shape, work.trials, checks, "grid")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    tracer = Tracer()
    traced = grid_pass(work, args.seed, 1, "w1", args.run_dir, tracer)
    for run in pooled_runs:
        for leg, b, c in zip(work.legs, run["csvs"], traced["csvs"]):
            shape = leg.shape
            checks.add(
                bool(b) and b == c,
                f"{shape.experiment} {shape.kind} {shape.m}x{shape.n}: "
                "workers=2 CSV differs from workers=1 CSV",
            )
    rate_w2 = statistics.median(run["trials_per_s"] for run in pooled_runs)
    rate_a = timed["trials"] / timed["sweep_s"]
    per_layer = layer_metrics(tracer, traced, rate_a, rate_w2)
    tracer.write_csv(str(args.run_dir / f"{work.name}.spans.csv"))

    passes = [timed, *pooled_runs, traced]
    attempted = sum(p["attempted"] for p in passes) + checks.attempted
    failed = sum(p["failed"] for p in passes) + checks.failed
    out = {
        "host": host(),
        "timed": timed,
        "w2_rates": [run["trials_per_s"] for run in pooled_runs],
        "w2_trials": pooled["trials"],
        "w2_repeats": W2_REPEATS,
        "peak_rss_mb": peak_rss_mb,
        "checks": {
            "attempted": checks.attempted, "failed": checks.failed,
            "failures": checks.failures, "mse_sigmas": MSE_SIGMAS,
            "frob_factor": FROB_FACTOR, "rmse_tie_m": RMSE_TIE_M,
        },
        "traced_trials": traced["trials"],
        "per_layer": per_layer,
        "accounting": accounting(tracer, traced["wall_s"]),
        "attempted": attempted,
        "failed": failed,
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
