"""Deterministic Monte-Carlo sweeps over (sigma, pilot length) grids.

Experiments draw a fresh random scene per trial, estimate its delay matrix
with both estimators, and reduce per-trial statistics into CSV rows of the
fixed schema

    sigma,pilot_len,method,metric,value,theory,low_confidence

Reproducibility contract: trial i of grid point k draws from the counter
stream ``k * trials + i`` of the master seed, trials are processed in fixed
chunks, and chunk partials are reduced in chunk order, so output bytes do
not depend on the number of worker processes.

Config files are flat ``key = value`` text; lists are comma-separated.
Recognized keys mirror the SweepConfig fields: ``experiment`` (mse,
localization, crlb), ``kind`` (bistatic, monostatic), ``m``, ``n``,
``pilot_lengths``, ``sigma_grid``, ``trials``, ``cube_side``,
``master_seed``.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np

from . import analysis
from .channel import random_scene, stream_rng, synth_observations, true_delays
from .errors import ConfigInvalid, UnderDetermined
from .estimator import ls_estimate, refine_estimate
from .localization import localize_bistatic_batch, localize_monostatic_batch
from .topology import Kind, Topology

CHUNK_TRIALS = 512
LOW_CONFIDENCE_TRIALS = 1000

# 3 cm to 3 m ranging error at the speed of light; a declared, overridable
# default since no canonical grid exists.
DEFAULT_SIGMA_GRID = tuple(float(s) for s in np.logspace(-10.0, -8.0, 10))
DEFAULT_PILOT_LENGTHS = (2, 8)


class ExperimentKind(str, Enum):
    MSE = "mse"
    LOCALIZATION = "localization"
    CRLB = "crlb"


@dataclass(frozen=True)
class SweepConfig:
    experiment: ExperimentKind
    kind: Kind
    m: int
    n: int
    pilot_lengths: tuple[int, ...] = DEFAULT_PILOT_LENGTHS
    sigma_grid: tuple[float, ...] = DEFAULT_SIGMA_GRID
    trials: int = 10_000
    cube_side: float = 10.0
    master_seed: int = 0

    def __post_init__(self) -> None:
        try:
            self.topology
        except ValueError as exc:
            raise ConfigInvalid(str(exc)) from exc
        if self.trials < 1:
            raise ConfigInvalid(f"trials must be >= 1, got {self.trials}")
        if not (math.isfinite(self.cube_side) and self.cube_side > 0.0):
            raise ConfigInvalid(f"cube_side must be finite and > 0, got {self.cube_side}")
        if not self.pilot_lengths:
            raise ConfigInvalid("pilot_lengths must not be empty")
        if any(length < 1 for length in self.pilot_lengths):
            raise ConfigInvalid(f"pilot lengths must be >= 1, got {self.pilot_lengths}")
        if not self.sigma_grid:
            raise ConfigInvalid("sigma_grid must not be empty")
        if not all(math.isfinite(s) and s > 0.0 for s in self.sigma_grid):
            raise ConfigInvalid(f"sigma grid values must be finite and > 0, got {self.sigma_grid}")
        if any(b <= a for a, b in zip(self.sigma_grid, self.sigma_grid[1:])):
            raise ConfigInvalid("sigma grid must be strictly ascending")

    @property
    def topology(self) -> Topology:
        return Topology(self.kind, self.m, self.n)

    @property
    def grid_points(self) -> list[tuple[float, int]]:
        return [(s, length) for s in self.sigma_grid for length in self.pilot_lengths]


_CONFIG_KEYS = {
    "experiment",
    "kind",
    "m",
    "n",
    "pilot_lengths",
    "sigma_grid",
    "trials",
    "cube_side",
    "master_seed",
}


def parse_config(text: str) -> SweepConfig:
    """Parse the flat key = value config format."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        if not sep:
            raise ConfigInvalid(f"line {lineno}: expected key = value, got {stripped!r}")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigInvalid(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigInvalid(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value.strip()

    for required in ("experiment", "kind", "m"):
        if required not in raw:
            raise ConfigInvalid(f"missing required key {required!r}")
    try:
        experiment = ExperimentKind(raw["experiment"])
    except ValueError as exc:
        raise ConfigInvalid(f"unknown experiment {raw['experiment']!r}") from exc
    try:
        kind = Kind(raw["kind"])
    except ValueError as exc:
        raise ConfigInvalid(f"unknown topology kind {raw['kind']!r}") from exc

    def parse(key: str, conv: Callable, default):
        if key not in raw:
            return default
        try:
            return conv(raw[key])
        except ValueError as exc:
            raise ConfigInvalid(f"bad value for {key!r}: {raw[key]!r}") from exc

    def int_list(value: str) -> tuple[int, ...]:
        return tuple(int(x.strip()) for x in value.split(",") if x.strip())

    def float_list(value: str) -> tuple[float, ...]:
        return tuple(float(x.strip()) for x in value.split(",") if x.strip())

    m = parse("m", int, None)
    n = parse("n", int, m)
    return SweepConfig(
        experiment=experiment,
        kind=kind,
        m=m,
        n=n,
        pilot_lengths=parse("pilot_lengths", int_list, DEFAULT_PILOT_LENGTHS),
        sigma_grid=parse("sigma_grid", float_list, DEFAULT_SIGMA_GRID),
        trials=parse("trials", int, 10_000),
        cube_side=parse("cube_side", float, 10.0),
        master_seed=parse("master_seed", int, 0),
    )


def load_config(path: str) -> SweepConfig:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config(handle.read())


@dataclass(frozen=True)
class SweepRow:
    sigma: float
    pilot_len: int
    method: str
    metric: str
    value: float
    theory: float | None
    low_confidence: int


@dataclass
class SweepResult:
    config: SweepConfig
    rows: list[SweepRow] = field(default_factory=list)

    def sorted_rows(self) -> list[SweepRow]:
        return sorted(
            self.rows, key=lambda r: (r.sigma, r.pilot_len, r.method, r.metric)
        )

    def to_csv(self) -> str:
        lines = ["sigma,pilot_len,method,metric,value,theory,low_confidence"]
        for row in self.sorted_rows():
            theory = "" if row.theory is None else f"{row.theory:.17e}"
            lines.append(
                f"{row.sigma:.17e},{row.pilot_len},{row.method},{row.metric},"
                f"{row.value:.17e},{theory},{row.low_confidence}"
            )
        return "\n".join(lines) + "\n"

    def write_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(self.to_csv())


@dataclass(frozen=True)
class _ChunkTask:
    cfg: SweepConfig
    point_index: int
    sigma: float
    pilot_len: int
    start: int
    stop: int


def _chunk_tasks(cfg: SweepConfig) -> list[_ChunkTask]:
    tasks = []
    for point_index, (sigma, pilot_len) in enumerate(cfg.grid_points):
        for start in range(0, cfg.trials, CHUNK_TRIALS):
            stop = min(start + CHUNK_TRIALS, cfg.trials)
            tasks.append(_ChunkTask(cfg, point_index, sigma, pilot_len, start, stop))
    return tasks


def _execute(tasks: list[_ChunkTask], runner: Callable, workers: int | None) -> list:
    """Run chunk tasks, returning results in task order regardless of
    completion order; this keeps the floating-point reduction fixed."""
    if workers is None:
        workers = os.cpu_count() or 1
    if workers <= 1 or len(tasks) <= 1:
        return [runner(task) for task in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(runner, task) for task in tasks]
        return [future.result() for future in futures]


def _reduce_by_point(tasks, results) -> dict[int, dict]:
    accumulated: dict[int, dict] = {}
    for task, partial in zip(tasks, results):
        bucket = accumulated.setdefault(task.point_index, {})
        for key, value in partial.items():
            if key in bucket:
                bucket[key] = bucket[key] + value
            else:
                bucket[key] = value
    return accumulated


def _simulate_chunk(task: _ChunkTask):
    """Draw and estimate the chunk's trials as one batch.

    Trial i draws a fresh scene, then its noisy pilots, from counter stream
    ``point_index * trials + i``; the least squares estimates are stacked
    and refined in one ``(T, m, n)`` call.  Returns the stacked transmitter,
    receiver and tag positions, true delays, LS and refined estimates.
    """
    cfg = task.cfg
    topo = cfg.topology
    count = task.stop - task.start
    txs = np.empty((count, topo.m, 3))
    rxs = np.empty((count, topo.n, 3))
    tags = np.empty((count, 3))
    truths = np.empty((count, topo.m, topo.n))
    t_hats = np.empty((count, topo.m, topo.n))
    for offset, trial in enumerate(range(task.start, task.stop)):
        rng = stream_rng(cfg.master_seed, task.point_index * cfg.trials + trial)
        scene = random_scene(topo, cfg.cube_side, rng)
        truths[offset] = true_delays(scene)
        obs = synth_observations(truths[offset], task.pilot_len, task.sigma, rng)
        txs[offset] = scene.tx
        rxs[offset] = scene.rx
        tags[offset] = scene.tag
        t_hats[offset] = ls_estimate(obs, topo)
    return txs, rxs, tags, truths, t_hats, refine_estimate(t_hats, topo)


def _squares(err: np.ndarray) -> np.ndarray:
    return (err * err).sum(axis=0)


def _run_mse_chunk(task: _ChunkTask) -> dict:
    _, _, _, truths, t_hats, t_refs = _simulate_chunk(task)
    return {"sq_ls": _squares(t_hats - truths), "sq_proposed": _squares(t_refs - truths)}


def _run_crlb_chunk(task: _ChunkTask) -> dict:
    _, _, _, truths, _, t_refs = _simulate_chunk(task)
    err = t_refs - truths
    if task.cfg.kind is Kind.BISTATIC:
        # Column-major vec of each trial's error, one row per trial.
        flat = err.transpose(0, 2, 1).reshape(len(err), -1)
        return {"cov_proposed": flat.T @ flat}
    return {"sq_proposed": _squares(err)}


def _run_loc_chunk(task: _ChunkTask) -> dict:
    txs, rxs, tags, _, t_hats, t_refs = _simulate_chunk(task)
    if task.cfg.kind is Kind.BISTATIC:
        p_ls, _, _ = localize_bistatic_batch(t_hats, txs, rxs)
        p_ref, _, _ = localize_bistatic_batch(t_refs, txs, rxs)
    else:
        p_ls, _, _ = localize_monostatic_batch(t_hats, txs)
        p_ref, _, _ = localize_monostatic_batch(t_refs, txs)
    return {
        "sqerr_ls": ((p_ls - tags) ** 2).sum(),
        "sqerr_proposed": ((p_ref - tags) ** 2).sum(),
    }


def _offdiag_mean(matrix: np.ndarray) -> float:
    m = matrix.shape[0]
    return float((matrix.sum() - np.trace(matrix)) / (m * m - m))


def run_mse_sweep(cfg: SweepConfig, workers: int | None = None) -> SweepResult:
    """Empirical versus theoretical estimator MSE over the grid.

    Bistatic points emit one ``mse`` row per method (mean over entries);
    monostatic points emit ``diag_mse`` and ``offdiag_mse`` rows.
    """
    if cfg.experiment is not ExperimentKind.MSE:
        raise ConfigInvalid(f"config is for {cfg.experiment.value!r}, not 'mse'")
    topo = cfg.topology
    tasks = _chunk_tasks(cfg)
    by_point = _reduce_by_point(tasks, _execute(tasks, _run_mse_chunk, workers))
    flag = int(cfg.trials < LOW_CONFIDENCE_TRIALS)
    result = SweepResult(config=cfg)
    for point_index, (sigma, pilot_len) in enumerate(cfg.grid_points):
        sums = by_point[point_index]
        sigma0_sq = sigma**2 / pilot_len
        theory_ref = analysis.theoretical_mse_iid(topo, sigma0_sq).per_entry_mse
        per_entry = {
            "ls": sums["sq_ls"] / cfg.trials,
            "proposed": sums["sq_proposed"] / cfg.trials,
        }
        theory = {"ls": np.full_like(theory_ref, sigma0_sq), "proposed": theory_ref}
        for method in ("ls", "proposed"):
            if topo.kind is Kind.MONOSTATIC and topo.m > 1:
                result.rows.append(
                    SweepRow(
                        sigma, pilot_len, method, "diag_mse",
                        float(np.trace(per_entry[method]) / topo.m),
                        float(theory[method][0, 0]), flag,
                    )
                )
                result.rows.append(
                    SweepRow(
                        sigma, pilot_len, method, "offdiag_mse",
                        _offdiag_mean(per_entry[method]),
                        float(theory[method][0, 1]), flag,
                    )
                )
            else:
                result.rows.append(
                    SweepRow(
                        sigma, pilot_len, method, "mse",
                        float(per_entry[method].mean()),
                        float(theory[method][0, 0]), flag,
                    )
                )
    return result


def run_localization_sweep(cfg: SweepConfig, workers: int | None = None) -> SweepResult:
    """Positioning RMSE over the grid for both estimators.

    RMSE rows carry no theory value; there is no closed form for it.
    """
    if cfg.experiment is not ExperimentKind.LOCALIZATION:
        raise ConfigInvalid(
            f"config is for {cfg.experiment.value!r}, not 'localization'"
        )
    topo = cfg.topology
    if topo.kind is Kind.BISTATIC and topo.mn < 4:
        raise UnderDetermined(f"{topo.mn} range sums cannot fix a 3D position")
    if topo.kind is Kind.MONOSTATIC and topo.m < 4:
        raise UnderDetermined(f"{topo.m} ranges cannot fix a 3D position")
    tasks = _chunk_tasks(cfg)
    by_point = _reduce_by_point(tasks, _execute(tasks, _run_loc_chunk, workers))
    flag = int(cfg.trials < LOW_CONFIDENCE_TRIALS)
    result = SweepResult(config=cfg)
    for point_index, (sigma, pilot_len) in enumerate(cfg.grid_points):
        sums = by_point[point_index]
        for method in ("ls", "proposed"):
            rmse = float(np.sqrt(sums[f"sqerr_{method}"] / cfg.trials))
            result.rows.append(
                SweepRow(sigma, pilot_len, method, "rmse", rmse, None, flag)
            )
    return result


def run_crlb_check(cfg: SweepConfig, workers: int | None = None) -> SweepResult:
    """Empirical error statistics of the refined estimator against the
    Cramer-Rao bound.

    Bistatic points emit the Frobenius relative error between the empirical
    error covariance and the bound matrix (ideal value 0); monostatic points
    emit the mean diagonal and off-diagonal MSE over their bound values
    (ideal value 1).
    """
    if cfg.experiment is not ExperimentKind.CRLB:
        raise ConfigInvalid(f"config is for {cfg.experiment.value!r}, not 'crlb'")
    topo = cfg.topology
    tasks = _chunk_tasks(cfg)
    by_point = _reduce_by_point(tasks, _execute(tasks, _run_crlb_chunk, workers))
    flag = int(cfg.trials < LOW_CONFIDENCE_TRIALS)
    result = SweepResult(config=cfg)
    for point_index, (sigma, pilot_len) in enumerate(cfg.grid_points):
        sums = by_point[point_index]
        if topo.kind is Kind.BISTATIC:
            bound = analysis.crlb_bistatic(topo, sigma**2, pilot_len).covariance_bound
            emp = sums["cov_proposed"] / cfg.trials
            rel = float(np.linalg.norm(emp - bound) / np.linalg.norm(bound))
            result.rows.append(
                SweepRow(
                    sigma, pilot_len, "proposed", "cov_frob_rel_err", rel, 0.0, flag
                )
            )
        else:
            bounds = analysis.crlb_monostatic(topo, sigma**2, pilot_len).subchannel_bounds
            emp = sums["sq_proposed"] / cfg.trials
            result.rows.append(
                SweepRow(
                    sigma, pilot_len, "proposed", "diag_bound_ratio",
                    float(np.trace(emp) / np.trace(bounds)), 1.0, flag,
                )
            )
            if topo.m > 1:
                result.rows.append(
                    SweepRow(
                        sigma, pilot_len, "proposed", "offdiag_bound_ratio",
                        _offdiag_mean(emp) / _offdiag_mean(bounds), 1.0, flag,
                    )
                )
    return result


def run_sweep(cfg: SweepConfig, workers: int | None = None) -> SweepResult:
    """Dispatch on the configured experiment kind."""
    if cfg.experiment is ExperimentKind.MSE:
        return run_mse_sweep(cfg, workers=workers)
    if cfg.experiment is ExperimentKind.LOCALIZATION:
        return run_localization_sweep(cfg, workers=workers)
    return run_crlb_check(cfg, workers=workers)
