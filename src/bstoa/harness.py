"""Deterministic Monte-Carlo sweeps over (sigma, pilot length) grids.

Each trial estimates a noisy delay matrix with both estimators, over a
fresh random scene (localization) or over the noise alone (mse, crlb), and
per-trial statistics are reduced into CSV rows of the fixed schema

    sigma,pilot_len,method,metric,value,theory,low_confidence

Reproducibility contract (stream contract v11, ``STREAM_CONTRACT``): the
trials of each grid point are cut into ``chunks = ceil(trials /
CHUNK_TRIALS)`` fixed chunks, and chunk c of the sweep, counted
point-major, draws from stream c of the master seed, the SFC64 generator
``channel.noise_rng(master_seed, c)``.  So chunk c holds trials ``(c %
chunks) * CHUNK_TRIALS`` onwards of grid point ``c // chunks``, and that
index is the only handle a sweep passes around.  ``_open_chunk`` is the
contract's one reader: it turns c into the chunk's stream, its grid
point's sigma and pilot length and its trial count, and both chunk
runners begin with it.  The LS estimate of a delay is the mean of L iid
N(t, sigma^2) pilots, which is exactly N(t, sigma^2 / L), so the LS error
is ``(sigma / sqrt(L)) z`` for an ``(m, n)`` plane z of standard normals
a trial.  Both estimators are linear and every true delay matrix lies in
the outer-sum subspace, which the projection leaves fixed, so the refined
error is exactly the projection of the LS error, an outer sum of z's row
means and column means less its grand mean; no chunk builds a delay or
estimate matrix.

No chunk draws z.  A trial's rows read z only through k standard normals,
a linear map of z, and a chi-square, and each topology has one such map,
shared by every experiment: k = m + n for bistatic, z's row means and
column means less its grand mean (Cochran's theorem; see
``_run_noise_chunk`` and ``_bistatic_statistics``); k = 2 m for
monostatic, z's diagonal and what its symmetric part adds to the row and
column sums (``_monostatic_statistics``).

* A localization chunk first draws the unit coordinates of all its
  scenes, a row of tx, then rx if bistatic, then tag per trial, then one
  ``(k, trials)`` normal array.  Its solvers read per-anchor terms only:
  the true ranges ``|anchor - tag|`` plus the noise, in the sweep's scene
  unit, the power of two at or above cube_side
  (``localization._unit_at_or_above``, ``_loc_terms``).
* An mse or crlb chunk draws no scene: the scene would add only rounding.
  Its rows are quadratic forms of its trials' k normals, so it draws only
  their sum of outer products, Wishart over its T trials, as one Bartlett
  factor: a ``(k, min(k, T))`` normal draw and a gamma vector
  (``_bartlett_factor``), then for mse one chi-square; O(k^2) values, not
  k T (k = 1 for a 1x1 monostatic chunk, which reads only z's diagonal).

v11 changed the bistatic localization CSVs and no other.

A grid point's partials, chunks ``point * chunks`` to ``(point + 1) *
chunks - 1``, are added in chunk order, so output bytes do not depend on
the number of worker processes, nor on whether a pool runs at all.  A
single localization trial is reproduced by replaying its chunk; an mse or
crlb chunk replays as its Bartlett factor, whose columns stand for its
trials.  A chunk keeps its trials (or those columns) on the last,
contiguous axis of every array, so its sums act on whole ``(k, trials)``
planes.

``workers`` (None: one per CPU) caps the processes a sweep may use, and a
pool opens only when it pays: the first two chunks run in this process,
the second timed, and only when that time times the chunks left exceeds
the break-even ``_POOL_BREAK_EVEN_S``, measured on a 2-core host, do the
rest go to a ``ProcessPoolExecutor``, as contiguous runs of chunks.  Until
then ``concurrent.futures`` and ``multiprocessing`` are not imported.
Every path runs its chunks through ``_run_chunks``, and a pool run comes
back as its chunks' partials, in chunk order.

``run_sweep`` is the entry point: it runs any of the three experiments
(estimator MSE, localization RMSE, CRLB check) through the same chunked
protocol and builds the rows from the per-point sums.  No experiment builds
an (m n) x (m n) matrix or a refined plane: each refined error is an outer
sum, so a localization chunk solves on per-anchor terms and an mse or crlb
chunk keeps its row/column coordinates' sum of outer products, an (m + n)
x (m + n) partial (m x m for monostatic), and the rows read the refined
squares and the CRLB check from it (``_refined_squares``, ``_crlb_rows``).
A localization scene with no fix, a bistatic one whose Gauss-Newton
matrix loses rank 3 or a monostatic one with coplanar anchors, is left
out of its point's RMSE, and the point adds a ``no_fix`` row with the
count; a point that left no scene out has no such row, so its bytes are
those of a sweep without the count.  Only a point where no scene has a
fix aborts the sweep, with ``SingularGeometry``.

``SweepConfig`` runs each field through the rule of the module that owns
it (``Topology`` for kind, m and n, ``errors`` for counts and grids,
``channel`` for cube_side, ``analysis.check_sigma`` for sigmas and pilot
lengths), and a failed rule is one ``ConfigInvalid`` that names the
experiment, ``<experiment> sweep: ...``.  It stores the ints and floats
those rules return, so a numpy scalar field (``np.float32``, ``np.int64``)
gives the sweep of its Python value.  It accepts a sigma only where
it is positive, ``sigma^2 / L`` is a positive normal float for every
pilot length L and the sweep's sums stay finite with ``_HEADROOM_SDS``
standard deviations of room (``analysis.check_sigma`` names the range),
so no row is computed from an underflowed variance or an overflowed sum;
nor does a row carry a subnormal theory value.  Its own checks, on
values that passed those rules, want distinct pilot lengths and a
non-empty, strictly ascending sigma grid.  A localization sweep needs at
least 4 independent ranges (m + n - 1 for bistatic, m for monostatic),
and keeps its cube's longest range sum, ``2 sqrt(3) cube_side``, plus
``_HEADROOM_SDS`` deviations of range noise below the solvers'
``RANGE_LIMIT`` in meters and in scene units.  Any cube_side below that
bound runs: the solvers work in scene units, so a sweep's rows scale
with its cube, exactly when sigma scales by the same power of two.

Config files are flat ``key = value`` text; lists are comma-separated.
Recognized keys are the SweepConfig fields: ``experiment`` (mse,
localization, crlb), ``kind`` (bistatic, monostatic), ``m``, ``n``,
``pilot_lengths``, ``sigma_grid``, ``trials``, ``cube_side``,
``master_seed``.
"""

from __future__ import annotations

import functools
import math
import operator
import os
import sys
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np

from . import analysis
from .analysis import check_sigma
from .channel import SPEED_OF_LIGHT, _HEADROOM_SDS, _ranges, _read_record, _require_cube_side
from .channel import noise_rng
from .errors import ConfigInvalid, InvalidValue, NonFiniteInput, SingularGeometry
from .errors import _require_integer, _require_sequence
from .localization import RANGE_LIMIT, _fix_bistatic, _fix_monostatic, _unit_at_or_above
from .topology import Kind, Topology

CHUNK_TRIALS = 512
# Bumped whenever the draws behind a sweep's CSV change (module docstring;
# tests/contract.py replays them).
STREAM_CONTRACT = 11
LOW_CONFIDENCE_TRIALS = 1000
# Work left after the timed chunk (its seconds times the chunks left) above
# which a sweep with more than one worker opens a process pool.  On a 2-core
# host a two-worker pool broke even with the in-process loop at 65-85 ms of
# it on mse, crlb and localization sweeps, and won in 9 to 14 of 15 pairs at
# 90-110 ms (the scan is in CHANGES.md).
_POOL_BREAK_EVEN_S = 0.1
# Contiguous runs of chunks per pool worker: a few per worker even out
# unequal runs, and each run is one task, so few runs keep the IPC small.
_RUNS_PER_WORKER = 4

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
    # Built once by __post_init__, as every chunk reads them.
    topology: Topology = field(init=False, repr=False, compare=False)
    grid_points: tuple[tuple[float, int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        try:
            experiment = ExperimentKind(self.experiment)
        except ValueError as exc:
            raise ConfigInvalid(f"unknown experiment {self.experiment!r}") from exc
        object.__setattr__(self, "experiment", experiment)
        # Each field goes through the rule of the module that owns it, and
        # a failed rule is one ConfigInvalid; the sweep's own checks raise
        # ConfigInvalid themselves and pass through.
        try:
            topo = Topology(self.kind, self.m, self.n)
            trials = _require_integer(self.trials, "trials", low=1)
            seed = _require_integer(self.master_seed, "master_seed")
            cube_side = _require_cube_side(self.cube_side)
            pilots = tuple(
                _require_integer(length, "pilot_len", low=1)
                for length in _require_sequence(self.pilot_lengths, "pilot_lengths")
            )
            sigmas = _require_sequence(self.sigma_grid, "sigma_grid")
            if experiment is ExperimentKind.LOCALIZATION:
                # The cube's longest range sum, 2 sqrt(3) cube_side, and
                # _HEADROOM_SDS deviations of range noise, c sigma / sqrt(L),
                # stay below the solvers' RANGE_LIMIT together, in meters and
                # in the scene unit of _loc_terms.
                longest = 2.0 * math.sqrt(3.0) * cube_side
                if not longest < RANGE_LIMIT:
                    raise ConfigInvalid(
                        "localization sweep: cube_side must be below "
                        f"{RANGE_LIMIT / (2.0 * math.sqrt(3.0)):.4g} m, so that range sums of "
                        f"up to 2 sqrt(3) cube_side stay below 2^128 m; got {cube_side!r}"
                    )
                room = RANGE_LIMIT * min(1.0, _unit_at_or_above(cube_side)) - longest
                limit = (room / (_HEADROOM_SDS * SPEED_OF_LIGHT)) ** 2
            else:
                # The largest sum a sweep forms, the LS energy over all its
                # trials and entries or a refined square's four terms, stays
                # finite with every value _HEADROOM_SDS deviations out.
                limit = sys.float_info.max / (4.0 * _HEADROOM_SDS**2 * trials * topo.mn)
            sigmas = tuple(check_sigma(sigma, pilots, limit) for sigma in sigmas)
            # Only values that passed check_sigma reach the sweep's checks.
            if not sigmas:
                raise ConfigInvalid("sigma_grid must not be empty")
            if len(set(pilots)) < len(pilots):
                raise ConfigInvalid(f"pilot lengths must be distinct, got {pilots}")
            if any(b <= a for a, b in zip(sigmas, sigmas[1:])):
                raise ConfigInvalid("sigma grid must be strictly ascending")
            # A bistatic m x n matrix holds m + n - 1 independent range sums.
            ranges = topo.m + topo.n - 1 if topo.kind is Kind.BISTATIC else topo.m
            if experiment is ExperimentKind.LOCALIZATION and ranges < 4:
                raise ConfigInvalid(f"{ranges} independent ranges cannot fix a 3D position")
            # Every theory value a row carries is a normal float too; the
            # smallest sigma and the longest pilot give the smallest.  mse
            # rows and monostatic crlb rows carry theoretical_mse_iid values.
            if experiment is ExperimentKind.MSE or (
                experiment is ExperimentKind.CRLB and topo.kind is Kind.MONOSTATIC
            ):
                analysis.theoretical_mse_iid(topo, sigmas[0] ** 2 / max(pilots))
        except (InvalidValue, NonFiniteInput) as exc:
            raise ConfigInvalid(f"{experiment.value} sweep: {exc}") from exc
        object.__setattr__(self, "topology", topo)
        object.__setattr__(self, "kind", topo.kind)
        object.__setattr__(self, "m", topo.m)
        object.__setattr__(self, "n", topo.n)
        object.__setattr__(self, "trials", trials)
        object.__setattr__(self, "master_seed", seed)
        object.__setattr__(self, "cube_side", cube_side)
        object.__setattr__(self, "pilot_lengths", pilots)
        object.__setattr__(self, "sigma_grid", sigmas)
        grid = tuple((s, length) for s in sigmas for length in pilots)
        object.__setattr__(self, "grid_points", grid)


def _list_of(conv: Callable) -> Callable[[str], tuple]:
    return lambda value: tuple(conv(x.strip()) for x in value.split(",") if x.strip())


# Config key -> converter from its text; the keys are the SweepConfig fields.
_CONFIG_FIELDS: dict[str, Callable[[str], object]] = {
    "experiment": ExperimentKind,
    "kind": Kind,
    "m": int,
    "n": int,
    "pilot_lengths": _list_of(int),
    "sigma_grid": _list_of(float),
    "trials": int,
    "cube_side": float,
    "master_seed": int,
}


def parse_config(text: str) -> SweepConfig:
    """Parse the flat key = value config format (``channel._read_record``).

    Absent keys take the SweepConfig defaults; ``n`` defaults to ``m``.
    """
    raw = _read_record(text)
    unknown = sorted(raw.keys() - _CONFIG_FIELDS.keys())
    if unknown:
        raise ConfigInvalid(f"config has unknown keys {unknown}")
    for required in ("experiment", "kind", "m"):
        if required not in raw:
            raise ConfigInvalid(f"missing required key {required!r}")
    values = {}
    for key, value in raw.items():
        try:
            values[key] = _CONFIG_FIELDS[key](value)
        except ValueError as exc:
            raise ConfigInvalid(f"bad value for {key!r}: {value!r}") from exc
    values.setdefault("n", values["m"])
    return SweepConfig(**values)


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


def _chunks_per_point(cfg: SweepConfig) -> int:
    return -(-cfg.trials // CHUNK_TRIALS)


def _open_chunk(cfg: SweepConfig, c: int) -> tuple[np.random.Generator, float, int, int]:
    """Chunk c's stream ``noise_rng(master_seed, c)``, its grid point's
    sigma and pilot length, and its trial count: the one reader of the
    stream contract (module docstring).  Chunks are counted point-major,
    ``_chunks_per_point`` to a grid point, and all but a point's last hold
    ``CHUNK_TRIALS`` trials."""
    point, index = divmod(c, _chunks_per_point(cfg))
    sigma, pilot_len = cfg.grid_points[point]
    count = min(CHUNK_TRIALS, cfg.trials - index * CHUNK_TRIALS)
    return noise_rng(cfg.master_seed, c), sigma, pilot_len, count


def _execute(cfg: SweepConfig, runner: Callable, workers: int | None) -> list:
    """Run ``runner(cfg, c)`` for every chunk c of the sweep, returning the
    partials in chunk order regardless of which process ran them; this
    keeps the floating-point reduction fixed.  Every path runs its chunks
    through ``_run_chunks``: all of them at once when no pool may open,
    else the two before the pool gate (module docstring) and then the rest,
    here or as the pool's runs.

    Of the two chunks run here before the gate, the first pays the
    process's one-off costs (numpy imports ``numpy.random`` on first use,
    ~14 ms), so the second is timed.  Each pool run carries its config and
    chunk function with its chunk bounds, so a config is pickled once per
    run, never per chunk, and no worker holds state between runs; a run
    comes back as its chunks' partials, in chunk order.
    """
    total = len(cfg.grid_points) * _chunks_per_point(cfg)
    if workers is None:
        workers = os.cpu_count() or 1
    run = functools.partial(_run_chunks, cfg, runner)
    # A pool needs two chunks left after the timed one to run any side by side.
    if workers <= 1 or total < 4:
        return run(0, total)
    results = run(0, 1)
    begin = time.perf_counter()
    results += run(1, 2)
    left = total - 2
    if (time.perf_counter() - begin) * left <= _POOL_BREAK_EVEN_S:
        return results + run(2, total)
    from concurrent.futures import ProcessPoolExecutor

    runs = min(left, _RUNS_PER_WORKER * workers)
    bounds = [2 + left * k // runs for k in range(runs + 1)]
    with ProcessPoolExecutor(min(workers, runs)) as pool:
        for partials in pool.map(run, bounds[:-1], bounds[1:]):
            results += partials
    return results


def _run_chunks(cfg: SweepConfig, runner: Callable, lo: int, hi: int) -> list:
    """The partials ``runner(cfg, c)`` of chunks ``lo`` to ``hi - 1``, in
    chunk order: the one place a chunk runs, in this process or as a pool
    run (``_execute``)."""
    return [runner(cfg, c) for c in range(lo, hi)]


def _run_noise_chunk(cfg: SweepConfig, c: int) -> dict:
    """The mse and crlb partial of chunk c, opened by ``_open_chunk``
    (its stream, grid point and trial count): ``rowcol``, the sum over trials
    of ``c c^T`` for the refined error's row/column coordinates c, and for
    mse ``sq_ls``, the LS errors' sum of squares (for bistatic its mean
    over entries; for monostatic its diagonal and off-diagonal totals),
    drawn at unit variance, scaled by sigma^2 / L.

    The refined error is the projection of the LS error (see the module
    docstring): for bistatic, ``c = [row means; column means - grand
    mean]`` (m + n values, refined entry ``c_i + c_{m+j}``); for monostatic
    the symmetrized entry is ``(c_i + c_j) / 2`` with ``c = row means +
    column means - grand mean`` (m values).

    No chunk draws the plane z, only the statistics its rows read.  The
    grand mean g, row effects alpha, column effects beta and doubly centred
    rest Qz of an iid N(0, 1) ``(m, n)`` plane are its projections onto
    orthogonal subspaces of dimension 1, m - 1, n - 1 and (m - 1)(n - 1),
    so they are independent standard normal vectors in their subspaces
    (Cochran's theorem): the row means ``r = g + alpha`` are iid N(0, 1 /
    n), beta has the law of m iid N(0, 1 / m) values less their mean, and
    ``|Qz|^2`` is chi-square with (m - 1)(n - 1) degrees of freedom.  A row
    reads Qz only through the LS energy ``|z|^2 = n |r|^2 + m |beta|^2 +
    |Qz|^2``.  So a trial's bistatic statistics are a fixed linear map of
    k = m + n standard normals u (``_bistatic_statistics``) and one
    independent chi-square; a monostatic trial's are a linear map of k = 2
    m normals (k = 1 at m = 1) and, for mse, a chi-square
    (``_monostatic_statistics``).

    Every partial is a quadratic form of the chunk's u's, so it reads them
    only through ``sum_t u_t u_t^T``, which is Wishart_k(I, T) over T
    trials.  The chunk draws that sum as a Bartlett factor L
    (``_bartlett_factor``): one ``(k, r)`` normal draw, then one gamma
    vector for its diagonal, r = min(k, T), and folds L's r columns as if
    they were r trials.  An mse chunk then draws one ``2
    standard_gamma(T dof / 2)``, its chi-square total: dof = (m - 1)(n -
    1) for bistatic, and for monostatic ``m (m - 1)`` less B's rank (m for
    m >= 3, m - 1 below; no draw at m = 1).  So a chunk draws O(k^2)
    values, not k T: a 512-trial 96x96 chunk peaks at about 0.6 MiB
    (bistatic and monostatic, tracemalloc), against 36 MiB for its plane
    and 0.9-1.0 MiB for its k T normals.
    """
    rng, sigma, pilot_len, count = _open_chunk(cfg, c)
    m, n = cfg.m, cfg.n
    mse = cfg.experiment is ExperimentKind.MSE
    scale = sigma**2 / pilot_len
    bistatic = cfg.kind is Kind.BISTATIC
    u = _bartlett_factor(rng, m + n if bistatic else (2 * m if m > 1 else 1), count)
    if bistatic:
        u = _bistatic_statistics(u, m)
        rowcol = u @ u.T
        partial = {"rowcol": rowcol}
        if mse:
            diag = np.diagonal(rowcol)
            energy = n * diag[:m].sum() + m * diag[m:].sum()
            energy += 2.0 * rng.standard_gamma(count * (m - 1) * (n - 1) / 2)
            partial["sq_ls"] = energy * (scale / (m * n))
        rowcol *= scale
        return partial
    partial = {}
    if mse:
        # 2 |P s|^2 (``_monostatic_statistics``): |x|^2 for m >= 3, m
        # mean(x)^2 at m = 2, none at m = 1; the rest is chi-square.
        d, x = u[:m], u[m:]
        if m >= 3:
            projected = np.vdot(x, x) + 2.0 * rng.standard_gamma(count * m * (m - 2) / 2)
        elif m == 2:
            mean = np.add.reduce(x, axis=0) / m
            projected = m * np.vdot(mean, mean) + 2.0 * rng.standard_gamma(count / 2)
        else:
            projected = 0.0
        partial["sq_ls"] = np.array([np.vdot(d, d), projected]) * scale
    _, coords = _monostatic_statistics(u, m)
    partial["rowcol"] = (coords @ coords.T) * scale
    return partial


def _bartlett_factor(rng, k: int, count: int) -> np.ndarray:
    """A ``(k, r)`` factor L, r = min(k, count), drawn from ``rng`` so that
    ``L L^T`` has the law of ``sum_t u_t u_t^T`` over ``count`` iid N(0,
    I_k) vectors u_t, Wishart_k(I, count) (Bartlett's decomposition).  One
    ``(k, r)`` normal draw gives L's strictly lower part, and one gamma
    vector its diagonal, ``L_ii = sqrt(chi-square with count - i degrees
    of freedom)``.  This is the L of the LQ decomposition ``U = L Q`` of
    the ``(k, count)`` array of the u's: when count < k, its rows below r
    are U's in the basis Q, iid N(0, 1) too."""
    r = min(k, count)
    factor = np.tril(rng.standard_normal((k, r)), -1)
    np.fill_diagonal(factor, np.sqrt(2.0 * rng.standard_gamma((count - np.arange(r)) / 2)))
    return factor


def _bistatic_statistics(u: np.ndarray, m: int) -> np.ndarray:
    """What a bistatic row reads of an ``(m, n, cols)`` standard normal
    plane z, as a linear map of an ``(m + n, cols)`` array u of standard
    normals, done in place: u's first m rows over ``sqrt(n)`` become z's
    row means r, iid N(0, 1 / n), and its last n rows over ``sqrt(m)``,
    less their mean, z's column means less its grand mean, beta
    (``_run_noise_chunk`` gives the law).  Returns u, now ``[r; beta]``,
    the refined error's row/column coordinates."""
    n = len(u) - m
    u[:m] /= math.sqrt(n)
    beta = u[m:]
    beta /= math.sqrt(m)
    beta -= np.add.reduce(beta, axis=0) / n
    return u


def _monostatic_statistics(u: np.ndarray, m: int) -> tuple:
    """What a monostatic row reads of an ``(m, m, cols)`` standard normal
    plane z, as a linear map of a ``(2 m, cols)`` array u of standard
    normals (at m = 1, u's first row alone is read): z's diagonal d and its
    refined coordinates ``w = row means + column means - grand mean``, each
    ``(m, cols)``.  d is u's first m rows and w overwrites the last m, x.

    z splits into its symmetric and antisymmetric parts, which are
    independent: the diagonal d ~ N(0, 1), the M = m (m - 1) / 2 upper
    entries s of ``(z + z^T) / 2`` and a of ``(z - z^T) / 2``, iid N(0,
    1/2).  Row sum plus column sum is ``2 (d + B s)``, B the m x M
    vertex-edge incidence matrix of the complete graph, so ``w = (2 / m) R
    - sum(R) / m^2`` with ``R = d + B s``.  ``B s`` is normal with
    covariance ``B B^T / 2 = ((m - 2) I + J) / 2``: the law of
    ``sqrt((m - 2) / 2) (x - mean(x)) + sqrt(m - 1) mean(x)`` for x iid N(0,
    1) (0 when m is 1, where w = d).  The off-diagonal energy is ``2 |P
    s|^2 + 2 |Q s|^2 + 2 |a|^2``, P the projection onto B's row space, of
    rank r = m for m >= 3 and m - 1 below; ``2 |P s|^2`` is ``|x|^2`` for m
    >= 3 and ``m mean(x)^2`` for m = 2, and the rest is chi-square with ``m
    (m - 1) - r`` degrees of freedom, independent of d and x.
    """
    d = u[:m]
    if m == 1:
        return d, d.copy()
    x = u[m:]
    mean = np.add.reduce(x, axis=0) / m
    # x becomes B s, then R = d + B s, then w.
    x -= mean
    x *= math.sqrt((m - 2) / 2)
    x += math.sqrt(m - 1) * mean
    x += d
    total = np.add.reduce(x, axis=0)
    x *= 2.0 / m
    x -= total / (m * m)
    return d, x


def _refined_squares(topo: Topology, rowcol: np.ndarray) -> np.ndarray:
    """``(m, n)`` per-entry sums of squared refined errors, read off a
    ``rowcol`` partial: ``S[i, i] + S[m + j, m + j] + 2 S[i, m + j]`` for
    bistatic, ``(S[i, i] + S[j, j] + 2 S[i, j]) / 4`` for monostatic."""
    diag = np.diagonal(rowcol)
    if topo.kind is Kind.BISTATIC:
        m = topo.m
        return diag[:m, None] + diag[None, m:] + 2.0 * rowcol[:m, m:]
    return (diag[:, None] + diag[None, :] + 2.0 * rowcol) / 4.0


def _loc_terms(cfg: SweepConfig, c: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Draw chunk c of a localization sweep from the stream, grid point and
    trial count T that ``_open_chunk`` gives it: the anchors ``(3, k, T)``
    (transmitters, then receivers if bistatic), the tags ``(3, T)`` and the
    per-anchor terms its solvers read, all in scene units, and the unit in
    meters, the power of two at or above the cube side
    (``localization._unit_at_or_above``).  Each length is its value in
    meters over the unit, exactly: the unit is folded into the coordinates'
    and the noise's scale factors.  One ``random((T, k + 1, 3))`` call gives
    every scene's unit coordinates, then the noise.  With d the true
    ranges ``|anchor - tag|`` (``channel._ranges``) and ``s = c sigma /
    sqrt(L)``, the terms times the unit are those the public solvers take
    from the LS delays ``(d_i + d_j) / c + (sigma / sqrt(L)) z`` and their
    refinement, up to rounding.
    No chunk draws z, only the statistics its rows read, one ``(2 m, T)``
    or ``(m + n, T)`` normal draw after the scenes'.  Bistatic, ``(m + n,
    T)``: the fit ``a_i + b_j``'s row terms over its column terms, ``[a; b]
    = d + s [r; beta]``, with z's row means r and column means less grand
    mean beta (``_bistatic_statistics``), which ``_fix_bistatic`` takes as
    they are.  Monostatic, ``(m, 2 T)``: the LS ranges ``d + (s / 2)
    z_ii``, then the refined ``d + (s / 2) (row mean_i + column mean_i -
    grand mean)`` (``_monostatic_statistics``).
    """
    rng, sigma, pilot_len, count = _open_chunk(cfg, c)
    m, n = cfg.m, cfg.n
    bistatic = cfg.kind is Kind.BISTATIC
    k = m + n if bistatic else m
    unit = _unit_at_or_above(cfg.cube_side)
    points = np.empty((3, k + 1, count))
    np.multiply(rng.random((count, k + 1, 3)).T, cfg.cube_side / unit, out=points)
    anchors, tags = points[:, :k], points[:, k]
    ranges = _ranges(anchors - tags[:, None])
    scale = SPEED_OF_LIGHT * sigma / math.sqrt(pilot_len) / unit
    if bistatic:
        coords = _bistatic_statistics(rng.standard_normal((k, count)), m)
        coords *= scale
        ranges += coords
        return anchors, tags, ranges, unit
    diag, refined = _monostatic_statistics(rng.standard_normal((2 * m, count)), m)
    diag *= scale / 2.0
    refined *= scale / 2.0
    return anchors, tags, np.concatenate([ranges + diag, ranges + refined], axis=1), unit


def _run_loc_chunk(cfg: SweepConfig, c: int) -> dict:
    """Chunk c's summed squared position errors in meters, ``sqerr_<method>``,
    over the scenes that have a fix, and ``no_fix_<method>``, the count of
    scenes that have none (``_fix_bistatic``, ``_fix_monostatic``)."""
    anchors, tags, terms, unit = _loc_terms(cfg, c)
    if cfg.kind is Kind.BISTATIC:
        # A delay matrix and its projection have one bistatic fix (see
        # localize_bistatic), so each scene is solved once, and the ls and
        # proposed rows share it.  Its rank test reads the noisy range sums,
        # so a scene with no fix may be noise.
        p, _, _, singular = _fix_bistatic(anchors, terms, cfg.m)
        fixes = [(p, singular)] * 2
    else:
        # One call fixes the LS and the refined ranges; no scene's
        # arithmetic depends on the rest of its batch.
        both, _, _, singular = _fix_monostatic(np.concatenate((anchors, anchors), axis=2), terms)
        # Views of the LS fixes, then the refined ones (np.split costs more).
        fixes = zip(both.reshape(3, 2, -1).swapaxes(0, 1), singular.reshape(2, -1))
    partial = {}
    for method, (p, singular) in zip(("ls", "proposed"), fixes):
        sq = (p - tags) ** 2
        np.copyto(sq, 0.0, where=singular)
        # In meters: the scene unit squared is a power of two.
        partial[f"sqerr_{method}"] = sq.sum() * unit**2
        partial[f"no_fix_{method}"] = np.count_nonzero(singular)
    return partial


def _offdiag_mean(matrix: np.ndarray) -> float:
    m = matrix.shape[0]
    return float((matrix.sum() - np.trace(matrix)) / (m * m - m))


def _mse_rows(cfg: SweepConfig, sigma: float, pilot_len: int, sums: dict):
    """Empirical versus theoretical estimator MSE.

    Bistatic points emit one ``mse`` row per method (mean over entries);
    monostatic points emit ``diag_mse`` and ``offdiag_mse`` rows (one
    ``mse`` row at m = 1).
    """
    topo = cfg.topology
    m = topo.m
    sigma0_sq = sigma**2 / pilot_len
    theory = analysis.theoretical_mse_iid(topo, sigma0_sq)
    ls = sums["sq_ls"] / cfg.trials
    proposed = _refined_squares(topo, sums["rowcol"]) / cfg.trials
    if topo.kind is Kind.MONOSTATIC and m > 1:
        yield "ls", "diag_mse", float(ls[0] / m), sigma0_sq
        yield "ls", "offdiag_mse", float(ls[1] / (m * m - m)), sigma0_sq
        yield "proposed", "diag_mse", float(np.trace(proposed) / m), float(theory[0, 0])
        yield "proposed", "offdiag_mse", _offdiag_mean(proposed), float(theory[0, 1])
        return
    # A bistatic sq_ls is already the mean over entries; a 1x1 monostatic
    # one is its diagonal total and a zero.
    yield "ls", "mse", float(ls if topo.kind is Kind.BISTATIC else ls[0]), sigma0_sq
    yield "proposed", "mse", float(proposed.mean()), float(theory[0, 0])


def _loc_rows(cfg: SweepConfig, sigma: float, pilot_len: int, sums: dict):
    """Positioning RMSE for both estimators over the scenes with a fix;
    there is no closed form for it, so the rows carry no theory value.  A
    point that left scenes out adds a ``no_fix`` row with their count.

    Raises:
        SingularGeometry: if no scene of the point has a fix.
    """
    for method in ("ls", "proposed"):
        no_fix = sums[f"no_fix_{method}"]
        if no_fix == cfg.trials:
            raise SingularGeometry(f"no scene has a fix at sigma = {sigma!r} s, L = {pilot_len}")
        yield method, "rmse", float(np.sqrt(sums[f"sqerr_{method}"] / (cfg.trials - no_fix))), None
        if no_fix:
            yield method, "no_fix", float(no_fix), None


def _crlb_rows(cfg: SweepConfig, sigma: float, pilot_len: int, sums: dict):
    """Empirical error statistics of the refined estimator against the
    Cramer-Rao bound.

    Bistatic points emit the Frobenius relative error between the empirical
    error covariance and the bound ``s B`` with ``s = sigma^2 / L``;
    monostatic points emit the mean diagonal and off-diagonal MSE over
    their bound values (ideal value 1).  The monostatic per-entry bounds,
    4 C_ii and C_ii + C_jj + 2 C_ij of ``crlb``'s monostatic covariance C,
    are the refined MSE up to rounding; the rows read them from
    ``theoretical_mse_iid`` at ``sigma^2 / L``, whose values the pinned CSV
    bytes hold.

    The bistatic theory is the statistic's root mean square when the bound
    is attained, ``sqrt((m + n) / N)``, not 0, which no N-trial sample
    covariance reaches.  The N refined errors are then iid N(0, s B), and
    for a zero-mean Gaussian sample covariance ``C^ = sum x x^T / N``,
    ``E (C^ - C)_kl^2 = (C_kk C_ll + C_kl^2) / N``.  Summed over k, l with
    ``C = s B`` and B a projector of rank ``r = m + n - 1``,
    ``E ||C^ - s B||_F^2 = s^2 (tr(B)^2 + ||B||_F^2) / N = s^2 (r^2 + r) / N``;
    divided by ``||s B||_F^2 = s^2 r`` this is ``(r + 1) / N = (m + n) / N``.

    The bistatic statistic is computed in row/column coordinates.  Each
    refined error is ``vec(E) = K c`` with ``c = [a; b]`` and
    ``K = [1_n kron I_m, I_n kron 1_m]``, so the empirical covariance is
    ``K (S / N) K^T`` for the chunk sum ``S = sum c c^T``, and the bound is
    ``s B = s K G^+ K^T`` with ``G = K^T K``.  With ``D = S / N - s G^+``,
    ``||K D K^T||_F^2 = tr(D G D G)`` and ``||s B||_F = s sqrt(m + n - 1)``
    (B is a projector of rank m + n - 1), so

        cov_frob_rel_err = sqrt(tr(D G D G)) / (s sqrt(m + n - 1)).

    ``c`` is fixed only up to the gauge ``a + t, b - t``, whose direction
    ``[1_m; -1_n]`` spans the null space of both ``K`` and ``G``.  The value
    depends on ``D`` only through ``G D G``, so neither the gauge the chunks
    chose nor the choice of generalized inverse matters: any ``H`` with
    ``G H G = G`` may stand for ``G^+``.  ``H = diag(I_m / n,
    (I_n - 1 1^T / n) / m)`` is one, read off ``G [a; b] = [n a + sum(b);
    sum(a) + m b]``; it needs no solve, so no BLAS threads are woken.  By
    the same blocks, ``D G = [n D_1 + D_2 1 1^T, D_1 1 1^T + m D_2]`` for
    D's column blocks ``D = [D_1, D_2]``, so neither G nor H is built.
    Nothing here is (m n) x (m n).
    """
    topo = cfg.topology
    if topo.kind is Kind.BISTATIC:
        m, n = topo.m, topo.n
        # D / s, so that no s^2 is formed, which underflows for small sigma.
        d = sums["rowcol"] / (cfg.trials * (sigma**2 / pilot_len))
        # G's diagonal [n 1_m; m 1_n]; H's diagonal is its reciprocal.
        lam = np.repeat((float(n), float(m)), (m, n))
        d.flat[:: m + n + 1] -= 1.0 / lam
        d[m:, m:] += 1.0 / (m * n)
        # D G: D's columns times G's diagonal, plus the row sums of each of
        # D's column blocks added to the other block's columns.
        dg = d * lam
        dg += np.repeat(np.add.reduceat(d, (0, m), axis=1)[:, ::-1], (m, n), axis=1)
        rel = math.sqrt(max(float(np.einsum("ij,ji->", dg, dg)), 0.0))
        value = rel / math.sqrt(m + n - 1)
        yield "proposed", "cov_frob_rel_err", value, math.sqrt((m + n) / cfg.trials)
        return
    bounds = analysis.theoretical_mse_iid(topo, sigma**2 / pilot_len)
    emp = _refined_squares(topo, sums["rowcol"]) / cfg.trials
    yield "proposed", "diag_bound_ratio", float(np.trace(emp) / np.trace(bounds)), 1.0
    if topo.m > 1:
        ratio = _offdiag_mean(emp) / _offdiag_mean(bounds)
        yield "proposed", "offdiag_bound_ratio", ratio, 1.0


# Per experiment: the chunk function that simulates and sums a chunk of
# trials, and the row function that turns one grid point's summed partials
# into (method, metric, value, theory) tuples.
_EXPERIMENTS = {
    ExperimentKind.MSE: (_run_noise_chunk, _mse_rows),
    ExperimentKind.LOCALIZATION: (_run_loc_chunk, _loc_rows),
    ExperimentKind.CRLB: (_run_noise_chunk, _crlb_rows),
}


def run_sweep(cfg: SweepConfig, workers: int | None = None) -> SweepResult:
    """Run the configured experiment over every (sigma, pilot length) point.

    ``workers`` is the number of processes (None: one per CPU); the output
    does not depend on it.

    A localization scene with no fix, where a bistatic Gauss-Newton matrix
    loses rank 3 at its noisy range sums or a monostatic closed form meets
    coplanar anchors, is left out of its point's RMSE and counted in a
    ``no_fix`` row.

    Raises:
        ConfigInvalid: if ``workers`` is not an integer or is below 1.
        SingularGeometry: if no scene of a localization grid point has a
            fix; the message names the grid point.
    """
    if workers is not None:
        _require_integer(workers, "workers", ConfigInvalid, low=1)
    run_chunk, point_rows = _EXPERIMENTS[cfg.experiment]
    partials = _execute(cfg, run_chunk, workers)
    chunks = _chunks_per_point(cfg)
    flag = int(cfg.trials < LOW_CONFIDENCE_TRIALS)
    result = SweepResult(config=cfg)
    for point, (sigma, pilot_len) in enumerate(cfg.grid_points):
        run = partials[point * chunks : (point + 1) * chunks]
        sums = {key: functools.reduce(operator.add, (part[key] for part in run)) for key in run[0]}
        for method, metric, value, theory in point_rows(cfg, sigma, pilot_len, sums):
            result.rows.append(SweepRow(sigma, pilot_len, method, metric, value, theory, flag))
    return result
