"""Workload definitions of the sweep benchmark (standard library only).

A workload is a few legs, each a sweep shape (experiment, topology kind,
m, n) with its (sigma, pilot length) grid.  The timed pass runs one point
sweep (a one-grid-point ``run_sweep`` call) per grid point of every leg,
the legs interleaved; the whole-grid passes run one ``bstoa sweep`` per leg
over its full grid.

Every master seed is derived from the workload seed, so the same seed gives
the same inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

# The library's default sigma grid: 10 log-spaced values from 1e-10 s to
# 1e-8 s (3 cm to 3 m of ranging error).
SIGMA_GRID = tuple(10.0 ** (-10.0 + 2.0 * k / 9.0) for k in range(10))

# Trials of the set-up sweep: one 512-trial chunk, the harness chunk size.
SETUP_TRIALS = 512


@dataclass(frozen=True)
class Shape:
    experiment: str
    kind: str
    m: int
    n: int


@dataclass(frozen=True)
class Leg:
    """One sweep shape, the grid it is swept over and the speed.KERNELS
    entries that do its kind of work."""

    shape: Shape
    sigmas: tuple[float, ...]
    pilot_lengths: tuple[int, ...]
    kernels: tuple[str, ...] = ("scalar",)

    def points(self) -> list[tuple[float, int]]:
        return [(s, length) for s in self.sigmas for length in self.pilot_lengths]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    legs: tuple[Leg, ...]
    # Trials per grid point in every pass: one full 512-trial harness chunk,
    # so each point pays for its set-up (the dense B build, the CRLB's own
    # build) once per chunk as real sweeps do, and all passes do the same
    # work per point.
    trials: int = 512

    def points(self) -> list[tuple[float, int, Leg]]:
        """One timed cycle: every grid point of every leg, the legs
        interleaved evenly (point j of a leg with k points sits at
        (j + 1/2) / k of the cycle)."""
        keyed = [
            ((j + 0.5) / len(leg.points()), i, sigma, length, leg)
            for i, leg in enumerate(self.legs)
            for j, (sigma, length) in enumerate(leg.points())
        ]
        keyed.sort(key=lambda k: k[:2])
        return [(sigma, length, leg) for _, _, sigma, length, leg in keyed]

    def shrunk(self, trials: int) -> "Workload":
        """The same workload with every trial count capped at ``trials``."""
        return Workload(self.name, self.why, self.legs, min(self.trials, trials))

    def kernels(self) -> list[str]:
        """Every reference kernel of the workload's legs."""
        return list(dict.fromkeys(k for leg in self.legs for k in leg.kernels))


# Where the two legs' point sweeps differ several-fold in cost, the cheap
# leg has twice the grid points: with a 1:1 mix the median would fall in
# the gap between the two modes and be set by two extreme samples.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mse-small",
            "small arrays: per-trial Python overhead in channel, estimator and harness dominates",
            (
                Leg(Shape("mse", "bistatic", 4, 3), SIGMA_GRID, (2, 8)),
                Leg(Shape("mse", "monostatic", 6, 6), SIGMA_GRID, (2, 8)),
            ),
        ),
        Workload(
            "array-large",
            "24x24 array: dense projector builds, O((mn)^2) refinement and CRLB outer products",
            (
                # The MSE sweep mixes per-trial Python work with 576x576
                # products; the CRLB sweep is dominated by its outer products.
                Leg(
                    Shape("mse", "bistatic", 24, 24), SIGMA_GRID[1::3], (2, 8),
                    ("dense", "scalar"),
                ),
                Leg(Shape("crlb", "bistatic", 24, 24), SIGMA_GRID[1::3], (2,), ("dense",)),
            ),
        ),
        Workload(
            "localize",
            "position fixes: Gauss-Newton tail at large sigma (bistatic), closed form (monostatic)",
            (
                Leg(Shape("localization", "bistatic", 4, 3), SIGMA_GRID[5:], (2,)),
                Leg(Shape("localization", "monostatic", 6, 6), SIGMA_GRID, (2,)),
            ),
        ),
    )
}


def derive_seed(seed: int, index: int) -> int:
    """Master seed of sweep ``index`` of a run with workload seed ``seed``."""
    return seed * 1_000_000 + index


def config_text(
    shape: Shape,
    sigmas: tuple[float, ...],
    pilot_lengths: tuple[int, ...],
    trials: int,
    master_seed: int,
) -> str:
    """A sweep config in the library's flat ``key = value`` format."""
    return (
        f"experiment = {shape.experiment}\n"
        f"kind = {shape.kind}\n"
        f"m = {shape.m}\n"
        f"n = {shape.n}\n"
        f"pilot_lengths = {', '.join(str(x) for x in pilot_lengths)}\n"
        f"sigma_grid = {', '.join(repr(s) for s in sigmas)}\n"
        f"trials = {trials}\n"
        f"master_seed = {master_seed}\n"
    )
