"""Machine-speed reference of the sweep benchmark.

The small shared hosts this benchmark runs on change speed by up to 20%
over a few seconds as neighbouring tenants come and go; CPU time moves with
wall time, so it is not stolen time but slower execution.  That swamps the
differences the benchmark is meant to show.  So the benchmark runs a fixed
reference kernel next to the measured work and scales each measured time by
``nominal / (reference time measured next to it)``: timings read as
seconds on the host running at the speed it had when the nominal kernel
times were taken.

Work of different kinds slows by different amounts: across processes,
interpreter-bound code swung by up to 12%, while 576x576 array code swung
by half as much.  So each sweep shape names the kernels that do its kind
of work, and its times are scaled by the geometric mean of their factors;
with them the run-to-run spread of the scaled time fell to 1.4-4% from
5.6-12% unscaled.  The kernels use numpy alone, never bstoa, so no change
to the library can move them.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np


class Reference:
    """A reference kernel with its arrays allocated and written up front.

    Arrays of a few hundred kilobytes come from fresh zero pages or from
    reused heap depending on the allocator's history, which changed the
    time of a 576x576 kernel 2.5-fold between a fresh process and one that
    had run a sweep.  So the large arrays are allocated once here and the
    kernels allocate only small ones.
    """

    def __init__(self, kernel: str) -> None:
        self._run, self.nominal_s, make = KERNELS[kernel]
        self._arrays = make()

    def seconds(self) -> float:
        """Wall time of one run of the kernel."""
        start = time.perf_counter()
        self._run(*self._arrays)
        return time.perf_counter() - start

    def scale(self, references: list[float]) -> float:
        """Factor that turns a time measured next to ``references`` (runs
        of this kernel) into seconds at nominal speed."""
        return self.nominal_s / statistics.median(references)


class Speed:
    """The reference kernels of a workload, run side by side."""

    def __init__(self, kernels) -> None:
        self.kernels = {name: Reference(name) for name in kernels}

    def sample(self) -> dict[str, float]:
        """Wall time of one run of each kernel."""
        return {name: ref.seconds() for name, ref in self.kernels.items()}

    def scale(self, samples: list[dict[str, float]], kernels: tuple[str, ...]) -> float:
        """Geometric mean over ``kernels`` of the factor each one gives for
        a time measured next to ``samples``."""
        factors = [self.kernels[k].scale([s[k] for s in samples]) for k in kernels]
        return math.prod(factors) ** (1.0 / len(factors))


def _scalar(matrix: np.ndarray) -> None:
    """Per-trial work of the small sweeps: Philox set-up and small numpy
    calls driven by Python."""
    vector = np.ones(matrix.shape[0])
    total = 0.0
    for i in range(40):
        rng = np.random.Generator(np.random.Philox(key=np.array([12345, i], dtype=np.uint64)))
        points = rng.uniform(0.0, 10.0, size=(7, 3))
        dist = np.linalg.norm(points - points[0], axis=1)
        total += float((dist[:, None] + dist[None, :]).mean())
        vector = matrix @ vector
        vector /= np.abs(vector).max()
        total += sum(k * k for k in range(20))
    _finite(total)


def _dense(acc: np.ndarray, outer: np.ndarray) -> None:
    """Work of the 24x24 sweeps: outer-product accumulation and
    matrix-vector products on 576x576 arrays."""
    acc.fill(0.0)
    vector = np.linspace(0.0, 1.0, acc.shape[0])
    for _ in range(3):
        np.outer(vector, vector, out=outer)
        acc += outer
        vector = acc @ vector
        vector /= np.abs(vector).max()
    _finite(float(vector.sum()))


def _finite(value: float) -> None:
    if not math.isfinite(value):
        raise ArithmeticError("reference kernel produced a non-finite value")


# Kernel, its median time on a 2-vCPU x86-64 host at 2.1 GHz with numpy
# 2.4.6 and OpenBLAS pinned to one thread, and its arrays.  The scalar
# kernel's array stays under 128 KiB.
KERNELS = {
    "scalar": (_scalar, 1.5e-3, lambda: (np.linspace(-1.0, 1.0, 100 * 100).reshape(100, 100),)),
    "dense": (_dense, 2.4e-3, lambda: (np.ones((576, 576)), np.ones((576, 576)))),
}
