"""Scene geometry, true delay matrices, and noisy pilot observations.

Positions are in meters, delays in seconds.  The end-to-end delay of a
subchannel is the uplink delay plus the downlink delay plus the tag
processing delay ``delta``:

    T[i, j] = delta + (|tx_i - tag| + |rx_j - tag|) / c

Monostatic scenes share one antenna array, so ``rx`` aliases ``tx`` and the
delay matrix is symmetric with diagonal ``delta + 2 |tx_i - tag| / c``.

Pilot observations are plain ``(..., L m, n)`` arrays, L rows per transmitter.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .errors import BstoaError, ConfigInvalid, DimensionMismatch, InvalidValue
from .errors import _real_array, _require_integer, _require_real
from .estimator import _sum_in_order
from .topology import Kind, Topology, _dims

SPEED_OF_LIGHT = 299_792_458.0  # m/s, exact SI value
# Meters; bounds the coordinates ``true_delays`` takes, so that the
# sum of three squared coordinate differences, below 3 (2^511)^2, is finite.
_COORDINATE_LIMIT = 2.0**510
# Standard deviations of noise that ``synth_observations`` and a sweep's
# sums (SweepConfig's sigma range) leave room for; a standard normal draw
# lies beyond 40 with odds below 1e-348.
_HEADROOM_SDS = 40.0


def noise_rng(master_seed: int, stream_index: int) -> np.random.Generator:
    """The package's reproducible generator, one stream per (seed, index)
    pair, so a stream's draws do not depend on how work is scheduled
    across workers.

    An SFC64 generator seeded by ``SeedSequence([seed, index])``, each
    taken mod 2**64.  Chunk c of a sweep draws from ``noise_rng(seed, c)``:
    mse and crlb chunks their noise statistics, localization chunks their
    scenes, then their noise statistics.  So successive ``random_scene``
    calls on that stream replay the scenes of localization chunk c.

    Raises:
        InvalidValue: if the seed or the index is not an integer
            (``operator.index``).
    """
    master_seed = _require_integer(master_seed, "master_seed")
    stream_index = _require_integer(stream_index, "stream_index")
    seed = np.random.SeedSequence([master_seed % 2**64, stream_index % 2**64])
    return np.random.Generator(np.random.SFC64(seed))


def _read_record(text: str) -> dict[str, str]:
    """The entries of a flat ``key = value`` text, the grammar of sweep
    configs and scene records: one entry a line, both sides stripped, blank
    lines and lines starting with ``#`` skipped.  Each caller checks the
    keys against its own set and converts the values.

    Raises:
        ConfigInvalid: naming the line, for a line without ``=`` or a key
            given twice.
    """
    entries: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        if not sep:
            raise ConfigInvalid(f"line {lineno}: unknown entry {stripped!r}, expected key = value")
        key = key.strip()
        if key in entries:
            raise ConfigInvalid(f"line {lineno}: duplicate key {key!r}")
        entries[key] = value.strip()
    return entries


@dataclass
class Scene:
    """Antenna and tag geometry plus the tag processing delay.

    A monostatic scene's receivers are its transmitters: ``rx`` becomes the
    same array object as ``tx``, so leave it as None.

    Raises:
        NonFiniteInput: if a coordinate or ``delta`` is NaN or inf.
        DimensionMismatch: if an array does not match the topology, or a
            monostatic scene is given an ``rx`` that does not hold ``tx``'s
            coordinates.
        InvalidValue: if a coordinate array holds anything but real
            numbers, or ``delta`` is not one real number >= 0.
    """

    topo: Topology
    tx: np.ndarray
    tag: np.ndarray
    rx: np.ndarray | None = None
    delta: float = 0.0

    def __post_init__(self) -> None:
        m, n = _dims(self.topo)
        monostatic = self.topo.kind is Kind.MONOSTATIC
        if self.rx is None and not monostatic:
            raise DimensionMismatch("bistatic scene requires rx positions")
        self.tx, self.tag = (_real_array(x, "coordinates") for x in (self.tx, self.tag))
        rx = self.tx if self.rx is None else _real_array(self.rx, "coordinates")
        if monostatic and rx is not self.tx and not np.array_equal(rx, self.tx):
            raise DimensionMismatch("monostatic receivers are the transmitters; rx must equal tx")
        self.rx = self.tx if monostatic else rx
        self.delta = _require_real(self.delta, "delta", 0.0)
        if self.tx.shape != (m, 3):
            raise DimensionMismatch(f"tx shape {self.tx.shape} does not match m={m}")
        if self.rx.shape != (n, 3):
            raise DimensionMismatch(f"rx shape {self.rx.shape} does not match n={n}")
        if self.tag.shape != (3,):
            raise DimensionMismatch(f"tag must be a 3D point, got {self.tag.shape}")

    def to_text(self) -> str:
        """Flat key=value record; coordinates as comma-separated triples."""
        def triple(p: np.ndarray) -> str:
            return ",".join(repr(float(x)) for x in p)

        lines = [
            f"kind={self.topo.kind.value}",
            f"m={self.topo.m}",
            f"n={self.topo.n}",
            f"delta={float(self.delta)!r}",
        ]
        for i, p in enumerate(self.tx):
            lines.append(f"tx{i}={triple(p)}")
        if self.topo.kind is Kind.BISTATIC:
            for j, p in enumerate(self.rx):
                lines.append(f"rx{j}={triple(p)}")
        lines.append(f"tag={triple(self.tag)}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Scene":
        """Parse a ``to_text`` record (``_read_record``'s grammar).

        Raises:
            ConfigInvalid: if a line is not ``key = value``, a key is
                missing, unknown or given twice, ``kind`` is unknown, or a
                count or coordinate does not parse.  The keys are
                ``kind``, ``m``, ``n``, ``delta``, ``tx0`` .. ``tx{m-1}``,
                ``tag`` and, for a bistatic record, ``rx0`` .. ``rx{n-1}``.
            NonFiniteInput: if a coordinate or ``delta`` is NaN or inf.
            DimensionMismatch: if a coordinate does not hold three numbers;
                the message names its key and text.
            InvalidValue: if ``m`` or ``n`` is below 1, or a monostatic
                record has ``m != n`` (``Topology``).
        """
        fields = _read_record(text)

        def triple(key: str) -> list[float]:
            if len(point := [float(x) for x in fields[key].split(",")]) != 3:
                raise DimensionMismatch(f"scene record: {key} = {fields[key]} is not a 3D point")
            return point

        try:
            kind = Kind(fields["kind"])
            m, n = int(fields["m"]), int(fields["n"])
            topo = Topology(kind, m, n)
            tx = np.array([triple(f"tx{i}") for i in range(m)])
            rx = None
            known = {"kind", "m", "n", "delta", "tag", *(f"tx{i}" for i in range(m))}
            if kind is Kind.BISTATIC:
                rx = np.array([triple(f"rx{j}") for j in range(n)])
                known.update(f"rx{j}" for j in range(n))
            unknown = sorted(fields.keys() - known)
            if unknown:
                raise ConfigInvalid(f"scene record has unknown entries {unknown}")
            return cls(
                topo=topo,
                tx=tx,
                rx=rx,
                tag=np.array(triple("tag")),
                delta=float(fields.get("delta", "0.0")),
            )
        except BstoaError:
            raise
        except KeyError as exc:
            raise ConfigInvalid(f"scene record has no {exc.args[0]!r} entry") from exc
        except ValueError as exc:
            raise ConfigInvalid(f"malformed scene record: {exc}") from exc


def _require_cube_side(cube_side) -> float:
    """The rule for the side of a scene cube, in meters: one finite real
    number > 0 (``random_scene`` and ``harness.SweepConfig``), returned as
    a float."""
    cube_side = _require_real(cube_side, "cube_side")
    if not cube_side > 0.0:
        raise InvalidValue(f"cube_side must be > 0, got {cube_side}")
    return cube_side


def random_scene(
    topo: Topology, cube_side: float, rng: np.random.Generator
) -> Scene:
    """Draw antenna and tag coordinates uniformly in [0, cube_side]^3.

    One ``random((k + 1, 3))`` call gives the unit coordinates, rows tx,
    then rx if bistatic, then tag, the layout a localization chunk draws
    per trial (``noise_rng``).  The tag delay defaults to zero.  Coincident
    points are legal: they only produce zero delays.

    Raises:
        NonFiniteInput: if ``cube_side`` is NaN or inf.
        InvalidValue: if ``cube_side`` is not one positive real number.
    """
    cube_side = _require_cube_side(cube_side)
    (m, n), bistatic = _dims(topo), topo.kind is Kind.BISTATIC
    k = m + n if bistatic else m
    points = rng.random((k + 1, 3)) * cube_side
    return Scene(topo=topo, tx=points[:m], rx=points[m:k] if bistatic else None, tag=points[k])


def _ranges(offset: np.ndarray, axis: int = 0) -> np.ndarray:
    """The lengths of coordinate offsets along ``axis``, summed in order
    (``_sum_in_order``).  The offsets are squared in place, so pass a
    temporary such as ``a - b``."""
    return np.sqrt(_sum_in_order(np.square(offset, out=offset), axis))


def true_delays(
    tx: np.ndarray, rx: np.ndarray, tag: np.ndarray, delta: float = 0.0
) -> np.ndarray:
    """True delay matrices of a stack of scenes, in seconds.

    ``tx`` is ``(..., m, 3)``, ``rx`` is ``(..., n, 3)`` and ``tag`` is
    ``(..., 3)``, with leading axes that broadcast; the result is
    ``(..., m, n)``.  A lone scene passes ``scene.tx, scene.rx, scene.tag,
    scene.delta``.  Each distance sums its three squared coordinate
    differences in order (``_ranges``), as numpy's 2-norm along the last
    axis does, so every delay has that norm formula's bits.

    Raises:
        DimensionMismatch: unless the three arrays are stacks of 3D points
            as above.
        InvalidValue: if an array holds anything but real numbers, or
            ``delta`` is not one real number >= 0, the rule of ``Scene``.
        NonFiniteInput: if ``delta`` is NaN or inf, or a coordinate is NaN,
            inf or beyond 2^510 m, where the squared distances overflow.
    """
    tx, rx, tag = (_real_array(x, "coordinates", _COORDINATE_LIMIT) for x in (tx, rx, tag))
    delta = _require_real(delta, "delta", 0.0)
    shapes = f"tx {tx.shape}, rx {rx.shape} and tag {tag.shape}"
    if min(tx.ndim, rx.ndim) < 2 or (tx.shape[-1:], rx.shape[-1:], tag.shape[-1:]) != ((3,),) * 3:
        raise DimensionMismatch(f"{shapes} are not (..., m, 3), (..., n, 3) and (..., 3) points")
    try:
        np.broadcast_shapes(tx.shape[:-2], rx.shape[:-2], tag.shape[:-1])
    except ValueError as exc:
        raise DimensionMismatch(f"the leading axes of {shapes} do not broadcast") from exc
    up, down = (_ranges(x - tag[..., None, :], axis=-1) for x in (tx, rx))
    return delta + (up[..., :, None] + down[..., None, :]) / SPEED_OF_LIGHT


def synth_observations(
    t: np.ndarray,
    pilot_len: int,
    sigma: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Generate noisy pilot observations for ``(..., m, n)`` delay matrices.

    Each of the m delay rows is observed pilot_len times with iid Gaussian
    measurement error of standard deviation ``sigma`` seconds; sigma == 0
    reproduces the delays exactly.  The result has shape
    ``(..., pilot_len * m, n)``: rows ``i L .. i L + L - 1`` observe
    transmitter i, the layout :func:`bstoa.estimator.ls_estimate` reads.

    Raises:
        DimensionMismatch: if ``t`` has fewer than two axes.
        InvalidValue: if ``t`` holds anything but real numbers,
            ``pilot_len`` is not an integer >= 1, or ``sigma`` is not one
            real number, is negative or is so large that ``_HEADROOM_SDS``
            deviations of noise on a delay could overflow.
        NonFiniteInput: if ``sigma`` or a delay is NaN or inf, or a delay
            is above half the largest float in magnitude.
    """
    # A delay and its noise each take at most half the float range.
    half = sys.float_info.max / 2.0
    t = _real_array(t, "delays", half)
    if t.ndim < 2:
        raise DimensionMismatch(f"delay matrices need two axes, got {t.shape}")
    _require_integer(pilot_len, "pilot_len", low=1)
    sigma = _require_real(sigma, "sigma")
    if not 0.0 <= sigma <= half / _HEADROOM_SDS:
        raise InvalidValue(f"sigma must lie in [0, {half / _HEADROOM_SDS:.4g}] s, got {sigma}")
    y = np.repeat(t, pilot_len, axis=-2)
    if sigma > 0.0:
        y = y + rng.normal(0.0, sigma, size=y.shape)
    return y
