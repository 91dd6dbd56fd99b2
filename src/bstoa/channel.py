"""Scene geometry, true delay matrices, and noisy pilot observations.

Positions are in meters, delays in seconds.  The end-to-end delay of a
subchannel is the uplink delay plus the downlink delay plus the tag
processing delay ``delta``:

    T[i, j] = delta + (|tx_i - tag| + |rx_j - tag|) / c

Monostatic scenes share one antenna array, so ``rx`` aliases ``tx`` and the
delay matrix is symmetric with diagonal ``delta + 2 |tx_i - tag| / c``.

Pilot observations are plain ``(L m, n)`` arrays, L rows per transmitter.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    BstoaError,
    ConfigInvalid,
    DimensionMismatch,
    InvalidValue,
    NonFiniteInput,
)
from .topology import Kind, Topology

SPEED_OF_LIGHT = 299_792_458.0  # m/s, exact SI value


def _stream_key(master_seed: int, stream_index: int) -> np.ndarray:
    """Philox key of the stream ``(master_seed, stream_index)``, each taken
    mod 2**64."""
    return np.array([master_seed % 2**64, stream_index % 2**64], dtype=np.uint64)


def stream_rng(master_seed: int, stream_index: int) -> np.random.Generator:
    """Counter-based Gaussian stream, reproducible per (seed, index) pair.

    Uses a Philox generator keyed by the pair, so trial i's draws do not
    depend on how trials are scheduled across workers.
    """
    return np.random.Generator(np.random.Philox(key=_stream_key(master_seed, stream_index)))


# State of a fresh Philox: counter 0, empty output buffer, no cached 32-bit
# half.  Only the key differs between streams.
_FRESH_PHILOX = np.random.Philox(key=0).state


def _rekey_by_setter(
    bit_generator: np.random.Philox, master_seed: int
) -> Callable[[int], None]:
    """Re-key function that resets ``bit_generator`` through its ``state``
    setter (~4 us a call)."""

    def rekey(stream_index: int) -> None:
        bit_generator.state = {
            **_FRESH_PHILOX,
            "state": {
                "counter": _FRESH_PHILOX["state"]["counter"],
                "key": _stream_key(master_seed, stream_index),
            },
        }

    return rekey


class _PhiloxState(ctypes.Structure):
    """numpy's C ``philox_state``, whose address is
    ``bit_generator.ctypes.state_address``.  ``ctr`` and ``key`` point at
    the 4-word counter and 2-word key held in the generator object."""

    _fields_ = [
        ("ctr", ctypes.POINTER(ctypes.c_uint64 * 4)),
        ("key", ctypes.POINTER(ctypes.c_uint64 * 2)),
        ("buffer_pos", ctypes.c_int),
        ("buffer", ctypes.c_uint64 * 4),
        ("has_uint32", ctypes.c_int),
        ("uinteger", ctypes.c_uint32),
    ]


def _philox_struct(bit_generator: np.random.Philox) -> _PhiloxState:
    """The generator's ``philox_state``, after checking that the struct and
    the counter and key it points at all lie inside the generator object,
    as they do in numpy's ``Philox``, so no access can stray elsewhere."""
    state = _PhiloxState.from_address(bit_generator.ctypes.state_address)
    start = id(bit_generator)
    stop = start + type(bit_generator).__basicsize__
    for address, size in (
        (ctypes.addressof(state), ctypes.sizeof(state)),
        (ctypes.cast(state.ctr, ctypes.c_void_p).value or 0, 32),
        (ctypes.cast(state.key, ctypes.c_void_p).value or 0, 16),
    ):
        if not start <= address <= stop - size:
            raise ValueError("philox_state does not lie inside the Philox object")
    state.owner = bit_generator  # keep the memory alive while ``state`` is
    return state


def _rekey_in_place(
    bit_generator: np.random.Philox, master_seed: int
) -> Callable[[int], None]:
    """Re-key function that writes the key, counter, buffer position and
    cached-half flag straight into the generator's ``philox_state``
    (~0.5 us a call).  ``key[0]`` is the same for every stream, so it is
    written once, here."""
    state = _philox_struct(bit_generator)
    counter, key = state.ctr.contents, state.key.contents
    key[0] = master_seed % 2**64

    def rekey(stream_index: int) -> None:
        key[1] = stream_index % 2**64
        counter[:] = (0, 0, 0, 0)
        state.buffer_pos = 4
        state.has_uint32 = 0

    return rekey


# (seed, index) pairs of the self-check: ordinary, index >= 2**63 with a
# negative seed, and both beyond 2**64.
_CHECK_STREAMS = ((5, 7), (-3, 2**63 + 11), (2**64 + 9, 2**65 - 1))


def _check_draws(rng: np.random.Generator) -> tuple[np.ndarray, ...]:
    """Uniforms, normals and an odd count of 32-bit integers."""
    return rng.random(7), rng.standard_normal(6), rng.integers(0, 2**32, 3, dtype=np.uint32)


def _struct_fields(state: _PhiloxState) -> tuple:
    return state.buffer_pos, state.has_uint32, list(state.ctr.contents), list(state.key.contents)


def _dict_fields(state: dict) -> tuple:
    words = state["state"]
    return state["buffer_pos"], state["has_uint32"], words["counter"].tolist(), words["key"].tolist()


def _in_place_matches_setter() -> bool:
    """Self-check of ``_rekey_in_place`` on this numpy.

    For each ``_CHECK_STREAMS`` pair a generator is advanced into the high
    counter words and left with a partly used buffer and a cached 32-bit
    half.  ``_PhiloxState`` must read back its buffer position, cached-half
    flag, counter and key as ``bit_generator.state`` reports them; after
    the in-place re-key ``bit_generator.state`` must report a fresh
    stream's, and the draws that follow must equal ``stream_rng``'s bit for
    bit.  A mismatch, or an error that a numpy with another ``Philox``
    would raise here (a missing attribute or state entry, a struct outside
    the object), returns False.
    """
    try:
        for seed, index in _CHECK_STREAMS:
            bit_generator = np.random.Philox(key=0)
            rng = np.random.Generator(bit_generator)
            bit_generator.advance(3 * 2**192 + 5 * 2**128 + 2**64)
            _check_draws(rng)
            if _struct_fields(_philox_struct(bit_generator)) != _dict_fields(bit_generator.state):
                return False
            _rekey_in_place(bit_generator, seed)(index)
            fresh = stream_rng(seed, index)
            if _dict_fields(bit_generator.state) != _dict_fields(fresh.bit_generator.state):
                return False
            for got, want in zip(_check_draws(rng), _check_draws(fresh)):
                if not np.array_equal(got, want):
                    return False
        return True
    except (AttributeError, KeyError, TypeError, ValueError):
        return False


# Result of the self-check, run on first use.  It is a fact about the numpy
# this process imported, so one value serves every caller.
_IN_PLACE_OK: bool | None = None


def _in_place_ok() -> bool:
    global _IN_PLACE_OK
    if _IN_PLACE_OK is None:
        _IN_PLACE_OK = _in_place_matches_setter()
    return _IN_PLACE_OK


def _stream_rekey(
    bit_generator: np.random.Philox, master_seed: int
) -> Callable[[int], None]:
    """Function ``rekey(stream_index)`` that resets ``bit_generator`` to the
    state a fresh ``stream_rng(master_seed, stream_index)`` starts in (that
    key, counter 0, empty buffer, no cached 32-bit half), whatever it drew
    before, so one generator can serve many streams in turn.  Writes the
    state in place when ``_in_place_matches_setter`` passed on this numpy,
    else goes through the ``state`` setter, which works on any numpy."""
    factory = _rekey_in_place if _in_place_ok() else _rekey_by_setter
    return factory(bit_generator, master_seed)


@dataclass
class Scene:
    """Antenna and tag geometry plus the tag processing delay.

    For monostatic topologies ``rx`` is forced to be the same array object
    as ``tx``, so leave it as None.
    """

    topo: Topology
    tx: np.ndarray
    tag: np.ndarray
    rx: np.ndarray | None = None
    delta: float = 0.0

    def __post_init__(self) -> None:
        self.tx = np.asarray(self.tx, dtype=np.float64)
        self.tag = np.asarray(self.tag, dtype=np.float64)
        if self.topo.kind is Kind.MONOSTATIC:
            self.rx = self.tx
        else:
            if self.rx is None:
                raise DimensionMismatch("bistatic scene requires rx positions")
            self.rx = np.asarray(self.rx, dtype=np.float64)
        if self.tx.shape != (self.topo.m, 3):
            raise DimensionMismatch(
                f"tx shape {self.tx.shape} does not match m={self.topo.m}"
            )
        if self.rx.shape != (self.topo.n, 3):
            raise DimensionMismatch(
                f"rx shape {self.rx.shape} does not match n={self.topo.n}"
            )
        if self.tag.shape != (3,):
            raise DimensionMismatch(f"tag must be a 3D point, got {self.tag.shape}")
        if self.delta < 0.0:
            raise InvalidValue(f"delta must be >= 0, got {self.delta}")

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
        """Parse a ``to_text`` record.

        Raises:
            ConfigInvalid: if a key is missing, unknown or given twice,
                ``kind`` is unknown, or a count or coordinate does not
                parse.  The keys are ``kind``, ``m``, ``n``, ``delta``,
                ``tx0`` .. ``tx{m-1}``, ``tag`` and, for a bistatic
                record, ``rx0`` .. ``rx{n-1}``.
            NonFiniteInput: if a coordinate or ``delta`` is NaN or inf.
            DimensionMismatch: if a coordinate is not a 3D point.
        """
        fields: dict[str, str] = {}
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            key = key.strip()
            if key in fields:
                raise ConfigInvalid(f"scene record has a duplicate {key!r} entry")
            fields[key] = value.strip()

        def number(text: str) -> float:
            value = float(text)
            if not math.isfinite(value):
                raise NonFiniteInput(f"scene value {text.strip()!r} is not finite")
            return value

        def triple(key: str) -> list[float]:
            return [number(x) for x in fields[key].split(",")]

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
                delta=number(fields.get("delta", "0.0")),
            )
        except BstoaError:
            raise
        except KeyError as exc:
            raise ConfigInvalid(f"scene record has no {exc.args[0]!r} entry") from exc
        except ValueError as exc:
            raise ConfigInvalid(f"malformed scene record: {exc}") from exc


def random_scene(
    topo: Topology, cube_side: float, rng: np.random.Generator
) -> Scene:
    """Draw antenna and tag coordinates uniformly in [0, cube_side]^3.

    The tag delay defaults to zero.  Coincident points are legal: they only
    produce zero delays.
    """
    if cube_side <= 0.0:
        raise InvalidValue(f"cube_side must be > 0, got {cube_side}")
    tx = rng.uniform(0.0, cube_side, size=(topo.m, 3))
    rx = None
    if topo.kind is Kind.BISTATIC:
        rx = rng.uniform(0.0, cube_side, size=(topo.n, 3))
    tag = rng.uniform(0.0, cube_side, size=3)
    return Scene(topo=topo, tx=tx, rx=rx, tag=tag, delta=0.0)


def true_delays_batch(
    tx: np.ndarray, rx: np.ndarray, tag: np.ndarray, delta: float = 0.0
) -> np.ndarray:
    """True delay matrices of a stack of scenes, in seconds.

    ``tx`` is ``(..., m, 3)``, ``rx`` is ``(..., n, 3)`` and ``tag`` is
    ``(..., 3)``; the result is ``(..., m, n)``.
    """
    tag = np.asarray(tag, dtype=np.float64)[..., None, :]
    up = np.linalg.norm(tx - tag, axis=-1)
    down = np.linalg.norm(rx - tag, axis=-1)
    return delta + (up[..., :, None] + down[..., None, :]) / SPEED_OF_LIGHT


def true_delays(scene: Scene) -> np.ndarray:
    """True delay matrix of the scene, in seconds."""
    return true_delays_batch(scene.tx, scene.rx, scene.tag, scene.delta)


def synth_observations(
    t: np.ndarray,
    pilot_len: int,
    sigma: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Generate noisy pilot observations for a delay matrix.

    Each of the m delay rows is observed pilot_len times with iid Gaussian
    measurement error of standard deviation ``sigma`` seconds; sigma == 0
    reproduces the delays exactly.  The result has shape
    ``(pilot_len * m, n)``: rows ``i L .. i L + L - 1`` observe transmitter
    i, the layout :func:`bstoa.estimator.ls_estimate` reads.
    """
    t = np.asarray(t, dtype=np.float64)
    if pilot_len < 1:
        raise InvalidValue(f"pilot_len must be >= 1, got {pilot_len}")
    if sigma < 0.0:
        raise InvalidValue(f"sigma must be >= 0, got {sigma}")
    y = np.repeat(t, pilot_len, axis=0)
    if sigma > 0.0:
        y = y + rng.normal(0.0, sigma, size=y.shape)
    return y
