"""Finite in, finite out: every public function of ``topology``,
``estimator``, ``analysis`` and ``channel``, on input over the full float64
exponent range (NaN and inf included), returns all-finite output or raises
a BstoaError, with every warning an error.  And every public function that
takes numbers raises a BstoaError for a number of the wrong kind."""

import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bstoa import analysis, channel, estimator, harness, localization, topology
from bstoa.errors import BstoaError, InvalidValue, NonFiniteInput
from bstoa.topology import Kind, Topology

# Input over the whole float64 exponent range: +-f 2^e with f in [0.5, 1]
# (or 0), with e uniform a third of the time and within 4 of either end of
# the range otherwise, where sums overflow and products underflow.  An
# eighth of the scalars, and one entry of an eighth of the arrays, are NaN
# or inf instead.
_EXPONENTS = st.one_of(
    st.integers(-1074, 1023), st.integers(1020, 1023), st.integers(-1074, -1071)
)
_UNIT = st.one_of(
    st.builds(lambda sign, f: sign * f, st.sampled_from([-1.0, 1.0]), st.floats(0.5, 1.0)),
    st.just(0.0),
)
_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
_FINITE = st.builds(math.ldexp, _UNIT, _EXPONENTS)
_ANY = st.one_of(*[_FINITE] * 7, _NON_FINITE)
_SIZES = st.integers(1, 4)


@st.composite
def _topologies(draw):
    kind = draw(st.sampled_from(list(Kind)))
    m = draw(_SIZES)
    return Topology(kind, m, m if kind is Kind.MONOSTATIC else draw(_SIZES))


def _matrix(draw, rows, cols, finite=False):
    """A (rows, cols) array: values +-f or 0 times one 2^e, with one entry NaN
    or inf an eighth of the time unless ``finite``."""
    out = np.ldexp(draw(arrays(np.float64, (rows, cols), elements=_UNIT)), draw(_EXPONENTS))
    if not finite and draw(st.integers(0, 7)) == 0:
        out.flat[draw(st.integers(0, out.size - 1))] = draw(_NON_FINITE)
    return out


def _scene(draw, topo):
    monostatic = topo.kind is Kind.MONOSTATIC
    rx = None if monostatic else _matrix(draw, topo.n, 3)
    return channel.Scene(topo, _matrix(draw, topo.m, 3), _matrix(draw, 1, 3)[0], rx, draw(_ANY))


# Public function -> a call of it on drawn input, given ``draw`` and a
# drawn topology.  The arguments are drawn before the call.
_CALLS = {
    "Topology": lambda draw, topo: Topology(
        draw(st.sampled_from(list(Kind))), draw(st.integers(-1, 4)), draw(st.integers(-1, 4))
    ),
    "correlation_matrix": lambda draw, topo: topology.correlation_matrix(topo),
    "weighting_matrix": lambda draw, topo: topology.weighting_matrix(topo),
    "entry_weights": lambda draw, topo: topology.entry_weights(topo),
    "ls_estimate": lambda draw, topo: estimator.ls_estimate(
        _matrix(draw, draw(_SIZES) * topo.m, topo.n), topo
    ),
    "refine_estimate": lambda draw, topo: estimator.refine_estimate(
        _matrix(draw, topo.m, topo.n), topo
    ),
    "theoretical_mse_iid": lambda draw, topo: analysis.theoretical_mse_iid(topo, draw(_ANY)),
    "theoretical_mse_independent": lambda draw, topo: analysis.theoretical_mse_independent(
        topo, np.abs(_matrix(draw, topo.m, topo.n))
    ),
    # crlb, once per topology kind.
    "crlb_bistatic": lambda draw, topo: analysis.crlb(
        Topology.bistatic(topo.m, topo.n), draw(_ANY)
    ),
    "crlb_monostatic": lambda draw, topo: analysis.crlb(
        Topology.monostatic(topo.m), draw(_ANY)
    ),
    "check_sigma": lambda draw, topo: analysis.check_sigma(
        draw(_ANY), (draw(st.integers(1, 8)),), abs(draw(_ANY))
    ),
    "noise_rng": lambda draw, topo: channel.noise_rng(
        draw(st.integers()), draw(st.integers())
    ).random(2),
    "Scene": _scene,
    "Scene.from_text": lambda draw, topo: channel.Scene.from_text(_scene(draw, topo).to_text()),
    "random_scene": lambda draw, topo: channel.random_scene(
        topo, draw(_ANY), channel.noise_rng(draw(st.integers(0, 99)), 0)
    ),
    # One drawn scene, and a stack of k scenes that share their receivers.
    "true_delays": lambda draw, topo: (
        lambda scene: channel.true_delays(scene.tx, scene.rx, scene.tag, scene.delta)
    )(_scene(draw, topo)),
    "true_delays_batch": lambda draw, topo: (
        lambda k: channel.true_delays(
            _matrix(draw, k * topo.m, 3).reshape(k, topo.m, 3), _matrix(draw, topo.n, 3),
            _matrix(draw, k, 3), draw(_ANY),
        )
    )(draw(_SIZES)),
    "synth_observations": lambda draw, topo: channel.synth_observations(
        _matrix(draw, topo.m, topo.n), draw(st.integers(0, 3)), abs(draw(_ANY)),
        channel.noise_rng(draw(st.integers(0, 99)), 0),
    ),
}


def _values(out):
    """The numbers in a function's output, as float arrays: arrays and
    scalars, tuples, and the fields of dataclasses such as scenes."""
    if isinstance(out, (tuple, list)):
        return [v for item in out for v in _values(item)]
    if dataclasses.is_dataclass(out):
        return [v for f in dataclasses.fields(out) for v in _values(getattr(out, f.name))]
    if out is None or isinstance(out, (Kind, str)):
        return []
    return [np.asarray(out, dtype=np.float64)]


@pytest.mark.parametrize("name", list(_CALLS))
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_public_functions_are_finite_or_raise(name, data):
    """One property per public function, on 40 examples each."""
    try:
        out = _CALLS[name](data.draw, data.draw(_topologies()))
    except BstoaError:
        return
    assert all(np.isfinite(v).all() for v in _values(out))


_HUGE = np.full((3, 3), 1e308)


@pytest.mark.parametrize(
    "call",
    [
        lambda: estimator.refine_estimate(_HUGE, Topology.monostatic(3)),
        lambda: estimator.refine_estimate(_HUGE, Topology.bistatic(3, 3)),
        lambda: estimator.ls_estimate(_HUGE, Topology.bistatic(1, 3)),
        lambda: estimator.ls_estimate(np.full((2, 2), np.nan), Topology.bistatic(2, 2)),
        lambda: estimator.refine_estimate(np.full((2, 2), np.nan), Topology.bistatic(2, 2)),
        lambda: channel.true_delays(_HUGE / 1e8, -_HUGE / 1e8, np.zeros(3)),
        lambda: analysis.theoretical_mse_independent(Topology.bistatic(3, 3), _HUGE),
        lambda: analysis.crlb(Topology.monostatic(6), 1e308),
    ],
    ids=[
        "refine-monostatic-1e308", "refine-estimate-1e308",
        "ls-1e308-rows", "ls-nan", "refine-bistatic-nan",
        "true-delays-1e300-anchors", "independent-1e308", "crlb-monostatic-6-1e308",
    ],
)
def test_values_at_the_ends_of_the_float_range_raise(call):
    """Each of these overflowed to inf or passed NaN through to its output;
    each now raises NonFiniteInput at the boundary."""
    with pytest.raises(NonFiniteInput):
        call()


def _numeric_calls():
    """Public function that takes numbers -> (the function with its other
    arguments bound, valid numeric arguments by name, the names of the
    scalars among them)."""
    bi = channel.random_scene(Topology.bistatic(4, 3), 10.0, channel.noise_rng(0, 0))
    mono = channel.random_scene(Topology.monostatic(4), 10.0, channel.noise_rng(0, 1))
    t_bi, t_mono = (channel.true_delays(s.tx, s.rx, s.tag) for s in (bi, mono))
    rng = channel.noise_rng(0, 2)
    sigma0_sq = {"sigma0_sq": 1e-18}
    return {
        "Scene": (
            functools.partial(channel.Scene, bi.topo),
            {"tx": bi.tx, "tag": bi.tag, "rx": bi.rx, "delta": 0.0}, {"delta"},
        ),
        "random_scene": (
            functools.partial(channel.random_scene, bi.topo, rng=rng),
            {"cube_side": 10.0}, {"cube_side"},
        ),
        "true_delays": (
            channel.true_delays, {"tx": bi.tx, "rx": bi.rx, "tag": bi.tag, "delta": 0.0}, {"delta"},
        ),
        "synth_observations": (
            functools.partial(channel.synth_observations, rng=rng),
            {"t": t_bi, "pilot_len": 2, "sigma": 1e-9}, {"pilot_len", "sigma"},
        ),
        "noise_rng": (
            channel.noise_rng, {"master_seed": 0, "stream_index": 0},
            {"master_seed", "stream_index"},
        ),
        "ls_estimate": (
            functools.partial(estimator.ls_estimate, topo=bi.topo),
            {"y": np.repeat(t_bi, 2, axis=0)}, set(),
        ),
        "refine_estimate": (
            functools.partial(estimator.refine_estimate, topo=bi.topo), {"t_hat": t_bi}, set(),
        ),
        "check_sigma": (
            analysis.check_sigma,
            {"sigma": 1e-9, "pilot_lengths": (2, 8), "max_variance": 1.0},
            {"sigma", "max_variance"},
        ),
        "theoretical_mse_iid": (
            functools.partial(analysis.theoretical_mse_iid, bi.topo), sigma0_sq, {"sigma0_sq"},
        ),
        "theoretical_mse_independent": (
            functools.partial(analysis.theoretical_mse_independent, bi.topo),
            {"sigma0_sq": np.full((4, 3), 1e-18)}, set(),
        ),
        "crlb_bistatic": (
            functools.partial(analysis.crlb, bi.topo), sigma0_sq, {"sigma0_sq"},
        ),
        "crlb_monostatic": (
            functools.partial(analysis.crlb, mono.topo), sigma0_sq, {"sigma0_sq"},
        ),
        "localize_bistatic": (
            localization.localize,
            {"t": t_bi, "tx": bi.tx, "rx": bi.rx, "delta": 0.0}, {"delta"},
        ),
        "localize_monostatic": (
            localization.localize,
            {"t": t_mono, "tx": mono.tx, "delta": 0.0}, {"delta"},
        ),
    }


_NUMERIC_CALLS = _numeric_calls()

# Numbers of the wrong kind, built from a valid argument: a string, a
# complex of it, a ragged list, and (for a scalar) a 1-d array of it.
_WRONG_KINDS = {
    "text": lambda value: "one",
    "complex": lambda value: value + 1j if np.ndim(value) == 0 else np.asarray(value) + 1j,
    "ragged": lambda value: [[1.0, 2.0], [3.0]],
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", list(_NUMERIC_CALLS))
def test_numbers_of_the_wrong_kind_raise(name):
    """One property per public function that takes numbers: each of its
    numeric arguments in turn, replaced by a string, a complex value or a
    ragged list, and each scalar by a 1-d array, raises a BstoaError, with
    every warning an error.  These used to leak TypeError, ValueError or
    ComplexWarning, or, for an array delta in a localizer, to broadcast it
    along the receivers or anchors."""
    call, valid, scalars = _NUMERIC_CALLS[name]
    call(**valid)
    leaks = []
    for arg, value in valid.items():
        wrong = dict(_WRONG_KINDS)
        if arg in scalars:
            wrong["1-d array"] = lambda value: np.full(3, value)
        for kind, make in wrong.items():
            try:
                call(**{**valid, arg: make(value)})
            except BstoaError:
                continue
            except Exception as exc:  # any other exception type is the failure
                leaks.append(f"{arg} as {kind}: {type(exc).__name__}: {exc}")
            else:
                leaks.append(f"{arg} as {kind}: no error")
    assert not leaks, leaks


# Public function that takes a topology -> a call of it on ``topo`` with
# valid other arguments, sized for a bistatic 4x3 topology.
_TOPOLOGY_CALLS = {
    "random_scene": lambda topo: channel.random_scene(topo, 10.0, channel.noise_rng(0, 0)),
    "refine_estimate": lambda topo: estimator.refine_estimate(np.zeros((4, 3)), topo),
    "ls_estimate": lambda topo: estimator.ls_estimate(np.zeros((8, 3)), topo),
    "theoretical_mse_iid": lambda topo: analysis.theoretical_mse_iid(topo, 1e-18),
    "theoretical_mse_independent": lambda topo: analysis.theoretical_mse_independent(
        topo, np.full((4, 3), 1e-18)
    ),
    "crlb": lambda topo: analysis.crlb(topo, 1e-18),
    "correlation_matrix": topology.correlation_matrix,
    "weighting_matrix": topology.weighting_matrix,
    "entry_weights": topology.entry_weights,
    "Scene": lambda topo: channel.Scene(topo, np.zeros((4, 3)), np.zeros(3), np.zeros((3, 3))),
}


@pytest.mark.parametrize("bad", ["bistatic", None, (4, 3)], ids=["name", "None", "tuple"])
@pytest.mark.parametrize("name", list(_TOPOLOGY_CALLS))
def test_a_topology_argument_that_is_not_a_topology_raises(name, bad):
    """Each public function that takes a topology runs on a bistatic 4x3
    one, and raises InvalidValue for a kind's name, None or a tuple of
    counts; these used to leak AttributeError."""
    call = _TOPOLOGY_CALLS[name]
    call(Topology.bistatic(4, 3))
    with pytest.raises(InvalidValue, match="must be a Topology"):
        call(bad)


# Public function that takes a generator -> a call of it on ``rng`` with
# valid other arguments; noiseless observations draw nothing.
_GENERATOR_CALLS = {
    "random_scene": lambda rng: channel.random_scene(Topology.bistatic(4, 3), 10.0, rng),
    "synth_observations": lambda rng: channel.synth_observations(np.zeros((4, 3)), 2, 1e-9, rng),
    "synth_observations_noiseless": lambda rng: channel.synth_observations(
        np.zeros((4, 3)), 2, 0.0, rng
    ),
}


@pytest.mark.parametrize(
    "bad", [None, 3, np.random, np.random.RandomState(0)],
    ids=["None", "int", "module", "RandomState"],
)
@pytest.mark.parametrize("name", list(_GENERATOR_CALLS))
def test_a_generator_argument_that_is_not_a_generator_raises(name, bad):
    """Each public function that takes a generator runs on ``noise_rng``'s,
    and raises InvalidValue naming ``noise_rng`` for None, a seed, the
    ``np.random`` module or a legacy ``RandomState``, before any draw:
    None and a seed used to leak AttributeError, or pass silently where
    nothing is drawn, and the last two ran by duck typing."""
    call = _GENERATOR_CALLS[name]
    call(channel.noise_rng(0, 0))
    with pytest.raises(InvalidValue, match="must be a numpy.random.Generator, as from noise_rng"):
        call(bad)


def _same(a, b) -> bool:
    """Equal values of equal types, through dataclasses, tuples and arrays."""
    if type(a) is not type(b):
        return False
    if dataclasses.is_dataclass(a):
        return all(_same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True)
    return a == b


def _sweep(**fields):
    cfg = harness.SweepConfig(**{"experiment": "mse", "kind": "bistatic", "m": 2, "n": 2,
                                 "trials": 64, **fields})
    return cfg, harness.run_sweep(cfg, workers=1).to_csv()


_BI = channel.random_scene(Topology.bistatic(4, 3), 10.0, channel.noise_rng(0, 0))
_T_BI = channel.true_delays(_BI.tx, _BI.rx, _BI.tag)

# Public function -> (a call of it on one number, a numpy scalar for it).
_NUMPY_SCALAR_CALLS = {
    "random_scene": (
        lambda v: channel.random_scene(_BI.topo, v, channel.noise_rng(0, 1)), np.float32(10.0),
    ),
    "Scene": (lambda v: channel.Scene(_BI.topo, _BI.tx, _BI.tag, _BI.rx, v), np.float32(1e-9)),
    "true_delays": (lambda v: channel.true_delays(_BI.tx, _BI.rx, _BI.tag, v), np.float32(1e-9)),
    "synth_observations": (
        lambda v: channel.synth_observations(_T_BI, 2, v, channel.noise_rng(0, 2)),
        np.float32(1e-9),
    ),
    # Computed in float32, this entry would be a subnormal.
    "theoretical_mse_iid": (
        lambda v: analysis.theoretical_mse_iid(_BI.topo, v), np.float32(1e-39),
    ),
    "crlb": (lambda v: analysis.crlb(_BI.topo, v), np.float32(1e-18)),
    "check_sigma": (lambda v: analysis.check_sigma(v, (2, 8)), np.float32(1e-9)),
    "localize_bistatic": (
        lambda v: localization.localize(_T_BI + 1e-9, _BI.tx, _BI.rx, v),
        np.float32(1e-9),
    ),
    # In float32 the theory value of this row read 1.25000026913166657e-39.
    "SweepConfig sigma": (
        lambda v: _sweep(sigma_grid=(v,), pilot_lengths=(8,)), np.float32(1e-19),
    ),
    "SweepConfig cube_side": (
        lambda v: _sweep(experiment="localization", m=4, n=3, sigma_grid=(1e-9,), cube_side=v),
        np.float32(10.0),
    ),
    "SweepConfig pilot length": (
        lambda v: _sweep(sigma_grid=(1e-9,), pilot_lengths=(v,)), np.int64(8),
    ),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", list(_NUMPY_SCALAR_CALLS))
def test_a_numpy_scalar_is_taken_as_its_python_value(name):
    """A numpy scalar argument raises no warning, and the call equals the
    call with its Python value, stored values and types included.  Each
    used to warn ``overflow encountered in cast`` in the float range check,
    or to keep the scalar's own arithmetic, so that a config that compared
    equal wrote other CSV bytes."""
    call, value = _NUMPY_SCALAR_CALLS[name]
    python = int(value) if isinstance(value, np.integer) else float(value)
    assert _same(call(value), call(python))
