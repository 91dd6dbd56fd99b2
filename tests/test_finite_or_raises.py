"""Finite in, finite out: every public function of ``topology``,
``estimator``, ``analysis`` and ``channel``, on input over the full float64
exponent range (NaN and inf included), returns all-finite output or raises
a BstoaError, with every warning an error."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bstoa import analysis, channel, estimator, topology
from bstoa.errors import BstoaError, NonFiniteInput
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
    # Reshapes pass their values through, so they take finite ones.
    "vec": lambda draw, topo: topology.vec(_matrix(draw, topo.m, topo.n, finite=True)),
    "unvec": lambda draw, topo: topology.unvec(
        _matrix(draw, 1, topo.mn, finite=True)[0], topo.m, topo.n
    ),
    "ls_estimate": lambda draw, topo: estimator.ls_estimate(
        _matrix(draw, draw(_SIZES) * topo.m, topo.n), topo
    ),
    "refine_bistatic": lambda draw, topo: estimator.refine_bistatic(
        _matrix(draw, topo.m, topo.n)
    ),
    "refine_monostatic": lambda draw, topo: estimator.refine_monostatic(
        _matrix(draw, topo.m, topo.m)
    ),
    "refine_estimate": lambda draw, topo: estimator.refine_estimate(
        _matrix(draw, topo.m, topo.n), topo
    ),
    "decompose_delays": lambda draw, topo: estimator.decompose_delays(
        _matrix(draw, topo.m, topo.n), draw(_ANY), draw(_ANY)
    ),
    "theoretical_mse_iid": lambda draw, topo: analysis.theoretical_mse_iid(topo, draw(_ANY)),
    "theoretical_mse_independent": lambda draw, topo: analysis.theoretical_mse_independent(
        topo, np.abs(_matrix(draw, topo.m, topo.n))
    ),
    "crlb_bistatic": lambda draw, topo: analysis.crlb_bistatic(
        Topology.bistatic(topo.m, topo.n), draw(_ANY)
    ),
    "crlb_monostatic": lambda draw, topo: analysis.crlb_monostatic(
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
        lambda: estimator.refine_bistatic(_HUGE),
        lambda: estimator.refine_monostatic(_HUGE),
        lambda: estimator.refine_estimate(_HUGE, Topology.bistatic(3, 3)),
        lambda: estimator.ls_estimate(_HUGE, Topology.bistatic(1, 3)),
        lambda: estimator.ls_estimate(np.full((2, 2), np.nan), Topology.bistatic(2, 2)),
        lambda: estimator.refine_bistatic(np.full((2, 2), np.nan)),
        lambda: estimator.decompose_delays(_HUGE, -1e308, 0.0),
        lambda: channel.true_delays(_HUGE / 1e8, -_HUGE / 1e8, np.zeros(3)),
        lambda: analysis.theoretical_mse_independent(Topology.bistatic(3, 3), _HUGE),
        lambda: analysis.crlb_monostatic(Topology.monostatic(6), 1e308),
    ],
    ids=[
        "refine-bistatic-1e308", "refine-monostatic-1e308", "refine-estimate-1e308",
        "ls-1e308-rows", "ls-nan", "refine-bistatic-nan", "decompose-1e308",
        "true-delays-1e300-anchors", "independent-1e308", "crlb-monostatic-6-1e308",
    ],
)
def test_values_at_the_ends_of_the_float_range_raise(call):
    """Each of these overflowed to inf or passed NaN through to its output;
    each now raises NonFiniteInput at the boundary."""
    with pytest.raises(NonFiniteInput):
        call()
