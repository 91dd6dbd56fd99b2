"""Scene generation, delay matrices, and observation synthesis tests."""

import dataclasses

import numpy as np
import pytest

from bstoa.analysis import check_sigma
from bstoa.channel import (
    SPEED_OF_LIGHT,
    Scene,
    noise_rng,
    random_scene,
    synth_observations,
    true_delays,
)
from bstoa.errors import (
    BstoaError,
    ConfigInvalid,
    DimensionMismatch,
    InvalidValue,
    NonFiniteInput,
)
from bstoa.estimator import ls_estimate
from bstoa.topology import Kind, Topology, correlation_matrix


def test_random_scene_bounds_and_shapes():
    topo = Topology.bistatic(2, 2)
    scene = random_scene(topo, 10.0, noise_rng(11, 0))
    points = np.vstack([scene.tx, scene.rx, scene.tag])
    assert points.shape == (5, 3)
    assert points.min() >= 0.0 and points.max() <= 10.0
    assert scene.delta == 0.0


def test_random_scene_monostatic_aliases_tx():
    scene = random_scene(Topology.monostatic(3), 10.0, noise_rng(11, 1))
    assert scene.rx is scene.tx
    assert scene.tx.shape == (3, 3)


def test_random_scene_deterministic():
    topo = Topology.bistatic(3, 2)
    one = random_scene(topo, 10.0, noise_rng(99, 7))
    two = random_scene(topo, 10.0, noise_rng(99, 7))
    assert np.array_equal(one.tx, two.tx)
    assert np.array_equal(one.rx, two.rx)
    assert np.array_equal(one.tag, two.tag)


def test_true_delays_3_4_5_geometry():
    topo = Topology.bistatic(1, 1)
    scene = Scene(
        topo=topo,
        tx=np.array([[3.0, 0.0, 0.0]]),
        rx=np.array([[0.0, 4.0, 0.0]]),
        tag=np.zeros(3),
    )
    t = true_delays(scene.tx, scene.rx, scene.tag, scene.delta)
    assert t.shape == (1, 1)
    assert t[0, 0] == pytest.approx(7.0 / SPEED_OF_LIGHT, rel=1e-15)


def test_true_delays_delta_shift():
    topo = Topology.bistatic(2, 3)
    scene = random_scene(topo, 10.0, noise_rng(5, 2))
    base = true_delays(scene.tx, scene.rx, scene.tag, scene.delta)
    scene.delta = 1e-7
    shifted = true_delays(scene.tx, scene.rx, scene.tag, scene.delta)
    assert np.abs(shifted - base - 1e-7).max() < 1e-21


def test_true_delays_monostatic_diagonal_and_symmetry():
    scene = random_scene(Topology.monostatic(4), 10.0, noise_rng(5, 3))
    t = true_delays(scene.tx, scene.rx, scene.tag, scene.delta)
    assert np.array_equal(t, t.T)
    expected = 2.0 * np.linalg.norm(scene.tx - scene.tag, axis=1) / SPEED_OF_LIGHT
    assert np.abs(np.diag(t) - expected).max() < 1e-24


@pytest.mark.parametrize("m,n", [(2, 2), (4, 3), (1, 5), (6, 6)])
def test_scene_delays_satisfy_constraint(m, n):
    """Any scene-built delay matrix lies in the null space of A."""
    topo = Topology.bistatic(m, n)
    a = correlation_matrix(topo).astype(float)
    for index in range(5):
        scene = random_scene(topo, 10.0, noise_rng(31, index))
        t = true_delays(scene.tx, scene.rx, scene.tag)
        if a.shape[0]:
            assert np.abs(a @ np.ravel(t, order="F")).max() < 1e-12 * np.abs(t).max()


def test_synth_observations_noiseless_identity():
    t = np.array([[1.0e-8, 2.0e-8], [3.0e-8, 4.0e-8]])
    assert np.array_equal(synth_observations(t, 1, 0.0, noise_rng(1, 0)), t)


def test_synth_observations_pilot_replication():
    t = np.array([[2.0]])
    y = synth_observations(t, 3, 0.0, noise_rng(1, 0))
    assert np.array_equal(y, np.full((3, 1), 2.0))


def test_synth_observations_block_layout():
    t = np.array([[1.0, 2.0], [3.0, 4.0]])
    y = synth_observations(t, 2, 0.0, noise_rng(1, 0))
    assert np.array_equal(y, np.array([[1, 2], [1, 2], [3, 4], [3, 4]], dtype=float))


def test_synth_observations_noise_variance():
    """Pooled residual variance concentrates at sigma^2 over 1e5 samples."""
    t = np.zeros((2, 2))
    rng = noise_rng(77, 0)
    sigma = 1e-9
    residuals = []
    for _ in range(3125):  # 3125 blocks x 32 entries = 1e5 samples
        residuals.append(synth_observations(t, 8, sigma, rng).ravel())
    variance = np.concatenate(residuals).var()
    assert 0.95e-18 < variance < 1.05e-18


def test_stream_independence():
    first = noise_rng(123, 1).normal(size=100_000)
    second = noise_rng(123, 2).normal(size=100_000)
    rho = np.corrcoef(first, second)[0, 1]
    assert abs(rho) < 0.01


def test_scene_text_round_trip_bistatic():
    scene = random_scene(Topology.bistatic(3, 2), 10.0, noise_rng(8, 4))
    scene.delta = 2.5e-8
    parsed = Scene.from_text(scene.to_text())
    assert parsed.topo == scene.topo
    assert np.array_equal(parsed.tx, scene.tx)
    assert np.array_equal(parsed.rx, scene.rx)
    assert np.array_equal(parsed.tag, scene.tag)
    assert parsed.delta == scene.delta


def test_scene_text_round_trip_monostatic():
    scene = random_scene(Topology.monostatic(4), 10.0, noise_rng(8, 5))
    parsed = Scene.from_text(scene.to_text())
    assert parsed.rx is parsed.tx
    assert np.array_equal(parsed.tx, scene.tx)


@pytest.mark.parametrize("key", ["tx1", "rx0", "tag", "delta"])
@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_scene_from_text_rejects_non_finite(key, bad):
    scene = random_scene(Topology.bistatic(2, 2), 10.0, noise_rng(8, 6))
    lines = []
    for line in scene.to_text().splitlines():
        name, _, value = line.partition("=")
        if name == key:
            value = ",".join([bad] + value.split(",")[1:])
        lines.append(f"{name}={value}")
    with pytest.raises(NonFiniteInput):
        Scene.from_text("\n".join(lines))


@pytest.mark.parametrize(
    "key, value",
    [("n", None), ("tx1", None), ("kind", "tri"), ("tx0", "abc,1,2")],
    ids=["missing-n", "missing-tx1", "unknown-kind", "bad-number"],
)
def test_scene_from_text_rejects_malformed_record(key, value):
    """A missing key (value None) or an unparsable value is ConfigInvalid."""
    scene = random_scene(Topology.bistatic(2, 2), 10.0, noise_rng(8, 7))
    lines = []
    for line in scene.to_text().splitlines():
        if line.partition("=")[0] != key:
            lines.append(line)
        elif value is not None:
            lines.append(f"{key}={value}")
    with pytest.raises(ConfigInvalid):
        Scene.from_text("\n".join(lines))


@pytest.mark.parametrize("value", ["1,0", "1,2,3,4", "7"])
@pytest.mark.parametrize("key", ["tx1", "rx0", "tag"])
def test_scene_from_text_names_a_coordinate_that_is_not_a_3d_point(key, value):
    """A coordinate of other than three numbers among triples is
    DimensionMismatch naming its key and text.  A short ``tx1`` or ``rx0``
    used to raise ConfigInvalid with numpy's "inhomogeneous shape" text,
    and a short tag a DimensionMismatch that named no key."""
    lines = []
    for line in _scene_record(Topology.bistatic(3, 2), 11).splitlines():
        lines.append(f"{key}={value}" if line.partition("=")[0] == key else line)
    with pytest.raises(DimensionMismatch, match=f"{key} = {value} is not a 3D point"):
        Scene.from_text("\n".join(lines))


def test_scene_from_text_names_the_first_key_when_every_point_is_short():
    """A record whose points all hold two numbers names its first
    coordinate's key, not the shape of the stacked transmitters."""
    lines = []
    for line in _scene_record(Topology.bistatic(2, 2), 12).splitlines():
        key, _, value = line.partition("=")
        lines.append(f"{key}={value.rpartition(',')[0]}" if value.count(",") == 2 else line)
    with pytest.raises(DimensionMismatch, match="^scene record: tx0 = "):
        Scene.from_text("\n".join(lines))


@pytest.mark.parametrize(
    "topo, edit",
    [
        (Topology.bistatic(2, 2), lambda text: text.replace("m=2", "m=0")),
        (Topology.bistatic(2, 2), lambda text: text.replace("n=2", "n=0")),
        (Topology.monostatic(4), lambda text: text.replace("n=4", "n=3")),
    ],
    ids=["m-0", "n-0", "monostatic-4x3"],
)
def test_scene_from_text_rejects_counts_that_topology_rejects(topo, edit):
    """Counts below 1, or a monostatic m != n, raise ``Topology``'s
    InvalidValue."""
    text = _scene_record(topo, 13)
    Scene.from_text(text)
    with pytest.raises(InvalidValue):
        Scene.from_text(edit(text))


def _scene_record(topo, seed):
    scene = random_scene(topo, 10.0, noise_rng(seed, 0))
    scene.delta = 5e-8
    return scene.to_text()


@pytest.mark.parametrize(
    "topo, edit",
    [
        (Topology.bistatic(1, 3), lambda text: text.replace("delta=", "dleta=")),
        (Topology.bistatic(1, 3), lambda text: text + "tx7=1.0,2.0,3.0\n"),
        (Topology.bistatic(1, 3), lambda text: text + "rx3=1.0,2.0,3.0\n"),
        (Topology.monostatic(4), lambda text: text + "rx0=1.0,2.0,3.0\n"),
        (Topology.bistatic(2, 2), lambda text: text + "no equals sign\n"),
    ],
    ids=["misspelt-delta", "stray-tx7", "stray-rx3", "monostatic-rx0", "bare-line"],
)
def test_scene_from_text_rejects_unknown_key(topo, edit):
    """A key the record's kind and counts do not name is ConfigInvalid;
    a misspelt ``delta`` no longer parses as 0."""
    text = _scene_record(topo, 9)
    Scene.from_text(text)
    with pytest.raises(ConfigInvalid, match="unknown"):
        Scene.from_text(edit(text))


@pytest.mark.parametrize("key", ["m", "tx0", "rx1", "tag", "delta"])
def test_scene_from_text_rejects_duplicate_key(key):
    """A key given twice is ConfigInvalid, even with the same value."""
    lines = _scene_record(Topology.bistatic(2, 2), 10).splitlines()
    (line,) = [x for x in lines if x.partition("=")[0] == key]
    with pytest.raises(ConfigInvalid, match="duplicate"):
        Scene.from_text("\n".join(lines + [line]))


def test_scene_shape_validation():
    topo = Topology.bistatic(2, 2)
    with pytest.raises(DimensionMismatch):
        Scene(topo=topo, tx=np.zeros((3, 3)), rx=np.zeros((2, 3)), tag=np.zeros(3))
    with pytest.raises(DimensionMismatch):
        Scene(topo=topo, tx=np.zeros((2, 3)), rx=None, tag=np.zeros(3))
    with pytest.raises(DimensionMismatch, match="rx shape"):
        Scene(topo=topo, tx=np.zeros((2, 3)), rx=np.zeros((3, 3)), tag=np.zeros(3))
    with pytest.raises(DimensionMismatch, match="tag must be a 3D point"):
        Scene(topo=topo, tx=np.zeros((2, 3)), rx=np.zeros((2, 3)), tag=np.zeros(2))


def test_monostatic_scene_rejects_an_rx_other_than_its_tx():
    """A monostatic scene's receivers are its transmitters: an ``rx`` with
    other coordinates raised nothing and was dropped for ``tx``, so the
    scene gave monostatic delays for a bistatic geometry.  ``rx`` left None,
    or holding ``tx``'s coordinates, still gives ``rx is tx``, and so does
    ``dataclasses.replace``, which passes ``rx`` on."""
    topo = Topology.monostatic(5)
    tx, tag = noise_rng(13, 0).random((5, 3)), np.full(3, 0.5)
    for other in (tx + 1.0, tx[:4], np.zeros((5, 3))):
        with pytest.raises(DimensionMismatch, match="receivers are the transmitters"):
            Scene(topo, tx, tag, rx=other)
    for rx in (None, tx.copy(), tx.tolist()):
        scene = Scene(topo, tx, tag, rx=rx)
        assert scene.rx is scene.tx
    moved = dataclasses.replace(scene, tag=np.zeros(3), delta=1e-9)
    assert moved.rx is moved.tx and np.array_equal(moved.tx, tx)


def test_coincident_points_give_zero_delay():
    topo = Topology.bistatic(1, 1)
    point = np.array([[1.0, 2.0, 3.0]])
    scene = Scene(topo=topo, tx=point, rx=point.copy(), tag=point[0].copy())
    assert true_delays(scene.tx, scene.rx, scene.tag, scene.delta)[0, 0] == 0.0


def test_true_delays_of_a_stack_match_each_scene():
    topo = Topology.bistatic(4, 3)
    scenes = [random_scene(topo, 10.0, noise_rng(12, index)) for index in range(6)]
    stack = true_delays(
        np.stack([s.tx for s in scenes]),
        np.stack([s.rx for s in scenes]),
        np.stack([s.tag for s in scenes]),
    )
    assert np.array_equal(stack, np.stack([true_delays(s.tx, s.rx, s.tag) for s in scenes]))


@pytest.mark.parametrize(
    "tx, rx, tag",
    [
        ((4, 3), (3, 3), (3,)),
        ((6, 4, 3), (6, 3, 3), (6, 3)),
        ((2, 1, 4, 3), (3, 3), (5, 3)),
        ((4, 3), None, (3,)),
        ((5, 5, 3), None, (5, 3)),
        ((2, 1, 5, 3), None, (5, 3)),
    ],
    ids=["scene", "stack", "broadcast", "mono-scene", "mono-stack", "mono-broadcast"],
)
def test_true_delays_keep_the_bits_of_the_norm_formula(tx, rx, tag):
    """Each entry equals ``delta + (|tx_i - tag| + |rx_j - tag|) / c`` with
    the norms of ``np.linalg.norm(..., axis=-1)``, bit for bit, for a lone
    scene, a stack and broadcast leading axes, bistatic and monostatic
    (``rx`` None: the transmitters)."""
    rng = noise_rng(14, len(tx))
    tx, tag = rng.random(tx) * 20.0 - 5.0, rng.random(tag) * 20.0 - 5.0
    rx = tx if rx is None else rng.random(rx) * 20.0 - 5.0
    delta = 3e-9
    up = np.linalg.norm(tx - tag[..., None, :], axis=-1)
    down = np.linalg.norm(rx - tag[..., None, :], axis=-1)
    expected = delta + (up[..., :, None] + down[..., None, :]) / SPEED_OF_LIGHT
    assert np.array_equal(true_delays(tx, rx, tag, delta), expected)


@pytest.mark.parametrize(
    "tx, rx, tag",
    [
        ((2, 4, 3), (3, 3, 3), (2, 3)),
        ((2, 4, 3), (3, 3), (3, 3)),
        ((4, 2), (3, 2), (2,)),
        ((4, 3), (3, 3), (4,)),
        ((3,), (3, 3), (3,)),
        ((4, 3), (3, 3), ()),
    ],
    ids=["tx-rx-lead", "tag-lead", "2d-points", "4d-tag", "1d-tx", "0d-tag"],
)
def test_true_delays_rejects_shapes_that_are_not_point_stacks(tx, rx, tag):
    """Leading axes that do not broadcast raised numpy's ValueError, and 2D
    or 4D points gave delay matrices."""
    with pytest.raises(DimensionMismatch):
        true_delays(np.zeros(tx), np.zeros(rx), np.zeros(tag))


def test_true_delays_broadcasts_leading_axes():
    """One anchor set against a stack of tags gives a stack of matrices."""
    scene = random_scene(Topology.bistatic(4, 3), 10.0, noise_rng(12, 9))
    tags = scene.tag + np.arange(6.0).reshape(2, 3, 1)
    got = true_delays(scene.tx, scene.rx[None], tags)
    assert got.shape == (2, 3, 4, 3)
    assert np.array_equal(got[1, 2], true_delays(scene.tx, scene.rx, tags[1, 2]))


def test_synth_observations_lays_out_a_stack_per_matrix():
    """A (2, m, n) stack gives (2, L m, n) pilot rows, the layout
    ``ls_estimate`` reads, and draws each matrix's noise as a lone matrix
    draws it from the same stream in turn.  Repeating along axis 0 made a
    (4, m, n) stack, which ``ls_estimate`` read as four estimates."""
    t = np.arange(24.0).reshape(2, 4, 3) * 1e-9
    y = synth_observations(t, 2, 0.0, noise_rng(1, 0))
    assert y.shape == (2, 8, 3)
    assert np.array_equal(ls_estimate(y, Topology.bistatic(4, 3)), t)
    rng = noise_rng(1, 0)
    each = np.stack([synth_observations(x, 2, 1e-9, rng) for x in t])
    assert np.array_equal(synth_observations(t, 2, 1e-9, noise_rng(1, 0)), each)


def test_synth_observations_rejects_a_vector():
    with pytest.raises(DimensionMismatch):
        synth_observations(np.zeros(3), 2, 0.0, noise_rng(1, 0))


@pytest.mark.parametrize("length", [0, 2.5, 2.0, "2"])
def test_pilot_length_rule_is_shared(length):
    """``synth_observations`` and ``check_sigma``, the two owners of the
    pilot length, apply one rule, an integer (``operator.index``) >= 1,
    with one message; ``check_sigma`` took 2.5, which
    ``synth_observations`` rejected."""
    calls = [
        lambda: synth_observations(np.zeros((2, 2)), length, 1e-9, noise_rng(1, 0)),
        lambda: check_sigma(1e-9, (length,)),
    ]
    messages = set()
    for call in calls:
        with pytest.raises(InvalidValue) as info:
            call()
        messages.add(str(info.value))
    assert len(messages) == 1


@pytest.mark.parametrize(
    "call",
    [
        lambda: Scene(Topology.monostatic(1), tx=np.zeros((1, 3)), tag=np.zeros(3), delta=-1.0),
        lambda: synth_observations(np.zeros((2, 2)), 0, 1e-9, noise_rng(1, 0)),
        lambda: synth_observations(np.zeros((2, 2)), 2.5, 1e-9, noise_rng(1, 0)),
        lambda: synth_observations(np.zeros((2, 2)), 2.0, 1e-9, noise_rng(1, 0)),
        lambda: synth_observations(np.zeros((2, 2)), 2, -1e-9, noise_rng(1, 0)),
        lambda: random_scene(Topology.bistatic(2, 2), 0.0, noise_rng(1, 0)),
    ],
    ids=[
        "scene-delta", "synth-pilot-len", "synth-pilot-len-2.5", "synth-pilot-len-2.0",
        "synth-sigma", "cube-side",
    ],
)
def test_bad_scalar_arguments_raise_package_error(call):
    """A pilot length of 2.5 used to repeat each row twice."""
    with pytest.raises(BstoaError) as info:
        call()
    assert isinstance(info.value, InvalidValue)
    assert isinstance(info.value, ValueError)  # what callers caught before


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "call",
    [
        lambda bad: synth_observations(np.zeros((2, 2)), 2, bad, noise_rng(1, 0)),
        lambda bad: random_scene(Topology.bistatic(2, 2), bad, noise_rng(1, 0)),
    ],
    ids=["synth-sigma", "cube-side"],
)
def test_non_finite_scalar_arguments_raise_non_finite_input(call, bad):
    """A NaN sigma used to give finite, noise-free rows, and a NaN or inf
    cube side raised OverflowError from the generator."""
    with pytest.raises(NonFiniteInput):
        call(bad)


def test_synth_observations_accepts_numpy_integer_pilot_len():
    t = np.arange(4.0).reshape(2, 2)
    y = synth_observations(t, np.int64(3), 0.0, noise_rng(1, 0))
    assert np.array_equal(y, np.repeat(t, 3, axis=0))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "kind, field",
    [(Kind.BISTATIC, field) for field in ("tx", "rx", "tag", "delta")]
    + [(Kind.MONOSTATIC, field) for field in ("tx", "tag", "delta")],
)
def test_scene_rejects_non_finite_values(kind, field, bad):
    """The constructor checks finiteness, as ``Scene.from_text`` did."""
    topo = Topology(kind, 2, 3 if kind is Kind.BISTATIC else 2)
    scene = random_scene(topo, 10.0, noise_rng(8, 8))
    values = {"tx": scene.tx.copy(), "tag": scene.tag.copy(), "delta": 1e-9}
    if topo.kind is Kind.BISTATIC:
        values["rx"] = scene.rx.copy()
    if field == "delta":
        values["delta"] = bad
    else:
        values[field].flat[-1] = bad
    with pytest.raises(NonFiniteInput):
        Scene(topo, **values)


def test_noise_stream_keys_wrap_mod_2_64():
    wrapped = noise_rng(2**64 + 9, 2**64 + 5).standard_normal(8)
    assert np.array_equal(wrapped, noise_rng(9, 5).standard_normal(8))
    assert np.array_equal(
        noise_rng(-1, -1).standard_normal(8), noise_rng(2**64 - 1, 2**64 - 1).standard_normal(8)
    )


def test_noise_stream_is_sfc64_seeded_by_the_pair():
    """Stream contract v6: mse and crlb chunks draw from SFC64 seeded by
    ``SeedSequence([seed, index])``; neighbouring keys give other draws."""
    want = np.random.Generator(np.random.SFC64(np.random.SeedSequence([7, 3])))
    assert np.array_equal(noise_rng(7, 3).standard_normal(16), want.standard_normal(16))
    draws = [noise_rng(*key).standard_normal(4) for key in ((7, 3), (7, 4), (8, 3), (3, 7))]
    assert len({d.tobytes() for d in draws}) == 4
