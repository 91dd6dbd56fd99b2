"""Localization solver tests, with a brute-force grid oracle."""

import functools
import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bstoa import localization
from bstoa.channel import SPEED_OF_LIGHT, noise_rng, random_scene, true_delays
from bstoa.errors import (
    BstoaError,
    DimensionMismatch,
    InvalidValue,
    NonFiniteInput,
    SingularGeometry,
    UnderDetermined,
)
from bstoa.harness import ExperimentKind, SweepConfig, _loc_terms
from bstoa.localization import localize_bistatic, localize_monostatic
from bstoa.estimator import refine_estimate
from bstoa.topology import Kind, Topology


def _bistatic_case(seed, m=4, n=3, sigma=0.0):
    rng = noise_rng(seed, 0)
    scene = random_scene(Topology.bistatic(m, n), 10.0, rng)
    t = true_delays(scene.tx, scene.rx, scene.tag, scene.delta)
    if sigma > 0.0:
        t = t + rng.normal(0.0, sigma, t.shape)
    return scene, t


def _monostatic_case(seed, m=6, sigma=0.0):
    rng = noise_rng(seed, 0)
    scene = random_scene(Topology.monostatic(m), 10.0, rng)
    t = true_delays(scene.tx, scene.rx, scene.tag, scene.delta)
    if sigma > 0.0:
        noise = rng.normal(0.0, sigma, t.shape)
        t = t + noise
    return scene, t


def _oracle_localize(t, tx, rx, delta, grid_step, bounds):
    """Exhaustive grid minimizer of the bistatic range-sum residual: scans
    an axis-aligned box at ``grid_step`` resolution and returns the best
    grid point.  Meant for small boxes or coarse steps."""
    if grid_step <= 0.0:
        raise ValueError(f"grid_step must be > 0, got {grid_step}")
    lo, hi = bounds
    k = SPEED_OF_LIGHT * (t - delta)
    axes = [np.arange(lo[d], hi[d] + 0.5 * grid_step, grid_step) for d in range(3)]
    gx, gy, gz = np.meshgrid(*axes, indexing="ij")
    grid = np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()])
    da = np.sqrt(((grid[:, None, :] - tx[None, :, :]) ** 2).sum(axis=2))
    db = np.sqrt(((grid[:, None, :] - rx[None, :, :]) ** 2).sum(axis=2))
    total = np.zeros(grid.shape[0])
    for i in range(tx.shape[0]):
        for j in range(rx.shape[0]):
            d = k[i, j] - da[:, i] - db[:, j]
            total += d * d
    return grid[int(np.argmin(total))]


def _reference_gauss_newton(ts, txs, rxs, p0, max_iterations=5000):
    """Damped Gauss-Newton on all m n range-sum rows of a batch, run far
    past the library's iteration cap: the reference the row/column Newton
    solver is compared against.  Returns the positions and their sums of
    squared residuals.  A scene leaves the working set once it stops, so
    the slowest scenes iterate alone."""
    ks = SPEED_OF_LIGHT * ts
    count, m, n = ks.shape

    def residuals(scene, p):
        da = np.linalg.norm(txs[scene] - p[:, None, :], axis=2)
        db = np.linalg.norm(rxs[scene] - p[:, None, :], axis=2)
        r = ks[scene] - da[:, :, None] - db[:, None, :]
        return r, da, db, (r * r).sum(axis=(1, 2))

    p = p0.copy()
    # The working set: the batch index of each active scene and its terms.
    scene = np.arange(count)
    r, da, db, cost = residuals(scene, p)
    for _ in range(max_iterations):
        if not scene.size:
            break
        u = (txs[scene] - p[scene, None, :]) / da[:, :, None]
        v = (rxs[scene] - p[scene, None, :]) / db[:, :, None]
        jac = (u[:, :, None, :] + v[:, None, :, :]).reshape(scene.size, m * n, 3)
        rhs = np.einsum("tki,tk->ti", jac, r.reshape(scene.size, m * n))
        step = -np.linalg.solve(np.einsum("tki,tkj->tij", jac, jac), rhs[:, :, None])[:, :, 0]
        pending = np.arange(scene.size)
        for _ in range(40):
            at = scene[pending]
            r_c, da_c, db_c, cost_c = residuals(at, p[at] + step[pending])
            ok = cost_c <= cost[at]
            done = pending[ok]
            p[at[ok]] += step[done]
            r[done], da[done], db[done], cost[at[ok]] = r_c[ok], da_c[ok], db_c[ok], cost_c[ok]
            pending = pending[~ok]
            if not pending.size:
                break
            step[pending] *= 0.5
        keep = np.linalg.norm(step, axis=1) >= 1e-13
        keep[pending] = False
        scene, r, da, db = scene[keep], r[keep], da[keep], db[keep]
    return p, cost


CHUNK_TRIALS = 512


def _trials_last_batch(m, n, sigma, count, master_seed, stream, pilot_len=2):
    """A batch of bistatic scenes at L = 2 with the trials on the last,
    contiguous axis: from ``noise_rng(master_seed, stream)``, the unit
    coordinates of every scene (a row of tx, rx and tag per trial) scaled
    to a 10 m cube, then an (m, n, count) standard normal plane z, and LS
    delays truth + (sigma / sqrt(L)) z.  Returns the anchors and the LS and
    refined delay matrices as (count, ...) views."""
    rng = noise_rng(master_seed, stream)
    points = np.ascontiguousarray(rng.random((count, m + n + 1, 3)).T) * 10.0
    txs, rxs, tags = points[:, :m].T, points[:, m:-1].T, points[:, -1].T
    z = rng.standard_normal((m, n, count)) * (sigma / np.sqrt(pilot_len))
    t_hats = (z + true_delays(txs, rxs, tags).transpose(1, 2, 0)).transpose(2, 0, 1)
    return txs, rxs, t_hats, refine_estimate(t_hats, Topology.bistatic(m, n))


def _bistatic_chunk(sigma, chunk=0):
    """One 512-trial batch of bistatic 4x3 scenes at L = 2: anchors, LS and
    refined delay matrices."""
    return _trials_last_batch(4, 3, sigma, CHUNK_TRIALS, 6_100, chunk)


def _sum_squared_residual(t, tx, rx, delta, p):
    k = SPEED_OF_LIGHT * (t - delta)
    da = np.linalg.norm(tx - p, axis=1)
    db = np.linalg.norm(rx - p, axis=1)
    return float(((k - (da[:, None] + db[None, :])) ** 2).sum())


@pytest.mark.parametrize("seed", range(20))
def test_bistatic_noiseless_exact_recovery(seed):
    scene, t = _bistatic_case(1000 + seed)
    p, rnorm, iterations = localize_bistatic(t, scene.tx, scene.rx)
    assert np.linalg.norm(p - scene.tag) < 1e-6
    assert iterations <= 100
    assert rnorm >= 0.0


@pytest.mark.parametrize("seed", range(20))
def test_monostatic_noiseless_exact_recovery(seed):
    scene, t = _monostatic_case(2000 + seed)
    p, _, _ = localize_monostatic(t, scene.tx)
    assert np.linalg.norm(p - scene.tag) < 1e-6


def test_bistatic_under_determined():
    # 1x3 and 2x2 carry m + n - 1 = 3 independent range sums
    # (k11 + k22 = k12 + k21), too few for three coordinates.
    for m, n in ((1, 3), (2, 2)):
        scene, t = _bistatic_case(3000, m=m, n=n)
        with pytest.raises(UnderDetermined):
            localize_bistatic(t, scene.tx, scene.rx)
        with pytest.raises(UnderDetermined):
            localize_bistatic(t[None], scene.tx[None], scene.rx[None])


@pytest.mark.parametrize(
    "func, shapes",
    [
        (localize_bistatic, [(1, 4, 3), (1, 4, 3), (1, 2, 3)]),
        (localize_bistatic, [(4, 3), (1, 4, 3), (1, 3, 3)]),
        (localize_bistatic, [(2, 4, 3), (3, 4, 3), (3, 3, 3)]),
        (localize_bistatic, [(1, 4, 3), (1, 4, 2), (1, 3, 2)]),
        (localize_monostatic, [(1, 6, 6), (1, 5, 3)]),
        (localize_monostatic, [(2, 6, 6), (1, 6, 3)]),
        (localize_monostatic, [(1, 6, 5), (1, 6, 3)]),
        (localize_bistatic, [(4, 3), (4, 3), (2, 3)]),
        (localize_monostatic, [(6, 6), (5, 3)]),
        (localize_bistatic, [(2, 3, 4, 3), (3, 2, 4, 3), (2, 3, 3, 3)]),
        (localize_monostatic, [(2, 3, 6, 6), (3, 2, 6, 3)]),
        (localize_bistatic, [(4,), (4, 3), (1, 3)]),
    ],
    ids=["bi-rx-count", "bi-2d-ts", "bi-batch-size", "bi-2d-points", "mono-anchor-count",
         "mono-batch-size", "mono-not-square", "bi-single", "mono-single", "bi-nested-lead",
         "mono-nested-lead", "bi-1d-ts"],
)
def test_localizers_reject_mismatched_shapes(func, shapes):
    """The leading axes of delays and anchors must agree exactly: a lone
    (2-D) delay matrix takes a lone scene's anchors, not a stack of one."""
    with pytest.raises(DimensionMismatch):
        func(*(np.zeros(shape) for shape in shapes))


def test_monostatic_under_determined():
    scene, t = _monostatic_case(3001, m=3)
    with pytest.raises(UnderDetermined):
        localize_monostatic(t, scene.tx)


def test_monostatic_coplanar_anchors_detected():
    anchors = np.array(
        [[0.0, 0.0, 0.0], [10.0, 0.0, 0.0], [0.0, 10.0, 0.0], [10.0, 10.0, 0.0], [5.0, 2.0, 0.0]]
    )
    tag = np.array([4.0, 6.0, 3.0])
    d = np.linalg.norm(anchors - tag, axis=1)
    t = (d[:, None] + d[None, :]) / SPEED_OF_LIGHT
    with pytest.raises(SingularGeometry):
        localize_monostatic(t, anchors)


def test_bistatic_collinear_anchors_detected():
    tx = np.column_stack([np.arange(1.0, 5.0), np.zeros(4), np.zeros(4)])
    rx = np.column_stack([np.arange(6.0, 9.0), np.zeros(3), np.zeros(3)])
    tag = np.array([2.0, 0.0, 0.0])
    t = (
        np.linalg.norm(tx - tag, axis=1)[:, None]
        + np.linalg.norm(rx - tag, axis=1)[None, :]
    ) / SPEED_OF_LIGHT
    with pytest.raises(SingularGeometry):
        localize_bistatic(t, tx, rx)


@pytest.mark.parametrize("monostatic", [False, True], ids=["bi4x3", "mono5"])
def test_a_scene_with_no_fix_leaves_its_stack_alone(monostatic):
    """The degenerate scene of the two tests above, in scene units, in the
    middle of a stack of 64 drawn scenes: the solver flags that scene alone,
    and every other scene's position, residual and count equals its value
    from the stack without it, bit for bit.  The scene runs through the
    Newton loop and the step halvings with the others."""
    if monostatic:
        anchors = np.array([
            [0.0, 0.0, 0.0], [10.0, 0.0, 0.0], [0.0, 10.0, 0.0], [10.0, 10.0, 0.0], [5.0, 2.0, 0.0]
        ])
        tag, solve = np.array([4.0, 6.0, 3.0]), localization._fix_monostatic
    else:
        # Transmitters at x = 1..4 over receivers at x = 6..8.
        anchors = np.column_stack([np.r_[1.0:5.0, 6.0:9.0], np.zeros(7), np.zeros(7)])
        tag = np.array([2.0, 0.0, 0.0])

        def solve(points, terms):
            return localization._fix_bistatic(points, terms, 4)

    k, count, at = len(anchors), 64, 32
    rng = np.random.default_rng(4700)
    drawn = rng.random((3, k + 1, count))
    points = np.ascontiguousarray(drawn[:, :k])
    ranges = np.sqrt(((points - drawn[:, k:]) ** 2).sum(axis=0))
    ranges += 1e-3 * rng.standard_normal(ranges.shape)
    odd_ranges = np.linalg.norm(anchors - tag, axis=1) / 16.0
    *stacked, singular = solve(
        np.insert(points, at, anchors.T / 16.0, axis=2), np.insert(ranges, at, odd_ranges, axis=1)
    )
    *alone, none = solve(points, ranges)
    assert np.array_equal(np.flatnonzero(singular), [at])
    assert not none.any()
    for got, want in zip(stacked, alone):
        assert np.array_equal(np.delete(got, at, axis=-1), want)


_NO_FIX_SCENES = ["bi4x3", "mono5", "mono5-polished"]


def _scene_with_no_fix(kind):
    """A scene with no fix, in meters: its delays, transmitters and
    receivers (the transmitters again if monostatic).  ``bi4x3`` is the
    collinear scene of ``test_bistatic_collinear_anchors_detected`` and
    ``mono5`` the coplanar one of ``test_monostatic_coplanar_anchors_detected``.
    ``mono5-polished`` lifts those anchors off their plane by up to 10 µm
    and moves its ranges by up to 2 mm: its rank test still fails, and its
    meaningless closed-form fix takes the polish step."""
    if kind == "bi4x3":
        tx = np.column_stack([np.arange(1.0, 5.0), np.zeros(4), np.zeros(4)])
        rx = np.column_stack([np.arange(6.0, 9.0), np.zeros(3), np.zeros(3)])
        d_tx, d_rx = (np.linalg.norm(x - [2.0, 0.0, 0.0], axis=1) for x in (tx, rx))
        return (d_tx[:, None] + d_rx[None, :]) / SPEED_OF_LIGHT, tx, rx
    tx = np.array(
        [[0.0, 0.0, 0.0], [10.0, 0.0, 0.0], [0.0, 10.0, 0.0], [10.0, 10.0, 0.0], [5.0, 2.0, 0.0]]
    )
    d = np.linalg.norm(tx - [4.0, 6.0, 3.0], axis=1)
    if kind == "mono5-polished":
        tx[:, 2] = [4e-6, -4e-6, 4e-6, 5e-6, -1e-5]
        d = np.linalg.norm(tx - [4.0, 6.0, 3.0], axis=1) + [-2e-3, -1e-3, 2e-3, 0.0, -1e-3]
    return (d[:, None] + d[None, :]) / SPEED_OF_LIGHT, tx, tx


def _localize(monostatic, t, tx, rx):
    return localize_monostatic(t, tx) if monostatic else localize_bistatic(t, tx, rx)


@pytest.mark.parametrize("kind", _NO_FIX_SCENES)
def test_localizers_mark_a_scene_with_no_fix(kind):
    """The public localizers' rule for a scene with no fix: the scene of
    ``_scene_with_no_fix`` at index 32 of 64 drawn noisy scenes reads a NaN
    position and a NaN residual norm (monostatic polish flag 0), and every
    other scene's outputs equal those of the stack without it, bit for
    bit."""
    monostatic = kind != "bi4x3"
    at, cases = 32, [
        _monostatic_case(4800 + i, m=5, sigma=1e-9) if monostatic
        else _bistatic_case(4800 + i, sigma=1e-9)
        for i in range(64)
    ]
    stacks = [np.stack([t for _, t in cases])] + [
        np.stack([getattr(scene, key) for scene, _ in cases]) for key in ("tx", "rx")
    ]
    odd = _scene_with_no_fix(kind)
    stacked = _localize(monostatic, *(np.insert(x, at, y, axis=0) for x, y in zip(stacks, odd)))
    alone = _localize(monostatic, *stacks)
    p, norm, count = (x[at] for x in stacked)
    assert np.isnan(p).all() and np.isnan(norm)
    if monostatic:
        assert count == 0
    for got, want in zip(stacked, alone):
        assert np.array_equal(np.delete(got, at, axis=0), want)
    assert all(np.isfinite(x).all() for x in alone)


@pytest.mark.parametrize("kind", _NO_FIX_SCENES)
def test_a_stack_where_no_scene_has_a_fix_raises(kind):
    """The localizers raise only when no scene of a stack has a fix: here
    two, the scene of ``_scene_with_no_fix`` and a copy moved 5 m."""
    t, tx, rx = _scene_with_no_fix(kind)
    shift = np.array([0.0, 0.0, 5.0])
    stacks = np.stack([t, t]), np.stack([tx, tx + shift]), np.stack([rx, rx + shift])
    with pytest.raises(SingularGeometry, match="in 2 of 2 scenes"):
        _localize(kind != "bi4x3", *stacks)


def test_empty_stacks_return_empty_arrays():
    """A stack of no scenes has no scene without a fix either: both
    localizers return empty (0, 3), (0,) and (0,) arrays."""
    for out in (
        localize_bistatic(np.zeros((0, 4, 3)), np.zeros((0, 4, 3)), np.zeros((0, 3, 3))),
        localize_monostatic(np.zeros((0, 5, 5)), np.zeros((0, 5, 3))),
    ):
        assert [x.shape for x in out] == [(0, 3), (0,), (0,)]


def test_residual_nonincreasing_across_accepted_steps(monkeypatch):
    """Capping the solver at 0, 1, 2, ... iterations replays its iterates;
    the residual norm never increases from one to the next."""
    scene, t = _bistatic_case(3200, sigma=3e-9)
    steps = localize_bistatic(t, scene.tx, scene.rx)[2]
    assert steps >= 2
    norms = []
    for cap in range(steps + 2):
        monkeypatch.setattr(localization, "MAX_ITERATIONS", cap)
        norms.append(localize_bistatic(t, scene.tx, scene.rx)[1])
    assert all(b <= a for a, b in zip(norms, norms[1:]))
    assert norms[-1] < norms[0]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["t", "tx", "rx", "delta"])
def test_bistatic_rejects_non_finite_input(bad, where):
    scene, t = _bistatic_case(3400)
    args = {"t": t.copy(), "tx": scene.tx.copy(), "rx": scene.rx.copy(), "delta": 0.0}
    if where == "delta":
        args["delta"] = bad
    else:
        args[where][0, 0] = bad
    with pytest.raises(NonFiniteInput):
        localize_bistatic(**args)
    with pytest.raises(NonFiniteInput):
        localize_bistatic(args["t"][None], args["tx"][None], args["rx"][None], delta=args["delta"])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("where", ["t", "anchors", "delta"])
def test_monostatic_rejects_non_finite_input(bad, where):
    scene, t = _monostatic_case(3401)
    args = {"t": t.copy(), "anchors": scene.tx.copy(), "delta": 0.0}
    if where == "delta":
        args["delta"] = bad
    else:
        args[where][1, 1] = bad
    with pytest.raises(NonFiniteInput):
        localize_monostatic(**args)
    with pytest.raises(NonFiniteInput):
        localize_monostatic(args["t"][None], args["anchors"][None], delta=args["delta"])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "delta, complex_delays",
    [(np.array([0.0, 0.0, 5e-9]), False), (-1e-9, False), (1e-9 + 0j, False), (0.0, True)],
    ids=["array-delta", "negative-delta", "complex-delta", "complex-delays"],
)
def test_localizers_take_one_real_delta_and_real_delays(delta, complex_delays):
    """delta is one finite real number >= 0 for the whole stack, the rule
    a Scene applies, and the delays are real.  On this 3-scene 4x3 stack
    delta = [0, 0, 5e-9] used to broadcast along the receivers and move
    the fixes by 0.8 to 3.1 m without a word; a negative delta was taken,
    and complex delays lost their imaginary part with a ComplexWarning.
    ``true_delays`` takes delta by the same rule."""
    bi = [_bistatic_case(3410 + index) for index in range(3)]
    mono = [_monostatic_case(3413 + index) for index in range(3)]
    tx, rx, tag = (np.stack([getattr(s, key) for s, _ in bi]) for key in ("tx", "rx", "tag"))
    t_bi, t_mono = (np.stack([t for _, t in cases]) for cases in (bi, mono))
    if complex_delays:
        t_bi, t_mono = t_bi + 1e-12j, t_mono + 1e-12j
    with pytest.raises(InvalidValue):
        localize_bistatic(t_bi, tx, rx, delta=delta)
    with pytest.raises(InvalidValue):
        localize_monostatic(t_mono, np.stack([scene.tx for scene, _ in mono]), delta=delta)
    if not complex_delays:
        with pytest.raises(InvalidValue):
            true_delays(tx, rx, tag, delta)


@pytest.mark.parametrize("delay", [1e150, 1e301])
def test_localizers_reject_ranges_that_overflow(delay):
    """Finite delays whose ranges c (t - delta) overflow (1e301 s), or
    whose ranges' powers in the solvers do (1e150 s), make both
    localizers raise instead of returning the anchor centroid with a NaN
    residual."""
    bi, t_bi = _bistatic_case(3402)
    mono, t_mono = _monostatic_case(3403)
    huge_bi, huge_mono = np.full_like(t_bi, delay), np.full_like(t_mono, delay)
    with pytest.raises(NonFiniteInput, match="2\\^128 m"):
        localize_bistatic(huge_bi[None], bi.tx[None], bi.rx[None])
    with pytest.raises(NonFiniteInput, match="2\\^128 m"):
        localize_monostatic(huge_mono[None], mono.tx[None])


@pytest.mark.parametrize("scale", [2.0**128, 1e100])
def test_localizers_reject_anchors_beyond_the_range_limit(scale):
    """Anchor coordinates that reach 2^128 m raise, naming the range, even
    where the delays give small ranges: the solvers' sums of squared
    coordinates used to overflow to a NaN fix or a false singular one."""
    bi, t_bi = _bistatic_case(3404)
    mono, t_mono = _monostatic_case(3405)
    rx = bi.rx.copy()
    rx[1, 2] = scale
    with pytest.raises(NonFiniteInput, match="anchor coordinates .* 2\\^128 m"):
        localize_bistatic(t_bi[None], bi.tx[None], rx[None])
    tx = mono.tx.copy()
    tx[3, 0] = -scale
    with pytest.raises(NonFiniteInput, match="anchor coordinates .* 2\\^128 m"):
        localize_monostatic(t_mono[None], tx[None])


def test_bistatic_rejects_an_off_subspace_range_that_overflows():
    """A delay matrix whose fitted sums are in range but whose own range
    sums are not would give an infinite residual norm; it raises."""
    bi, t = _bistatic_case(3406)
    t = t.copy()
    t[1:3, 1:3] += np.array([[1.0, -1.0], [-1.0, 1.0]]) * 1e299
    with pytest.raises(NonFiniteInput, match="2\\^128 m"):
        localize_bistatic(t[None], bi.tx[None], bi.rx[None])


def _scaled_scene(seed, scale, monostatic=False):
    """A noiseless 4x3 bistatic (or 6-anchor monostatic) scene in a 10 m
    cube with every coordinate multiplied by ``scale``, and its range sums
    (monostatic: ranges) in meters, computed at that scale."""
    scene, _ = _monostatic_case(seed) if monostatic else _bistatic_case(seed)
    tx, rx, tag = scene.tx * scale, scene.rx * scale, scene.tag * scale
    da, db = np.linalg.norm(tx - tag, axis=1), np.linalg.norm(rx - tag, axis=1)
    return tx, rx, tag, da if monostatic else da[:, None] + db[None, :]


def test_fixes_at_1e38_m_are_finite_and_exact():
    """Anchors at 1e37-1e38 m, just inside the range limit, give finite
    fixes within 1e-9 relative of the tag, with every warning an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tx, rx, tag, ks = _scaled_scene(3407, 1e37)
        p, rnorm, _ = localize_bistatic((ks / SPEED_OF_LIGHT)[None], tx[None], rx[None])
        assert np.isfinite(rnorm).all()
        assert np.linalg.norm(p[0] - tag) <= 1e-9 * np.linalg.norm(tag)
        tx, _, tag, ranges = _scaled_scene(3408, 1e37, monostatic=True)
        t = (ranges[:, None] + ranges[None, :]) / SPEED_OF_LIGHT
        p, rnorm, _ = localize_monostatic(t[None], tx[None])
        assert np.isfinite(rnorm).all()
        assert np.linalg.norm(p[0] - tag) <= 1e-9 * np.linalg.norm(tag)


def _fix_of(tx, rx, tag, t, monostatic):
    """The public fix of one scene: position and iterations."""
    if monostatic:
        p, _, iterations = localize_monostatic(t, tx)
    else:
        p, _, iterations = localize_bistatic(t, tx, rx)
    return p, int(iterations)


@pytest.mark.parametrize(
    "monostatic, scale, shift",
    [
        (False, 1e30, 0.0), (False, 1e-50, 0.0), (True, 1e-50, 0.0),
        (False, 1.0, 1e8), (True, 1.0, 1e7), (True, 1.0, 1e8),
    ],
    ids=["bi-1e30", "bi-1e-50", "mono-1e-50", "bi-shift-1e8", "mono-shift-1e7", "mono-shift-1e8"],
)
def test_scaled_and_shifted_scenes_fix_in_their_frame(monostatic, scale, shift):
    """Noiseless scenes of a 10 m cube scaled by ``scale`` and shifted by
    ``shift`` m per axis fix within 1e-9 of the scaled cube, plus 4 ulps of
    the shift, in at most 10 iterations.  The solvers' meter tolerances
    used to run the 1e30 bistatic scene to MAX_ITERATIONS, leave the 1e-50
    scenes 0.87 (bistatic) and 1.5 (monostatic) cube sides off after 0
    iterations, and leave the monostatic scene 1.45e-6 m off at a 1e7 m
    shift and 2.37e-3 m at 1e8 m."""
    tx, rx, tag, ks = _scaled_scene(1, scale, monostatic)
    tx, rx, tag = tx + shift, rx + shift, tag + shift
    t = (ks[:, None] + ks[None, :] if monostatic else ks) / SPEED_OF_LIGHT
    p, iterations = _fix_of(tx, rx, tag, t, monostatic)
    assert np.linalg.norm(p - tag) <= 1e-9 * 10.0 * scale + 4 * np.spacing(shift)
    assert iterations <= 10


@pytest.mark.parametrize("sigma", [1e-10, 1e-9, 3e-9, 1e-8])
@pytest.mark.parametrize("m, n", [(4, 3), (8, 8)])
def test_bistatic_fix_does_not_depend_on_the_anchor_order(m, n, sigma):
    """Listing tx_1 .. tx_{m-1} and the receivers in reverse order, with the
    delay matrices' rows and columns permuted to match, moves no fix of 512
    noisy scenes in a 10 m cube by more than 1e-7 of its 16 m scene unit,
    1.6e-6 m, and no residual norm by more than 1e-9 relative.  tx_0 stays
    first, the warm start's reference.  The fixes agree to rounding, not
    bit for bit: sums over anchors change order, and the solver stops an
    ill-conditioned scene at the rounding floor of |R|^2."""
    txs, rxs, t_hats, _ = _trials_last_batch(m, n, sigma, CHUNK_TRIALS, 6_300, 0)
    order = np.r_[0, m - 1 : 0 : -1]
    p, rnorm, _ = localize_bistatic(t_hats, txs, rxs)
    q, qnorm, _ = localize_bistatic(t_hats[:, order, ::-1], txs[:, order], rxs[:, ::-1])
    assert (np.abs(qnorm - rnorm) <= 1e-9 * rnorm).all()
    assert np.linalg.norm(q - p, axis=1).max() <= 1e-7 * 16.0


@st.composite
def _moved_scene(draw):
    """A 4x3 bistatic or 6-anchor monostatic scene in a 10 m cube, noiseless
    or with 3 cm of delay noise (sigma = 1e-10 s), and the move s x + o of
    it: s = 2^k for k in [-150, 120], o up to 1e6 s span per axis."""
    monostatic = draw(st.booleans())
    seed = draw(st.integers(0, 2**16))
    sigma = draw(st.sampled_from([0.0, 1e-10]))
    scene, t = _monostatic_case(seed, sigma=sigma) if monostatic else _bistatic_case(
        seed, sigma=sigma
    )
    k = draw(st.integers(-150, 120))
    anchors = np.concatenate([scene.tx, scene.rx])
    span = np.ptp(anchors, axis=0).max()
    unit_offset = draw(arrays(np.float64, 3, elements=st.floats(-1e6, 1e6)))
    return scene, t, sigma, k, np.ldexp(unit_offset * span, k), span


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=_moved_scene())
def test_fixes_move_with_their_scene(case):
    """fix(s scene + o) lies within 1e-9 s span, plus 4 ulps of o, of s
    fix(scene) + o, for s = 2^k with k in [-150, 120] and |o| <= 1e6 s span
    per axis; a noiseless scene takes at most 10 iterations either way.  A
    move that takes an anchor past RANGE_LIMIT raises NonFiniteInput."""
    scene, t, sigma, k, offset, span = case
    monostatic = scene.topo.kind.value == "monostatic"
    p, iterations = _fix_of(scene.tx, scene.rx, scene.tag, t, monostatic)
    moved = [np.ldexp(x, k) + offset for x in (scene.tx, scene.rx, scene.tag)]
    if max(np.abs(x).max() for x in moved[:2]) >= localization.RANGE_LIMIT:
        with pytest.raises(NonFiniteInput, match="anchor coordinates"):
            _fix_of(*moved, np.ldexp(t, k), monostatic)
        return
    q, moved_iterations = _fix_of(*moved, np.ldexp(t, k), monostatic)
    gap = np.abs(q - (np.ldexp(p, k) + offset)).max()
    assert gap <= 1e-9 * np.ldexp(span, k) + 4 * np.spacing(np.abs(offset)).max()
    if sigma == 0.0:
        assert max(iterations, moved_iterations) <= 10


def _warm_start_of(txs, rxs, ks):
    """``_warm_start`` on (T, ...) stacks of anchors and range sums."""
    anchors = np.ascontiguousarray(np.concatenate([txs, rxs], axis=1).transpose(2, 1, 0))
    return localization._warm_start(anchors, ks[:, :, 0].T, ks[:, 0, :].T).T


def _lstsq_start(tx, rx, k):
    """The (p, tau) least squares solution of the differenced squared
    sphere equations of one scene, by LAPACK: with d_0 = tau the range to
    tx_0, the range to anchor a is s tau + c (s = 1, c = k[i, 0] - k[0, 0]
    for tx_i; s = -1, c = k[0, j] for rx_j), and |p - a|^2 - |p - tx_0|^2 =
    (s tau + c)^2 - tau^2 is linear in (p, tau)."""
    anchors = np.concatenate([tx[1:], rx])
    s = np.concatenate([np.ones(len(tx) - 1), -np.ones(len(rx))])
    c = np.concatenate([k[1:, 0] - k[0, 0], k[0, :]])
    design = np.column_stack([-2.0 * (anchors - tx[0]), -2.0 * s * c])
    rhs = c**2 - (anchors**2).sum(axis=1) + (tx[0] ** 2).sum()
    return np.linalg.lstsq(design, rhs, rcond=None)[0][:3]


@pytest.mark.parametrize("m, n", [(4, 3), (8, 3)])
def test_warm_start_is_the_least_squares_solution_in_p_and_tau(m, n):
    """p0 + tau p1 at the minimizing tau is the least squares solution of
    the 4-unknown system, to 1e-9 relative, on noisy random scenes."""
    txs, rxs, t_hats, _ = _trials_last_batch(m, n, 1e-9, 64, 8, 0)
    ks = SPEED_OF_LIGHT * t_hats
    got = _warm_start_of(txs, rxs, ks)
    want = np.array([_lstsq_start(*scene) for scene in zip(txs, rxs, ks)])
    assert np.all(np.linalg.norm(got - want, axis=1) <= 1e-9 * np.linalg.norm(want, axis=1))


def test_warm_start_falls_back_to_the_centroid_on_collinear_anchors():
    tx = np.column_stack([np.arange(1.0, 5.0), np.zeros(4), np.zeros(4)])
    rx = np.column_stack([np.arange(6.0, 9.0), np.zeros(3), np.zeros(3)])
    tag = np.array([2.0, 1.0, 0.5])
    k = np.linalg.norm(tx - tag, axis=1)[:, None] + np.linalg.norm(rx - tag, axis=1)[None, :]
    got = _warm_start_of(tx[None], rx[None], k[None])
    assert np.array_equal(got[0], np.concatenate([tx, rx]).mean(axis=0))


def test_warm_start_at_1e38_m_is_exact():
    """The closed form forms no power of a length above the 7th, so a
    noiseless scene at 1e38 m starts within 1e-9 relative of its tag with
    no overflow warning (the 4x4 rank rule overflowed there and fell back
    to the centroid, 9% off)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tx, rx, tag, ks = _scaled_scene(3409, 1e37)
        got = _warm_start_of(tx[None], rx[None], ks[None])[0]
    assert np.abs(ks).max() < localization.RANGE_LIMIT
    assert np.linalg.norm(got - tag) <= 1e-9 * np.linalg.norm(tag)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _any_scale_scene(draw, monostatic):
    """A batch of one or two scenes with finite anchors and delays over the
    full float64 exponent range: unit coordinates (uniform, or drawn by
    Hypothesis, which favours degenerate ones) times 2^e for one e, or
    coordinates drawn one by one over the range.  The delays are the
    scene's own (tag drawn with the anchors) or drawn one by one."""
    count = draw(st.integers(1, 2))
    m = draw(st.integers(4, 6)) if monostatic else draw(st.integers(1, 5))
    n = m if monostatic else draw(st.integers(max(1, 5 - m), 4))
    shape = (count, m + (0 if monostatic else n) + 1, 3)
    exponent = draw(st.integers(-1074, 1023))
    kind = draw(st.sampled_from(["uniform", "drawn", "any"]))
    unit = None
    if kind == "uniform":
        unit = np.random.default_rng(draw(st.integers(0, 2**32))).uniform(-1.0, 1.0, shape)
    elif kind == "drawn":
        unit = draw(arrays(np.float64, shape, elements=st.floats(-1.0, 1.0)))
    if unit is None:
        points = draw(arrays(np.float64, shape, elements=_FINITE))
    else:
        points = np.ldexp(unit, exponent)
    txs, rxs = points[:, :m], points[:, m:-1]
    if unit is not None and draw(st.booleans()):
        tag = unit[:, -1:]
        da = np.linalg.norm(unit[:, :m] - tag, axis=2)
        db = da if monostatic else np.linalg.norm(unit[:, m:-1] - tag, axis=2)
        ts = np.ldexp((da[:, :, None] + db[:, None, :]) / SPEED_OF_LIGHT, exponent)
    else:
        ts = draw(arrays(np.float64, (count, m, n), elements=_FINITE))
    return ts, txs, rxs


def _assert_fixes_or_no_fix(out):
    """Each scene of a localizer's outputs has an all-finite position and
    residual norm, or a NaN position and a NaN residual norm together (no
    fix); at least one scene has a fix, and every count is finite."""
    p, norms, counts = out
    fixed = np.isfinite(p).all(axis=-1) & np.isfinite(norms)
    no_fix = np.isnan(p).all(axis=-1) & np.isnan(norms)
    assert (fixed | no_fix).all() and fixed.any()
    assert np.isfinite(counts).all()


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(case=_any_scale_scene(monostatic=False))
def test_bistatic_batch_is_finite_or_raises(case):
    """Finite in, finite out: over the full exponent range the bistatic
    localizer, given a stack of one or two scenes, raises a BstoaError or
    returns for each scene a finite position and residual, or NaN for both
    where the scene has no fix, with at least one fix
    (``_assert_fixes_or_no_fix``); a warning would fail the test."""
    ts, txs, rxs = case
    try:
        out = localize_bistatic(ts, txs, rxs)
    except BstoaError:
        return
    _assert_fixes_or_no_fix(out)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(case=_any_scale_scene(monostatic=True))
def test_monostatic_batch_is_finite_or_raises(case):
    """The monostatic counterpart of ``test_bistatic_batch_is_finite_or_raises``."""
    ts, anchors, _ = case
    try:
        out = localize_monostatic(ts, anchors)
    except BstoaError:
        return
    _assert_fixes_or_no_fix(out)


def _assert_lone_scene_is(fix, batch, i):
    """A lone scene's (3,), () and () outputs equal scene i of a (T, m, n)
    stack's (T, 3), (T,) and (T,) outputs, bit for bit."""
    assert [x.shape for x in fix] == [(3,), (), ()]
    for got, want in zip(fix, batch):
        assert np.array_equal(got, want[i])


def _assert_bistatic_batch_matches_scalar_calls(seed, m, n, sigma=1e-9):
    scenes = [_bistatic_case(seed + i, m=m, n=n, sigma=sigma) for i in range(6)]
    ts = np.stack([t for _, t in scenes])
    txs = np.stack([s.tx for s, _ in scenes])
    rxs = np.stack([s.rx for s, _ in scenes])
    batch = localize_bistatic(ts, txs, rxs)
    for i, (scene, t) in enumerate(scenes):
        _assert_lone_scene_is(localize_bistatic(t, scene.tx, scene.rx), batch, i)


def _assert_monostatic_batch_matches_scalar_calls(seed, m):
    scenes = [_monostatic_case(seed + i, m=m, sigma=1e-9) for i in range(6)]
    ts = np.stack([t for _, t in scenes])
    anchors = np.stack([s.tx for s, _ in scenes])
    batch = localize_monostatic(ts, anchors)
    for i, (scene, t) in enumerate(scenes):
        _assert_lone_scene_is(localize_monostatic(t, scene.tx), batch, i)


def test_batch_matches_scalar_calls():
    _assert_bistatic_batch_matches_scalar_calls(3300, 4, 3)


def test_monostatic_batch_matches_scalar_calls():
    _assert_monostatic_batch_matches_scalar_calls(3400, 6)


@pytest.mark.parametrize("m, n", [(5, 5), (8, 3)])
def test_batch_matches_scalar_calls_with_many_anchors(m, n):
    """Sums over 8 or more anchors: np.sum would add a single scene's
    contiguous anchor axis pairwise, a larger batch's planes in order."""
    _assert_bistatic_batch_matches_scalar_calls(3310, m, n, sigma=3e-9)


def test_monostatic_batch_matches_scalar_calls_with_eight_anchors():
    _assert_monostatic_batch_matches_scalar_calls(3410, 8)


def test_bistatic_batch_does_not_depend_on_layout():
    """A sweep chunk's trials-last views and C-order copies of them give
    bit-equal positions, residual norms and iteration counts, with 108
    range sums per scene, where np.sum over a contiguous axis would add
    pairwise; so does a lone scene."""
    txs, rxs, t_hats, _ = _trials_last_batch(12, 9, 1e-9, 64, 7, 0)
    assert t_hats.strides[0] == 8
    views = localize_bistatic(t_hats, txs, rxs)
    copies = localize_bistatic(*(np.ascontiguousarray(x) for x in (t_hats, txs, rxs)))
    for got, want in zip(views, copies):
        assert np.array_equal(got, want)
    _assert_lone_scene_is(localize_bistatic(t_hats[5], txs[5], rxs[5]), views, 5)


@pytest.mark.parametrize("monostatic", [False, True], ids=["bi4x3", "mono6"])
def test_nested_stack_is_the_reshaped_flat_stack(monostatic):
    """A (2, 3, m, n) stack gives the (6, m, n) stack's outputs reshaped to
    (2, 3, 3), (2, 3) and (2, 3), bit for bit."""
    cases = [
        _monostatic_case(3420 + i, sigma=1e-9) if monostatic
        else _bistatic_case(3320 + i, sigma=1e-9)
        for i in range(6)
    ]
    ts = np.stack([t for _, t in cases])
    txs = np.stack([s.tx for s, _ in cases])
    if monostatic:
        flat, nested = localize_monostatic(ts, txs), localize_monostatic(
            ts.reshape(2, 3, 6, 6), txs.reshape(2, 3, 6, 3)
        )
    else:
        rxs = np.stack([s.rx for s, _ in cases])
        flat = localize_bistatic(ts, txs, rxs)
        nested = localize_bistatic(
            ts.reshape(2, 3, 4, 3), txs.reshape(2, 3, 4, 3), rxs.reshape(2, 3, 3, 3)
        )
    for got, want in zip(nested, flat):
        assert got.shape == (2, 3) + want.shape[1:]
        assert np.array_equal(got, want.reshape(got.shape))


def _old_rank_rule(h):
    """The rank test on (T,3,3) stacks before the closed-form solve."""
    frob = np.sqrt((h * h).sum(axis=(1, 2)))
    return np.abs(np.linalg.det(h)) <= 1e-12 * np.maximum(frob, 1e-300) ** 3


def test_adjugate_solve_matches_lapack():
    rng = np.random.default_rng(4300)
    h = rng.standard_normal((1000, 3, 3))
    h = h[np.linalg.cond(h) < 1e3]
    g = rng.standard_normal((h.shape[0], 3))
    adj, det = localization._adjugate3(np.ascontiguousarray(h.transpose(1, 2, 0)))
    x = (adj * g.T[None]).sum(axis=1) / det
    ref = np.linalg.solve(h, g[:, :, None])[:, :, 0].T
    assert h.shape[0] > 900
    assert np.all(np.abs(x - ref) <= 1e-10 * np.abs(ref).max(axis=0))
    assert np.allclose(det, np.linalg.det(h), rtol=1e-12, atol=0.0)


def _gauss_newton_matrices(tx, rx, points):
    """J'J over all m n range sums, rows u_i + v_j, at each point (T,3)."""
    u = tx[None] - points[:, None]
    v = rx[None] - points[:, None]
    u /= np.linalg.norm(u, axis=2, keepdims=True)
    v /= np.linalg.norm(v, axis=2, keepdims=True)
    jac = (u[:, :, None, :] + v[:, None, :, :]).reshape(len(points), -1, 3)
    return np.einsum("tki,tkj->tij", jac, jac)


@pytest.mark.parametrize("jitter", [0.0, 1e-9])
def test_rank_test_flags_what_the_determinant_rule_flags(jitter):
    """Collinear bistatic anchors (Gauss-Newton matrices at points off the
    line) and coplanar monostatic anchors (the linearized normal matrix)
    next to random geometry: the adjugate's determinant flags the same
    scenes as |det| <= 1e-12 |H|_F^3 from LAPACK's determinant."""
    rng = np.random.default_rng(4400)
    tx = np.column_stack([np.arange(1.0, 5.0), np.zeros(4), np.zeros(4)])
    rx = np.column_stack([np.arange(6.0, 9.0), np.zeros(3), np.zeros(3)])
    tx, rx = tx + jitter * rng.standard_normal(tx.shape), rx + jitter * rng.standard_normal(rx.shape)
    points = 10.0 * rng.random((8, 3))
    stacks = [_gauss_newton_matrices(tx, rx, points)]
    for seed in range(8):
        scene, _ = _bistatic_case(4500 + seed)
        stacks.append(_gauss_newton_matrices(scene.tx, scene.rx, points[:1]))
    planar = np.array(
        [[0.0, 0.0, 0.0], [10.0, 0.0, 0.0], [0.0, 10.0, 0.0], [10.0, 10.0, 0.0], [5.0, 2.0, 0.0]]
    )
    for anchors in (planar + jitter * rng.standard_normal(planar.shape), 10.0 * rng.random((5, 3))):
        diff = anchors[1:] - anchors[:1]
        stacks.append((diff.T @ diff)[None])
    h = np.concatenate(stacks)
    expected = _old_rank_rule(h)
    stack = np.ascontiguousarray(h.transpose(1, 2, 0))
    flagged = localization._rank_below3(stack, localization._adjugate3(stack)[1])
    assert np.array_equal(flagged, expected)
    assert expected.sum() == 9


def test_monostatic_polish_flag(monkeypatch):
    """The polish step never raises the residual of the closed-form fix,
    which is what a step update that accepts nothing returns."""
    scene, t = _monostatic_case(3500, sigma=1e-9)
    polished = localize_monostatic(t, scene.tx)

    def accept_nothing(residuals, inputs, p, step, state, tries):
        return np.zeros_like(tries), np.zeros(tries.shape)

    monkeypatch.setattr(localization, "_damped_update", accept_nothing)
    raw = localize_monostatic(t, scene.tx)
    assert raw[2] == 0
    assert polished[2] <= 1
    assert polished[1] <= raw[1]


def test_oracle_noiseless_grid_bound():
    """The grid oracle returns the grid point of least objective: on a
    noiseless scene no corner of the grid cell around the tag scores
    lower.  To second order in the offset e from the tag the objective is
    |J e|^2, J the range-sum Jacobian there, so the point lies within
    cond(J) half cell diagonals of the tag.  (A bound of one step, 0.1 m,
    is no property of the oracle: it failed on 2 of 40 seeds.)"""
    scene, t = _bistatic_case(3600)
    step = 0.1
    point = _oracle_localize(t, scene.tx, scene.rx, 0.0, step, (np.zeros(3), np.full(3, 10.0)))
    axis = np.arange(0.0, 10.0 + 0.5 * step, step)
    cell = np.floor(scene.tag / step).astype(int)
    corners = [axis[cell + offset] for offset in np.ndindex(2, 2, 2)]
    score = min(_sum_squared_residual(t, scene.tx, scene.rx, 0.0, q) for q in corners)
    assert _sum_squared_residual(t, scene.tx, scene.rx, 0.0, point) <= score
    u = (scene.tag - scene.tx) / np.linalg.norm(scene.tag - scene.tx, axis=1)[:, None]
    v = (scene.tag - scene.rx) / np.linalg.norm(scene.tag - scene.rx, axis=1)[:, None]
    jacobian = (u[:, None] + v[None, :]).reshape(-1, 3)
    half_diagonal = np.sqrt(3.0) / 2.0 * step
    assert np.linalg.norm(point - scene.tag) <= np.linalg.cond(jacobian) * half_diagonal


def test_oracle_refinement_non_increasing():
    scene, t = _bistatic_case(3700)
    # Off-center box so no grid node coincides with the true optimum.
    lo, hi = scene.tag - 0.47, scene.tag + 0.53
    coarse = _oracle_localize(t, scene.tx, scene.rx, 0.0, 0.1, (lo, hi))
    fine = _oracle_localize(t, scene.tx, scene.rx, 0.0, 0.02, (lo, hi))
    ss_coarse = _sum_squared_residual(t, scene.tx, scene.rx, 0.0, coarse)
    ss_fine = _sum_squared_residual(t, scene.tx, scene.rx, 0.0, fine)
    assert ss_fine <= ss_coarse


@pytest.mark.parametrize("seed", range(3))
def test_solver_agrees_with_oracle_on_noisy_instances(seed):
    scene, t = _bistatic_case(3800 + seed, sigma=1e-9)
    grid_step = 0.25
    bounds = (np.zeros(3), np.full(3, 10.0))
    oracle_point = _oracle_localize(t, scene.tx, scene.rx, 0.0, grid_step, bounds)
    p, _, _ = localize_bistatic(t, scene.tx, scene.rx)
    assert np.linalg.norm(p - oracle_point) < 2 * grid_step
    # The solver point should beat the grid point on the shared objective.
    ss_solver = _sum_squared_residual(t, scene.tx, scene.rx, 0.0, p)
    ss_oracle = _sum_squared_residual(t, scene.tx, scene.rx, 0.0, oracle_point)
    assert ss_solver <= ss_oracle + 1e-12


def test_noisy_fix_within_grid_resolution_of_oracle():
    scene, t = _bistatic_case(3900, sigma=1e-9)
    grid_step = 0.25
    bounds = (np.zeros(3), np.full(3, 10.0))
    oracle_point = _oracle_localize(t, scene.tx, scene.rx, 0.0, grid_step, bounds)
    p, _, _ = localize_bistatic(t, scene.tx, scene.rx)
    assert np.linalg.norm(p - oracle_point) < 3 * grid_step


def test_oracle_rejects_bad_step():
    scene, t = _bistatic_case(4000)
    with pytest.raises(ValueError):
        _oracle_localize(t, scene.tx, scene.rx, 0.0, 0.0, (np.zeros(3), np.ones(3)))


def test_refinement_does_not_move_the_global_minimizer():
    """The range-sum model satisfies the topology constraint for every p,
    so projecting the delay estimate shifts the objective by a constant and
    leaves the minimizer unchanged; converged fixes agree to solver
    precision."""
    from bstoa.estimator import ls_estimate
    from bstoa.channel import synth_observations

    topo = Topology.bistatic(4, 3)
    for index in range(10):
        rng = noise_rng(4200, index)
        scene = random_scene(topo, 10.0, rng)
        t_true = true_delays(scene.tx, scene.rx, scene.tag, scene.delta)
        obs = synth_observations(t_true, 8, 1e-10, rng)
        t_hat = ls_estimate(obs, topo)
        t_ref = refine_estimate(t_hat, topo)
        p_hat, _, _ = localize_bistatic(t_hat, scene.tx, scene.rx)
        p_ref, _, _ = localize_bistatic(t_ref, scene.tx, scene.rx)
        assert np.linalg.norm(p_hat - p_ref) < 1e-6


def test_delta_is_honored():
    scene, _ = _bistatic_case(4100)
    scene.delta = 3e-8
    t = true_delays(scene.tx, scene.rx, scene.tag, scene.delta)
    p, _, _ = localize_bistatic(t, scene.tx, scene.rx, delta=scene.delta)
    assert np.linalg.norm(p - scene.tag) < 1e-6


@pytest.mark.parametrize("sigma", [1e-10, 1e-8])
def test_residual_norm_covers_every_range_sum(sigma):
    """The reported norm is that of all m n residuals of the input matrix,
    off-subspace part included, not only of the fitted terms."""
    txs, rxs, t_hats, _ = _bistatic_chunk(sigma)
    p, rnorm, _ = localize_bistatic(t_hats, txs, rxs)
    full = np.sqrt([
        _sum_squared_residual(t, tx, rx, 0.0, q) for t, tx, rx, q in zip(t_hats, txs, rxs, p)
    ])
    assert np.all(np.abs(rnorm - full) <= 1e-9 * full)


@pytest.mark.parametrize("sigma", [1e-9, 1e-8])
def test_ls_and_refined_matrices_give_one_fix(sigma):
    """Criterion 10's tie margin: the LS matrix and its projection have the
    same fitted terms, so their fixes agree within 1e-6 m in every scene."""
    txs, rxs, t_hats, t_refs = _bistatic_chunk(sigma)
    p_hat, _, _ = localize_bistatic(t_hats, txs, rxs)
    p_ref, _, _ = localize_bistatic(t_refs, txs, rxs)
    assert np.linalg.norm(p_hat - p_ref, axis=1).max() < 1e-6


def test_no_scene_reaches_the_iteration_cap():
    iterations = np.concatenate([
        localize_bistatic(t_refs, txs, rxs)[2]
        for txs, rxs, _, t_refs in (_bistatic_chunk(1e-8, chunk) for chunk in range(8))
    ])
    assert iterations.size == 8 * CHUNK_TRIALS
    assert iterations.max() < localization.MAX_ITERATIONS


@functools.cache
def _long_gauss_newton(sigma):
    """``_bistatic_chunk(sigma)`` and the positions and costs of
    ``_reference_gauss_newton`` on its LS delays from the library's warm
    start, run once per sigma for the tests that compare against it.  The
    arrays are read-only, since every caller shares them."""
    txs, rxs, t_hats, t_refs = _bistatic_chunk(sigma)
    p0 = _warm_start_of(txs, rxs, SPEED_OF_LIGHT * t_refs)
    run = (txs, rxs, t_hats, *_reference_gauss_newton(t_hats, txs, rxs, p0))
    for array in run:
        array.flags.writeable = False
    return run


def test_a_minimum_at_an_anchor_is_the_anchor():
    """Where plain Gauss-Newton run long ends within 1e-9 m of an anchor,
    the fix is that anchor.  A range has a cusp at its anchor; the damped
    Newton steps overshoot it, and used to stop 2^-20 steps short of it,
    3.4e-8 m off with |R|^2 4e-9 relative above the anchor's."""
    txs, rxs, t_hats, p_ref, _ = _long_gauss_newton(1e-8)
    anchors = np.concatenate([txs, rxs], axis=1)
    scenes, nearest = np.nonzero(np.linalg.norm(anchors - p_ref[:, None], axis=2) < 1e-9)
    assert scenes.size
    p, _, _ = localize_bistatic(t_hats[scenes], txs[scenes], rxs[scenes])
    assert np.abs(p - anchors[scenes, nearest]).max() < 1e-12


@pytest.mark.parametrize("sigma", [1e-9, 1e-8])
def test_fix_objective_no_worse_than_long_gauss_newton(sigma):
    """From the same warm start, the row/column Newton fix is at least as
    good on the full objective as plain Gauss-Newton run to convergence."""
    txs, rxs, t_hats, _, cost_ref = _long_gauss_newton(sigma)
    p, _, _ = localize_bistatic(t_hats, txs, rxs)
    cost = np.array([
        _sum_squared_residual(t, tx, rx, 0.0, q) for t, tx, rx, q in zip(t_hats, txs, rxs, p)
    ])
    assert np.all(cost <= cost_ref * (1.0 + 1e-12))


@pytest.mark.parametrize("kind, m, n, sigma, digest", [
    (Kind.BISTATIC, 4, 3, 1e-9, "66024aa03ea0a0b596b20ce76a6ab344c10f1e9cbc772acdfd26b8a63352a61a"),
    (Kind.BISTATIC, 4, 3, 1e-8, "80f2e61c2ff1ed27cb7e47a9fb65343d9b4ccd79aa9874a8d8cf97378e94a53d"),
    (Kind.BISTATIC, 8, 8, 3e-9, "ffeea31892c0aeb5aca67d6fb1b210e5d7205c440458753d9900b6d6d783d53b"),
    (Kind.MONOSTATIC, 6, 6, 1e-9, "7d40e7624c2ff89c2f0c2646a8054300fda4efea9f6b22577184388b644041b4"),
])
def test_solver_outputs_are_pinned(kind, m, n, sigma, digest):
    """Every bit of every scene's solver outputs, where the golden CSVs pin
    only per-point sums: the sha256 of all four outputs of ``_fix_bistatic``
    or ``_fix_monostatic`` (positions, |R|^2 or range residual norms,
    iterations or polish flags, no-fix flags) on the terms of chunks 0 and 1
    of a localization sweep (L = 2, seed 11), solved a chunk at a time as
    ``harness._run_loc_chunk`` solves them."""
    cfg = SweepConfig(
        experiment=ExperimentKind.LOCALIZATION, kind=kind, m=m, n=n, pilot_lengths=(2,),
        sigma_grid=(sigma,), trials=2 * CHUNK_TRIALS, master_seed=11,
    )
    h = hashlib.sha256()
    for c in range(2):
        anchors, _, terms, _ = _loc_terms(cfg, c)
        if kind is Kind.BISTATIC:
            out = localization._fix_bistatic(anchors, terms, m)
        else:
            out = localization._fix_monostatic(np.concatenate((anchors, anchors), axis=2), terms)
        assert len(out) == 4
        for x in out:
            h.update(np.ascontiguousarray(x).tobytes())
    assert h.hexdigest() == digest


def _halving_case(count):
    """Chunk 0 of a bistatic 4x3 localization sweep of ``count`` trials at
    sigma = 1e-8 (L = 2, seed 5), set up as ``_newton_batch``'s first
    iteration sets it up: anchors, fit, the warm start p, the residual
    terms there and the Newton step."""
    cfg = SweepConfig(
        experiment=ExperimentKind.LOCALIZATION, kind=Kind.BISTATIC, m=4, n=3,
        pilot_lengths=(2,), sigma_grid=(1e-8,), trials=count, master_seed=5,
    )
    anchors, _, terms, _ = _loc_terms(cfg, 0)
    col, row = terms[:4] + terms[4], terms[0] + terms[4:]
    fit = np.concatenate([col, row - col[0]])
    p = localization._warm_start(anchors, col, row)
    state = list(localization._fit_residuals(anchors, fit, 4, p))
    step = localization._newton_step(anchors, p, state[0], state[1], 4)[0]
    return anchors, fit, p, state, step


def _halving_one_at_a_time(anchors, fit, p, step, state):
    """Each scene's first point p + step * 2^-k, k = 0 .. MAX_HALVINGS,
    whose |R|^2 is no larger than at p, found a scene and a scale at a
    time: the positions, terms, accepted flags, step lengths and the k
    taken (-1 where none is)."""
    p, state = p.copy(), [x.copy() for x in state]
    count = p.shape[1]
    accepted, taken = np.zeros(count, dtype=bool), np.full(count, -1)
    step_len = np.sqrt(localization._sum_in_order(step * step))
    for t in range(count):
        one = slice(t, t + 1)
        for k in range(localization.MAX_HALVINGS + 1):
            trial = step[:, one] * 0.5**k
            terms = localization._fit_residuals(anchors[..., one], fit[:, one], 4, p[:, one] + trial)
            if terms[-1][0] <= state[-1][t]:
                p[:, one] += trial
                for dst, src in zip(state, terms):
                    dst[..., one] = src
                accepted[t], taken[t] = True, k
                step_len[t] = np.sqrt(localization._sum_in_order(trial * trial))[0]
                break
    return p, state, accepted, step_len, taken


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("count", [1, 3, 64, 512])
def test_halving_blocks_pick_what_one_at_a_time_halving_picks(count):
    """``_damped_update`` tries the halvings of the rejected full steps in
    blocks of scales; every scene still takes the first scale whose |R|^2
    is no larger, to the bit, as halving one scene and one scale at a time
    does.  The Newton steps are scaled by 2^12, so most full steps are
    rejected and a scene can need more than one block, and every fifth is
    negated, an ascent direction that most often no halving rescues.  No call of the
    residual function sees more than max(T, MAX_HALVINGS) points, the
    bound that the blocks keep."""
    anchors, fit, p, state, step = _halving_case(count)
    step *= 2.0**12
    step[:, ::5] *= -1.0
    want_p, want_state, want_accepted, want_len, taken = _halving_one_at_a_time(
        anchors, fit, p, step, state
    )
    sizes = []

    def residuals(a, f, q):
        sizes.append(q.shape[-1])
        return localization._fit_residuals(a, f, 4, q)

    accepted, step_len = localization._damped_update(
        residuals, [anchors, fit], p, step, state, np.ones(count, dtype=bool)
    )
    assert _same_bits(p, want_p)
    assert all(_same_bits(x, y) for x, y in zip(state, want_state, strict=True))
    assert _same_bits(accepted, want_accepted)
    assert _same_bits(step_len, want_len)
    assert max(sizes) <= max(count, localization.MAX_HALVINGS)
    # The case reaches what the blocks do: a scene that no halving rescues
    # and, unless one block holds every halving (T = 1), a halving past the
    # first block.
    assert not want_accepted.all()
    first_block = max(count, localization.MAX_HALVINGS) // np.count_nonzero(taken != 0)
    assert count == 1 or (taken > first_block).any()
