"""Estimator tests, including the generic normal-equations oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bstoa.channel import noise_rng, random_scene, synth_observations, true_delays
from bstoa.errors import ConstraintViolated, DimensionMismatch, NonFiniteInput
from bstoa.estimator import (
    decompose_delays,
    ls_estimate,
    _constraint_residual,
    _sum_in_order,
    refine_bistatic,
    refine_estimate,
    refine_monostatic,
)
from bstoa.topology import (
    Kind,
    Topology,
    correlation_matrix,
    unvec,
    vec,
    weighting_matrix,
)


def _b(topo):
    return weighting_matrix(topo)


def test_ls_estimate_is_pilot_mean():
    assert ls_estimate(np.array([[1.0], [3.0]]), Topology.bistatic(1, 1))[0, 0] == 2.0


def test_ls_estimate_batch_equals_per_slice():
    """A (4, 5, L m, n) stack gives the per-slice estimates bit for bit."""
    topo = Topology.bistatic(3, 2)
    y = noise_rng(4, 0).normal(size=(4, 5, 8 * topo.m, topo.n))
    batch = ls_estimate(y, topo)
    assert batch.shape == (4, 5, topo.m, topo.n)
    for index in np.ndindex(4, 5):
        assert np.array_equal(batch[index], ls_estimate(y[index], topo))


def test_ls_estimate_noiseless_recovers_truth():
    topo = Topology.bistatic(3, 2)
    scene = random_scene(topo, 10.0, noise_rng(3, 0))
    t = true_delays(scene.tx, scene.rx, scene.tag)
    # Power-of-two pilot counts average identical values without rounding.
    obs = synth_observations(t, 4, 0.0, noise_rng(3, 1))
    assert np.array_equal(ls_estimate(obs, topo), t)
    obs = synth_observations(t, 5, 0.0, noise_rng(3, 1))
    assert np.abs(ls_estimate(obs, topo) - t).max() <= np.spacing(t).max()


def test_ls_estimate_matches_normal_equations_oracle():
    r"""Block means equal (S^T S)^-1 S^T y for S = I \otimes ones(L, 1)."""
    topo = Topology.bistatic(2, 2)
    length = 4
    rng = noise_rng(17, 0)
    scene = random_scene(topo, 10.0, rng)
    t = true_delays(scene.tx, scene.rx, scene.tag)
    y = synth_observations(t, length, 1e-9, rng)
    s = np.kron(np.eye(topo.mn), np.ones((length, 1)))
    oracle = np.linalg.solve(s.T @ s, s.T @ vec(y))
    assert np.abs(vec(ls_estimate(y, topo)) - oracle).max() < 1e-12 * np.abs(oracle).max()


def test_ls_estimate_dimension_mismatch():
    # Rows not a multiple of m, wrong column count, no rows, one axis.
    for shape in ((4, 2), (6, 3), (0, 2), (6,)):
        with pytest.raises(DimensionMismatch):
            ls_estimate(np.zeros(shape), Topology.bistatic(3, 2))


def test_refine_matches_kkt_oracle():
    """Projection of the pilot means equals the solution of the full
    constrained normal equations, solved via the bordered KKT system
    [[S^T S, A^T], [A, 0]] on the raw observations."""
    topo = Topology.bistatic(3, 2)
    length = 4
    rng = noise_rng(25, 0)
    scene = random_scene(topo, 10.0, rng)
    t = true_delays(scene.tx, scene.rx, scene.tag)
    y = synth_observations(t, length, 2e-9, rng)
    a = correlation_matrix(topo).astype(float)
    s = np.kron(np.eye(topo.mn), np.ones((length, 1)))
    y_vec = vec(y)
    k = a.shape[0]
    kkt = np.block([[s.T @ s, a.T], [a, np.zeros((k, k))]])
    rhs = np.concatenate([s.T @ y_vec, np.zeros(k)])
    oracle = np.linalg.solve(kkt, rhs)[: topo.mn]
    refined = refine_bistatic(ls_estimate(y, topo))
    assert np.abs(vec(refined) - oracle).max() < 1e-12 * np.abs(oracle).max()


def test_refine_bistatic_unit_vector():
    # First column of the 2x2 projector, frozen from the pattern.
    t_hat = unvec(np.array([1.0, 0.0, 0.0, 0.0]), 2, 2)
    refined = refine_bistatic(t_hat)
    assert np.abs(vec(refined) - np.array([0.75, 0.25, 0.25, -0.25])).max() < 1e-14


def test_refine_bistatic_fixes_constraint_satisfying_input():
    topo = Topology.bistatic(4, 3)
    scene = random_scene(topo, 10.0, noise_rng(21, 0))
    t = true_delays(scene.tx, scene.rx, scene.tag)
    refined = refine_bistatic(t)
    assert np.abs(refined - t).max() < 1e-12 * np.abs(t).max()


def test_refine_bistatic_idempotent():
    rng = noise_rng(21, 1)
    noisy = rng.normal(size=(3, 3))
    once = refine_bistatic(noisy)
    twice = refine_bistatic(once)
    assert np.abs(twice - once).max() < 1e-12


def test_refine_bistatic_result_satisfies_constraint():
    topo = Topology.bistatic(4, 3)
    a = correlation_matrix(topo).astype(float)
    noisy = noise_rng(21, 2).normal(size=(4, 3))
    refined = refine_bistatic(noisy)
    assert np.abs(a @ vec(refined)).max() < 1e-9 * max(1.0, np.abs(refined).max())


def test_refine_monostatic_hand_example():
    t_hat = unvec(np.array([1.0, 0.0, 0.0, 0.0]), 2, 2)
    refined = refine_monostatic(t_hat)
    # Projection gives [[3/4, 1/4], [1/4, -1/4]]; already symmetric.
    assert np.abs(refined - np.array([[0.75, 0.25], [0.25, -0.25]])).max() < 1e-14


def test_refine_monostatic_symmetric_and_constrained():
    topo = Topology.monostatic(4)
    a = correlation_matrix(topo).astype(float)
    noisy = noise_rng(21, 3).normal(size=(4, 4))
    refined = refine_monostatic(noisy)
    assert np.array_equal(refined, refined.T)
    assert np.abs(a @ vec(refined)).max() < 1e-9 * max(1.0, np.abs(refined).max())


def test_refine_monostatic_fixed_point():
    topo = Topology.monostatic(3)
    scene = random_scene(topo, 10.0, noise_rng(21, 4))
    t = true_delays(scene.tx, scene.rx, scene.tag)
    refined = refine_monostatic(t)
    assert np.abs(refined - t).max() < 1e-12 * np.abs(t).max()


def test_refine_dimension_checks():
    with pytest.raises(DimensionMismatch):
        refine_bistatic(np.zeros(3))
    with pytest.raises(DimensionMismatch):
        refine_monostatic(np.zeros((2, 3)))
    with pytest.raises(DimensionMismatch):
        refine_estimate(np.zeros((2, 3)), Topology.bistatic(3, 2))
    # A matrix with no row or no column raised IndexError from _sum_in_order.
    for empty in ((0, 3), (2, 0), (5, 0, 3), (5, 2, 0)):
        with pytest.raises(DimensionMismatch):
            refine_bistatic(np.zeros(empty))
    with pytest.raises(DimensionMismatch):
        refine_monostatic(np.zeros((0, 0)))
    with pytest.raises(DimensionMismatch):
        refine_estimate(np.zeros((0, 3)), Topology.bistatic(2, 3))
    with pytest.raises(DimensionMismatch):
        decompose_delays(np.zeros(3), 0.0, 0.0)
    # An empty matrix raised numpy's ValueError from its max.
    for empty in ((0, 3), (3, 0)):
        with pytest.raises(DimensionMismatch):
            decompose_delays(np.zeros(empty), 0.0, 0.0)


def _dense_refine(t, topo):
    """Reference refinement through the dense projector B."""
    refined = unvec(_b(topo) @ vec(t), topo.m, topo.n)
    if topo.kind is Kind.MONOSTATIC:
        refined = 0.5 * (refined + refined.T)
    return refined


def _small_topologies():
    for m in range(1, 9):
        for n in range(1, 9):
            yield Topology.bistatic(m, n)
        yield Topology.monostatic(m)


def test_closed_form_refine_matches_dense_projector():
    rng = noise_rng(22, 0)
    for topo in _small_topologies():
        t = rng.normal(size=(topo.m, topo.n))
        expected = _dense_refine(t, topo)
        got = refine_estimate(t, topo)
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max(), topo


def test_refine_batch_equals_per_slice():
    rng = noise_rng(22, 1)
    for topo in (Topology.bistatic(4, 3), Topology.bistatic(1, 5), Topology.monostatic(4)):
        batch = rng.normal(size=(2, 3, topo.m, topo.n))
        refined = refine_estimate(batch, topo)
        assert refined.shape == batch.shape
        for index in np.ndindex(2, 3):
            assert np.array_equal(refined[index], refine_estimate(batch[index], topo))


@pytest.mark.parametrize(
    "topo", [Topology.bistatic(9, 12), Topology.bistatic(12, 1), Topology.monostatic(10)],
    ids=["bistatic-9x12", "bistatic-12x1", "monostatic-10"],
)
def test_estimators_do_not_depend_on_batch_layout(topo):
    """Rows, columns and pilots of 8 and more are added in order whatever
    the memory layout: a trials-last batch, a C-order batch and each matrix
    alone give the same bits (np.sum would add a contiguous axis pairwise)."""
    rng = noise_rng(22, 3)
    pilots = rng.normal(size=(9, 8 * topo.m, topo.n))
    t_hats = rng.normal(size=(9, topo.m, topo.n))
    for estimate, batch in ((ls_estimate, pilots), (refine_estimate, t_hats)):
        got = estimate(batch, topo)
        trials_last = np.moveaxis(np.moveaxis(batch, 0, -1).copy(), -1, 0)
        assert np.array_equal(estimate(trials_last, topo), got)
        for i in range(len(batch)):
            assert np.array_equal(estimate(batch[i], topo), got[i])


def test_constraint_residual_matches_dense_rows():
    rng = noise_rng(22, 2)
    for topo in _small_topologies():
        t = rng.normal(size=(topo.m, topo.n))
        a = correlation_matrix(topo).astype(float)
        rows = a @ vec(t)
        expected = np.abs(rows).max() if a.shape[0] else 0.0
        assert _constraint_residual(t) == pytest.approx(expected, rel=1e-14, abs=0.0)
        # The double differences are A vec(t) itself, row for row.
        double_diff = vec(np.diff(np.diff(t, axis=0), axis=1))
        assert np.abs(double_diff - rows).max(initial=0.0) <= 1e-14 * np.abs(t).max()


def _full_estimate(t, pilot_len, rng, topo):
    """Both estimates of t from noisy pilots: LS, then the refinement."""
    t_hat = ls_estimate(synth_observations(t, pilot_len, 1e-9, rng), topo)
    return t_hat, refine_estimate(t_hat, topo)


def test_full_estimate_report():
    topo = Topology.bistatic(2, 2)
    scene = random_scene(topo, 10.0, noise_rng(50, 0))
    t = true_delays(scene.tx, scene.rx, scene.tag)
    t_hat, t_tilde = _full_estimate(t, 4, noise_rng(50, 1), topo)
    assert t_hat.shape == (2, 2)
    assert _constraint_residual(t_tilde) < 1e-9 * max(1.0, np.abs(t_tilde).max())


def test_full_estimate_monostatic_symmetry():
    topo = Topology.monostatic(3)
    scene = random_scene(topo, 10.0, noise_rng(51, 0))
    t = true_delays(scene.tx, scene.rx, scene.tag)
    _, t_tilde = _full_estimate(t, 2, noise_rng(51, 1), topo)
    assert np.array_equal(t_tilde, t_tilde.T)
    assert _constraint_residual(t_tilde) < 1e-9 * max(1.0, np.abs(t_tilde).max())


def test_zero_noise_pipeline_exact():
    """scene -> delays -> pilots -> LS -> refinement reproduces the truth."""
    for topo in (Topology.bistatic(4, 3), Topology.monostatic(5)):
        scene = random_scene(topo, 10.0, noise_rng(60, topo.m))
        t = true_delays(scene.tx, scene.rx, scene.tag)
        y = synth_observations(t, 8, 0.0, noise_rng(60, 10 + topo.m))
        t_tilde = refine_estimate(ls_estimate(y, topo), topo)
        assert np.abs(t_tilde - t).max() < 1e-12 * np.abs(t).max()


def test_unbiasedness_monte_carlo():
    """Mean refinement error stays inside 5 sigma0 / sqrt(trials) per entry."""
    topo = Topology.bistatic(2, 2)
    b = _b(topo)
    length, sigma, trials = 2, 1e-9, 100_000
    scene = random_scene(topo, 10.0, noise_rng(70, 0))
    t = true_delays(scene.tx, scene.rx, scene.tag)
    noise = noise_rng(70, 1).normal(0.0, sigma, size=(trials, length * 2, 2))
    t_hats = t + noise.reshape(trials, 2, length, 2).mean(axis=2)
    # Column-major flattening per trial, then one projector application each.
    flat_errors = (t_hats - t).transpose(0, 2, 1).reshape(trials, 4)
    refined_errors = np.einsum("zr,tr->tz", b, flat_errors)
    sigma0 = sigma / np.sqrt(length)
    bound = 5.0 * sigma0 / np.sqrt(trials)
    assert np.abs(refined_errors.mean(axis=0)).max() < bound


def test_decompose_recovers_known_components():
    rng = noise_rng(80, 0)
    m, n = 4, 3
    h = rng.uniform(0.0, 1e-7, m)
    g = rng.uniform(0.0, 1e-7, n)
    delta = 2e-8
    t = delta + h[:, None] + g[None, :]
    h_got, g_got = decompose_delays(t, delta, gauge_g1=g[0])
    assert np.abs(h_got - h).max() < 1e-22
    assert np.abs(g_got - g).max() < 1e-22


def test_decompose_gauge_freedom():
    """Different gauges shift h and g oppositely; the sums are invariant."""
    topo = Topology.bistatic(3, 3)
    scene = random_scene(topo, 10.0, noise_rng(80, 1))
    t = true_delays(scene.tx, scene.rx, scene.tag)
    h1, g1 = decompose_delays(t, 0.0, gauge_g1=0.0)
    h2, g2 = decompose_delays(t, 0.0, gauge_g1=5e-9)
    sums1 = h1[:, None] + g1[None, :]
    sums2 = h2[:, None] + g2[None, :]
    assert np.abs(sums1 - sums2).max() < 1e-12 * np.abs(t).max()


def test_decompose_rebuild_round_trip():
    topo = Topology.bistatic(5, 4)
    for index in range(10):
        scene = random_scene(topo, 10.0, noise_rng(80, 2 + index))
        t = true_delays(scene.tx, scene.rx, scene.tag)
        delta = 1e-8
        t = t + delta
        h, g = decompose_delays(t, delta, gauge_g1=3e-9)
        rebuilt = delta + h[:, None] + g[None, :]
        assert np.abs(rebuilt - t).max() < 1e-12 * max(1.0, np.abs(t).max())


def test_decompose_monostatic_gauge_gives_equal_vectors():
    topo = Topology.monostatic(4)
    scene = random_scene(topo, 10.0, noise_rng(80, 20))
    t = true_delays(scene.tx, scene.rx, scene.tag)
    h, g = decompose_delays(t, 0.0, gauge_g1=t[0, 0] / 2.0)
    assert np.abs(h - g).max() < 1e-24
    assert h[0] == pytest.approx(t[0, 0] / 2.0, abs=0.0)
    # With this gauge each one-way delay is half its round-trip diagonal.
    assert np.abs(h - np.diag(t) / 2.0).max() < 1e-23


def test_decompose_monostatic_single_antenna():
    t = np.array([[4.0e-8]])
    h, g = decompose_delays(t, 0.0, gauge_g1=2.0e-8)
    assert h[0] == pytest.approx(2.0e-8)
    assert g[0] == pytest.approx(2.0e-8)


def test_decompose_rejects_unconstrained_input():
    noisy = noise_rng(80, 30).normal(size=(3, 3))
    with pytest.raises(ConstraintViolated):
        decompose_delays(noisy, 0.0, gauge_g1=0.0)


@pytest.mark.parametrize("bad", ["t", "delta", "gauge_g1"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_decompose_rejects_non_finite(bad, value):
    args = {"t": np.zeros((3, 2)), "delta": 0.0, "gauge_g1": 0.0}
    if bad == "t":
        args["t"][1, 1] = value
    else:
        args[bad] = value
    with pytest.raises(NonFiniteInput):
        decompose_delays(**args)


@st.composite
def _laid_out_sums(draw):
    """An array in one of four memory layouts (C, F, transposed, strided
    with steps of +-2) and an axis to sum over.  The last axis may hold no
    values, one (a lone scene) or a batch.  The summed axis holds 1 to 12,
    so also more than the 8 from which ``np.sum`` adds pairwise.  Values
    span 24 orders of magnitude and include -0.0, so any other order of
    addition shows in the bits."""
    ndim = draw(st.integers(1, 4))
    axis = draw(st.integers(-ndim, ndim - 1))
    shape = [draw(st.integers(0, 4)) for _ in range(ndim - 1)]
    shape.append(draw(st.sampled_from([0, 1]) | st.integers(2, 9)))
    shape[axis] = draw(st.integers(1, 12))
    values = st.sampled_from([-0.0, 0.0]) | st.floats(-1e12, 1e12) | st.floats(-1e-12, 1e-12)
    base = draw(arrays(np.float64, tuple(shape), elements=values))
    layout = draw(st.sampled_from(["C", "F", "transposed", "strided"]))
    if layout == "F":
        return np.asfortranarray(base), axis
    if layout == "transposed":
        perm = draw(st.permutations(range(ndim)))
        return np.ascontiguousarray(base.transpose(perm)).transpose(np.argsort(perm)), axis
    if layout == "strided":
        steps = [draw(st.sampled_from([2, -2])) for _ in range(ndim)]
        view = np.zeros([2 * size for size in shape])[tuple(slice(None, None, k) for k in steps)]
        view[...] = base
        return view, axis
    return np.ascontiguousarray(base), axis


def _slice_loop(x, axis):
    """The summed axis's slices added in order, the first plus 0.0."""
    lead = (slice(None),) * axis
    total = x[(*lead, 0)] + 0.0
    for i in range(1, x.shape[axis]):
        total += x[(*lead, i)]
    return total


@pytest.mark.parametrize("count", range(1, 51))
def test_lone_scene_sum_is_the_slice_loop(count):
    """With one scene on the last axis ``_sum_in_order`` accumulates; it is
    bit-equal to the slice loop on (k, 1) and (q, k, 1) arrays whose values
    span 40 decades with both signs and signed zeros, and an all -0.0
    input sums to +0.0."""
    rng = np.random.default_rng(count)
    for shape, axis in (((count, 1), 0), ((3, count, 1), 1)):
        for _ in range(20):
            x = rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 21, shape)
            x[rng.random(shape) < 0.1] = -0.0
            assert _sum_in_order(x, axis).tobytes() == _slice_loop(x, axis).tobytes()
        zeros = _sum_in_order(np.full(shape, -0.0), axis)
        assert not np.signbit(zeros).any() and not zeros.any()


@settings(derandomize=True, database=None, max_examples=400)
@given(_laid_out_sums())
def test_sum_in_order_is_the_slice_loop_in_every_layout(case):
    """The one fixed-order sum of the library, used by the estimators and
    the localization solvers, is bit-equal to adding the slices of the
    summed axis in a Python loop from 0.0, in every layout."""
    x, axis = case
    want = 0.0
    for piece in np.moveaxis(x, axis, 0):
        want = want + piece
    got = np.asarray(_sum_in_order(x, axis))
    want = np.asarray(want)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
