"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The Monte-Carlo fixtures follow the harness protocol for one grid point
(a fresh uniform scene per trial; chunk c of 512 trials draws every
scene's coordinates from ``noise_rng(master_seed, c)``, so they are the
scenes of chunk c of a localization sweep with that seed and a 10 m cube)
through the public stack functions, and are shared across criteria.
They keep the pilot-level model on purpose: each trial's L pilot rows are
drawn and averaged by ``ls_estimate``, where a sweep draws the pilots' mean as one Gaussian, so
criteria 3-6 check the closed forms on the pilot path itself.  mse and
crlb sweeps draw no scene at all (since stream contract v5), so these fixtures
are now the check of the scene-plus-pilot path: true delays, pilot rows
and their LS means, refined and compared with the truth.
"""

import time
from dataclasses import dataclass

import numpy as np
import pytest

from bstoa.analysis import crlb, theoretical_mse_independent
from bstoa.channel import noise_rng, random_scene, true_delays
from bstoa.estimator import ls_estimate, refine_estimate
from bstoa.harness import (
    CHUNK_TRIALS,
    ExperimentKind,
    SweepConfig,
    run_sweep,
)
from bstoa.localization import localize
from bstoa.topology import (
    Kind,
    Topology,
    correlation_matrix,
    entry_weights,
    weighting_matrix,
)


@pytest.fixture
def report(capfd):
    """Prints one PASS/FAIL line per criterion on the real stdout, outside
    pytest's capture, then asserts."""

    def _report(criterion: int, ok: bool, detail: str) -> None:
        status = "PASS" if ok else "FAIL"
        with capfd.disabled():
            print(f"[criterion {criterion:2d}] {status}  {detail}", flush=True)
        assert ok, f"criterion {criterion}: {detail}"

    return _report


@dataclass
class MonteCarlo:
    topo: Topology
    sigma: float
    pilot_len: int
    errors_ls: np.ndarray       # trials x (m n), column-major entries
    errors_refined: np.ndarray


def _run_monte_carlo(topo: Topology, sigma: float, pilot_len: int, trials: int,
                     master_seed: int) -> MonteCarlo:
    m, n = topo.m, topo.n
    n_rx = n if topo.kind is Kind.BISTATIC else 0
    errors_ls = np.empty((trials, topo.mn))
    errors_refined = np.empty((trials, topo.mn))
    for chunk, start in enumerate(range(0, trials, CHUNK_TRIALS)):
        count = min(CHUNK_TRIALS, trials - start)
        rng = noise_rng(master_seed, chunk)
        coords = 10.0 * rng.random((count, 3 * (m + n_rx + 1)))
        tx = coords[:, : 3 * m].reshape(count, m, 3)
        rx = coords[:, 3 * m : 3 * (m + n_rx)].reshape(count, n_rx, 3) if n_rx else tx
        tmat = true_delays(tx, rx, coords[:, 3 * (m + n_rx) :])
        noise = rng.standard_normal((count, pilot_len * m, n))
        t_hat = ls_estimate(np.repeat(tmat, pilot_len, axis=1) + sigma * noise, topo)
        t_ref = refine_estimate(t_hat, topo)
        # Rows of column-major vec(.), one per trial.
        errors_ls[start : start + count] = (t_hat - tmat).transpose(0, 2, 1).reshape(count, -1)
        errors_refined[start : start + count] = (t_ref - tmat).transpose(0, 2, 1).reshape(count, -1)
    return MonteCarlo(topo, sigma, pilot_len, errors_ls, errors_refined)


TRIALS = 100_000


@pytest.fixture(scope="module")
def bistatic_mc() -> MonteCarlo:
    return _run_monte_carlo(Topology.bistatic(4, 3), 1e-9, 8, TRIALS, 20_001)


@pytest.fixture(scope="module")
def monostatic_mc() -> MonteCarlo:
    return _run_monte_carlo(Topology.monostatic(6), 1e-9, 8, TRIALS, 20_002)


def _per_entry_mse(mc: MonteCarlo, which: str) -> np.ndarray:
    err = mc.errors_ls if which == "ls" else mc.errors_refined
    return np.reshape((err * err).mean(axis=0), (mc.topo.m, mc.topo.n), order="F")


def test_criterion_01_projector_identities(report):
    """B1=1, BA^T=0, B^2=B, B=B^T and trace(B)=M+N-1 within 1e-10 for all
    M, N in 1..8, < 1s.  A symmetric idempotent B with BA^T = 0 projects
    onto a subspace of null(A), which has dimension M+N-1, so the trace
    pins B as the projector onto all of it."""
    start = time.perf_counter()
    worst = 0.0
    for m in range(1, 9):
        for n in range(1, 9):
            topo = Topology.bistatic(m, n)
            a = correlation_matrix(topo)
            b = weighting_matrix(topo)
            mn = m * n
            worst = max(worst, np.abs(b @ np.ones(mn) - 1.0).max())
            if a.shape[0]:
                worst = max(worst, np.abs(b @ a.T.astype(float)).max())
            worst = max(worst, np.abs(b @ b - b).max())
            worst = max(worst, np.abs(b - b.T).max())
            worst = max(worst, abs(np.trace(b) - (m + n - 1)))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 1.0
    report(1, ok, f"worst residual {worst:.2e}, runtime {elapsed:.3f}s")


def test_criterion_02_entry_pattern(report):
    """B entries match the closed-form weights for both topologies, 1..8."""
    worst = 0.0
    for m in range(1, 9):
        for n in range(1, 9):
            topologies = [Topology.bistatic(m, n)]
            if m == n:
                topologies.append(Topology.monostatic(m))
            for topo in topologies:
                b = weighting_matrix(topo)
                w1, w2, w3, w4 = entry_weights(topo)
                z = np.arange(m * n)
                same_tx = (z % m)[:, None] == z % m
                same_rx = (z // m)[:, None] == z // m
                pattern = np.select([same_tx & same_rx, same_tx, same_rx], [w1, w2, w3], w4)
                worst = max(worst, np.abs(b - pattern).max())
    ok = worst < 1e-10
    report(2, ok, f"worst |B - pattern| {worst:.2e}")


def test_criterion_03_bistatic_mse(report, bistatic_mc):
    """Refined per-entry MSE over (0.5 sigma^2/L) within [0.97, 1.03]."""
    mc = bistatic_mc
    theory = 0.5 * mc.sigma**2 / mc.pilot_len
    ratios = _per_entry_mse(mc, "refined") / theory
    ok = bool(ratios.min() > 0.97 and ratios.max() < 1.03)
    report(3, ok, f"per-entry ratio range [{ratios.min():.4f}, {ratios.max():.4f}]")


def test_criterion_04_monostatic_mse(report, monostatic_mc):
    """Diagonal and off-diagonal ratios to (11/36, 5/36) sigma0^2 in [0.97, 1.03]."""
    mc = monostatic_mc
    sigma0_sq = mc.sigma**2 / mc.pilot_len
    per_entry = _per_entry_mse(mc, "refined")
    diag = np.diag(per_entry) / (11 / 36 * sigma0_sq)
    off = per_entry[~np.eye(6, dtype=bool)] / (5 / 36 * sigma0_sq)
    ok = bool(diag.min() > 0.97 and diag.max() < 1.03 and off.min() > 0.97 and off.max() < 1.03)
    report(
        4, ok,
        f"diag ratio [{diag.min():.4f}, {diag.max():.4f}], "
        f"offdiag ratio [{off.min():.4f}, {off.max():.4f}]",
    )


def test_criterion_05_ls_baseline(report, bistatic_mc, monostatic_mc):
    """Plain LS per-entry MSE over sigma^2/L within [0.97, 1.03]."""
    extremes = []
    for mc in (bistatic_mc, monostatic_mc):
        ratios = _per_entry_mse(mc, "ls") / (mc.sigma**2 / mc.pilot_len)
        extremes.extend([ratios.min(), ratios.max()])
    low, high = min(extremes), max(extremes)
    ok = bool(low > 0.97 and high < 1.03)
    report(5, ok, f"LS ratio range [{low:.4f}, {high:.4f}] across both topologies")


def test_criterion_06_crlb_attainment(report, bistatic_mc, monostatic_mc):
    """Refined error covariance against the bound: <5% Frobenius (bistatic);
    per-entry subchannel bounds within 5% (monostatic)."""
    mc = bistatic_mc
    emp = mc.errors_refined.T @ mc.errors_refined / mc.errors_refined.shape[0]
    bound = crlb(mc.topo, mc.sigma**2 / mc.pilot_len)
    rel = np.linalg.norm(emp - bound) / np.linalg.norm(bound)

    # Monostatic per-entry bounds off the one-way delay covariance C: the
    # variance of t_i + t_j, C_ii + C_jj + 2 C_ij (4 C_ii on the diagonal).
    mm = monostatic_mc
    cov = crlb(mm.topo, mm.sigma**2 / mm.pilot_len)
    d = np.diag(cov)
    bounds = d[:, None] + d[None, :] + 2.0 * cov
    ratios = _per_entry_mse(mm, "refined") / bounds
    ok = bool(rel < 0.05 and ratios.min() > 0.95 and ratios.max() < 1.05)
    report(
        6, ok,
        f"bistatic cov rel err {rel:.4f}, monostatic bound ratio "
        f"[{ratios.min():.4f}, {ratios.max():.4f}]",
    )


def _heteroscedastic_errors(topo: Topology, sigmas: np.ndarray, trials: int,
                            seed: int) -> np.ndarray:
    """Refined-estimator errors with per-subchannel noise, pilot length 1."""
    b = weighting_matrix(topo)
    m, n = topo.m, topo.n
    noise = noise_rng(seed, 0).normal(size=(trials, m, n)) * sigmas
    flat = noise.transpose(0, 2, 1).reshape(trials, m * n)
    projected = flat @ b.T
    if topo.kind is Kind.MONOSTATIC:
        mats = projected.reshape(trials, n, m).transpose(0, 2, 1)
        mats = 0.5 * (mats + mats.transpose(0, 2, 1))
        return mats.transpose(0, 2, 1).reshape(trials, m * n)
    return projected


def test_criterion_07_non_iid_formulas(report):
    """Heteroscedastic MSE matches the weighted-sum expressions within 3%."""
    sigmas_flat = np.array([1.0, 2.0, 3.0, 4.0]) * 1e-9
    sigmas = np.reshape(sigmas_flat, (2, 2), order="F")

    bist = Topology.bistatic(2, 2)
    err = _heteroscedastic_errors(bist, sigmas, TRIALS, 30_001)
    mse_first = (err[:, 0] ** 2).mean()
    expected_first = (9 * sigmas_flat[0]**2 + sigmas_flat[1]**2
                      + sigmas_flat[2]**2 + sigmas_flat[3]**2) / 16
    from_op = theoretical_mse_independent(bist, sigmas**2)[0, 0]
    ratio_bi = mse_first / expected_first

    mono = Topology.monostatic(2)
    err_m = _heteroscedastic_errors(mono, sigmas, TRIALS, 30_002)
    mse_off = (err_m[:, 1] ** 2).mean()
    expected_off = (sigmas_flat**2).sum() / 16
    from_op_m = theoretical_mse_independent(mono, sigmas**2)[1, 0]
    ratio_mo = mse_off / expected_off

    ok = bool(
        abs(ratio_bi - 1.0) < 0.03
        and abs(ratio_mo - 1.0) < 0.03
        and abs(from_op / expected_first - 1.0) < 1e-12
        and abs(from_op_m / expected_off - 1.0) < 1e-12
    )
    report(7, ok, f"bistatic entry-1 ratio {ratio_bi:.4f}, monostatic offdiag ratio {ratio_mo:.4f}")


def test_criterion_08_symmetrization_keeps_constraint(report):
    """10^4 noisy monostatic refinements stay constrained and symmetric."""
    worst_constraint = 0.0
    worst_asymmetry = 0.0
    per_m = 2000
    for m in range(2, 7):
        topo = Topology.monostatic(m)
        a = correlation_matrix(topo).astype(float)
        b = weighting_matrix(topo)
        rng = noise_rng(40_000 + m, 0)
        anchors = rng.uniform(0.0, 10.0, size=(per_m, m, 3))
        tags = rng.uniform(0.0, 10.0, size=(per_m, 3))
        dist = np.sqrt(((anchors - tags[:, None, :]) ** 2).sum(axis=2))
        tmats = (dist[:, :, None] + dist[:, None, :]) / 299_792_458.0
        noisy = tmats + rng.normal(0.0, 1e-9, size=tmats.shape)
        flat = noisy.transpose(0, 2, 1).reshape(per_m, m * m)
        bar = (flat @ b.T).reshape(per_m, m, m).transpose(0, 2, 1)
        refined = 0.5 * (bar + bar.transpose(0, 2, 1))
        assert np.array_equal(refined, refined.transpose(0, 2, 1))
        scale = np.abs(refined).max(axis=(1, 2))
        flat_ref = refined.transpose(0, 2, 1).reshape(per_m, m * m)
        residual = np.abs(flat_ref @ a.T).max(axis=1)
        worst_constraint = max(worst_constraint, (residual / (1e-9 * scale)).max())
        asym = np.abs(refined - refined.transpose(0, 2, 1)).max(axis=(1, 2))
        worst_asymmetry = max(worst_asymmetry, (asym / (1e-12 * scale)).max())
    ok = bool(worst_constraint < 1.0 and worst_asymmetry < 1.0)
    report(
        8, ok,
        f"constraint residual at {worst_constraint:.2e} of budget, "
        f"asymmetry at {worst_asymmetry:.2e} of budget",
    )


def test_criterion_09_decomposition_round_trip(report):
    """10^3 random (delta, h, g) triples satisfy the library's constraint
    and rebuild exactly from the h and g read off row 0 and column 0 of the
    delay matrix, with the first downlink delay fixing the gauge."""
    m, n = 4, 3
    a = correlation_matrix(Topology.bistatic(m, n)).astype(float)
    rng = noise_rng(50_000, 0)
    worst_constraint = 0.0
    worst_rebuild = 0.0
    for _ in range(1000):
        delta = rng.uniform(0.0, 1e-7)
        h = rng.uniform(0.0, 1e-7, m)
        g = rng.uniform(0.0, 1e-7, n)
        t = delta + h[:, None] + g[None, :]
        scale = np.abs(t).max()
        residual = np.abs(a @ np.ravel(t, order="F")).max()
        worst_constraint = max(worst_constraint, residual / (1e-12 * scale))
        gauge = rng.uniform(0.0, 1e-7)
        h_got = t[:, 0] - delta - gauge
        g_got = t[0, :] - delta - h_got[0]
        rebuilt = delta + h_got[:, None] + g_got[None, :]
        worst_rebuild = max(worst_rebuild, np.abs(rebuilt - t).max() / (1e-12 * scale))
    ok = bool(worst_constraint < 1.0 and worst_rebuild < 1.0)
    report(
        9, ok,
        f"constraint at {worst_constraint:.2e} of budget, rebuild at "
        f"{worst_rebuild:.2e} of budget",
    )


def _rmse_by_point(result):
    table = {}
    for row in result.sorted_rows():
        table.setdefault((row.sigma, row.pilot_len), {})[row.method] = row.value
    return table


def test_criterion_10_localization_ordering(report):
    """Refined-estimate RMSE <= LS RMSE at every default grid point, for
    Bistatic 4x3 and Monostatic 6 at 10^4 trials; noiseless error < 1e-6 m.

    The comparison allows a 1e-6 m tie margin.  For bistatic arrays ML
    positioning gains nothing from the projection: the range-sum model lies
    in the outer-sum subspace, so projecting the estimate only shifts the
    objective by a constant, and the sweep solves each scene once and
    reports that fix for both methods; the bistatic rows are equal by
    construction and the order holds with equality.  The monostatic fix
    reads only the diagonal, so there the refinement changes the fix and
    the order is a real check; a violation would appear at the RMSE scale,
    >= 1e-3 m.
    """
    TIE_MARGIN = 1e-6  # meters
    violations = []
    for kind, m, n in ((Kind.BISTATIC, 4, 3), (Kind.MONOSTATIC, 6, 6)):
        cfg = SweepConfig(
            experiment=ExperimentKind.LOCALIZATION,
            kind=kind, m=m, n=n, trials=10_000, master_seed=60_000 + m,
        )
        table = _rmse_by_point(run_sweep(cfg))
        for point, methods in table.items():
            if not methods["proposed"] <= methods["ls"] + TIE_MARGIN:
                violations.append((kind.value, point, methods))

    worst_noiseless = 0.0
    for index in range(100):
        scene = random_scene(Topology.bistatic(4, 3), 10.0, noise_rng(61_000, index))
        t = true_delays(scene.tx, scene.rx, scene.tag, scene.delta)
        p, _, _ = localize(t, scene.tx, scene.rx)
        worst_noiseless = max(worst_noiseless, float(np.linalg.norm(p - scene.tag)))
    for index in range(100):
        scene = random_scene(Topology.monostatic(6), 10.0, noise_rng(62_000, index))
        t = true_delays(scene.tx, scene.rx, scene.tag, scene.delta)
        p, _, _ = localize(t, scene.tx)
        worst_noiseless = max(worst_noiseless, float(np.linalg.norm(p - scene.tag)))

    ok = not violations and worst_noiseless < 1e-6
    report(
        10, ok,
        f"{len(violations)} ordering violations over 40 grid points, "
        f"noiseless worst error {worst_noiseless:.2e} m",
    )


def test_criterion_11_determinism(report):
    """Identical configs give byte-identical CSV; workers 1 == workers 8."""
    configs = [
        SweepConfig(experiment=ExperimentKind.MSE, kind=Kind.BISTATIC, m=3, n=2,
                    pilot_lengths=(2,), sigma_grid=(1e-9, 3e-9), trials=700,
                    master_seed=70_001),
        SweepConfig(experiment=ExperimentKind.CRLB, kind=Kind.MONOSTATIC, m=4, n=4,
                    pilot_lengths=(4,), sigma_grid=(1e-9,), trials=700,
                    master_seed=70_002),
        SweepConfig(experiment=ExperimentKind.LOCALIZATION, kind=Kind.BISTATIC, m=4,
                    n=3, pilot_lengths=(2,), sigma_grid=(1e-9,), trials=600,
                    master_seed=70_003),
    ]
    ok = True
    for cfg in configs:
        first = run_sweep(cfg, workers=1).to_csv()
        again = run_sweep(cfg, workers=1).to_csv()
        pooled = run_sweep(cfg, workers=8).to_csv()
        if not (first == again == pooled):
            ok = False
    report(11, ok, f"{len(configs)} experiment kinds, repeat and 1-vs-8 workers byte-equal")
