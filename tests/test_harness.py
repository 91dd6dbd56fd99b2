"""Sweep driver tests: config parsing, determinism, row contents."""

import hashlib
import inspect
import math
import os
import pickle
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bstoa
import contract
from bstoa import harness
from bstoa.analysis import theoretical_mse_iid
from bstoa.channel import (
    SPEED_OF_LIGHT,
    noise_rng,
    random_scene,
    synth_observations,
    true_delays,
)
from bstoa.errors import ConfigInvalid, SingularGeometry
from bstoa.estimator import ls_estimate, refine_estimate
from bstoa.harness import (
    CHUNK_TRIALS,
    DEFAULT_PILOT_LENGTHS,
    DEFAULT_SIGMA_GRID,
    STREAM_CONTRACT,
    ExperimentKind,
    SweepConfig,
    _execute,
    _loc_terms,
    _open_chunk,
    _refined_squares,
    _run_noise_chunk,
    parse_config,
    run_sweep,
)
from bstoa.localization import _fix_bistatic, _fix_monostatic, localize
from bstoa.topology import Kind, Topology, weighting_matrix


def _cfg(**overrides):
    base = dict(
        experiment=ExperimentKind.MSE,
        kind=Kind.BISTATIC,
        m=2,
        n=2,
        pilot_lengths=(2,),
        sigma_grid=(1e-9, 2e-9),
        trials=200,
        master_seed=303,
    )
    base.update(overrides)
    return SweepConfig(**base)


def test_config_builds_its_grid_and_topology_once():
    """Every chunk reads its config's grid points and topology, so each is
    built once per config, as fields set at construction; a pickled
    config's bytes do not depend on whether they were read, and an
    unpickled config carries the same values."""
    cfg = _cfg(sigma_grid=(1e-9, 2e-9, 3e-9), pilot_lengths=(2, 8))
    fresh = pickle.dumps(cfg)
    assert cfg.grid_points is cfg.grid_points
    assert cfg.topology is cfg.topology
    assert cfg.grid_points == tuple((s, k) for s in (1e-9, 2e-9, 3e-9) for k in (2, 8))
    assert pickle.dumps(cfg) == fresh
    clone = pickle.loads(fresh)
    assert clone == cfg
    assert clone.grid_points == cfg.grid_points and clone.topology == cfg.topology
    assert replace(cfg, pilot_lengths=(4,)).grid_points == ((1e-9, 4), (2e-9, 4), (3e-9, 4))


def test_parse_config_full():
    cfg = parse_config(
        """
        # comment line
        experiment = mse
        kind = bistatic
        m = 4
        n = 3
        pilot_lengths = 2, 8
        sigma_grid = 1e-10, 1e-9
        trials = 500
        cube_side = 10
        master_seed = 99
        """
    )
    assert cfg.experiment is ExperimentKind.MSE
    assert cfg.topology == Topology.bistatic(4, 3)
    assert cfg.pilot_lengths == (2, 8)
    assert cfg.sigma_grid == (1e-10, 1e-9)
    assert cfg.trials == 500
    assert cfg.master_seed == 99


def test_parse_config_defaults():
    cfg = parse_config("experiment = crlb\nkind = monostatic\nm = 6\n")
    assert cfg.n == 6
    assert cfg.pilot_lengths == DEFAULT_PILOT_LENGTHS
    assert cfg.sigma_grid == DEFAULT_SIGMA_GRID
    assert cfg.trials == 10_000
    assert cfg.cube_side == 10.0


@pytest.mark.parametrize(
    "text",
    [
        "kind = bistatic\nm = 2\n",                                  # missing experiment
        "experiment = mse\nkind = bistatic\n",                       # missing m
        "experiment = warp\nkind = bistatic\nm = 2\n",               # bad experiment
        "experiment = mse\nkind = tri\nm = 2\n",                     # bad kind
        "experiment = mse\nkind = bistatic\nm = 2\nbogus = 1\n",     # unknown key
        "experiment = mse\nkind = bistatic\nm = 2\nm = 3\n",         # duplicate
        "experiment = mse\nkind = bistatic\nm = two\n",              # bad int
        "experiment = mse\nkind = monostatic\nm = 2\nn = 3\n",       # mono m != n
        "experiment = mse\nkind = bistatic\nm = 2\ntrials = 0\n",    # bad trials
        "experiment = mse\nkind = bistatic\nm = 2\nsigma_grid = 2e-9, 1e-9\n",
        "experiment = mse\nkind = bistatic\nm = 2\nsigma_grid = 0, 1e-9\n",
        "experiment = mse\nkind = bistatic\nm = 2\nsigma_grid = -1e-9\n",
        "experiment = localization\nkind = bistatic\nm = 4\nn = 3\ncube_side = 1e40\n",
        "experiment = localization\nkind = bistatic\nm = 4\nn = 3\ncube_side = 1e-50\n",
        "experiment = mse\nkind = bistatic\nm = 2\npilot_lengths = 0\n",
        # sigma^2 / L is normal, but a theory value would be subnormal.
        "experiment = mse\nkind = bistatic\nm = 48\npilot_lengths = 1\nsigma_grid = 1.517e-154\n",
        "experiment = mse\nkind = monostatic\nm = 3\npilot_lengths = 1\nsigma_grid = 1.517e-154\n",
        "experiment = crlb\nkind = monostatic\nm = 3\npilot_lengths = 1, 2\n"
        "sigma_grid = 2.2e-154, 1e-9\n",
        "experiment = mse\nkind = bistatic\nm = 2\npilot_lengths = 2, 8, 2\n",
        "experiment = mse\nkind = bistatic\nm = 2\nsigma_grid = nan\n",
        "experiment = mse\nkind = bistatic\nm = 2\nsigma_grid = 1e-9, inf\n",
        "experiment = mse\nkind = bistatic\nm = 2\ncube_side = inf\n",
        "experiment = mse\nkind = bistatic\nm = 2\ncube_side = nan\n",
    ],
)
def test_parse_config_rejects(text):
    with pytest.raises(ConfigInvalid):
        parse_config(text)


@pytest.mark.parametrize("text", [b"experiment = mse\nkind = bistatic\nm = 2\n", None])
def test_parse_config_takes_only_text(text):
    """Bytes used to leak TypeError from the line reader, and None
    AttributeError."""
    with pytest.raises(ConfigInvalid, match="must be text, got (bytes|NoneType)$"):
        parse_config(text)


@pytest.mark.parametrize("cfg", ["experiment = mse", None])
def test_run_sweep_takes_only_a_sweep_config(cfg):
    """A config text or None used to leak AttributeError."""
    with pytest.raises(ConfigInvalid, match="takes a SweepConfig, got (str|NoneType)$"):
        run_sweep(cfg, workers=1)


def test_monostatic_crlb_config_checks_the_bounds_its_rows_divide_by():
    """A monostatic crlb sweep is checked against the ``theoretical_mse_iid``
    bounds its rows divide by, not against the smaller off-diagonal
    entries of ``crlb``'s monostatic covariance: monostatic 3 at L = 8 and sigma = 1.26e-153
    (sigma0^2 = 2e-307) runs, with normal rows near 1, where it used to
    raise ConfigInvalid."""
    cfg = parse_config(
        "experiment = crlb\nkind = monostatic\nm = 3\npilot_lengths = 8\n"
        "sigma_grid = 1.26e-153\ntrials = 64\n"
    )
    assert theoretical_mse_iid(cfg.topology, 1.26e-153**2 / 8).min() >= sys.float_info.min
    rows = run_sweep(cfg, workers=1).rows
    assert [row.metric for row in rows] == ["diag_bound_ratio", "offdiag_bound_ratio"]
    for row in rows:
        assert row.value >= sys.float_info.min and 1.0 / 3.0 < row.value < 3.0, row


@pytest.mark.parametrize(
    "text, message",
    [
        ("experiment = warp\nkind = bistatic\nm = 2\n", "bad value for 'experiment': 'warp'"),
        ("experiment = mse\nkind = tri\nm = 2\n", "bad value for 'kind': 'tri'"),
        ("experiment = mse\nkind = bistatic\nm = two\n", "bad value for 'm': 'two'"),
    ],
)
def test_parse_config_bad_value_message(text, message):
    with pytest.raises(ConfigInvalid, match=message):
        parse_config(text)


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"pilot_lengths": ()}, "mse sweep: pilot_lengths must not be empty"),
        ({"sigma_grid": ()}, "sigma_grid must not be empty"),
        ({"pilot_lengths": (2.5,)}, "mse sweep: pilot_len must be an integer, got 2.5"),
        ({"pilot_lengths": (2, 8.0)}, "mse sweep: pilot_len must be an integer, got 8.0"),
        ({"pilot_lengths": (2, 0)}, "mse sweep: pilot_len must be >= 1, got 0"),
        ({"trials": 200.0}, "mse sweep: trials must be an integer, got 200.0"),
        ({"master_seed": 1.5}, "mse sweep: master_seed must be an integer, got 1.5"),
        ({"m": 2.0}, "mse sweep: m must be an integer, got 2.0"),
        ({"n": "2"}, "mse sweep: n must be an integer, got '2'"),
        ({"cube_side": "10"}, "mse sweep: cube_side must be a real number, got '10'"),
        ({"sigma_grid": ("1e-9",)}, "mse sweep: sigma must be a real number, got '1e-9'"),
        ({"sigma_grid": (1e-9, "2e-9")}, "mse sweep: sigma must be a real number, got '2e-9'"),
        ({"sigma_grid": 1e-9}, "mse sweep: sigma_grid must be a sequence, got 1e-09"),
        ({"sigma_grid": "1e-9"}, "mse sweep: sigma_grid must be a sequence, got '1e-9'"),
        ({"pilot_lengths": 2}, "mse sweep: pilot_lengths must be a sequence, got 2"),
        ({"pilot_lengths": "28"}, "mse sweep: pilot_lengths must be a sequence, got '28'"),
        ({"pilot_lengths": ([2],)}, "mse sweep: pilot_len must be an integer, got [2]"),
        ({"pilot_lengths": ({2},)}, "mse sweep: pilot_len must be an integer, got {2}"),
        ({"pilot_lengths": (2, 2.0)}, "mse sweep: pilot_len must be an integer, got 2.0"),
    ],
    ids=[
        "empty-pilots", "empty-sigmas", "pilot-2.5", "pilot-8.0", "pilot-0", "trials", "seed", "m",
        "n", "cube-side-text", "sigma-text", "sigma-mixed", "sigma-scalar", "sigma-string",
        "pilots-scalar", "pilots-string", "pilot-list", "pilot-set", "pilot-2-and-2.0",
    ],
)
def test_config_rejects_empty_grids_and_non_integer_counts(overrides, message):
    """Empty grids, counts or a seed that ``operator.index`` rejects, and a
    cube side or sigma that is not a real number are ConfigInvalid; pilot
    lengths take the package's one pilot-length rule.  A pilot length of
    2.5 used to run and write ``pilot_len=2.5`` rows; a float m, trials or
    seed raised TypeError deep inside the sweep, and so did a text cube
    side or sigma, from ``math.isfinite`` or a comparison.  A grid that is
    a string or not iterable used to leak TypeError, or to be read a
    character at a time.  An unhashable pilot length leaked TypeError from
    the distinctness check, and ``(2, 2.0)`` failed it instead of naming
    2.0: the pilot-length rule now runs first."""
    with pytest.raises(ConfigInvalid, match=f"^{re.escape(message)}$"):
        _cfg(**overrides)


def test_config_grids_are_stored_as_tuples():
    """Grids given as lists or arrays are stored as tuples, so the config
    equals, and hashes like, the same config parsed from text.  An array
    sigma grid used to raise ValueError (the truth value of an array), and
    a config built from lists was unhashable and unequal to the parsed one."""
    parsed = parse_config(
        "experiment = mse\nkind = bistatic\nm = 4\nn = 3\n"
        "pilot_lengths = 2, 8\nsigma_grid = 1e-10, 1e-9, 1e-8\n"
    )
    grids = [([2, 8], [1e-10, 1e-9, 1e-8]), (np.array([2, 8]), np.logspace(-10, -8, 3))]
    for pilots, sigmas in grids:
        built = SweepConfig("mse", "bistatic", 4, 3, pilot_lengths=pilots, sigma_grid=sigmas)
        assert (built.pilot_lengths, built.sigma_grid) == ((2, 8), (1e-10, 1e-9, 1e-8))
        assert built == parsed and hash(built) == hash(parsed)


@pytest.mark.parametrize("experiment", list(ExperimentKind))
@pytest.mark.parametrize(
    "kind, m, n", [(Kind.BISTATIC, 4, 3), (Kind.BISTATIC, 4, 4), (Kind.MONOSTATIC, 4, 4)]
)
def test_config_from_values_runs_as_from_members(experiment, kind, m, n):
    """Plain strings for the experiment and the kind are stored as their
    members, so the sweep takes the same path and writes the same bytes."""
    by_member = _cfg(experiment=experiment, kind=kind, m=m, n=n, trials=64)
    by_value = _cfg(experiment=experiment.value, kind=kind.value, m=m, n=n, trials=64)
    assert by_value.experiment is experiment and by_value.kind is kind
    assert by_value == by_member
    assert run_sweep(by_value, workers=1).to_csv() == run_sweep(by_member, workers=1).to_csv()


def test_config_stores_the_ints_its_count_rules_return():
    """``True`` and numpy integers pass ``operator.index`` and are stored
    as the ints it returns: an m of ``True`` is the m = 1 config and writes
    its CSV, where it used to leak TypeError from ``np.full``."""
    plain = _cfg(m=1, n=3, trials=64)
    by_true = _cfg(m=True, n=3, trials=np.int64(64), master_seed=np.int64(303))
    assert by_true == plain
    counts = (by_true.m, by_true.n, by_true.trials, by_true.master_seed, by_true.topology.m)
    assert all(type(count) is int for count in counts)
    assert run_sweep(by_true, workers=1).to_csv() == run_sweep(plain, workers=1).to_csv()


@pytest.mark.parametrize(
    "overrides",
    [
        {"experiment": "warp"},
        {"experiment": "MSE"},
        {"experiment": None},
        {"kind": "bi"},
        {"kind": "tri"},
        {"kind": Kind},
    ],
    ids=["experiment-warp", "experiment-upper", "experiment-none", "kind-bi", "kind-tri",
         "kind-class"],
)
def test_config_rejects_unknown_experiment_or_kind(overrides):
    with pytest.raises(ConfigInvalid):
        _cfg(**overrides)


@pytest.mark.parametrize(
    "experiment, kind, m, sigma",
    [
        (ExperimentKind.MSE, Kind.BISTATIC, 4, 1e200),
        (ExperimentKind.CRLB, Kind.BISTATIC, 4, 1e-320),
        (ExperimentKind.MSE, Kind.BISTATIC, 4, 1e-170),
        (ExperimentKind.LOCALIZATION, Kind.BISTATIC, 4, 1e300),
        (ExperimentKind.LOCALIZATION, Kind.MONOSTATIC, 6, 1e300),
    ],
    ids=["mse-overflow", "crlb-underflow", "mse-underflow", "loc-bistatic", "loc-monostatic"],
)
def test_config_rejects_sigma_outside_the_float_range(experiment, kind, m, sigma):
    """A sigma whose sigma^2 / L underflows or whose sweep sums would
    overflow is a ConfigInvalid that names the accepted range.  These
    configs used to end in an OverflowError or ZeroDivisionError, or in
    rows of 0, 6.48 m or nan."""
    n = m - 1 if kind is Kind.BISTATIC else m
    with pytest.raises(ConfigInvalid, match=r"sigma must lie in \[\S+, \S+\] s"):
        _cfg(experiment=experiment, kind=kind, m=m, n=n, sigma_grid=tuple(sorted((1e-9, sigma))))


@pytest.mark.parametrize("experiment", list(ExperimentKind))
def test_config_range_depends_on_the_sweep(experiment):
    """The upper end of the range shrinks with the sweep's sums (trials
    times entries) for mse and crlb, and is one range-noise bound for
    localization; the lower end is sqrt(tiny L) for the largest L."""
    def message(**overrides):
        with pytest.raises(ConfigInvalid) as info:
            _cfg(experiment=experiment, m=4, n=3, sigma_grid=(1e-320,), **overrides)
        return str(info.value)

    small, large = message(trials=10), message(trials=10**6)
    low = math.sqrt(sys.float_info.min * 8)
    assert f"[{low:.4g}, " in message(pilot_lengths=(2, 8))
    assert (small == large) is (experiment is ExperimentKind.LOCALIZATION)


@pytest.mark.parametrize("kind, m, n", [(Kind.BISTATIC, 4, 3), (Kind.MONOSTATIC, 6, 6)])
def test_localization_cube_just_inside_the_range_limit_runs(kind, m, n):
    """A cube just below its limit, 2^128 / (2 sqrt(3)) m, passes the
    config check and every fix stays finite and near its tag."""
    cfg = _cfg(
        experiment=ExperimentKind.LOCALIZATION, kind=kind, m=m, n=n, cube_side=9.8e37,
        sigma_grid=(1e-9,), pilot_lengths=(2,), trials=64,
    )
    for row in run_sweep(cfg, workers=1).rows:
        assert 0.0 <= row.value < 1e-12 * cfg.cube_side, row


@pytest.mark.parametrize("kind, m, n", [(Kind.BISTATIC, 4, 3), (Kind.MONOSTATIC, 6, 6)])
def test_localization_rows_scale_exactly_with_the_cube(kind, m, n):
    """The solvers work in scene units, so a cube of 10 2^k m with every
    sigma times 2^k gives rmse rows of exactly 2^k times the 10 m cube's,
    bit for bit, from k = -150 to 120."""
    def rows(k):
        cfg = _cfg(
            experiment=ExperimentKind.LOCALIZATION, kind=kind, m=m, n=n,
            cube_side=math.ldexp(10.0, k),
            sigma_grid=(math.ldexp(1e-10, k), math.ldexp(3e-9, k)), trials=512,
        )
        return [row.value for row in run_sweep(cfg, workers=1).sorted_rows()]

    base = rows(0)
    for k in (-150, -30, 30, 120):
        assert rows(k) == [math.ldexp(value, k) for value in base], k


@pytest.mark.parametrize("kind, m, n", [(Kind.BISTATIC, 4, 3), (Kind.MONOSTATIC, 6, 6)])
def test_localization_tiny_cubes_run_or_name_the_sigma_range(kind, m, n):
    """A cube of 1e-12 m or 1e-50 m runs with sigma scaled alike, and its
    rows over the cube side lie near a 10 m cube's.  Noise that would put
    a length in scene units past RANGE_LIMIT is a ConfigInvalid that names
    the sigma range: at 1e-50 m, the default grid's 3 cm of range noise is
    2^166 scene units."""
    def rows(cube_side):
        cfg = _cfg(
            experiment=ExperimentKind.LOCALIZATION, kind=kind, m=m, n=n, cube_side=cube_side,
            sigma_grid=(1e-10 * cube_side,), trials=64,
        )
        return [row.value / cube_side for row in run_sweep(cfg, workers=1).sorted_rows()]

    want = rows(10.0)
    for cube_side in (1e-12, 1e-50):
        for got, ref in zip(rows(cube_side), want, strict=True):
            assert abs(got / ref - 1.0) <= 1e-6
    with pytest.raises(ConfigInvalid, match=r"sigma must lie in \[\S+, \S+\] s"):
        _cfg(
            experiment=ExperimentKind.LOCALIZATION, kind=kind, m=m, n=n, cube_side=1e-50,
            sigma_grid=DEFAULT_SIGMA_GRID,
        )


@pytest.mark.parametrize(
    "experiment, kind, m", [
        (experiment, kind, m)
        for experiment in (ExperimentKind.MSE, ExperimentKind.CRLB)
        for kind, m in ((Kind.BISTATIC, 4), (Kind.MONOSTATIC, 6))
    ],
)
@pytest.mark.parametrize("sigma", [1e-150, 1e140])
def test_sigma_near_the_ends_of_the_range_gives_true_rows(experiment, kind, m, sigma):
    """Just inside either end of the range, every mse and crlb row is
    finite and within a factor of 3 of its theory (a factor of 10 for the
    bistatic crlb statistic, whose theory is its root mean square)."""
    n = m - 1 if kind is Kind.BISTATIC else m
    cfg = _cfg(experiment=experiment, kind=kind, m=m, n=n, sigma_grid=(sigma,), trials=256)
    for row in run_sweep(cfg, workers=1).rows:
        ratio = row.value / row.theory
        spread = 10.0 if row.metric == "cov_frob_rel_err" else 3.0
        assert math.isfinite(row.value) and 1.0 / spread < ratio < spread, row


def _texts(valid, invalid):
    """Texts of a config value, each valid one three times as likely as
    each invalid one, so that most drawn configs run."""
    return st.sampled_from([*valid, *valid, *valid, *invalid])


def _joined(values):
    return st.lists(values, min_size=1, max_size=2).map(", ".join)


# Sigma texts: the default grid's decades, the whole float range, and values
# that are no sigma at all.
_SIGMA_TEXTS = st.one_of(
    st.builds("{:.3g}e{}".format, st.floats(1.0, 9.99), st.integers(-12, -7)),
    st.builds("{:.3g}e{}".format, st.floats(1.0, 9.99), st.integers(-330, 310)),
    st.sampled_from(["0", "-1e-9", "nan", "inf", "1e-9x"]),
)

# Config key -> text of its value, drawn from the key = value grammar.
# experiment, kind, m and trials are always given: an absent trials key
# means 10^4 trials.
_CONFIG_TEXTS = {
    "experiment": _texts(["mse", "localization", "crlb"], ["warp"]),
    "kind": _texts(["bistatic", "monostatic"], ["tri"]),
    "m": _texts(["1", "2", "3", "4", "5", "6"], ["-1", "0", "two"]),
    "trials": _texts(["1", "64", "513", "600"], ["-1", "0", "1e3"]),
    "n": _texts(["1", "3", "4", "6"], ["0", "2.5"]),
    "pilot_lengths": _joined(_texts(["1", "2", "8"], ["-1", "0", "x"])),
    "sigma_grid": _joined(_SIGMA_TEXTS),
    "cube_side": _texts(["1e-3", "10", "1e6"], ["0", "-1", "1e40", "nan", "inf"]),
    "master_seed": st.integers(0, 2**64 - 1).map(str),
}
_GIVEN_KEYS = ("experiment", "kind", "m", "trials")


@settings(max_examples=40, deadline=None)
@given(
    fields=st.fixed_dictionaries(
        {key: _CONFIG_TEXTS[key] for key in _GIVEN_KEYS},
        optional={key: text for key, text in _CONFIG_TEXTS.items() if key not in _GIVEN_KEYS},
    )
)
def test_parsed_configs_run_or_fail_at_the_config(fields):
    """Config text drawn from the key = value grammar (m, n <= 6, at most
    600 trials) either raises ConfigInvalid at ``parse_config`` or gives a
    config that ``run_sweep`` completes, with a finite row for every grid
    point.  The one other outcome is SingularGeometry from a localization
    sweep with a grid point where no scene has a fix, such as a bistatic
    one whose noise swamps its cube; a scene with no fix no longer aborts a
    sweep that has others (ROADMAP item 4)."""
    try:
        cfg = parse_config("\n".join(f"{key} = {value}" for key, value in fields.items()))
    except ConfigInvalid:
        return
    try:
        rows = run_sweep(cfg, workers=1).rows
    except SingularGeometry as exc:
        assert cfg.experiment is ExperimentKind.LOCALIZATION
        assert re.fullmatch(r"no scene has a fix at sigma = \S+ s, L = \d+", str(exc))
        return
    assert {(row.sigma, row.pilot_len) for row in rows} == set(cfg.grid_points)
    assert all(math.isfinite(row.value) for row in rows)


@pytest.mark.parametrize("lengths", [(2, 2), (8, 2, 8), (1, 1, 1)])
def test_config_rejects_duplicate_pilot_lengths(lengths):
    """A repeated pilot length would give two rows under one CSV key."""
    with pytest.raises(ConfigInvalid, match="distinct"):
        _cfg(pilot_lengths=lengths)


@pytest.mark.parametrize(
    "kind, m, n",
    [(Kind.BISTATIC, 1, 3), (Kind.BISTATIC, 2, 2), (Kind.MONOSTATIC, 3, 3)],
    ids=["bistatic-1x3", "bistatic-2x2", "monostatic-3"],
)
def test_localization_sweep_under_determined(kind, m, n):
    """A localization config over fewer than 4 independent ranges fails at
    the config, before any sweep runs."""
    ranges = m + n - 1 if kind is Kind.BISTATIC else m
    with pytest.raises(ConfigInvalid, match=f"^{ranges} independent ranges cannot fix a 3D position$"):
        _cfg(experiment=ExperimentKind.LOCALIZATION, kind=kind, m=m, n=n)


def test_mse_sweep_rows_and_theory_column():
    cfg = _cfg(trials=400)
    result = run_sweep(cfg, workers=1)
    rows = result.sorted_rows()
    assert len(rows) == 2 * 2 * 1  # 2 sigma x (ls, proposed) x 1 pilot
    for row in rows:
        sigma0_sq = row.sigma**2 / row.pilot_len
        if row.method == "proposed":
            expected = theoretical_mse_iid(cfg.topology, sigma0_sq)[0, 0]
        else:
            expected = sigma0_sq
        assert row.theory == pytest.approx(expected, rel=1e-12)
        assert 0.5 < row.value / row.theory < 2.0  # loose at 400 trials
        assert row.low_confidence == 1


def test_mse_sweep_monostatic_emits_diag_and_offdiag():
    cfg = _cfg(kind=Kind.MONOSTATIC, m=3, n=3, trials=64)
    result = run_sweep(cfg, workers=1)
    metrics = {(r.method, r.metric) for r in result.rows}
    assert metrics == {
        ("ls", "diag_mse"),
        ("ls", "offdiag_mse"),
        ("proposed", "diag_mse"),
        ("proposed", "offdiag_mse"),
    }


def test_mse_sweep_single_point_concentration():
    """10^4 trials put the empirical/theory ratio within 5%."""
    cfg = _cfg(
        kind=Kind.BISTATIC, m=4, n=3, pilot_lengths=(8,), sigma_grid=(1e-9,),
        trials=10_000, master_seed=404,
    )
    result = run_sweep(cfg, workers=1)
    for row in result.rows:
        assert 0.95 < row.value / row.theory < 1.05
        assert row.low_confidence == 0


def test_mse_sweep_single_trial_tiny_sigma():
    cfg = _cfg(sigma_grid=(1e-15,), trials=1)
    result = run_sweep(cfg, workers=1)
    for row in result.rows:
        assert row.value < 1e-20


def test_crlb_check_rows():
    bist = _cfg(experiment=ExperimentKind.CRLB, trials=10)
    rows = run_sweep(bist, workers=1).rows
    assert [r.metric for r in rows] == ["cov_frob_rel_err"] * len(rows)
    assert all(r.low_confidence == 1 for r in rows)
    mono = _cfg(
        experiment=ExperimentKind.CRLB, kind=Kind.MONOSTATIC, m=3, n=3, trials=10
    )
    metrics = {r.metric for r in run_sweep(mono, workers=1).rows}
    assert metrics == {"diag_bound_ratio", "offdiag_bound_ratio"}


def test_localization_sweep_rows():
    cfg = _cfg(
        experiment=ExperimentKind.LOCALIZATION, m=3, n=2,
        sigma_grid=(1e-10,), trials=64,
    )
    rows = run_sweep(cfg, workers=1).rows
    assert {(r.method, r.metric) for r in rows} == {("ls", "rmse"), ("proposed", "rmse")}
    assert all(r.theory is None for r in rows)


def _outer_sum_basis(m, n):
    """K with vec(a (+) b) = K [a; b] for column-major vec."""
    return np.hstack([np.kron(np.ones((n, 1)), np.eye(m)), np.kron(np.eye(n), np.ones((m, 1)))])


def _squares(err):
    """Sum of squares over the trials, axis 0 of a ``(T, m, n)`` batch."""
    return (err * err).sum(axis=0)


def _point_chunks(cfg):
    """``(point, chunk, c)`` for every chunk of the sweep: chunk ``chunk``
    of grid point ``point`` is chunk c of the sweep, counted point-major."""
    chunks = math.ceil(cfg.trials / CHUNK_TRIALS)
    return [(p, k, p * chunks + k) for p in range(len(cfg.grid_points)) for k in range(chunks)]


def test_stream_contract_is_11():
    assert STREAM_CONTRACT == bstoa.STREAM_CONTRACT == 11


# sha256 of the CSV of test_csv_bytes_are_pinned's sweep per (experiment,
# kind), by stream contract v11.
_GOLDEN_CSV = {
    ("mse", "bistatic"): "29483855b349504f18876547a84eac2572887e08015fa35e15e2c737aad029f9",
    ("mse", "monostatic"): "c45bd5d8ce4478541c9ccfd986461df5550bd807f621aa599922dca7974cb22c",
    ("crlb", "bistatic"): "5b566dd984acfca1dfeed9348271db856ea5a0314ad3468200b3f88cf0c15a01",
    ("crlb", "monostatic"): "3888eacacae8fe991d5e7eae6c6d41245342efb766f46e770765f20727f8af47",
    ("localization", "bistatic"): "a83600117cba723325d1258551aa04eca67d0b07d495983fd3188b97ce197765",
    ("localization", "monostatic"): "d4dc455f20d1bd489920cf7c57989e16446b6f32cc0a101995d1140ca6623350",
}


@pytest.mark.parametrize("experiment, kind", list(_GOLDEN_CSV))
def test_csv_bytes_are_pinned(experiment, kind):
    """A small sweep of each (experiment, kind), bistatic 4x3 or
    monostatic 6 with 2 chunks, 2 sigmas and 2 pilot lengths, writes the
    CSV whose sha256 is pinned.  A stream contract bump re-pins exactly the
    hashes it changes: v11 set the bistatic localization hash and left the
    other five as v10 wrote them."""
    m, n = (4, 3) if kind == "bistatic" else (6, 6)
    cfg = SweepConfig(
        experiment, kind, m, n, pilot_lengths=(2, 8), sigma_grid=(1e-9, 3e-9), trials=600,
        master_seed=26,
    )
    assert len(_point_chunks(cfg)) == 8
    digest = hashlib.sha256(run_sweep(cfg, workers=1).to_csv().encode()).hexdigest()
    assert digest == _GOLDEN_CSV[experiment, kind]


def test_readme_names_the_stream_contract():
    """The README's "(stream contract vN, `bstoa.STREAM_CONTRACT`)" names
    the exported contract."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    named = re.findall(r"stream contract v(\d+), `bstoa\.STREAM_CONTRACT`", readme)
    assert named == [str(bstoa.STREAM_CONTRACT)]


def test_chunk_matches_per_trial_reference():
    """A batched chunk reproduces a per-trial loop over LS errors with the
    chunk's draws (its Bartlett factor's columns as pseudo-trials),
    refined through the dense projector B: its ``sq_ls`` is
    the mean over entries of the LS squares, the squares read off the
    row/column partial are the per-trial refined squares, and the partial,
    mapped back through K, is the sum of the per-trial error outer
    products."""
    cfg = _cfg(m=3, n=2, trials=40)
    topo = cfg.topology
    b = weighting_matrix(topo)
    sq_ls = np.zeros((topo.m, topo.n))
    sq_ref = np.zeros((topo.m, topo.n))
    cov = np.zeros((topo.mn, topo.mn))
    for err in contract.ls_errors(cfg, 1):
        err_ref = b @ np.ravel(err, order="F")
        sq_ls += err**2
        sq_ref += np.reshape(err_ref**2, (topo.m, topo.n), order="F")
        cov += np.outer(err_ref, err_ref)
    partial = _run_noise_chunk(cfg, 1)
    sq_proposed = _refined_squares(topo, partial["rowcol"])
    assert abs(partial["sq_ls"] - sq_ls.mean()) <= 1e-12 * sq_ls.mean()
    assert np.abs(sq_proposed - sq_ref).max() <= 1e-12 * sq_ref.max()
    k = _outer_sum_basis(topo.m, topo.n)
    rebuilt = k @ partial["rowcol"] @ k.T
    assert np.abs(rebuilt - cov).max() <= 1e-12 * np.abs(cov).max()


@pytest.mark.parametrize("pilot_len", [1, 2, 8])
def test_chunk_ls_noise_is_the_pilot_mean_distribution(pilot_len):
    """The mean of L iid N(t, sigma^2) pilots is N(t, sigma^2 / L).  The LS
    delay errors of a 16x16 monostatic localization grid point's 13 chunks
    (their LS ranges less the true ranges, over c / 2), times sqrt(L) /
    sigma, have mean 0 and variance 1 within 5 standard errors over
    106496 values.  A bistatic 16x16 mse chunk's own LS energy then has the
    law of 16 16 T such errors: over a grid point's 1000 512-trial chunks,
    ``sq_ls / (T sigma^2 / L)``, a chi-square with 16 16 T degrees of
    freedom over them, has mean 1 and variance 2 / (16 16 T) within 5
    standard errors.  Each pilot length is its own grid point, so each
    draws from its own streams."""
    cfg = _cfg(
        experiment=ExperimentKind.LOCALIZATION, kind=Kind.MONOSTATIC, m=16, n=16,
        pilot_lengths=(1, 2, 8), sigma_grid=(1e-9,), trials=13 * CHUNK_TRIALS,
    )
    point = cfg.pilot_lengths.index(pilot_len)
    streams = [c for p, _, c in _point_chunks(cfg) if p == point]
    errors = []
    for c in streams:
        anchors, tags, terms, unit = _loc_terms(cfg, c)
        ranges = np.sqrt(((anchors - tags[:, None]) ** 2).sum(axis=0))
        errors.append((terms[:, : tags.shape[1]] - ranges) * (2.0 * unit / SPEED_OF_LIGHT))
    z = (np.concatenate(errors, axis=1) * (math.sqrt(pilot_len) / 1e-9)).ravel()
    assert z.size >= 100_000
    assert abs(z.mean()) <= 5.0 / math.sqrt(z.size)
    assert abs(z.var() - 1.0) <= 5.0 * math.sqrt(2.0 / z.size)

    chunks = 1000
    mse = replace(cfg, experiment=ExperimentKind.MSE, kind=Kind.BISTATIC, trials=chunks * CHUNK_TRIALS)
    scale = 1e-9**2 / pilot_len * CHUNK_TRIALS
    ratios = np.array([_run_noise_chunk(mse, point * chunks + k)["sq_ls"] / scale for k in range(chunks)])
    var = 2.0 / (16 * 16 * CHUNK_TRIALS)
    assert abs(ratios.mean() - 1.0) <= 5.0 * math.sqrt(var / chunks)
    assert abs(ratios.var() - var) <= 5.0 * var * math.sqrt(2.0 / (chunks - 1))


@pytest.mark.parametrize(
    "kind, m, n", [(Kind.BISTATIC, 4, 3), (Kind.BISTATIC, 24, 24), (Kind.MONOSTATIC, 6, 6)]
)
def test_refined_error_is_the_projected_ls_error(kind, m, n):
    """Both estimators are linear and a true delay matrix lies in the
    outer-sum subspace, so refining an LS estimate and subtracting the
    truth gives the refined LS error up to rounding: within
    16 eps max|truth| on full scene chunks.  Every chunk relies on this: an
    mse or crlb chunk draws no scene, and a localization chunk's terms are
    the true ranges plus the projected noise, within the same bound of the
    terms of truth + the refined LS error in one gauge
    (``contract.public_gauge``)."""
    cfg = _cfg(
        experiment=ExperimentKind.LOCALIZATION, kind=kind, m=m, n=n, pilot_lengths=(2,),
        sigma_grid=(1e-10, 3e-9), trials=CHUNK_TRIALS,
    )
    eps = np.finfo(float).eps
    for _, _, c in _point_chunks(cfg):
        ref = contract.localization_chunk(cfg, c)
        projected = refine_estimate(ref.t_hat - ref.truth, cfg.topology)
        gap = np.abs((ref.t_ref - ref.truth) - projected).max()
        assert gap <= 16 * eps * np.abs(ref.truth).max()
        _, _, terms, unit = _loc_terms(cfg, c)
        want = contract.localizer_terms(cfg, ref.t_hat, ref.truth + projected)
        gap = np.abs(contract.public_gauge(cfg, terms * unit) - want).max()
        assert gap <= 16 * eps * SPEED_OF_LIGHT * np.abs(ref.truth).max()


@pytest.mark.parametrize(
    "kind, m, n",
    [
        (Kind.BISTATIC, 4, 3), (Kind.BISTATIC, 1, 5), (Kind.BISTATIC, 5, 1),
        (Kind.BISTATIC, 24, 24), (Kind.MONOSTATIC, 1, 1), (Kind.MONOSTATIC, 6, 6),
    ],
)
def test_squares_from_the_partial_are_the_refined_squares(kind, m, n):
    """The per-entry refined squares read off a chunk's row/column partial
    equal the squares of ``refine_estimate`` on the chunk's LS errors (a
    plane with the chunk's draws, ``contract.ls_errors``) within 1e-12
    relative, on a full and a partial chunk."""
    cfg = _cfg(kind=kind, m=m, n=n, pilot_lengths=(2,), sigma_grid=(3e-9,), trials=700)
    for _, _, c in _point_chunks(cfg):
        want = _squares(refine_estimate(contract.ls_errors(cfg, c), cfg.topology))
        got = _refined_squares(cfg.topology, _run_noise_chunk(cfg, c)["rowcol"])
        assert got.shape == (m, n)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize(
    "kind, m, n",
    [
        (Kind.BISTATIC, 4, 3), (Kind.BISTATIC, 1, 5), (Kind.BISTATIC, 5, 1),
        (Kind.BISTATIC, 24, 24), (Kind.BISTATIC, 25, 7), (Kind.BISTATIC, 96, 96),
        (Kind.MONOSTATIC, 1, 1), (Kind.MONOSTATIC, 2, 2), (Kind.MONOSTATIC, 6, 6),
    ],
)
def test_blocked_chunk_is_bitwise_the_whole_plane(kind, m, n):
    """A chunk's ``sq_ls`` and ``rowcol`` are bit-equal to the same
    reductions of a replay of its stream, on a full and a partial chunk.
    Both kinds replay their Bartlett factor first, whose columns stand for
    trials.  A bistatic chunk replays as that (m + n, r) factor, then its
    chi-square; its rowcol is ``c c^T`` for ``c = [r; beta]`` and its
    ``sq_ls`` the LS energy ``n |r|^2 + m |beta|^2 + chi2`` over m n.  A
    monostatic chunk replays as its (2 m, r) factor, d and x (d alone at m
    = 1), then its chi-square; its rowcol is ``w w^T`` for ``w = (2 / m) R
    - sum(R) / m^2`` with ``R = d + B s``, and its ``sq_ls`` the diagonal
    energy ``|d|^2`` and the off-diagonal energy ``|x|^2 + chi2``.  crlb
    chunks keep the same ``rowcol``."""
    cfg = _cfg(kind=kind, m=m, n=n, pilot_lengths=(8,), sigma_grid=(3e-9,), trials=700)
    scale = 3e-9**2 / 8
    for _, _, c in _point_chunks(cfg):
        if kind is Kind.BISTATIC:
            rows, beta, chi2 = contract.noise_draws(cfg, c)
            coords = np.concatenate((rows, beta))
            gram = coords @ coords.T
            diag = np.diagonal(gram)
            energy = n * diag[:m].sum() + m * diag[m:].sum() + chi2
            sq_ls = energy * (scale / (m * n))
        else:
            d, bs, x, chi2 = contract.noise_draws(cfg, c)
            r = d + bs
            coords = r * (2.0 / m) - r.sum(axis=0) / (m * m)
            if m == 1:
                projected = 0.0
            elif m == 2:
                mean = x.mean(axis=0)
                projected = 2.0 * np.vdot(mean, mean)
            else:
                projected = np.vdot(x, x)
            sq_ls = np.array([np.vdot(d, d), projected + chi2]) * scale
        partial = _run_noise_chunk(cfg, c)
        assert np.array_equal(partial["rowcol"], (coords @ coords.T) * scale)
        assert np.array_equal(partial["sq_ls"], sq_ls)
        crlb = _run_noise_chunk(replace(cfg, experiment=ExperimentKind.CRLB), c)
        assert crlb.keys() == {"rowcol"}
        assert np.array_equal(crlb["rowcol"], partial["rowcol"])


class _RecordingStream:
    """A ``noise_rng`` generator that logs the shape of every uniform and
    normal draw and the shape parameter of every gamma draw (a float, or a
    list for a vector draw) before making it."""

    def __init__(self, rng, log):
        self._rng, self._log = rng, log

    def random(self, shape):
        self._log.append(("uniform", shape))
        return self._rng.random(shape)

    def standard_normal(self, *args, **kwargs):
        self._log.append(("normal", kwargs["out"].shape if "out" in kwargs else args[0]))
        return self._rng.standard_normal(*args, **kwargs)

    def standard_gamma(self, shape):
        self._log.append(("gamma", np.asarray(shape).tolist()))
        return self._rng.standard_gamma(shape)


@pytest.mark.parametrize("m, n", [(4, 3), (24, 24), (1, 5)])
def test_bistatic_chunk_draws_m_plus_n_normals_a_trial(monkeypatch, m, n):
    """A bistatic mse or crlb chunk of T trials draws the Bartlett factor
    of its m + n normals a trial: one (m + n, r) normal draw, r = min(m +
    n, T), and one gamma vector of shapes ``(T - i) / 2``, i < r; an mse
    chunk then one gamma draw of shape T (m - 1)(n - 1) / 2.  A
    localization chunk draws its scenes' (T, m + n + 1, 3) uniforms, then
    one (m + n, T) normal array, m + n normals a trial.  No draw has (m +
    n) T values where m + n < T in an mse or crlb chunk, nor m n T
    anywhere.  A 6x6 monostatic mse chunk draws a (12, 12) factor and one
    gamma, not its 12 normals a trial nor its 36-value plane."""
    log = []
    monkeypatch.setattr(
        harness, "noise_rng", lambda *key: _RecordingStream(noise_rng(*key), log)
    )
    k = m + n
    for experiment in (ExperimentKind.MSE, ExperimentKind.CRLB):
        cfg = _cfg(experiment=experiment, m=m, n=n, trials=700)
        for c, count in enumerate((CHUNK_TRIALS, 700 - CHUNK_TRIALS)):
            log.clear()
            _run_noise_chunk(cfg, c)
            r = min(k, count)
            want = [("normal", (k, r)), ("gamma", [(count - i) / 2 for i in range(r)])]
            if experiment is ExperimentKind.MSE:
                want.append(("gamma", count * (m - 1) * (n - 1) / 2))
            assert log == want
    cfg = _cfg(experiment=ExperimentKind.LOCALIZATION, m=m, n=n, trials=700)
    for c, count in enumerate((CHUNK_TRIALS, 700 - CHUNK_TRIALS)):
        log.clear()
        _loc_terms(cfg, c)
        assert log == [("uniform", (count, k + 1, 3)), ("normal", (k, count))]
    log.clear()
    _run_noise_chunk(_cfg(kind=Kind.MONOSTATIC, m=6, n=6, trials=700), 0)
    assert log == [
        ("normal", (12, 12)),
        ("gamma", [(CHUNK_TRIALS - i) / 2 for i in range(12)]),
        ("gamma", CHUNK_TRIALS * 6 * 4 / 2),
    ]


@pytest.mark.parametrize("m", [1, 2, 3, 6])
def test_monostatic_chunk_draws_2m_normals_a_trial(monkeypatch, m):
    """A localization chunk (m >= 4, the smallest array a localization
    sweep accepts) makes its scenes' uniform draw and then one (2 m,
    trials) normal draw, 2 m normals a trial.  A monostatic mse or
    crlb chunk of T trials draws the Bartlett factor of k such normals a
    trial, k = 2 m (k = 1 at m = 1, whose rows read only d): one (k, r)
    normal draw, r = min(k, T), and one gamma vector of shapes ``(T - i) /
    2``, i < r; an mse chunk then, for m > 1, one gamma draw of shape T (m
    (m - 1) - r') / 2, with r' = m for m >= 3 and m - 1 below.  No mse or
    crlb draw has k T values."""
    log = []
    monkeypatch.setattr(
        harness, "noise_rng", lambda *key: _RecordingStream(noise_rng(*key), log)
    )
    rank = m if m >= 3 else m - 1
    k = 2 * m if m > 1 else 1
    for experiment in ExperimentKind:
        if experiment is ExperimentKind.LOCALIZATION and m < 4:
            continue
        cfg = _cfg(experiment=experiment, kind=Kind.MONOSTATIC, m=m, n=m, trials=700)
        for c, count in enumerate((CHUNK_TRIALS, 700 - CHUNK_TRIALS)):
            log.clear()
            if experiment is ExperimentKind.LOCALIZATION:
                _loc_terms(cfg, c)
                want = [("uniform", (count, m + 1, 3)), ("normal", (2 * m, count))]
            else:
                _run_noise_chunk(cfg, c)
                r = min(k, count)
                want = [("normal", (k, r)), ("gamma", [(count - i) / 2 for i in range(r)])]
            if experiment is ExperimentKind.MSE and m > 1:
                want.append(("gamma", count * (m * (m - 1) - rank) / 2))
            assert log == want, experiment


@pytest.mark.parametrize(
    "k, count", [(1, CHUNK_TRIALS), (7, CHUNK_TRIALS), (48, CHUNK_TRIALS), (48, 8), (12, 8)]
)
def test_bartlett_factor_has_the_wishart_law(k, count):
    """Over 2000 streams, the entries of ``L L^T`` for a drawn Bartlett
    factor L have the moments of ``sum_t u_t u_t^T`` over ``count`` iid
    N(0, I_k) vectors: mean ``count delta_ij`` and variance ``count (1 +
    delta_ij)``, each within 5 standard errors, and ``L L^T`` has rank r =
    min(k, count).  Covers T >= k (a 4x3 and a 24x24 full chunk, a 1x1
    monostatic chunk) and T < k (a 24x24 and a 6x6 monostatic last chunk of
    8 trials)."""
    draws = 2000
    r = min(k, count)
    upper = np.triu_indices(k)
    delta = (upper[0] == upper[1]).astype(float)
    entries = np.empty((draws, len(delta)))
    for seed in range(draws):
        factor = harness._bartlett_factor(noise_rng(seed, 0), k, count)
        assert factor.shape == (k, r)
        wishart = factor @ factor.T
        assert np.linalg.matrix_rank(wishart) == r
        entries[seed] = wishart[upper]
    mean, var = count * delta, count * (1.0 + delta)
    assert np.all(np.abs(entries.mean(axis=0) - mean) <= 5.0 * np.sqrt(var / draws))
    sq = (entries - entries.mean(axis=0)) ** 2
    assert np.all(np.abs(sq.mean(axis=0) - var) <= 5.0 * sq.std(axis=0) / math.sqrt(draws))


@pytest.mark.parametrize(
    "kind, m, n",
    [(Kind.BISTATIC, 4, 3), (Kind.BISTATIC, 24, 24), (Kind.MONOSTATIC, 2, 2), (Kind.MONOSTATIC, 6, 6)],
)
def test_bartlett_partials_match_per_trial_partials(monkeypatch, kind, m, n):
    """Over 2000 eight-trial mse chunks, the partials a chunk folds from its
    Bartlett factor have the law of the partials the same fold makes from
    per-trial normals, a (k, 8) array, from other streams: the LS
    energies, tr(rowcol) and every upper rowcol entry agree in mean and
    variance, and the energies in their correlation with tr(rowcol), within
    5 standard errors of the difference.  At 4x3 and monostatic 2, k <= 8
    and the factor is square; at 24x24 and monostatic 6, k > 8 and it has 8
    columns."""
    points, trials = 2000, 8
    cfg = _cfg(
        kind=kind, m=m, n=n, pilot_lengths=tuple(range(1, points + 1)), sigma_grid=(1.0,),
        trials=trials,
    )
    upper = np.triu_indices(m + n if kind is Kind.BISTATIC else m)

    def partials(cfg):
        out = []
        for c in range(points):
            # Grid point c has pilot length c + 1, so its partial is in units of 1 / (c + 1).
            partial = _run_noise_chunk(cfg, c)
            rowcol = partial["rowcol"] * (c + 1)
            out.append([*np.ravel(partial["sq_ls"] * (c + 1)), np.trace(rowcol), *rowcol[upper]])
        return np.array(out)

    drawn = partials(cfg)
    monkeypatch.setattr(harness, "_bartlett_factor", lambda rng, k, count: rng.standard_normal((k, count)))
    per_trial = partials(replace(cfg, master_seed=cfg.master_seed + 1))
    pairs = ((0, 1),) if kind is Kind.BISTATIC else ((0, 2), (1, 2))
    assert _two_sample_gap(drawn, per_trial, pairs) <= 5.0


def _two_sample_gap(x, y, pairs=((0, 1),)):
    """Largest gap, in standard errors of the difference, between the
    column means of samples x and y (rows are draws), between their
    column variances, and between the correlations of each pair of columns
    in ``pairs`` (on Fisher's z scale)."""
    def moments(a):
        dev = a - a.mean(axis=0)
        sq = dev**2
        return a.mean(axis=0), a.var(axis=0) / len(a), sq.mean(axis=0), sq.var(axis=0) / len(a)

    mx, vmx, sx, vsx = moments(x)
    my, vmy, sy, vsy = moments(y)
    gaps = [np.abs(mx - my) / np.sqrt(vmx + vmy), np.abs(sx - sy) / np.sqrt(vsx + vsy)]
    for i, j in pairs:
        fisher = [np.arctanh(np.corrcoef(a[:, i], a[:, j])[0, 1]) for a in (x, y)]
        gaps.append(abs(fisher[0] - fisher[1]) / math.sqrt(2.0 / (len(x) - 3)))
    return max(float(np.max(g)) for g in gaps)


@pytest.mark.parametrize("m, n", [(4, 3), (2, 5), (1, 4)])
def test_bistatic_statistics_match_a_folded_plane(m, n):
    """Over 2000 eight-trial bistatic mse chunks, the LS energy, tr(rowcol)
    and every rowcol entry have the means and variances of the same
    statistics folded from 2000 real (m, n, 8) planes of standard normals,
    and the LS energy is as correlated with tr(rowcol), all within 5
    standard errors of the difference.  The drawn means also lie within 5
    standard errors of their expectations, m n 8 for the LS energy and
    8 (m / n + (n - 1) / m) for tr(rowcol).

    The same map draws a localization chunk's noise: a trial's terms less
    its true ranges, over ``c sigma / sqrt(L)``, are r and beta of the
    chunk's replayed normal draw (``contract.localization_draws``) within 4
    eps of the terms, and over 2048 trials they have the means, variances and
    row/row, column/column and row/column correlations of the refined
    error's row terms (z's row means) and column terms (its column means
    less its grand mean) over 2048 real planes."""
    points, trials = 2000, 8
    cfg = _cfg(
        m=m, n=n, pilot_lengths=tuple(range(1, points + 1)), sigma_grid=(1.0,), trials=trials
    )
    drawn, folded = [], []
    for c in range(points):
        # Grid point c has pilot length c + 1, so its partial is in units of 1 / (c + 1).
        partial = _run_noise_chunk(cfg, c)
        rowcol = partial["rowcol"] * (c + 1)
        drawn.append([partial["sq_ls"] * (c + 1) * m * n, np.trace(rowcol), *rowcol.ravel()])
        z = noise_rng(cfg.master_seed + 1, c).standard_normal((m, n, trials))
        rows = z.mean(axis=1)
        coords = np.concatenate((rows, z.mean(axis=0) - rows.mean(axis=0)))
        rowcol = coords @ coords.T
        folded.append([(z * z).sum(), np.trace(rowcol), *rowcol.ravel()])
    drawn, folded = np.array(drawn), np.array(folded)
    assert _two_sample_gap(drawn, folded) <= 5.0
    expected = np.array([m * n * trials, trials * (m / n + (n - 1) / m)])
    se = drawn[:, :2].std(axis=0) / math.sqrt(points)
    assert np.all(np.abs(drawn[:, :2].mean(axis=0) - expected) <= 5.0 * se)

    chunks = 4
    loc = _cfg(
        experiment=ExperimentKind.LOCALIZATION, m=m, n=n, pilot_lengths=(2,), sigma_grid=(1e-8,),
        trials=chunks * CHUNK_TRIALS,
    )
    scale = SPEED_OF_LIGHT * 1e-8 / math.sqrt(2)
    drawn, folded = [], []
    eps = np.finfo(float).eps
    for c in range(chunks):
        anchors, tags, terms, unit = _loc_terms(loc, c)
        d = np.sqrt(((anchors - tags[:, None]) ** 2).sum(axis=0))
        drawn.append((terms - d) * (unit / scale))
        replayed = np.concatenate(contract.localization_draws(loc, c)[-1])
        assert np.abs(drawn[-1] - replayed).max() <= 4 * eps * np.abs(terms).max() * unit / scale
        z = noise_rng(loc.master_seed + 1, c).standard_normal((m, n, CHUNK_TRIALS))
        rows = z.mean(axis=1)
        folded.append(np.concatenate([rows, z.mean(axis=0) - rows.mean(axis=0)]))
    # Pair a row term with a row term, a column term with a column term and
    # a row term with a column term.
    pairs = [(0, m)] + ([(0, 1)] if m > 1 else []) + ([(m, m + 1)] if n > 1 else [])
    gap = _two_sample_gap(np.concatenate(drawn, axis=1).T, np.concatenate(folded, axis=1).T, pairs)
    assert gap <= 5.0


@pytest.mark.parametrize("m", [1, 2, 3, 6])
def test_monostatic_statistics_match_a_folded_plane(m):
    """Over 2000 eight-trial monostatic mse chunks, the LS diagonal energy,
    the off-diagonal energy, tr(rowcol) and every rowcol entry have the
    means and variances of the same statistics folded from 2000 real (m, m,
    8) planes of standard normals, and both energies are as correlated with
    tr(rowcol), all within 5 standard errors of the difference.  The drawn
    means of the three also lie within 5 standard errors of their
    expectations, 8 m, 8 m (m - 1) and 8 (2 m - 1) / m.  At m = 1 there is
    no off-diagonal energy and tr(rowcol) is the diagonal energy, so only
    means and variances are compared."""
    points, trials = 2000, 8
    cfg = _cfg(
        kind=Kind.MONOSTATIC, m=m, n=m, pilot_lengths=tuple(range(1, points + 1)),
        sigma_grid=(1.0,), trials=trials,
    )
    drawn, folded = [], []
    for c in range(points):
        # Grid point c has pilot length c + 1, so its partial is in units of 1 / (c + 1).
        partial = _run_noise_chunk(cfg, c)
        rowcol = partial["rowcol"] * (c + 1)
        drawn.append([*(partial["sq_ls"] * (c + 1)), np.trace(rowcol), *rowcol.ravel()])
        z = noise_rng(cfg.master_seed + 1, c).standard_normal((m, m, trials))
        diag = (np.diagonal(z) ** 2).sum()
        coords = z.mean(axis=1) + z.mean(axis=0) - z.mean(axis=(0, 1))
        rowcol = coords @ coords.T
        folded.append([diag, (z * z).sum() - diag, np.trace(rowcol), *rowcol.ravel()])
    drawn, folded = np.array(drawn), np.array(folded)
    if m == 1:
        assert not drawn[:, 1].any() and not folded[:, 1].any()
        assert _two_sample_gap(np.delete(drawn, 1, axis=1), np.delete(folded, 1, axis=1), ()) <= 5.0
    else:
        assert _two_sample_gap(drawn, folded, pairs=((0, 2), (1, 2))) <= 5.0
    expected = np.array([m, m * (m - 1), (2 * m - 1) / m]) * trials
    se = drawn[:, :3].std(axis=0) / math.sqrt(points)
    assert np.all(np.abs(drawn[:, :3].mean(axis=0) - expected) <= 5.0 * se)


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(1, 12),
    n=st.integers(1, 12),
    trials=st.integers(1, 1100),
    seed=st.integers(0, 2**64 - 1),
    sigma=st.floats(1e-12, 1e-6),
    pilot_len=st.integers(1, 16),
)
def test_ls_energy_is_at_least_the_refined_energy(m, n, trials, seed, sigma, pilot_len):
    """In every bistatic mse chunk the LS errors' energy, ``m n sq_ls``, is
    at least the refined errors' energy read off ``rowcol``.  They differ
    by the chi-square energy off the outer-sum subspace, which is 0 when m
    or n is 1; there the two agree up to rounding (1e-12 relative)."""
    cfg = _cfg(
        m=m, n=n, pilot_lengths=(pilot_len,), sigma_grid=(sigma,), trials=trials,
        master_seed=seed,
    )
    for _, _, c in _point_chunks(cfg):
        partial = _run_noise_chunk(cfg, c)
        refined = _refined_squares(cfg.topology, partial["rowcol"]).sum()
        assert partial["sq_ls"] * (m * n) >= refined * (1.0 - 1e-12)


def _forbid(monkeypatch, functions, message):
    """Rebind every binding of ``functions`` in the bstoa modules to a
    function that raises AssertionError(message)."""
    def forbidden(*args, **kwargs):
        raise AssertionError(message)

    originals = {id(fn) for fn in functions}
    modules = [mod for key, mod in sys.modules.items() if key == "bstoa" or key.startswith("bstoa.")]
    for mod in modules:
        for name, obj in list(vars(mod).items()):
            if id(obj) in originals:
                monkeypatch.setattr(mod, name, forbidden)


def test_no_module_container_holds_a_public_function():
    """Rebinding a public function of a bstoa module, as ``_forbid`` and
    the benchmark's span tracer do, reaches module globals only: a call
    through a module-level dict, list, tuple or set would skip the
    rebinding, so none of them holds a public bstoa function.  The
    benchmark reports no correct run when one does (``stale_bindings``)."""
    modules = [mod for key, mod in sys.modules.items() if key == "bstoa" or key.startswith("bstoa.")]
    public = {
        id(obj): obj
        for mod in modules
        for name, obj in vars(mod).items()
        if inspect.isfunction(obj) and obj.__module__.startswith("bstoa.")
        and not name.startswith("_")
    }
    held = []
    for mod in modules:
        for name, obj in vars(mod).items():
            if isinstance(obj, dict):
                items = list(obj.values())
            elif isinstance(obj, (list, tuple, set, frozenset)):
                items = list(obj)
            else:
                continue
            if any(item is not None and public.get(id(item)) is item for item in items):
                held.append(f"{mod.__name__}.{name}")
    assert held == []
    # The scan misses no module: every function bstoa exports is in it.
    exported = [name for name, obj in vars(bstoa).items() if inspect.isfunction(obj)]
    assert exported
    assert [name for name in exported if id(getattr(bstoa, name)) not in public] == []


def test_mse_and_crlb_sweeps_never_refine(monkeypatch):
    """Every row comes from per-anchor terms or the row/column partial: no
    sweep of any experiment calls the refinement or builds a refined
    plane, and a localization sweep does not go through the public batch
    localizers, which refine."""
    import bstoa.estimator

    _forbid(monkeypatch, (bstoa.estimator.refine_estimate,), "a sweep refined an estimate")
    with pytest.raises(AssertionError, match="refined"):
        bstoa.estimator.refine_estimate(np.zeros((2, 2)), Topology.bistatic(2, 2))
    for experiment in ExperimentKind:
        for kind, m, n in ((Kind.BISTATIC, 4, 3), (Kind.MONOSTATIC, 6, 6)):
            cfg = _cfg(experiment=experiment, kind=kind, m=m, n=n, trials=600)
            assert run_sweep(cfg, workers=1).rows


def test_mse_and_crlb_sweeps_draw_no_scene(monkeypatch):
    """mse and crlb CSVs do not depend on the scene: they are byte-equal at
    cube sides 1 and 10.  A localization CSV does depend on the cube side.
    No sweep computes a true delay matrix."""
    import bstoa.channel

    def csv(experiment, kind, m, cube_side):
        cfg = _cfg(
            experiment=experiment, kind=kind, m=m, n=m - 1 if kind is Kind.BISTATIC else m,
            pilot_lengths=(8, 2), trials=600, cube_side=cube_side, master_seed=29,
        )
        return run_sweep(cfg, workers=1).to_csv()

    _forbid(
        monkeypatch,
        (bstoa.channel.true_delays,),
        "a sweep computed true delays",
    )
    for kind, m in ((Kind.BISTATIC, 4), (Kind.MONOSTATIC, 6)):
        loc = ExperimentKind.LOCALIZATION
        assert csv(loc, kind, m, 1.0) != csv(loc, kind, m, 10.0), kind
        for experiment in (ExperimentKind.MSE, ExperimentKind.CRLB):
            assert csv(experiment, kind, m, 1.0) == csv(experiment, kind, m, 10.0), kind


def test_mse_sweep_ls_row_matches_real_pilots():
    """A sweep's ls row, which draws each LS estimate as one Gaussian,
    agrees with the same statistic over LS estimates of drawn pilot rows
    (``ls_estimate`` of ``synth_observations``) within 5 sqrt(2 / N) for
    N error values each."""
    lengths, sigma, trials = (1, 2, 8), 1e-9, 10_000
    cfg = _cfg(m=4, n=3, pilot_lengths=lengths, sigma_grid=(sigma,), trials=trials)
    topo = cfg.topology
    values = trials * topo.mn
    swept = {row.pilot_len: row.value for row in run_sweep(cfg, workers=1).rows if row.method == "ls"}
    scene = random_scene(topo, cfg.cube_side, noise_rng(808, 0))
    truth = true_delays(scene.tx, scene.rx, scene.tag)
    for index, length in enumerate(lengths):
        rng = noise_rng(808, 1 + index)
        sq = 0.0
        for _ in range(trials):
            err = ls_estimate(synth_observations(truth, length, sigma, rng), topo) - truth
            sq += float((err * err).sum())
        scale = sigma**2 / length
        piloted = sq / values / scale
        assert abs(swept[length] / scale - piloted) <= 5.0 * math.sqrt(2.0 / values), length


def _dense_cov_frob_rel_err(cfg):
    """Per grid point, ||flat.T @ flat / N - s B||_F / ||s B||_F over the
    sweep's refined errors: each chunk's LS errors, drawn by the stream
    contract, through the dense projector B."""
    topo = cfg.topology
    b = weighting_matrix(topo)
    cov = {}
    for point, _, c in _point_chunks(cfg):
        flat = np.stack([b @ np.ravel(err, order="F") for err in contract.ls_errors(cfg, c)])
        cov[point] = cov.get(point, 0.0) + flat.T @ flat
    out = {}
    for index, (sigma, pilot_len) in enumerate(cfg.grid_points):
        bound = (sigma**2 / pilot_len) * b
        out[sigma, pilot_len] = np.linalg.norm(cov[index] / cfg.trials - bound) / np.linalg.norm(bound)
    return out


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("m, n", [(1, 1), (1, 5), (5, 1), (4, 3), (9, 7)])
def test_crlb_sweep_matches_dense_formula(m, n, workers):
    """The row/column statistic equals the dense (mn)^2 covariance formula."""
    cfg = _cfg(
        experiment=ExperimentKind.CRLB, m=m, n=n, pilot_lengths=(8, 2),
        sigma_grid=(1e-10, 3e-9), trials=600, master_seed=17,
    )
    dense = _dense_cov_frob_rel_err(cfg)
    rows = run_sweep(cfg, workers=workers).rows
    assert len(rows) == len(dense)
    for row in rows:
        want = dense[row.sigma, row.pilot_len]
        assert abs(row.value - want) <= 1e-10 * want


def test_crlb_bistatic_theory_is_the_finite_n_floor():
    """Under the bound an N-trial ``cov_frob_rel_err`` has mean square
    (m + n) / N, and the row's theory is its root.  At 10^4 trials on the
    default 20-point grid every 24x24 value lies within 10% of it, and the
    mean square over 4x3, whose values spread wider, within 25%."""
    trials = 10_000
    for (m, n), check in (((24, 24), "each"), ((4, 3), "mean")):
        cfg = SweepConfig(
            experiment=ExperimentKind.CRLB, kind=Kind.BISTATIC, m=m, n=n,
            trials=trials, master_seed=1601,
        )
        rows = run_sweep(cfg, workers=1).rows
        floor = math.sqrt((m + n) / trials)
        assert len(rows) == 20
        assert all(row.theory == floor for row in rows)
        if check == "each":
            assert all(abs(row.value / floor - 1.0) <= 0.10 for row in rows)
        else:
            mean_sq = sum(row.value**2 for row in rows) / len(rows)
            assert abs(mean_sq / floor**2 - 1.0) <= 0.25


def test_sweeps_never_build_dense_matrices(monkeypatch):
    """No sweep path builds the constraint matrix A or the projector B."""
    import bstoa.analysis
    import bstoa.topology

    _forbid(
        monkeypatch,
        (
            bstoa.topology.correlation_matrix,
            bstoa.topology.weighting_matrix,
            bstoa.analysis.crlb,
        ),
        "a sweep built a dense (mn)^2 matrix",
    )
    with pytest.raises(AssertionError):
        bstoa.topology.weighting_matrix(None)
    for experiment in ExperimentKind:
        for kind, m, n in ((Kind.BISTATIC, 3, 2), (Kind.MONOSTATIC, 4, 4)):
            cfg = _cfg(experiment=experiment, kind=kind, m=m, n=n, trials=64)
            assert run_sweep(cfg, workers=1).rows


@pytest.mark.parametrize(
    "kind, m, n, pilot_len",
    [
        (kind, m, n, pilot_len)
        for kind, m, n in [
            (Kind.BISTATIC, 4, 3), (Kind.BISTATIC, 1, 5),
            (Kind.MONOSTATIC, 4, 4), (Kind.MONOSTATIC, 6, 6),
        ]
        for pilot_len in (1, 2, 8)
    ]
    + [(Kind.BISTATIC, 24, 24, 8)],
)
def test_chunk_is_bitwise_the_per_trial_loop(kind, m, n, pilot_len):
    """A localization chunk draws exactly what a per-trial loop over the
    chunk's draws does with the public functions
    (``contract.localization_chunk``): the same anchors and tags, bit for
    bit, once its scene unit multiplies them, and solver terms, times the
    unit and in one gauge (``contract.public_gauge``), within 16 eps
    max|truth| of those the public localizers take from the loop's LS and
    refined delays (the chunk forms them from per-anchor ranges, the loop
    from delay matrices), on the second point's full chunk and on a
    partial last chunk.  Monostatic 4 is the smallest array a localization
    sweep accepts."""
    cfg = _cfg(
        experiment=ExperimentKind.LOCALIZATION, kind=kind, m=m, n=n,
        pilot_lengths=(pilot_len,), trials=700, master_seed=5,
    )
    sizes = [_open_chunk(cfg, c)[1:] for c in range(4)]
    assert sizes == [
        (sigma, pilot_len, count) for sigma in (1e-9, 2e-9) for count in (512, 188)
    ]
    bistatic = kind is Kind.BISTATIC
    for _, _, c in _point_chunks(cfg)[1:3]:
        anchors, tags, terms, unit = _loc_terms(cfg, c)
        ref = contract.localization_chunk(cfg, c)
        want_anchors = np.concatenate([ref.tx, ref.rx], axis=1) if bistatic else ref.tx
        assert np.array_equal(anchors * unit, want_anchors.transpose(2, 1, 0))
        assert np.array_equal(tags * unit, ref.tag.T)
        gap = np.abs(contract.public_gauge(cfg, terms * unit) - ref.terms).max()
        assert gap <= 16 * np.finfo(float).eps * SPEED_OF_LIGHT * np.abs(ref.truth).max()


@pytest.mark.parametrize("cube_side", [3.7, 10.0])
@pytest.mark.parametrize(
    "kind, m, n", [(Kind.BISTATIC, 4, 3), (Kind.MONOSTATIC, 6, 6)], ids=["bi4x3", "mono6"]
)
def test_random_scene_replays_a_localization_chunk(kind, m, n, cube_side):
    """Successive ``random_scene`` calls on ``noise_rng(master_seed, c)``
    draw the scenes of localization chunk c bit for bit: its anchors and
    tags times its scene unit, on full chunks and on the 76-trial last
    chunk of 1100 trials, at cube sides that are not powers of two.  So the
    public scene draw and the sweep share one stream contract."""
    cfg = _cfg(
        experiment=ExperimentKind.LOCALIZATION, kind=kind, m=m, n=n, trials=1100,
        cube_side=cube_side,
    )
    for c, count in enumerate((CHUNK_TRIALS, CHUNK_TRIALS, 76)):
        anchors, tags, _, unit = _loc_terms(cfg, c)
        rng = noise_rng(cfg.master_seed, c)
        scenes = [random_scene(cfg.topology, cube_side, rng) for _ in range(count)]
        points = [
            np.concatenate([s.tx, s.rx]) if kind is Kind.BISTATIC else s.tx for s in scenes
        ]
        assert np.array_equal(anchors * unit, np.stack(points).transpose(2, 1, 0))
        assert np.array_equal(tags * unit, np.stack([s.tag for s in scenes]).T)


@pytest.mark.parametrize("k", [-10, -3, 0, 3, 4, 10, 60])
def test_the_scene_unit_covers_the_cube_side(k):
    """A localization chunk's scene unit lies in [cube_side, 2 cube_side)
    for a cube side of 2^k and both its float neighbours.  It used to be
    ``2 ** ceil(log2(cube_side))``, and ``log2`` of the side one ulp
    above 2^k rounds to k for |k| >= 4, so the unit fell below the side."""
    side = math.ldexp(1.0, k)
    for cube_side in (math.nextafter(side, 0.0), side, math.nextafter(side, math.inf)):
        cfg = _cfg(
            experiment=ExperimentKind.LOCALIZATION, kind=Kind.BISTATIC, m=4, n=3, trials=8,
            cube_side=cube_side,
        )
        unit = _loc_terms(cfg, 0)[3]
        assert cube_side <= unit < 2.0 * cube_side, cube_side


@pytest.mark.parametrize(
    "kind, m, n", [(Kind.BISTATIC, 4, 3), (Kind.MONOSTATIC, 6, 6)], ids=["bi4x3", "mono6"]
)
def test_chunk_fixes_are_the_public_fixes(kind, m, n):
    """The fixes a localization chunk makes from its terms agree within the
    1e-6 m tie margin of acceptance criterion 10 with the public
    ``localize`` on the per-trial loop's LS and refined delay matrices."""
    cfg = _cfg(experiment=ExperimentKind.LOCALIZATION, kind=kind, m=m, n=n, trials=CHUNK_TRIALS)
    for _, _, c in _point_chunks(cfg):
        anchors, tags, terms, unit = _loc_terms(cfg, c)
        ref = contract.localization_chunk(cfg, c)
        if kind is Kind.BISTATIC:
            got = [_fix_bistatic(anchors, terms, m)[0] * unit] * 2
            want = [localize(t, ref.tx, ref.rx)[0] for t in (ref.t_hat, ref.t_ref)]
        else:
            both = _fix_monostatic(np.concatenate((anchors, anchors), axis=2), terms)[0]
            got = np.split(both * unit, 2, axis=1)
            want = [localize(t, ref.tx)[0] for t in (ref.t_hat, ref.t_ref)]
        for p, q in zip(got, want):
            assert np.linalg.norm(p.T - q, axis=1).max() < 1e-6


def _no_fix_rows(cfg):
    """{(sigma, L, method): count} of a sweep's no_fix rows."""
    rows = run_sweep(cfg, workers=1).rows
    return {(r.sigma, r.pilot_len, r.method): r.value for r in rows if r.metric == "no_fix"}


def test_a_scene_with_no_fix_is_counted_not_fatal():
    """ROADMAP items 4 and 16: sweeps that used to abort on one scene with
    no fix complete, leave it out of the RMSE and count it in a no_fix row
    per method.  The default monostatic 4 sweep (10^4 trials, default grid)
    completes at master seeds 0-4; at seed 0 chunks 111, 183, 358 and 373
    each hold one coplanar scene, and seed 2 none.  Bistatic 4x3 at sigma =
    1e-5, L = 2 and 512 trials: at seeds 1-11 the counts are those of the
    aborts' messages, and the rmse rows divide by the scenes with a fix."""
    grid = DEFAULT_SIGMA_GRID
    for seed in range(5):
        cfg = SweepConfig(ExperimentKind.LOCALIZATION, Kind.MONOSTATIC, 4, 4, master_seed=seed)
        got = _no_fix_rows(cfg)
        if seed == 0:
            points = ((grid[2], 8), (grid[4], 8), (grid[8], 8), (grid[9], 2))
            assert got == {(s, length, m): 1.0 for s, length in points for m in ("ls", "proposed")}
        elif seed == 2:
            assert got == {}
    counts = (2, 4, 3, 2, 1, 2, 0, 2, 3, 3, 0)
    for seed, count in enumerate(counts, start=1):
        cfg = _cfg(
            experiment=ExperimentKind.LOCALIZATION, m=4, n=3, sigma_grid=(1e-5,),
            trials=CHUNK_TRIALS, master_seed=seed,
        )
        want = {(1e-5, 2, method): float(count) for method in ("ls", "proposed")} if count else {}
        assert _no_fix_rows(cfg) == want
    cfg = replace(cfg, master_seed=2)
    anchors, tags, terms, unit = _loc_terms(cfg, 0)
    p, _, _, singular = _fix_bistatic(anchors, terms, cfg.m)
    fixed = ~singular
    rmse = np.linalg.norm(p[:, fixed] - tags[:, fixed]) * unit / math.sqrt(fixed.sum())
    for row in run_sweep(cfg, workers=1).rows:
        if row.metric == "rmse":
            assert row.value == pytest.approx(rmse, rel=1e-12)


@pytest.mark.parametrize("sigma", [3e-9, 1e-8])
@pytest.mark.parametrize("kind, m, n", [(Kind.BISTATIC, 4, 3), (Kind.MONOSTATIC, 6, 6)])
def test_one_solve_of_sixteen_chunks_is_their_sixteen_solves(kind, m, n, sigma):
    """No scene's arithmetic depends on its batch, at a run's scale: one
    solver call on the terms of chunks 0-15 (512 trials each, L = 2, seed
    11) concatenated in chunk order returns the positions, |R|^2 or range
    residual norms, iteration counts or polish flags, and no-fix flags of
    the 16 per-chunk calls, bit for bit.  A monostatic chunk's anchors are
    doubled for its LS and refined ranges, as ``_run_loc_chunk`` does."""
    cfg = _cfg(
        experiment=ExperimentKind.LOCALIZATION, kind=kind, m=m, n=n, sigma_grid=(sigma,),
        trials=16 * CHUNK_TRIALS, master_seed=11,
    )
    runs = []
    for c in range(16):
        anchors, _, terms, _ = _loc_terms(cfg, c)
        if kind is Kind.MONOSTATIC:
            anchors = np.concatenate((anchors, anchors), axis=2)
        runs.append((anchors, terms))

    def solve(anchors, terms):
        if kind is Kind.BISTATIC:
            return _fix_bistatic(anchors, terms, m)
        return _fix_monostatic(anchors, terms)

    per_chunk = [solve(anchors, terms) for anchors, terms in runs]
    whole = solve(*(np.concatenate(x, axis=-1) for x in zip(*runs)))
    assert len(whole) == 4
    for got, want in zip(whole, zip(*per_chunk)):
        assert np.array_equal(got, np.concatenate(want, axis=-1))


@pytest.mark.parametrize("trials", [700, 1025, 1100])
def test_chunks_cover_each_points_trials_once(trials):
    """The chunks a sweep runs, counted point-major, cover each of its four
    grid points' trials exactly once, when the trials do not fill the last
    chunk (1025 leaves it one trial): through ``_execute`` at workers 1
    and 2, each point's chunks come in order, one after the other, all but
    the last are full, and their counts add up to ``trials``."""
    cfg = _cfg(sigma_grid=(1e-9, 2e-9), pilot_lengths=(2, 8), trials=trials)
    chunks = math.ceil(trials / CHUNK_TRIALS)
    for workers in (1, 2):
        opened = _execute(cfg, _open_chunk, workers)
        assert len(opened) == len(cfg.grid_points) * chunks
        for point, (sigma, pilot_len) in enumerate(cfg.grid_points):
            run = opened[point * chunks : (point + 1) * chunks]
            assert all(got[1:3] == (sigma, pilot_len) for got in run)
            counts = [count for _, _, _, count in run]
            assert counts[:-1] == [CHUNK_TRIALS] * (chunks - 1)
            assert 0 < counts[-1] <= CHUNK_TRIALS
            assert sum(counts) == trials


@pytest.mark.parametrize(
    "kind, m, n", [(Kind.BISTATIC, 4, 3), (Kind.MONOSTATIC, 6, 6)], ids=["bi4x3", "mono6"]
)
def test_chunks_draw_distinct_coordinates(kind, m, n):
    """The two chunks of a point and the first chunk of the next point draw
    pairwise different coordinates."""
    cfg = _cfg(
        experiment=ExperimentKind.LOCALIZATION, kind=kind, m=m, n=n, pilot_lengths=(8,),
        trials=700,
    )
    anchors = [_loc_terms(cfg, c)[0] for c in range(3)]
    for i, j in ((0, 1), (0, 2), (1, 2)):
        assert np.intersect1d(anchors[i], anchors[j]).size == 0, (i, j)


@pytest.mark.parametrize(
    "kind, m, n", [(Kind.BISTATIC, 4, 3), (Kind.BISTATIC, 1, 5), (Kind.MONOSTATIC, 6, 6)]
)
def test_chunk_keeps_the_trials_on_the_contiguous_axis(kind, m, n):
    """Every array a localization chunk draws steps one value from trial to
    trial, so its sums and its solvers' run along memory, on full and
    partial chunks."""
    cfg = _cfg(experiment=ExperimentKind.LOCALIZATION, kind=kind, m=m, n=n, trials=700)
    k = m + n if kind is Kind.BISTATIC else m
    for c, count in enumerate((CHUNK_TRIALS, 700 - CHUNK_TRIALS)):
        out = _loc_terms(cfg, c)[:3]
        width = count if kind is Kind.BISTATIC else 2 * count
        assert [a.shape for a in out] == [(3, k, count), (3, count), (k, width)]
        for name, array in zip(("anchors", "tags", "terms"), out):
            assert array.strides[-1] == array.itemsize == 8, name


def test_chunk_memory_stays_near_its_output():
    """A 512-trial 24x24 L=8 localization chunk peaks within 1 MB of the
    arrays it returns while it draws its scenes and its noise, and
    returns less than one (m, n, trials) plane: one plane would add 2.4
    MB, and the chunk's L pilot planes 18.9 MB."""
    cfg = _cfg(
        experiment=ExperimentKind.LOCALIZATION, m=24, n=24, pilot_lengths=(8,),
        sigma_grid=(1e-9,), trials=CHUNK_TRIALS,
    )
    _loc_terms(cfg, 0)
    tracemalloc.start()
    try:
        out = _loc_terms(cfg, 0)[:3]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    owners = {id(b): b for b in (a if a.base is None else a.base for a in out)}
    retained = sum(b.nbytes for b in owners.values())
    assert retained < 24 * 24 * CHUNK_TRIALS * 8
    assert peak - retained <= 2**20


def _noise_chunk_peak(kind, m):
    """tracemalloc peak of one 512-trial m x m mse chunk, after a warm-up
    run."""
    cfg = _cfg(kind=kind, m=m, n=m, pilot_lengths=(8,), sigma_grid=(1e-9,), trials=CHUNK_TRIALS)
    _run_noise_chunk(cfg, 0)
    tracemalloc.start()
    try:
        _run_noise_chunk(cfg, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


@pytest.mark.parametrize("m, bound", [(24, 2**20), (96, 4 * 2**20)])
def test_noise_chunk_memory_does_not_hold_the_plane(m, bound):
    """A 512-trial m x m mse chunk never holds its (m, m, trials) plane,
    2.3 MiB at 24x24 and 36 MiB at 96x96: bistatic and monostatic chunks
    both peak below 1 MiB at 24x24 and 4 MiB at 96x96 (0.04 and 0.04 MiB
    at 24x24, 0.6 and 0.6 MiB at 96x96 measured)."""
    for kind in Kind:
        assert _noise_chunk_peak(kind, m) < bound, kind


def test_bistatic_noise_chunk_memory_is_its_statistics():
    """A bistatic chunk holds only its (2 m, 2 m) Bartlett factor and its
    (2 m, 2 m) products: a 512-trial 96x96 chunk peaks below 1.5 MiB (0.6
    MiB measured; one block of the plane would add 2.3 MiB)."""
    assert _noise_chunk_peak(Kind.BISTATIC, 96) < 1.5 * 2**20


def test_monostatic_noise_chunk_memory_is_its_statistics():
    """A monostatic chunk holds only its (2 m, 2 m) Bartlett factor and its
    (m, m) products: a 512-trial 96x96 chunk peaks below 1.5 MiB (0.6 MiB
    measured; its plane would be 36 MiB)."""
    assert _noise_chunk_peak(Kind.MONOSTATIC, 96) < 1.5 * 2**20


def test_sweep_determinism_same_config():
    cfg = _cfg(trials=300)
    assert run_sweep(cfg, workers=1).to_csv() == run_sweep(cfg, workers=1).to_csv()


def test_sweep_determinism_across_worker_counts():
    cfg = _cfg(trials=600)  # spans two chunks
    csv_one = run_sweep(cfg, workers=1).to_csv()
    csv_three = run_sweep(cfg, workers=3).to_csv()
    assert csv_one == csv_three


@pytest.mark.parametrize(
    "workers", [0, -4, pytest.param(2.5, id="2.5"), pytest.param("2", id="str-2")]
)
def test_sweep_rejects_workers_below_one(monkeypatch, workers):
    """A workers value below 1 or not an integer fails at the boundary,
    before any chunk runs; with the pool gate open, 2.5 and "2" used to
    raise a bare TypeError from inside the sweep."""
    monkeypatch.setattr(harness, "_POOL_BREAK_EVEN_S", 0.0)
    with pytest.raises(ConfigInvalid, match="workers must be"):
        run_sweep(_cfg(trials=8), workers=workers)


@pytest.fixture
def recording_pool(monkeypatch):
    """Stands in for ``ProcessPoolExecutor``: records each pool opened, its
    size and its runs ``(fn, lo, hi)``, and runs each run in this process,
    so no process starts.  Returns the list of pools."""
    import concurrent.futures

    pools = []

    class RecordingPool:
        def __init__(self, max_workers):
            pools.append({"workers": max_workers, "tasks": []})

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, *iterables):
            runs = list(zip(*iterables))
            pools[-1]["tasks"].extend((fn, *bounds) for bounds in runs)
            return [fn(*bounds) for bounds in runs]

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return pools


def test_pool_is_capped_at_the_task_count(monkeypatch, recording_pool):
    """Past the break-even, the first two chunks run here and the rest go
    to the pool as contiguous runs, about four per worker: six chunks at
    workers=64 make four one-chunk runs and a pool of four workers, twenty
    chunks at workers=2 make eight runs and a pool of two.  Each run is
    ``_run_chunks`` bound to the sweep's config and chunk function, called
    with its chunk bounds, and the pool takes no initializer, so its
    workers hold no sweep."""
    pools = recording_pool
    monkeypatch.setattr(harness, "_POOL_BREAK_EVEN_S", 0.0)
    for sigmas, trials, workers, size, runs in (
        ((1e-9, 2e-9, 3e-9), 600, 64, 4, 4),
        ((1e-9, 2e-9), 5000, 2, 2, 8),
    ):
        cfg = _cfg(sigma_grid=sigmas, trials=trials)
        chunks = len(_point_chunks(cfg))
        pools.clear()
        csv = run_sweep(cfg, workers=workers).to_csv()
        (pool,) = pools
        assert pool["workers"] == size
        runner = harness._EXPERIMENTS[cfg.experiment][0]
        assert all(
            fn.func is harness._run_chunks and fn.args[0] is cfg and fn.args[1] is runner
            for fn, _, _ in pool["tasks"]
        )
        pool_runs = [task[1:] for task in pool["tasks"]]
        assert len(pool_runs) == runs
        bounds = [lo for lo, _ in pool_runs] + [pool_runs[-1][1]]
        assert bounds[0] == 2 and bounds[-1] == chunks
        assert pool_runs == list(zip(bounds, bounds[1:]))
        assert max(hi - lo for lo, hi in pool_runs) <= -(-(chunks - 2) // runs)
        assert csv == run_sweep(cfg, workers=1).to_csv()


@pytest.mark.parametrize(
    "workers, break_even, pooled",
    [(1, 0.0, False), (2, math.inf, False), (2, 0.0, True)],
    ids=["serial", "in-process", "pool"],
)
def test_every_chunk_runs_once_through_run_chunks(
    monkeypatch, recording_pool, workers, break_even, pooled
):
    """_run_chunks is the one place a chunk runs: on the serial path
    (workers=1, where no gate opens), on the gated in-process path (a
    break-even no sweep reaches) and in the pool (break-even 0, the
    recording stub), each of a six-chunk sweep's chunks runs exactly once,
    through it, and the CSV is that of the unwrapped sweep."""
    cfg = _cfg(trials=1100)
    total = len(_point_chunks(cfg))
    assert total == 6
    want = run_sweep(cfg, workers=1).to_csv()
    ran = []
    run_chunks = harness._run_chunks

    def recording(cfg, runner, lo, hi):
        def counted(cfg, c):
            ran.append(c)
            return runner(cfg, c)

        return run_chunks(cfg, counted, lo, hi)

    monkeypatch.setattr(harness, "_run_chunks", recording)
    monkeypatch.setattr(harness, "_POOL_BREAK_EVEN_S", break_even)
    csv = run_sweep(cfg, workers=workers).to_csv()
    assert sorted(ran) == list(range(total))
    assert len(recording_pool) == pooled
    assert csv == want


@pytest.mark.parametrize(
    "workers, break_even", [(1, 0.0), (2, math.inf)], ids=["serial", "in-process"]
)
def test_a_sweep_opens_one_stream_per_chunk(monkeypatch, workers, break_even):
    """A whole mse, crlb or localization sweep, bistatic 4x3 and monostatic
    6, opens exactly one stream per chunk, ``noise_rng(master_seed, c)``
    for chunk c, in chunk order, on the serial path and on the gated
    in-process path.  These keys are the stream contract's, so a contract
    that re-keys the streams updates this test."""
    keys = []

    def recording(*key):
        keys.append(key)
        return noise_rng(*key)

    monkeypatch.setattr(harness, "noise_rng", recording)
    monkeypatch.setattr(harness, "_POOL_BREAK_EVEN_S", break_even)
    for experiment in ExperimentKind:
        for kind, m, n in ((Kind.BISTATIC, 4, 3), (Kind.MONOSTATIC, 6, 6)):
            cfg = _cfg(experiment=experiment, kind=kind, m=m, n=n, trials=1100)
            keys.clear()
            run_sweep(cfg, workers=workers)
            want = [(cfg.master_seed, c) for _, _, c in _point_chunks(cfg)]
            assert keys == want, (experiment, kind)
            assert len(want) == 6


@pytest.mark.parametrize("break_even", [0.0, math.inf], ids=["pool", "in-process"])
def test_csv_does_not_depend_on_the_pool_gate(monkeypatch, break_even):
    """mse, crlb and localization sweeps of six chunks, bistatic 4x3 and
    monostatic 6, give the same CSV at workers 2 and None as at workers=1,
    whether the gate opens a pool for every one of them (break-even 0) or
    for none (break-even inf).  No pool starts more processes than the
    host has CPUs."""
    import concurrent.futures

    cpus = os.cpu_count() or 1
    opened = []
    real_pool = concurrent.futures.ProcessPoolExecutor

    class CountingPool(real_pool):
        def __init__(self, max_workers, **kwargs):
            assert max_workers <= cpus
            opened.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    monkeypatch.setattr(harness, "_POOL_BREAK_EVEN_S", break_even)
    worker_counts = (min(2, cpus), None)
    shapes = ((Kind.BISTATIC, 4, 3), (Kind.MONOSTATIC, 6, 6))
    for experiment in ExperimentKind:
        for kind, m, n in shapes:
            cfg = _cfg(experiment=experiment, kind=kind, m=m, n=n, trials=1100)
            assert len(_point_chunks(cfg)) == 6
            want = run_sweep(cfg, workers=1).to_csv()
            for workers in worker_counts:
                csv = run_sweep(cfg, workers=workers).to_csv()
                assert csv == want, (experiment, kind, workers)
    pooled = 2 * len(shapes) * len(ExperimentKind) if break_even == 0.0 and cpus > 1 else 0
    assert len(opened) == pooled


def test_bistatic_24x24_csv_does_not_depend_on_the_pool(monkeypatch):
    """Bistatic 24x24 mse and crlb CSVs are byte-equal at workers=1 and at
    workers=2 with the pool forced open (break-even 0)."""
    import concurrent.futures

    opened = []
    real_pool = concurrent.futures.ProcessPoolExecutor

    class CountingPool(real_pool):
        def __init__(self, max_workers, **kwargs):
            opened.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    monkeypatch.setattr(harness, "_POOL_BREAK_EVEN_S", 0.0)
    for experiment in (ExperimentKind.MSE, ExperimentKind.CRLB):
        cfg = _cfg(experiment=experiment, m=24, n=24, trials=1100)
        pooled = run_sweep(cfg, workers=2).to_csv()
        assert pooled == run_sweep(cfg, workers=1).to_csv(), experiment
    assert opened == [2, 2]


def test_a_spawned_pool_gives_the_in_process_csv(monkeypatch):
    """Spawned workers, the default on macOS and Windows, import bstoa
    afresh and share nothing with this process but their task's
    arguments: mse bistatic 4x3 and localization monostatic 6 sweeps of
    six chunks give the workers=1 CSV from a spawned two-worker pool."""
    import concurrent.futures
    import multiprocessing

    opened = []
    real_pool = concurrent.futures.ProcessPoolExecutor

    class SpawnPool(real_pool):
        def __init__(self, max_workers, **kwargs):
            opened.append(max_workers)
            super().__init__(max_workers, mp_context=multiprocessing.get_context("spawn"), **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SpawnPool)
    monkeypatch.setattr(harness, "_POOL_BREAK_EVEN_S", 0.0)
    for experiment, kind, m, n in (
        (ExperimentKind.MSE, Kind.BISTATIC, 4, 3),
        (ExperimentKind.LOCALIZATION, Kind.MONOSTATIC, 6, 6),
    ):
        cfg = _cfg(experiment=experiment, kind=kind, m=m, n=n, trials=1100)
        assert len(_point_chunks(cfg)) == 6
        pooled = run_sweep(cfg, workers=2).to_csv()
        assert pooled == run_sweep(cfg, workers=1).to_csv(), experiment
    assert opened == [2, 2]


def test_sweeps_below_the_break_even_import_no_pool():
    """In a fresh interpreter, importing bstoa and running sweeps at
    workers=1 and, below the break-even, at workers=2 leaves the pool
    machinery unimported."""
    code = (
        "import sys, bstoa\n"
        "cfg = bstoa.SweepConfig(bstoa.ExperimentKind.MSE, bstoa.Kind.BISTATIC, 4, 3,"
        " sigma_grid=(1e-9, 2e-9), pilot_lengths=(2,), trials=1100)\n"
        "for workers in (1, 2):\n"
        "    bstoa.run_sweep(cfg, workers=workers)\n"
        "print(sorted(m for m in sys.modules"
        " if m.partition('.')[0] in ('concurrent', 'multiprocessing')))\n"
    )
    paths = (str(Path(bstoa.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert out.stdout.strip() == "[]"


def test_seed_changes_output():
    one = run_sweep(_cfg(master_seed=1), workers=1).to_csv()
    two = run_sweep(_cfg(master_seed=2), workers=1).to_csv()
    assert one != two


def test_csv_format_and_sorting(tmp_path):
    cfg = _cfg(trials=16, pilot_lengths=(4, 2))
    result = run_sweep(cfg, workers=1)
    csv_text = result.to_csv()
    lines = csv_text.strip().split("\n")
    assert lines[0] == "sigma,pilot_len,method,metric,value,theory,low_confidence"
    keys = []
    for line in lines[1:]:
        parts = line.split(",")
        assert len(parts) == 7
        keys.append((float(parts[0]), int(parts[1]), parts[2], parts[3]))
    assert keys == sorted(keys)
    out = tmp_path / "out.csv"
    result.write_csv(str(out))
    assert out.read_bytes().decode() == csv_text


def test_public_functions_stay_reachable_by_module_rebinding():
    """The sweep benchmark traces the package by rebinding the module
    attributes of its public functions; one held in a module-level
    container (a dispatch table, say) would escape the tracer."""
    from bstoa import SweepRow, run_sweep  # noqa: F401  (names the benchmark imports)
    from bstoa.localization import MAX_ITERATIONS  # noqa: F401

    modules = [bstoa] + [mod for key, mod in sys.modules.items() if key.startswith("bstoa.")]
    public = {
        id(obj) for mod in modules for name, obj in vars(mod).items()
        if inspect.isfunction(obj) and not name.startswith("_")
    }
    for mod in modules:
        for name, obj in vars(mod).items():
            if isinstance(obj, dict):
                obj = list(obj.values())
            if isinstance(obj, (list, tuple, set, frozenset)):
                assert not any(id(item) in public for item in obj), f"{mod.__name__}.{name}"
