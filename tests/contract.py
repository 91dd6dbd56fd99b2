"""Stream contract v11, replayed from the ``bstoa.harness`` module docstring.

The one test-side statement of what a sweep chunk draws, in public bstoa
names and per-trial numpy, so every bit-replay test checks the sweep
against an independent reading of the contract; a contract bump edits
this module and that docstring.  Chunk c, counted point-major, holds the
trials ``(c % chunks) * CHUNK_TRIALS`` onwards of grid point ``c //
chunks``, ``chunks = ceil(trials / CHUNK_TRIALS)``, and draws from
``noise_rng(master_seed, c)``.
"""

import math
from types import SimpleNamespace

import numpy as np

from bstoa.channel import SPEED_OF_LIGHT, Scene, noise_rng, true_delays
from bstoa.estimator import refine_estimate
from bstoa.harness import CHUNK_TRIALS
from bstoa.topology import Kind


def chunk(cfg, c):
    """Grid point ``(sigma, L)``, trial count and stream of sweep chunk c."""
    point, index = divmod(c, math.ceil(cfg.trials / CHUNK_TRIALS))
    count = min(CHUNK_TRIALS, cfg.trials - index * CHUNK_TRIALS)
    return cfg.grid_points[point], count, noise_rng(cfg.master_seed, c)


def statistics(cfg, u):
    """What a trial's rows read of its ``(m, n)`` plane z of standard
    normals, from the standard normals u, in columns.  Bistatic, u is (m +
    n, cols): its first m rows over sqrt(n) are z's row means r, and its
    last n rows over sqrt(m), less their per-column mean, z's column means
    less its grand mean, beta; returns r and beta.  Monostatic, u is (2 m,
    cols) (at m = 1 only its first row is read): its first m rows are z's
    diagonal d, and its last m rows x give ``B s = sqrt((m - 2) / 2) (x -
    mean(x)) + sqrt(m - 1) mean(x)``, B the vertex-edge incidence matrix of
    the complete graph on m vertices and s the upper entries of ``(z +
    z^T) / 2`` (0 at m = 1); returns d, B s and x."""
    m = cfg.m
    if cfg.kind is Kind.BISTATIC:
        beta = u[m:] / math.sqrt(m)
        beta -= np.add.reduce(beta, axis=0) / cfg.n
        return u[:m] / math.sqrt(cfg.n), beta
    d, x = u[:m], u[m:]
    if m == 1:
        return d, np.zeros_like(d), x
    mean = x.mean(axis=0)
    return d, math.sqrt((m - 2) / 2) * (x - mean) + math.sqrt(m - 1) * mean, x


def noise_draws(cfg, c):
    """What mse or crlb chunk c of T trials draws, in order.  First the
    Bartlett factor of its trials' k normals (k = m + n for bistatic, 2 m
    for monostatic, 1 at m = 1): a (k, r) array, r = min(k, T), whose
    strictly lower entries are those of one (k, r) normal draw and whose
    diagonal is the root of one chi-square vector with T, T - 1, ..., T -
    r + 1 degrees of freedom, a gamma draw; its r columns stand for the
    trials.  Then an mse chunk's chi-square energy of the plane beyond
    ``statistics``, summed over its trials, with (m - 1)(n - 1) degrees of
    freedom a trial for bistatic and ``m (m - 1) - r'`` for monostatic, r'
    = m for m >= 3 and m - 1 below.  Returns the factor's ``statistics``,
    then that chi-square (a crlb chunk stops before it)."""
    _, count, rng = chunk(cfg, c)
    m, n, bistatic = cfg.m, cfg.n, cfg.kind is Kind.BISTATIC
    k = m + n if bistatic else (2 * m if m > 1 else 1)
    r = min(k, count)
    normals = rng.standard_normal((k, r))
    chi = np.sqrt(2.0 * rng.standard_gamma((count - np.arange(r)) / 2))
    factor = np.where(np.arange(k)[:, None] > np.arange(r), normals, 0.0)
    factor[np.arange(r), np.arange(r)] = chi
    dof = (m - 1) * (n - 1) if bistatic else m * (m - 1) - (m if m >= 3 else m - 1)
    return *statistics(cfg, factor), 2.0 * rng.standard_gamma(count * dof / 2)


def _plane(cfg, stats, energy=0.0):
    """An (m, n, cols) plane whose ``statistics`` are ``stats``.  Bistatic,
    ``z[i, j] = r_i + beta_j + q_ij``, where q is one doubly centred matrix
    whose squares over all the columns add up to ``energy``.  Monostatic,
    diagonal d, symmetric off-diagonal entries s, the least-norm solution
    of ``B s``, and no antisymmetric part; its row plus column sums are ``2
    (d + B s)``, so its diagonal and its refined errors are the draw's."""
    m, n = cfg.m, cfg.n
    if cfg.kind is Kind.BISTATIC:
        rows, beta = stats
        centred = np.outer(np.arange(m) - (m - 1) / 2, np.arange(n) - (n - 1) / 2)
        norm = np.linalg.norm(centred)
        q = centred * (math.sqrt(energy / rows.shape[1]) / norm) if norm else centred
        return rows[:, None, :] + beta[None, :, :] + q[:, :, None]
    upper, lower = np.triu_indices(m, 1)
    edges = np.arange(len(upper))
    incidence = np.zeros((m, len(upper)))
    incidence[upper, edges] = incidence[lower, edges] = 1.0
    z = np.zeros((m, m, stats[0].shape[1]))
    z[upper, lower] = z[lower, upper] = np.linalg.pinv(incidence) @ stats[1]
    z[np.arange(m), np.arange(m)] = stats[0]
    return z


def ls_errors(cfg, c):
    """The LS errors of mse or crlb chunk c, a (cols, m, n) stack with one
    pseudo-trial per column of its Bartlett factor: ``(sigma / sqrt(L))
    z[..., i]`` for the plane z of its draws (``_plane``), so that sums
    over the pseudo-trials are the chunk's sums over its trials."""
    (sigma, pilot_len), _, _ = chunk(cfg, c)
    *stats, energy = noise_draws(cfg, c)
    return np.moveaxis(_plane(cfg, stats, energy), -1, 0) * (sigma / math.sqrt(pilot_len))


def localization_draws(cfg, c):
    """What localization chunk c of T trials draws, in order: its scenes'
    unit coordinates, a (T, k + 1, 3) array with a row of tx, then rx if
    bistatic, then tag per trial, and one (m + n, T) or (2 m, T) normal
    array.  Returns the grid point, the coordinates and the array's
    ``statistics``."""
    point, count, rng = chunk(cfg, c)
    m, bistatic = cfg.m, cfg.kind is Kind.BISTATIC
    u = rng.random((count, m + cfg.n + 1 if bistatic else m + 1, 3))
    return point, u, statistics(cfg, rng.standard_normal((m + cfg.n if bistatic else 2 * m, count)))


def localization_chunk(cfg, c):
    """Localization chunk c, one trial at a time through the public
    functions: trial i's scene is its unit coordinates times cube_side,
    and its LS estimate truth + (sigma / sqrt(L)) z[..., i], for the plane
    z of the chunk's draws (``_plane``), refined by ``refine_estimate``.
    Returns the (trials, ...) stacks ``tx``, ``rx``, ``tag``, ``truth``,
    ``t_hat`` and ``t_ref``, and the ``terms`` the public localizers take
    from them (``localizer_terms``)."""
    (sigma, pilot_len), u, stats = localization_draws(cfg, c)
    z = _plane(cfg, stats)
    m, bistatic = cfg.m, cfg.kind is Kind.BISTATIC
    stacks = {key: [] for key in ("tx", "rx", "tag", "truth", "t_hat", "t_ref")}
    for i, points in enumerate(u * cfg.cube_side):
        scene = Scene(cfg.topology, tx=points[:m], rx=points[m:-1] if bistatic else None, tag=points[-1])
        truth = true_delays(scene.tx, scene.rx, scene.tag, scene.delta)
        t_hat = truth + (sigma / math.sqrt(pilot_len)) * z[..., i]
        values = (scene.tx, scene.rx, scene.tag, truth, t_hat, refine_estimate(t_hat, cfg.topology))
        for key, value in zip(stacks, values):
            stacks[key].append(value)
    ref = SimpleNamespace(**{key: np.stack(values) for key, values in stacks.items()})
    ref.terms = localizer_terms(cfg, ref.t_hat, ref.t_ref)
    return ref


def localizer_terms(cfg, t_hats, t_refs):
    """The per-anchor terms, in meters, that the public localizers take
    from ``(trials, m, n)`` LS and refined delay stacks: for bistatic the
    refined stack's row means over its column means less its grand mean,
    ``(m + n, trials)``; for monostatic the LS then the refined diagonal
    ranges, ``(m, 2 trials)``."""
    if cfg.kind is Kind.BISTATIC:
        rows = t_refs.mean(axis=2)
        cols = t_refs.mean(axis=1) - rows.mean(axis=1)[:, None]
        return SPEED_OF_LIGHT * np.concatenate([rows.T, cols.T])
    diagonals = [np.diagonal(t, axis1=1, axis2=2).T for t in (t_hats, t_refs)]
    return SPEED_OF_LIGHT * np.concatenate(diagonals, axis=1) / 2.0


def public_gauge(cfg, terms):
    """Bistatic terms [a; b] fix their fit a_i + b_j only up to the gauge a
    + t, b - t; this moves b's mean into a, so that b sums to 0, as in
    ``localizer_terms``.  Monostatic terms pass through."""
    if cfg.kind is Kind.MONOSTATIC:
        return terms
    shift = terms[cfg.m :].mean(axis=0)
    return np.concatenate([terms[: cfg.m] + shift, terms[cfg.m :] - shift])
