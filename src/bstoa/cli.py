"""Command line interface.

Subcommands:
    gen-matrix   print the correlation or weighting matrix as CSV
    estimate     estimate a delay matrix from an observations CSV
    crlb         print the error covariance bound as CSV
    localize     fix a tag position from a scene file and a TOA CSV
    sweep        run a Monte-Carlo sweep from a config file

``localize`` prints one row, the position and the residual norm, from
``localization.localize``, given no receivers for a monostatic scene.

Exit codes: 0 success, 2 bad configuration or input, 3 numerical failure:
a degenerate anchor geometry in ``localize``.  A localization sweep leaves
the scenes with no fix out of its RMSE and writes a ``no_fix`` row with
their count; it exits 3 only at a grid point where no scene has a fix.
A sweep whose ``--out`` is a directory, or lies in one that does not
exist, exits 2 before any chunk runs.  A reader that closes the output
pipe early (``| head``) ends the command quietly with exit code 0.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import warnings

import numpy as np

from .analysis import check_sigma, crlb
from .channel import Scene
from .errors import BstoaError, ConfigInvalid, DimensionMismatch, NonFiniteInput, SingularGeometry
from .estimator import ls_estimate, refine_estimate
from .harness import load_config, run_sweep
from .localization import localize
from .topology import Kind, Topology, correlation_matrix, weighting_matrix

# A dense matrix too large for memory is bad input, not a numerical failure.
_CONFIG_ERRORS = (BstoaError, OSError, ValueError, MemoryError)
_NUMERICAL_ERRORS = (SingularGeometry,)


def _topology_from_args(args: argparse.Namespace) -> Topology:
    kind = Kind.MONOSTATIC if args.topology == "mono" else Kind.BISTATIC
    return Topology(kind, args.m, args.m if args.n is None else args.n)


def _print_matrix(matrix: np.ndarray) -> None:
    """Print each row of ``matrix`` as one CSV line, the only output rows
    the commands write: integers as integers, any other number in ``.17e``
    form.  A matrix with no rows prints nothing."""
    form = "d" if np.issubdtype(matrix.dtype, np.integer) else ".17e"
    for row in np.atleast_2d(matrix).tolist():
        print(",".join(format(x, form) for x in row))


def _add_topology_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--topology", choices=("bi", "mono"), required=True)
    parser.add_argument("--m", type=int, required=True)
    parser.add_argument("--n", type=int, default=None)


def _cmd_gen_matrix(args: argparse.Namespace) -> None:
    topo = _topology_from_args(args)
    _print_matrix(correlation_matrix(topo) if args.which == "a" else weighting_matrix(topo))


def _read_csv(path: str, what: str) -> np.ndarray:
    """The finite 2D array of numbers in the CSV file at ``path``.

    Raises:
        DimensionMismatch: if the file holds no data.
        NonFiniteInput: if a value is NaN or infinite.
    """
    with warnings.catch_warnings():
        # numpy warns on input with no data; the check below says so instead.
        warnings.simplefilter("ignore", UserWarning)
        values = np.loadtxt(path, delimiter=",", ndmin=2)
    if values.size == 0:
        raise DimensionMismatch(f"{what} in {path}: the file holds no data")
    if not np.isfinite(values).all():
        raise NonFiniteInput(f"{what} in {path} must be finite")
    return values


def _cmd_estimate(args: argparse.Namespace) -> None:
    topo = _topology_from_args(args)
    y = _read_csv(args.input, "observations")
    t_hat = ls_estimate(y, topo)
    if args.method == "proposed":
        t_hat = refine_estimate(t_hat, topo)
    _print_matrix(t_hat)


def _cmd_crlb(args: argparse.Namespace) -> None:
    topo = _topology_from_args(args)
    check_sigma(args.sigma, (args.pilot_len,))
    _print_matrix(crlb(topo, args.sigma * args.sigma / args.pilot_len))


def _cmd_localize(args: argparse.Namespace) -> None:
    with open(args.scene, "r", encoding="utf-8") as handle:
        scene = Scene.from_text(handle.read())
    t = _read_csv(args.toa, "delays")
    if args.method == "proposed":
        t = refine_estimate(t, scene.topo)
    rx = None if scene.topo.kind is Kind.MONOSTATIC else scene.rx
    p, rnorm, _ = localize(t, scene.tx, rx, delta=scene.delta)
    _print_matrix(np.append(p, rnorm))


def _cmd_sweep(args: argparse.Namespace) -> None:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, master_seed=args.seed)
    # The path is checked before the sweep, so that a bad one wastes no work.
    folder = os.path.dirname(args.out) or os.curdir
    if os.path.isdir(args.out):
        raise ConfigInvalid(f"--out {args.out} is a directory")
    if not os.path.isdir(folder):
        raise ConfigInvalid(f"--out {args.out}: directory {folder} does not exist")
    result = run_sweep(cfg, workers=args.workers)
    result.write_csv(args.out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bstoa",
        description="TOA estimation and localization for MIMO backscatter channels",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-matrix", help="print the correlation or weighting matrix")
    _add_topology_args(gen)
    gen.add_argument("--which", choices=("a", "b"), required=True)
    gen.set_defaults(func=_cmd_gen_matrix)

    est = sub.add_parser("estimate", help="estimate a delay matrix from observations")
    _add_topology_args(est)
    est.add_argument("--input", required=True, help="observations CSV, L*m rows, n columns")
    est.add_argument("--method", choices=("ls", "proposed"), default="proposed")
    est.set_defaults(func=_cmd_estimate)

    crlb = sub.add_parser("crlb", help="print the error covariance bound")
    _add_topology_args(crlb)
    crlb.add_argument("--sigma", type=float, required=True, help="noise std-dev, seconds")
    crlb.add_argument("--pilot-len", type=int, default=1, dest="pilot_len")
    crlb.set_defaults(func=_cmd_crlb)

    loc = sub.add_parser("localize", help="fix a tag position from a TOA matrix")
    loc.add_argument("--scene", required=True, help="scene file (key=value record)")
    loc.add_argument("--toa", required=True, help="delay matrix CSV, m rows, n columns")
    loc.add_argument(
        "--method", choices=("ls", "proposed"), default="ls",
        help="fix from the delays as read (ls) or from their projection (proposed); "
        "a bistatic scene gets one fix from both, since a delay matrix and its "
        "projection share their fitted terms",
    )
    loc.set_defaults(func=_cmd_localize)

    sweep = sub.add_parser("sweep", help="run a Monte-Carlo sweep")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--out", required=True)
    sweep.add_argument("--workers", type=int, default=None)
    sweep.add_argument("--seed", type=int, default=None, help="master seed override")
    sweep.set_defaults(func=_cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run the command that ``argv`` names and return its exit code.  The
    commands return nothing and raise on failure, so this is the one place
    an exit code is decided, but for argparse's exit 2 on a command line it
    cannot parse."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except BrokenPipeError:
        # The reader has all it wanted.  Point stdout at devnull so the
        # interpreter's last flush of the unsent output finds no pipe.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except _NUMERICAL_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except _CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
