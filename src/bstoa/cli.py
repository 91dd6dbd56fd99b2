"""Command line interface.

Subcommands:
    gen-matrix   print the correlation or weighting matrix as CSV
    estimate     estimate a delay matrix from an observations CSV
    crlb         print the error covariance bound as CSV
    localize     fix a tag position from a scene file and a TOA CSV
    sweep        run a Monte-Carlo sweep from a config file

Exit codes: 0 success, 2 bad configuration or input, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from .analysis import crlb_bistatic, crlb_monostatic
from .channel import ObservationBlock, Scene
from .errors import (
    BstoaError,
    ConfigInvalid,
    ConstraintViolated,
    DimensionMismatch,
    EmptyInput,
    IndexOutOfRange,
    SingularGeometry,
    SingularSystem,
    UnderDetermined,
    WrongTopology,
)
from .estimator import ls_estimate, refine_estimate
from .harness import load_config, run_sweep
from .localization import localize_bistatic, localize_monostatic
from .topology import Kind, Topology, correlation_matrix, weighting_matrix

_CONFIG_ERRORS = (
    ConfigInvalid,
    DimensionMismatch,
    UnderDetermined,
    WrongTopology,
    IndexOutOfRange,
    EmptyInput,
    ConstraintViolated,
    OSError,
    ValueError,
    KeyError,
)
_NUMERICAL_ERRORS = (SingularSystem, SingularGeometry, np.linalg.LinAlgError)


def _topology_from_args(args: argparse.Namespace) -> Topology:
    kind = Kind.MONOSTATIC if args.topology == "mono" else Kind.BISTATIC
    n = args.m if (kind is Kind.MONOSTATIC or args.n is None) else args.n
    return Topology(kind, args.m, n)


def _print_matrix(matrix: np.ndarray, integer: bool = False) -> None:
    for row in np.atleast_2d(matrix):
        if integer:
            print(",".join(str(int(x)) for x in row))
        else:
            print(",".join(f"{x:.17e}" for x in row))


def _add_topology_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--topology", choices=("bi", "mono"), required=True)
    parser.add_argument("--m", type=int, required=True)
    parser.add_argument("--n", type=int, default=None)


def _cmd_gen_matrix(args: argparse.Namespace) -> int:
    topo = _topology_from_args(args)
    a = correlation_matrix(topo)
    if args.which == "a":
        if a.shape[0] == 0:
            return 0
        _print_matrix(a, integer=True)
    else:
        _print_matrix(weighting_matrix(a))
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    topo = _topology_from_args(args)
    y = np.loadtxt(args.input, delimiter=",", ndmin=2)
    if y.shape[0] % topo.m != 0:
        raise DimensionMismatch(
            f"{y.shape[0]} observation rows are not a multiple of m={topo.m}"
        )
    obs = ObservationBlock(y=y, pilot_len=y.shape[0] // topo.m)
    t_hat = ls_estimate(obs, topo)
    if args.method == "proposed":
        t_hat = refine_estimate(t_hat, topo)
    _print_matrix(t_hat)
    return 0


def _cmd_crlb(args: argparse.Namespace) -> int:
    topo = _topology_from_args(args)
    sigma_sq = args.sigma**2
    if topo.kind is Kind.MONOSTATIC:
        report = crlb_monostatic(topo, sigma_sq, args.pilot_len)
    else:
        report = crlb_bistatic(topo, sigma_sq, args.pilot_len)
    _print_matrix(report.covariance_bound)
    return 0


def _cmd_localize(args: argparse.Namespace) -> int:
    with open(args.scene, "r", encoding="utf-8") as handle:
        scene = Scene.from_text(handle.read())
    t = np.loadtxt(args.toa, delimiter=",", ndmin=2)
    if t.shape != (scene.topo.m, scene.topo.n):
        raise DimensionMismatch(
            f"TOA matrix {t.shape} does not match scene topology "
            f"{scene.topo.m}x{scene.topo.n}"
        )
    if args.method == "proposed":
        t = refine_estimate(t, scene.topo)
    if scene.topo.kind is Kind.MONOSTATIC:
        fix = localize_monostatic(t, scene.tx, delta=scene.delta)
    else:
        fix = localize_bistatic(t, scene.tx, scene.rx, delta=scene.delta)
    p = fix.position
    print(f"{p[0]:.17e},{p[1]:.17e},{p[2]:.17e},{fix.residual_norm:.17e}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, master_seed=args.seed)
    result = run_sweep(cfg, workers=args.workers)
    result.write_csv(args.out)
    return 0


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
    loc.add_argument("--method", choices=("ls", "proposed"), default="ls")
    loc.set_defaults(func=_cmd_localize)

    sweep = sub.add_parser("sweep", help="run a Monte-Carlo sweep")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--out", required=True)
    sweep.add_argument("--workers", type=int, default=None)
    sweep.add_argument("--seed", type=int, default=None, help="master seed override")
    sweep.set_defaults(func=_cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _NUMERICAL_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except _CONFIG_ERRORS + (BstoaError,) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
