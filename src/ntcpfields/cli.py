"""Command-line interface.

Subcommands: ntcp, threshold, dose, simulate, estimate, experiment.

All numeric output is printed with 9 significant digits as ``key value``
lines (``--format csv`` gives ``key,value`` rows under a header,
``--format json`` a single object).  Exit status: 0 success, 1 domain
and capacity errors, 2 I/O or config errors (also used by the argument
parser).
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from dataclasses import fields
from typing import List, Optional, Sequence, Tuple

from . import cv_ntcp, dependent_clt, dose_response, experiment, lattice_fields
from .errors import ConfigError, DomainError


def _f(value: float) -> str:
    return "%.9g" % value


def _emit(pairs: List[Tuple[str, object]], fmt: str) -> None:
    if fmt == "json":
        obj = {}
        for key, value in pairs:
            if isinstance(value, float):
                value = float(_f(value))
            obj[key] = value
        print(json.dumps(obj, sort_keys=False))
        return
    sep = "," if fmt == "csv" else " "
    if fmt == "csv":
        print("key,value")
    for key, value in pairs:
        if isinstance(value, float):
            value = _f(value)
        print(f"{key}{sep}{value}")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

#: The classes of ``dose --model`` and ``simulate --field``, in the order of
#: their choices; each field of a class is the flag of its name.
_DOSE_MODELS = {"single_hit": dose_response.SingleHit, "multi_target": dose_response.MultiTarget,
                "hybrid": dose_response.Hybrid, "lq": dose_response.LinearQuadratic}
_FIELD_MODELS = {"iid": lattice_fields.IidBernoulli,
                 "window_threshold": lattice_fields.MovingWindowThreshold,
                 "window_levels": lattice_fields.MovingWindowLevels}


def _model(cls, args):
    """``cls`` built from its flags; a flag not given is None, which it rejects."""
    return cls(**{f.name: getattr(args, f.name) for f in fields(cls)})


def _cmd_ntcp(args) -> List[Tuple[str, object]]:
    out: List[Tuple[str, object]] = []
    methods = ("exact", "normal", "weiss") if args.method == "all" else (args.method,)
    for method in methods:
        if method == "exact":
            out.append(("exact_value", cv_ntcp.ntcp_exact(args.n, args.p, args.L)))
            out.append(("exact_error_bound", 0.0))
        elif method == "normal":
            res = cv_ntcp.ntcp_normal(args.n, args.p, args.L)
            out.append(("normal_value", res.value))
            out.append(("normal_error_bound", res.error_bound))
        else:
            res = cv_ntcp.ntcp_weiss_tail(args.n, args.p, args.L)
            out.append(("weiss_value", res.value))
            out.append(("weiss_error_bound",
                        res.error_bound if res.error_bound is not None else "unavailable"))
    return out


def _cmd_threshold(args) -> List[Tuple[str, object]]:
    x_gamma = cv_ntcp.threshold_for_confidence(args.n, args.p, args.gamma)
    l_gamma, res = cv_ntcp.ntcp_normal_integer_threshold(args.n, args.p, args.gamma)
    feats = cv_ntcp.fraction_curve_features(cv_ntcp._fraction_c(args.n, args.gamma))
    out: List[Tuple[str, object]] = [
        ("x_gamma", x_gamma),
        ("L_gamma", l_gamma),
        ("integer_error_bound", res.error_bound),
        ("c", feats.c),
        ("p1", feats.p1),
        ("p_star", feats.p_star),
        ("kappa_star", feats.kappa_star),
    ]
    if args.kappa is not None:
        out.append(("p_bar", cv_ntcp.invert_fraction(args.kappa, feats.c)))
    return out


def _cmd_dose(args) -> List[Tuple[str, object]]:
    model = _model(_DOSE_MODELS[args.model], args)
    cells = dose_response.CellPopulation(n0=args.n0)
    if args.target_p is not None:
        dose = dose_response.dose_for_kill_probability(
            model, cells, args.target_p, args.tolerance
        )
    elif args.kappa is not None:  # a missing --n or --gamma is None, which is rejected
        dose = cv_ntcp.dose_for_fraction(
            model, cells, args.kappa, args.n, args.gamma, args.tolerance
        )
    else:
        raise DomainError("give either --target-p or --kappa")
    return [("dose", dose)]


def _cmd_simulate(args) -> List[Tuple[str, object]]:
    model = _model(_FIELD_MODELS[args.field], args)
    cube = lattice_fields.LatticeCube(d=args.d, n=args.n)
    sample = lattice_fields.sample_field(model, cube, args.seed)
    lattice_fields.save_sample(sample, args.out)
    return [
        ("path", args.out),
        ("cube_size", cube.size),
        ("sum", float(sample.values.sum())),
    ]


def _cmd_estimate(args) -> List[Tuple[str, object]]:
    sample = lattice_fields.load_sample(args.sample)
    if args.bandwidth is not None:
        config = dependent_clt.EstimatorConfig(bandwidth=args.bandwidth)
    else:
        config = dependent_clt.EstimatorConfig(eta=args.eta)
    at = None if args.x is None or args.mean is None else (args.x, args.mean)
    total, c_hat, intervals, ntcp = dependent_clt._estimates(sample, config, args.level, at)
    if args.x is not None and args.mean is None:
        raise DomainError("--x requires --mean (the model mean E X_0)")
    out: List[Tuple[str, object]] = [("sum", total), ("mean", total / sample.cube.size),
                                     ("chat", c_hat)]
    for level, (lo, hi) in zip(args.level, intervals):
        out += [(f"ci_{_f(level)}_lo", lo), (f"ci_{_f(level)}_hi", hi)]
    if ntcp is not None:
        out.append(("ntcp_estimate", ntcp))
    return out


def _cmd_experiment(args) -> List[Tuple[str, object]]:
    config = experiment.load_config(args.config)
    report = experiment.run_clt_experiment(config)
    experiment.write_report(report, args.out)
    return [("report", args.out), ("rows", len(report.rows))]


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that takes a token such as -1e3, -2.5E-1 or -inf for
    a value, so every float flag takes every negative number float() reads.
    argparse decides what looks like a negative number by its private
    ``_negative_number_matcher``, which takes only forms such as -3 and -1.5
    in Python 3.11; no option string of this CLI looks like a number."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE)


@functools.lru_cache(maxsize=None)  # one per process: parses leave no state in it
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ntcpfields",
        description="Critical-volume NTCP calculus and dependent-field estimation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "csv", "json"), default="text")

    p = sub.add_parser("ntcp", help="NTCP for n independent FSUs at threshold L")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--method", choices=("exact", "normal", "weiss", "all"),
                   default="all")
    add_format(p)
    p.set_defaults(run=_cmd_ntcp)

    p = sub.add_parser("threshold", help="confidence threshold and kappa-curve features")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--kappa", type=float, default=None,
                   help="also invert this kill fraction to p_bar")
    add_format(p)
    p.set_defaults(run=_cmd_threshold)

    p = sub.add_parser("dose", help="dose for a target kill probability or fraction")
    p.add_argument("--model", choices=_DOSE_MODELS, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--n0", type=int, default=1)
    p.add_argument("--target-p", type=float, default=None)
    p.add_argument("--kappa", type=float, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--tolerance", type=float, default=1e-10)
    add_format(p)
    p.set_defaults(run=_cmd_dose)

    p = sub.add_parser("simulate", help="sample a lattice field and write it to a file")
    p.add_argument("--field", choices=_FIELD_MODELS, required=True)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--window-radius", type=int, default=1)
    p.add_argument("--k-min", type=int, default=None)
    p.add_argument("--levels", type=int, default=5)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    add_format(p)
    p.set_defaults(run=_cmd_simulate)

    p = sub.add_parser("estimate", help="estimates from a stored field sample")
    p.add_argument("--sample", required=True)
    p.add_argument("--bandwidth", type=int, default=None)
    p.add_argument("--eta", type=float, default=1.0 / 3.0)
    p.add_argument("--level", type=float, action="append", default=[])
    p.add_argument("--mean", type=float, default=None,
                   help="model mean E X_0 for the NTCP estimate")
    p.add_argument("--x", type=float, default=None,
                   help="threshold for the NTCP estimate")
    add_format(p)
    p.set_defaults(run=_cmd_estimate)

    p = sub.add_parser("experiment", help="run a campaign from a JSON config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    add_format(p)
    p.set_defaults(run=_cmd_experiment)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        pairs = args.run(args)
    except (OSError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(pairs, args.format)
    return 0


if __name__ == "__main__":
    sys.exit(main())
