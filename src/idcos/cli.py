"""Batch command line: convergence studies, stability maps and simulations.

Runs are declared in a flat INI-style config file and/or overridden by
flags; artifacts land in the output directory as CSV files plus a manifest.
Exit codes: 0 on success, 2 for configuration errors, 3 for solver failures.
"""

import argparse
import configparser
import sys
import typing

from .errors import SolverError, UsageError
from .harness import RunConfig, run_convergence, run_simulation, run_stability
from .steppers import STEPPER_ORDERS


def _coerce(key, value):
    """Parse a flag or config value as RunConfig's annotated type for the field;
    a tuple field takes comma separated items."""
    kind = RunConfig.__dataclass_fields__[key].type
    try:
        if typing.get_origin(kind) is tuple:
            item = typing.get_args(kind)[0]
            return tuple(item(v) for v in str(value).split(","))
        return kind(value)
    except ValueError:
        raise UsageError(f"cannot read {key} = {value!r}") from None


def load_config_file(path):
    """Read a [run] section of key = value pairs into RunConfig kwargs; a key
    matches its field in any case, since configparser lowercases keys.  Values
    are taken literally (no % interpolation); a file configparser cannot
    parse, or that is not UTF-8, is a UsageError naming the file."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        why = "; ".join(str(exc).splitlines())
        raise UsageError(f"cannot parse config file {path}: {why}") from None
    if not read:
        raise UsageError(f"cannot read config file {path}")
    if parser.has_section("run"):
        section = parser["run"]
    else:
        section = parser[parser.sections()[0]] if parser.sections() else {}
    fields = {name.lower(): name for name in RunConfig.__dataclass_fields__}
    kwargs = {}
    for key, value in dict(section).items():
        name = fields.get(key.replace("-", "_"))
        if name is None:
            raise UsageError(f"unknown config key {key!r}")
        kwargs[name] = _coerce(name, value)
    return kwargs


def build_parser():
    parser = argparse.ArgumentParser(
        prog="idcos",
        description="Deferred-correction operator-splitting batch runs")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in ("convergence", "stability", "simulate"):
        p = sub.add_parser(name)
        p.add_argument("--config", help="INI config file with a [run] section")
        p.add_argument("--problem")
        p.add_argument("--scheme", choices=tuple(STEPPER_ORDERS))
        p.add_argument("--corrections", help="comma separated, e.g. 0,1,2")
        p.add_argument("--nt", dest="nt_list", help="time step ladder, comma separated")
        p.add_argument("--nt-unit", dest="nt_unit", choices=("substep", "macro"))
        p.add_argument("--sub-intervals", dest="M", type=int,
                       help="sub-intervals per macro step")
        p.add_argument("--grid", dest="grid_n", type=int)
        p.add_argument("--order-space", dest="order_space", type=int,
                       choices=(2, 4, 6))
        p.add_argument("--residual-mode", dest="residual_mode",
                       help="interpolant or oversampled(N)")
        p.add_argument("--out", dest="out_dir")
        p.add_argument("--name", dest="run_name")
        p.add_argument("--end-time", dest="end_time", type=float)
        if name == "simulate":
            p.add_argument("--dt", type=float)
            p.add_argument("--snap-times", dest="snap_times",
                           help="comma separated snapshot times")
        if name == "stability":
            p.add_argument("--re-range", dest="re_range")
            p.add_argument("--im-range", dest="im_range")
            p.add_argument("--resolution", dest="resolution")
    return parser


def config_from_args(args):
    kwargs = load_config_file(args.config) if args.config else {}
    for key in RunConfig.__dataclass_fields__:
        value = getattr(args, key, None)
        if value is not None:
            kwargs[key] = _coerce(key, value)
    return RunConfig(**kwargs)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config_from_args(args)
        if cfg.experiment == "convergence":
            report = run_convergence(cfg)
            for cs in cfg.corrections:
                orders = ", ".join(f"{o:.2f}" for o in report.orders_for(cs))
                print(f"{cfg.problem} {cfg.scheme} corrections={cs}: orders {orders}")
        elif cfg.experiment == "stability":
            scans = run_stability(cfg)
            for scan in scans:
                print(f"{cfg.scheme} corrections={scan.corrections}: "
                      f"{len(scan.contours)} contour polylines")
        else:
            summaries = run_simulation(cfg)
            for snap in summaries:
                print(f"t={snap['time']:g}: min={snap['min']} max={snap['max']}")
    except UsageError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
