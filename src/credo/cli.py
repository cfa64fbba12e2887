"""Command line entry point.

Subcommands: ``run`` (one pipeline), ``compare`` (model matrix with the
reduction off and on), ``explain`` (replay a model archive), ``synth``
(generate a dataset). Exit codes: 0 success, 2 configuration error,
3 data error or an allocation that fails, 4 numeric failure. Every
setting, from a config file or a flag, is read by ``config.read_value``,
so a bad one exits 2 before any input is read. Every command runs numpy's
BLAS on one thread; the caller's count comes back when the last command
running returns.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import typing

from . import blas
from .config import load_config, read_value, resolve_config
from .errors import ConfigError, CredoError, DataError, NumericError, PipelineError
from .pipeline import ExplainMethod, cmd_compare, cmd_explain, cmd_run
from .synth import SynthSpec, write_synthetic

__all__ = ["build_parser", "exit_code_for", "main"]


def exit_code_for(error: BaseException) -> int:
    if isinstance(error, PipelineError):
        return exit_code_for(error.cause)
    if isinstance(error, ConfigError):
        return 2
    if isinstance(error, (DataError, MemoryError)):
        return 3
    if isinstance(error, NumericError):
        return 4
    return 1


# SynthSpec fields settable from `credo synth`; each flag's default is the field's
_SYNTH_FLAGS = ("rows", "features", "classes", "imbalance", "null_rate", "separation", "seed", "target_name")


def build_parser() -> argparse.ArgumentParser:
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", metavar="DIR", help="output directory (overrides the config)")

    parser = argparse.ArgumentParser(prog="credo", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", parents=[out], help="execute one configured pipeline")
    run.add_argument("-c", "--config", required=True, help="JSON config path")

    compare = sub.add_parser(
        "compare", parents=[out], help="run each configured model with LDA off and on"
    )
    compare.add_argument("-c", "--config", required=True, help="JSON config path")

    explain = sub.add_parser(
        "explain", parents=[out], help="explain an archived model on a processed CSV"
    )
    explain.add_argument("-m", "--method", required=True, choices=typing.get_args(ExplainMethod))
    explain.add_argument("-a", "--archive", required=True, help="model archive directory")
    explain.add_argument("-d", "--data", required=True, help="processed CSV path")
    explain.add_argument("--row", type=int, default=0, help="row to explain (lime)")
    explain.add_argument("--target-class", type=int, default=None, help="class index to explain")
    explain.add_argument("--seed", type=int, default=0)

    synth = sub.add_parser("synth", help="generate a synthetic dataset CSV")
    synth.add_argument("-o", "--output", required=True, help="CSV path to write")
    for name in _SYNTH_FLAGS:
        default = getattr(SynthSpec, name)
        synth.add_argument(f"--{name.replace('_', '-')}", type=type(default), default=default)
    return parser


def _resolved(args):
    cfg = resolve_config(load_config(args.config))
    return dataclasses.replace(cfg, out_dir=args.out) if args.out else cfg


def _run(args) -> int:
    outcome, out = cmd_run(_resolved(args))
    for name in outcome.config.metrics:
        print(f"{name}: {getattr(outcome.metrics, name):.4f}")
    print(f"outputs written to {out}")
    return 0


def _compare(args) -> int:
    table, out = cmd_compare(_resolved(args))
    sys.stdout.write(table.to_csv())
    print(f"outputs written to {out}")
    return 0


def _explain(args) -> int:
    result = cmd_explain(
        args.archive,
        args.data,
        args.method,
        row=args.row,
        target_class=args.target_class,
        out_dir=args.out or ".",
        seed=args.seed,
    )
    print(f"wrote {result['json']} and {result['csv']}")
    return 0


def _synth(args) -> int:
    spec = read_value(SynthSpec, {name: getattr(args, name) for name in _SYNTH_FLAGS}, "synth")
    try:
        summary = write_synthetic(args.output, spec)
    except MemoryError as e:
        raise MemoryError(f"synth: --rows {spec.rows} x --features {spec.features} do not fit in memory: {e}") from e
    print(
        f"wrote {summary['rows']} rows x {summary['columns']} columns to {summary['path']} "
        f"(class counts {summary['class_counts']})"
    )
    return 0


_DISPATCH = {"run": _run, "compare": _compare, "explain": _explain, "synth": _synth}
# built once: argparse keeps no state between parse_args calls, and a build
# costs about 1.5 ms, which a replay of many `credo explain` calls would repeat
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    # a second BLAS thread saves no wall time on credo's small products
    with blas.one_thread():
        try:
            return _DISPATCH[args.command](args)
        except (CredoError, MemoryError) as e:
            print(f"error: {e}", file=sys.stderr)
            return exit_code_for(e)


if __name__ == "__main__":
    sys.exit(main())
