"""The command line's argument layer: the parser, the exit codes and ``main``.

Nothing here imports numpy or the computing modules.  ``main`` parses first and
imports ``cli`` only once a command is to run, so ``--help``, ``--version`` and
flag or usage errors answer without loading numpy.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import __version__
from .errors import InfoGainError, ValidationError

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_IO = 2


def _flag(flag: str, need: str, parse, ok):
    """An argparse type for ``flag``: ``parse(text)`` if ``ok`` holds for it, else a ValidationError naming the flag."""

    def convert(text: str):
        try:
            value = parse(text)
        except ValueError:
            pass
        else:
            if ok(value):
                return value
        raise ValidationError(f"{flag}: must be {need}, got {text!r}", path=flag)

    return convert


def _count(flag: str, minimum: int):
    return _flag(flag, f"an integer >= {minimum}", int, lambda n: n >= minimum)


ALPHA = _flag("--alpha", "a finite non-negative number", float, lambda a: math.isfinite(a) and a >= 0)
SEED = _count("--seed", 0)
AXIS = _flag("--axis", "LO:HI with finite LO < HI", lambda text: tuple(float(x) for x in text.split(":")),
             lambda a: len(a) == 2 and all(map(math.isfinite, a)) and a[0] < a[1])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="infogain",
        description="Quantify unexploited information value in logged human/AI decisions.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_io(p):
        p.add_argument("--schema", required=True, help="schema JSON path")
        p.add_argument("--data", required=True, help="dataset CSV path")

    p = sub.add_parser("validate", help="validate a schema/dataset pair")
    add_io(p)

    p = sub.add_parser("gain", help="information gain of one variable set over another")
    add_io(p)
    p.add_argument("--v1", required=True, help="comma-separated variable names, or 'none'")
    p.add_argument("--ground", required=True, help="comma-separated variable names, or 'none'")
    p.add_argument("--alpha", type=ALPHA, default=None, help="add-alpha smoothing (default: schema option)")
    p.add_argument("--cross-fit", action="store_true", help="split-sample evaluation instead of in-sample")
    p.add_argument("--out", default=None, help="write result document here")
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("shapley", help="per-signal attribution of gain over a ground set")
    add_io(p)
    p.add_argument("--ground", required=True, help="comma-separated variable names, or 'none'")
    p.add_argument("--signals", default=None, help="subset of signals to attribute (default: all)")
    p.add_argument("--sampled", type=_count("--sampled", 1), default=None, metavar="P",
                   help="Monte Carlo with P permutations")
    p.add_argument("--seed", type=SEED, default=0)
    p.add_argument("--alpha", type=ALPHA, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("bootstrap", help="bootstrap distributions of gains and Shapley values")
    add_io(p)
    p.add_argument("--replicates", type=_count("--replicates", 1), default=1000)
    p.add_argument("--seed", type=SEED, default=0)
    p.add_argument("--alpha", type=ALPHA, default=None)
    p.add_argument("--gain", action="append", metavar="V1:GROUND", help="gain statistic (repeatable)")
    p.add_argument("--shapley", action="append", metavar="GROUND", help="Shapley statistic (repeatable)")
    p.add_argument("--spec", default=None, help="JSON file with replicates/seed/statistics")
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("report", help="render bootstrap results as an SVG distribution chart")
    p.add_argument("--results", nargs="+", required=True, help="bootstrap result JSON files")
    p.add_argument("--axis", type=AXIS, default=None, metavar="LO:HI", help="minimum axis range in payoff units")
    p.add_argument("--out", required=True, help="output SVG path")

    p = sub.add_parser("synth", help="generate a synthetic dataset CSV + schema JSON")
    p.add_argument("--preset", choices=("xor", "deepfake"), required=True)
    p.add_argument("--rows", type=_count("--rows", 1), default=1000)
    p.add_argument("--seed", type=SEED, default=0)
    p.add_argument("--out-dir", required=True)

    return parser


def main(argv=None) -> int:
    """Parse ``argv``, then run its subcommand through ``cli.cmd_<subcommand>``; returns the exit code."""
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser().parse_args(argv)
        # before Python 3.13, argparse gives "--flag=--" an empty list as its value
        for key, value in vars(args).items():
            if isinstance(value, list) and (not value or [] in value):
                raise ValidationError(f"--{key.replace('_', '-')}: must not be '--'", path=key)
        args.argv = argv
        from . import cli  # numpy and the computing modules load here, once the arguments parse

        return getattr(cli, f"cmd_{args.subcommand}")(args)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except InfoGainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
