"""Command-line surface: validate, gain, shapley, bootstrap, report, synth.

Exit codes are a stable contract: 0 success, 1 domain/validation error,
2 I/O failure.  Variable sets are given by name, comma-separated, with "none"
for the empty set.  Every randomized command takes --seed and defaults to 0;
nothing reads wall-clock entropy.  Each command that writes an output also
writes a run manifest alongside it, from which the run can be replayed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .bootstrap import BootstrapSpec, GainStat, ShapleyStat, bootstrap_run, set_label
from .errors import InfoGainError, ValidationError
from .io import (
    Provenance,
    SchemaConfig,
    file_sha256,
    load_dataset,
    load_schema,
    parse_spec_doc,
    read_json,
    read_results,
    write_dataset,
    write_results,
    write_schema,
)
from .joint import estimate_joint
from .model import SignalSchema, brier_problem, validate_problem, validate_schema
from .rational import cross_fit_gain, information_gain
from .report import build_plot_spec, render_svg, summary_table
from .shapley import shapley_exact, shapley_sampled
from .synth import (
    make_deepfake_agents,
    make_deepfake_joint,
    make_xor_joint,
    generate_dataset,
    xor_problem,
)

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_IO = 2

IO_ERRORS = (OSError, UnicodeDecodeError)


def _write_manifest(args, input_hashes: dict, out_path) -> None:
    """Write ``<out_path>.manifest.json``: subcommand, flags and input hashes, enough to replay the run."""
    doc = {
        "subcommand": args.subcommand,
        "arguments": {k: v for k, v in vars(args).items() if k not in ("func", "subcommand")},
        "input_hashes": input_hashes,
        "tool_version": __version__,
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }
    path = Path(str(out_path) + ".manifest.json")
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def manifest_to_argv(doc: dict) -> list[str]:
    """Rebuild the argv of a run from its manifest document: ``--gain V --gain W``, ``--results V W``."""
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    actions = {action.dest: action for action in subparsers.choices[doc["subcommand"]]._actions}
    argv = [doc["subcommand"]]
    for key, value in sorted(doc["arguments"].items()):
        flag = "--" + key.replace("_", "-")
        if value is None or value is False:
            continue
        if value is True:
            argv.append(flag)
        elif isinstance(actions.get(key), argparse._AppendAction):  # one flag before each value
            argv.extend(arg for v in value for arg in (flag, str(v)))
        elif isinstance(value, list):
            argv.append(flag)
            argv.extend(str(v) for v in value)
        else:
            argv.extend([flag, str(value)])
    return argv


def _parse_vars(text: str) -> tuple[str, ...]:
    text = text.strip()
    if text.lower() == "none" or text == "":
        return ()
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _inputs(args):
    """The schema, the dataset and the smoothing of a command: ``--alpha``, else the schema's."""
    cfg = load_schema(args.schema)
    data = load_dataset(args.data, cfg)
    alpha = getattr(args, "alpha", None)
    return cfg, data, cfg.smoothing if alpha is None else alpha


def _write_outputs(args, result, *, seed=None, alpha=None, **flags) -> None:
    """Write ``result`` to ``--out`` with its provenance, and the run manifest beside it."""
    hashes = {"schema": file_sha256(args.schema), "data": file_sha256(args.data)}
    prov = Provenance(schema_sha256=hashes["schema"], data_sha256=hashes["data"], seed=seed, alpha=alpha,
                      tool_version=__version__, flags=flags)
    write_results(result, args.out, fmt=args.format, provenance=prov)
    _write_manifest(args, hashes, args.out)


def cmd_validate(args) -> int:
    cfg, data, _ = _inputs(args)
    diagnostics = validate_schema(cfg.schema) + validate_problem(cfg.problem)
    for diag in diagnostics:
        print(str(diag), file=sys.stderr)
    if data.dropped_rows:
        print(f"[warning] dropped-rows: {data.dropped_rows} rows dropped by missing-value policy", file=sys.stderr)
    print(f"ok: {data.n_rows} rows, {len(cfg.schema.signals)} signals, {len(cfg.schema.decisions)} decision columns")
    return EXIT_OK


def cmd_gain(args) -> int:
    cfg, data, alpha = _inputs(args)
    v1, ground = _parse_vars(args.v1), _parse_vars(args.ground)
    if args.cross_fit:
        if data.n_rows < 2:
            raise ValidationError("--cross-fit: cross-fit evaluation needs at least 2 rows", path="--cross-fit")
        gain = cross_fit_gain(data, cfg.problem, v1, ground, smoothing=alpha)
    else:
        joint = estimate_joint(data, alpha)
        gain = information_gain(joint, cfg.problem, v1, ground)
    print(f"gain({set_label(gain.v1)}; {set_label(gain.ground)}) = {gain.value!r}")
    if args.out:
        _write_outputs(args, gain, alpha=alpha, cross_fit=bool(args.cross_fit), decision_bins=cfg.decision_bins)
    return EXIT_OK


def cmd_shapley(args) -> int:
    cfg, data, alpha = _inputs(args)
    joint = estimate_joint(data, alpha)
    ground = _parse_vars(args.ground)
    signals = list(_parse_vars(args.signals)) if args.signals else None
    sampled = args.sampled is not None
    if sampled:
        report = shapley_sampled(joint, cfg.problem, signals, ground, permutations=args.sampled, seed=args.seed)
    else:
        report = shapley_exact(joint, cfg.problem, signals, ground)
    for name, value in zip(report.signals, report.values):
        print(f"phi({name}) = {value!r}")
    print(f"total gain over ground = {report.total_gain!r}")
    if args.out:
        _write_outputs(args, report, seed=args.seed if sampled else None, alpha=alpha,
                       sampled=args.sampled or 0, decision_bins=cfg.decision_bins)
    return EXIT_OK


def _bootstrap_spec(args, schema: SignalSchema) -> BootstrapSpec:
    if args.spec:
        doc = read_json(args.spec, "bootstrap spec")
        return parse_spec_doc(doc, schema, replicates=args.replicates, seed=args.seed)
    stats: list = []
    for text in args.gain or []:
        parts = text.split(":")
        if len(parts) != 2:
            raise ValidationError(f"--gain {text!r}: expected V1:GROUND", path="--gain")
        stats.append(GainStat(v1=_parse_vars(parts[0]), ground=_parse_vars(parts[1])))
    for text in args.shapley or []:
        stats.append(ShapleyStat(ground=_parse_vars(text)))
    if not stats:
        # default: per-signal attribution against each decision column
        for name in schema.decision_names:
            stats.append(ShapleyStat(ground=(name,)))
        if not stats:
            raise ValidationError("no decision columns and no statistics requested", path="--shapley")
    return BootstrapSpec(replicates=args.replicates, seed=args.seed, statistics=tuple(stats))


def cmd_bootstrap(args) -> int:
    cfg, data, alpha = _inputs(args)
    spec = _bootstrap_spec(args, data.schema)
    # a Shapley statistic that lists no signals attributes every signal of the schema
    if not data.schema.signals and all(isinstance(s, ShapleyStat) and s.signals is None for s in spec.statistics):
        raise ValidationError("bootstrap spec requests no statistics: the schema has no signals", path="statistics")
    result = bootstrap_run(data, cfg.problem, spec, alpha=alpha)
    print(summary_table(result))
    _write_outputs(args, result, seed=spec.seed, alpha=alpha, replicates=spec.replicates,
                   resampling="rows", decision_bins=cfg.decision_bins)
    return EXIT_OK


def cmd_report(args) -> int:
    results = []
    for path in args.results:
        obj, _ = read_results(path)
        if not hasattr(obj, "statistics"):
            raise ValidationError(f"{path}: not a bootstrap result document", path="kind")
        results.append(obj)
    spec = build_plot_spec(results, axis=args.axis.bounds if args.axis else None)
    Path(args.out).write_bytes(render_svg(spec))
    print(f"wrote {args.out}")
    hashes = {f"results[{i}]": file_sha256(p) for i, p in enumerate(args.results)}
    _write_manifest(args, hashes, args.out)
    return EXIT_OK


def cmd_synth(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.preset == "xor":
        joint, problem, agents = make_xor_joint(), xor_problem(), ()
    else:
        joint = make_deepfake_joint()
        problem = brier_problem(joint.states.labels)
        agents = make_deepfake_agents(joint, problem)
    data = generate_dataset(joint, problem, agents, n_rows=args.rows, seed=args.seed)
    cfg = SchemaConfig(
        state_column=data.state_name,
        states=data.states,
        schema=data.schema,
        problem=problem,
    )
    data_path, schema_path = out_dir / "data.csv", out_dir / "schema.json"
    write_dataset(data, data_path)
    write_schema(cfg, schema_path)
    print(f"wrote {data_path} and {schema_path}")
    _write_manifest(args, {}, out_dir / "synth")
    return EXIT_OK


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


class _Axis(str):
    """``--axis LO:HI`` as typed, which the manifest records, with its ``bounds``."""

    def __new__(cls, text: str):
        axis = super().__new__(cls, text)
        axis.bounds = tuple(float(x) for x in text.split(":"))
        return axis


ALPHA = _flag("--alpha", "a finite non-negative number", float, lambda a: math.isfinite(a) and a >= 0)
SEED = _count("--seed", 0)
AXIS = _flag("--axis", "LO:HI with finite LO < HI", _Axis,
             lambda a: len(a.bounds) == 2 and all(map(math.isfinite, a.bounds)) and a.bounds[0] < a.bounds[1])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="infogain",
        description="Quantify unexploited information value in logged human/AI decisions.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_io(p, data_required=True):
        p.add_argument("--schema", required=True, help="schema JSON path")
        p.add_argument("--data", required=data_required, help="dataset CSV path")

    p = sub.add_parser("validate", help="validate a schema/dataset pair")
    add_io(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("gain", help="information gain of one variable set over another")
    add_io(p)
    p.add_argument("--v1", required=True, help="comma-separated variable names, or 'none'")
    p.add_argument("--ground", required=True, help="comma-separated variable names, or 'none'")
    p.add_argument("--alpha", type=ALPHA, default=None, help="add-alpha smoothing (default: schema option)")
    p.add_argument("--cross-fit", action="store_true", help="split-sample evaluation instead of in-sample")
    p.add_argument("--out", default=None, help="write result document here")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_gain)

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
    p.set_defaults(func=cmd_shapley)

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
    p.set_defaults(func=cmd_bootstrap)

    p = sub.add_parser("report", help="render bootstrap results as an SVG distribution chart")
    p.add_argument("--results", nargs="+", required=True, help="bootstrap result JSON files")
    p.add_argument("--axis", type=AXIS, default=None, metavar="LO:HI", help="minimum axis range in payoff units")
    p.add_argument("--out", required=True, help="output SVG path")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("synth", help="generate a synthetic dataset CSV + schema JSON")
    p.add_argument("--preset", choices=("xor", "deepfake"), required=True)
    p.add_argument("--rows", type=_count("--rows", 1), default=1000)
    p.add_argument("--seed", type=SEED, default=0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # before Python 3.13, argparse gives "--flag=--" an empty list as its value
        for key, value in vars(args).items():
            if isinstance(value, list) and (not value or [] in value):
                raise ValidationError(f"--{key.replace('_', '-')}: must not be '--'", path=key)
        return args.func(args)
    except IO_ERRORS as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except InfoGainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
