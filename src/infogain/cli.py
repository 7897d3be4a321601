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
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .bootstrap import BootstrapSpec, GainStat, ShapleyStat, bootstrap_run
from .errors import InfoGainError, ValidationError
from .io import (
    Provenance,
    SchemaConfig,
    file_sha256,
    load_dataset,
    load_schema,
    read_results,
    write_dataset,
    write_results,
    write_schema,
)
from .joint import estimate_joint
from .model import brier_problem, validate_problem, validate_schema
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


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to reconstruct a run: subcommand, flags, input hashes."""

    subcommand: str
    arguments: dict
    input_hashes: dict
    tool_version: str
    created_utc: str

    def to_doc(self) -> dict:
        return {
            "subcommand": self.subcommand,
            "arguments": dict(sorted(self.arguments.items())),
            "input_hashes": dict(sorted(self.input_hashes.items())),
            "tool_version": self.tool_version,
            "created_utc": self.created_utc,
        }


def _write_manifest(subcommand: str, arguments: dict, input_hashes: dict, out_path) -> None:
    manifest = RunManifest(
        subcommand=subcommand,
        arguments=arguments,
        input_hashes=input_hashes,
        tool_version=__version__,
        created_utc=datetime.now(timezone.utc).isoformat(),
    )
    path = Path(str(out_path) + ".manifest.json")
    path.write_text(json.dumps(manifest.to_doc(), indent=2, sort_keys=True) + "\n", encoding="utf-8")


def manifest_to_argv(doc: dict) -> list[str]:
    """Rebuild the argv of a run from its manifest document."""
    argv = [doc["subcommand"]]
    for key, value in sorted(doc["arguments"].items()):
        flag = "--" + key.replace("_", "-")
        if value is None or value is False:
            continue
        if value is True:
            argv.append(flag)
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


def _load_inputs(schema_path: str, data_path: str):
    cfg = load_schema(schema_path)
    data = load_dataset(data_path, cfg)
    return cfg, data


def _provenance(schema_path, data_path, *, seed=None, alpha=None, **flags) -> Provenance:
    return Provenance(
        schema_sha256=file_sha256(schema_path) if schema_path else None,
        data_sha256=file_sha256(data_path) if data_path else None,
        seed=seed,
        alpha=alpha,
        tool_version=__version__,
        flags=flags,
    )


def cmd_validate(args) -> int:
    cfg = load_schema(args.schema)
    data = load_dataset(args.data, cfg)
    diagnostics = validate_schema(cfg.schema) + validate_problem(cfg.problem)
    for diag in diagnostics:
        print(str(diag), file=sys.stderr)
    if data.dropped_rows:
        print(f"[warning] dropped-rows: {data.dropped_rows} rows dropped by missing-value policy", file=sys.stderr)
    if any(d.severity == "error" for d in diagnostics):
        return EXIT_DOMAIN
    print(f"ok: {data.n_rows} rows, {len(cfg.schema.signals)} signals, {len(cfg.schema.decisions)} decision columns")
    return EXIT_OK


def cmd_gain(args) -> int:
    cfg, data = _load_inputs(args.schema, args.data)
    alpha = args.alpha if args.alpha is not None else cfg.smoothing
    v1, ground = _parse_vars(args.v1), _parse_vars(args.ground)
    if args.cross_fit:
        gain = cross_fit_gain(data, cfg.problem, v1, ground, smoothing=alpha)
    else:
        joint = estimate_joint(data, alpha)
        gain = information_gain(joint, cfg.problem, v1, ground)
    label_v1 = ",".join(gain.v1) if gain.v1 else "none"
    label_g = ",".join(gain.ground) if gain.ground else "none"
    print(f"gain({label_v1}; {label_g}) = {gain.value!r}")
    if args.out:
        prov = _provenance(args.schema, args.data, alpha=alpha, cross_fit=bool(args.cross_fit),
                           decision_bins=cfg.decision_bins)
        write_results(gain, args.out, fmt=args.format, provenance=prov)
        _write_manifest("gain", _argdict(args), _input_hashes(args), args.out)
    return EXIT_OK


def cmd_shapley(args) -> int:
    cfg, data = _load_inputs(args.schema, args.data)
    alpha = args.alpha if args.alpha is not None else cfg.smoothing
    joint = estimate_joint(data, alpha)
    ground = _parse_vars(args.ground)
    signals = list(_parse_vars(args.signals)) if args.signals else None
    if args.sampled:
        report = shapley_sampled(joint, cfg.problem, signals, ground, permutations=args.sampled, seed=args.seed)
    else:
        report = shapley_exact(joint, cfg.problem, signals, ground)
    for name, value in zip(report.signals, report.values):
        print(f"phi({name}) = {value!r}")
    print(f"total gain over ground = {report.total_gain!r}")
    if args.out:
        prov = _provenance(args.schema, args.data, seed=args.seed if args.sampled else None, alpha=alpha,
                           sampled=args.sampled or 0, decision_bins=cfg.decision_bins)
        write_results(report, args.out, fmt=args.format, provenance=prov)
        _write_manifest("shapley", _argdict(args), _input_hashes(args), args.out)
    return EXIT_OK


def _bootstrap_spec(args, cfg: SchemaConfig, schema_names) -> BootstrapSpec:
    stats: list = []
    if args.spec:
        doc = json.loads(Path(args.spec).read_text(encoding="utf-8"))
        replicates = int(doc.get("replicates", args.replicates))
        seed = int(doc.get("seed", args.seed))
        for item in doc.get("statistics", []):
            kind = item.get("kind")
            if kind == "gain":
                stats.append(GainStat(v1=tuple(item["v1"]), ground=tuple(item.get("ground", ())),
                                      name=item.get("name")))
            elif kind == "shapley":
                stats.append(ShapleyStat(ground=tuple(item.get("ground", ())),
                                         signals=tuple(item["signals"]) if item.get("signals") else None,
                                         permutations=item.get("permutations"), name=item.get("name")))
            else:
                raise ValidationError(f"bootstrap spec: unknown statistic kind {kind!r}", path="statistics")
        return BootstrapSpec(replicates=replicates, seed=seed, statistics=tuple(stats))
    for text in args.gain or []:
        parts = text.split(":")
        if len(parts) != 2:
            raise ValidationError(f"--gain {text!r}: expected V1:GROUND", path="--gain")
        stats.append(GainStat(v1=_parse_vars(parts[0]), ground=_parse_vars(parts[1])))
    for text in args.shapley or []:
        stats.append(ShapleyStat(ground=_parse_vars(text)))
    if not stats:
        # default: per-signal attribution against each decision column
        for name in schema_names:
            stats.append(ShapleyStat(ground=(name,)))
        if not stats:
            raise ValidationError("no decision columns and no statistics requested", path="--shapley")
    return BootstrapSpec(replicates=args.replicates, seed=args.seed, statistics=tuple(stats))


def cmd_bootstrap(args) -> int:
    cfg, data = _load_inputs(args.schema, args.data)
    alpha = args.alpha if args.alpha is not None else cfg.smoothing
    spec = _bootstrap_spec(args, cfg, data.schema.decision_names)
    result = bootstrap_run(data, cfg.problem, spec, alpha=alpha)
    print(summary_table(result))
    prov = _provenance(args.schema, args.data, seed=spec.seed, alpha=alpha, replicates=spec.replicates,
                       resampling="rows", decision_bins=cfg.decision_bins)
    write_results(result, args.out, fmt=args.format, provenance=prov)
    _write_manifest("bootstrap", _argdict(args), _input_hashes(args), args.out)
    return EXIT_OK


def cmd_report(args) -> int:
    results = []
    for path in args.results:
        obj, _ = read_results(path)
        if not hasattr(obj, "statistics"):
            raise ValidationError(f"{path}: not a bootstrap result document", path="kind")
        results.append(obj)
    axis = None
    if args.axis:
        lo, hi = (float(x) for x in args.axis.split(":"))
        axis = (lo, hi)
    spec = build_plot_spec(results, axis=axis)
    Path(args.out).write_bytes(render_svg(spec))
    print(f"wrote {args.out}")
    hashes = {f"results[{i}]": file_sha256(p) for i, p in enumerate(args.results)}
    _write_manifest("report", _argdict(args), hashes, args.out)
    return EXIT_OK


def cmd_synth(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.preset == "xor":
        joint, problem, agents = make_xor_joint(), xor_problem(), ()
    elif args.preset == "deepfake":
        joint = make_deepfake_joint()
        problem = brier_problem(joint.states.labels)
        agents = make_deepfake_agents(joint, problem)
    else:
        raise ValidationError(f"unknown preset {args.preset!r}", path="--preset")
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
    _write_manifest("synth", _argdict(args), {}, out_dir / "synth")
    return EXIT_OK


def _argdict(args) -> dict:
    skip = {"func", "subcommand"}
    return {k: v for k, v in vars(args).items() if k not in skip}


def _input_hashes(args) -> dict:
    hashes = {}
    if getattr(args, "schema", None):
        hashes["schema"] = file_sha256(args.schema)
    if getattr(args, "data", None):
        hashes["data"] = file_sha256(args.data)
    return hashes


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
    p.add_argument("--alpha", type=float, default=None, help="add-alpha smoothing (default: schema option)")
    p.add_argument("--cross-fit", action="store_true", help="split-sample evaluation instead of in-sample")
    p.add_argument("--out", default=None, help="write result document here")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_gain)

    p = sub.add_parser("shapley", help="per-signal attribution of gain over a ground set")
    add_io(p)
    p.add_argument("--ground", required=True, help="comma-separated variable names, or 'none'")
    p.add_argument("--signals", default=None, help="subset of signals to attribute (default: all)")
    p.add_argument("--sampled", type=int, default=None, metavar="P", help="Monte Carlo with P permutations")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_shapley)

    p = sub.add_parser("bootstrap", help="bootstrap distributions of gains and Shapley values")
    add_io(p)
    p.add_argument("--replicates", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--gain", action="append", metavar="V1:GROUND", help="gain statistic (repeatable)")
    p.add_argument("--shapley", action="append", metavar="GROUND", help="Shapley statistic (repeatable)")
    p.add_argument("--spec", default=None, help="JSON file with replicates/seed/statistics")
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_bootstrap)

    p = sub.add_parser("report", help="render bootstrap results as an SVG distribution chart")
    p.add_argument("--results", nargs="+", required=True, help="bootstrap result JSON files")
    p.add_argument("--axis", default=None, metavar="LO:HI", help="minimum axis range in payoff units")
    p.add_argument("--out", required=True, help="output SVG path")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("synth", help="generate a synthetic dataset CSV + schema JSON")
    p.add_argument("--preset", choices=("xor", "deepfake"), required=True)
    p.add_argument("--rows", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except IO_ERRORS as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON input: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (InfoGainError, ValueError, IndexError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
