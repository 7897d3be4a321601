"""Command-line surface: validate, gain, shapley, bootstrap, report, synth.

``cmdline`` parses the arguments and calls the ``cmd_<subcommand>`` handler
here; ``main`` and ``build_parser`` are re-exported from it.  Exit codes are
a stable contract: 0 success, 1 domain/validation error, 2 I/O failure.
Variable sets are given by name, comma-separated, with "none"
for the empty set.  Every randomized command takes --seed and defaults to 0;
nothing reads wall-clock entropy.  Each command that writes an output also
writes a run manifest alongside it, which records the command line as ``argv``:
``main(doc["argv"])`` replays the run.  A command writes every file before it
prints, so a closed standard output (exit 2) loses none of them.
"""

from __future__ import annotations

import json
import platform
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .bootstrap import BootstrapSpec, GainStat, ShapleyStat, bootstrap_run, set_label
from .cmdline import EXIT_OK, build_parser, main  # noqa: F401  (re-exported)
from .errors import ValidationError
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


def _write_manifest(args, input_hashes: dict, out_path) -> None:
    """Write ``<out_path>.manifest.json``: the ``argv`` that ``main`` replays, the parsed flags, input hashes and
    the numpy and Python versions, for which byte-identical replays are promised (see README)."""
    doc = {
        "argv": args.argv,
        "subcommand": args.subcommand,
        "arguments": {k: v for k, v in vars(args).items() if k not in ("argv", "subcommand")},
        "input_hashes": input_hashes,
        "tool_version": __version__,
        "numpy_version": np.__version__,
        "python_version": platform.python_version(),
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }
    path = Path(str(out_path) + ".manifest.json")
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


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
    if args.out:
        _write_outputs(args, gain, alpha=alpha, cross_fit=bool(args.cross_fit), decision_bins=cfg.decision_bins)
    print(f"gain({set_label(gain.v1)}; {set_label(gain.ground)}) = {gain.value!r}")
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
    if args.out:
        _write_outputs(args, report, seed=args.seed if sampled else None, alpha=alpha,
                       sampled=args.sampled or 0, decision_bins=cfg.decision_bins)
    for name, value in zip(report.signals, report.values):
        print(f"phi({name}) = {value!r}")
    print(f"total gain over ground = {report.total_gain!r}")
    return EXIT_OK


def _bootstrap_spec(args, schema: SignalSchema) -> BootstrapSpec:
    if args.spec:
        for flag, given in (("--gain", args.gain), ("--shapley", args.shapley)):
            if given:
                raise ValidationError(f"{flag}: cannot be combined with --spec; list the statistic in the spec",
                                      path=flag)
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
    result = bootstrap_run(data, cfg.problem, spec, alpha=alpha)
    _write_outputs(args, result, seed=spec.seed, alpha=alpha, replicates=spec.replicates,
                   resampling="rows", decision_bins=cfg.decision_bins)
    print(summary_table(result))
    return EXIT_OK


def cmd_report(args) -> int:
    results = []
    for path in args.results:
        obj, _ = read_results(path)
        if not hasattr(obj, "statistics"):
            raise ValidationError(f"{path}: not a bootstrap result document", path="kind")
        results.append(obj)
    spec = build_plot_spec(results, axis=args.axis)
    Path(args.out).write_bytes(render_svg(spec))
    hashes = {f"results[{i}]": file_sha256(p) for i, p in enumerate(args.results)}
    _write_manifest(args, hashes, args.out)
    print(f"wrote {args.out}")
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
    _write_manifest(args, {}, out_dir / "synth")
    print(f"wrote {data_path} and {schema_path}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
