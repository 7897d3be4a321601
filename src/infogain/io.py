"""Dataset and schema ingestion, and result serialization.

The schema is a separate JSON document, never inferred from data: state,
signal, and decision-column roles are semantically different and silent
inference would guess wrong.  Dataset cells are mapped to declared domain
values by exact match only; in particular numeric decision values must hit a
declared grid point exactly (no rounding).

Result documents are versioned JSON with stable key ordering, full float
precision, and provenance (input hashes, seed, smoothing, mode flags), so
identical runs produce byte-identical files.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Union

import numpy as np

from .bootstrap import BootstrapResult, StatResult, set_label
from .errors import ValidationError
from .joint import Dataset
from .model import (
    BasicSignal,
    DecisionColumn,
    DecisionProblem,
    DecisionSpace,
    PayoffFunction,
    ROLES,
    SignalSchema,
    StateSpace,
    validate_problem,
    validate_schema,
)
from .rational import GainValue
from .shapley import ShapleyReport

FORMAT_VERSION = 1
MISSING_POLICIES = ("error", "drop")


@dataclass(frozen=True)
class SchemaConfig:
    """Validated schema document: column layout, domains, payoff, and options."""

    state_column: str
    states: StateSpace
    schema: SignalSchema
    problem: DecisionProblem
    smoothing: float = 0.0
    decision_bins: int | None = None
    missing: str = "error"


@dataclass(frozen=True)
class Provenance:
    """Reproducibility stamp attached to result documents."""

    schema_sha256: str | None = None
    data_sha256: str | None = None
    seed: int | None = None
    alpha: float | None = None
    tool_version: str | None = None
    flags: dict = field(default_factory=dict)

    def to_doc(self) -> dict:
        return {
            "schema_sha256": self.schema_sha256,
            "data_sha256": self.data_sha256,
            "seed": self.seed,
            "alpha": self.alpha,
            "tool_version": self.tool_version,
            "flags": dict(sorted(self.flags.items())),
        }


def file_sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def fraction_to_str(value: Fraction) -> str:
    """Shortest exact decimal if one exists, else 'p/q'; parseable by Fraction()."""
    den = value.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return f"{value.numerator}/{value.denominator}"
    digits = max(twos, fives)
    if digits == 0:
        return str(value.numerator)
    scaled = value.numerator * 10**digits // value.denominator
    sign = "-" if scaled < 0 else ""
    text = str(abs(scaled)).rjust(digits + 1, "0")
    return f"{sign}{text[:-digits]}.{text[-digits:]}"


def domain_value_str(value) -> str:
    return fraction_to_str(value) if isinstance(value, Fraction) else str(value)


def _require(doc: dict, key: str, path: str):
    if key not in doc:
        raise ValidationError(f"{path}.{key}: missing required field", path=f"{path}.{key}")
    return doc[key]


def _parse_grid(doc: dict, path: str) -> DecisionSpace:
    if "points" in doc:
        try:
            points = [Fraction(str(p)) for p in doc["points"]]
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"{path}.points: not a numeric value ({exc})", path=f"{path}.points") from None
        return DecisionSpace.numeric(points)
    count = _require(doc, "count", path)
    if not isinstance(count, int) or count < 2:
        raise ValidationError(f"{path}.count: must be an integer >= 2", path=f"{path}.count")
    start = Fraction(str(doc.get("start", "0")))
    stop = Fraction(str(doc.get("stop", "1")))
    return DecisionSpace.uniform_grid(start, stop, count)


def _parse_payoff(doc: dict, path: str) -> tuple[DecisionSpace, PayoffFunction]:
    kind = _require(doc, "kind", path)
    if kind == "brier":
        grid = _parse_grid(doc["grid"], f"{path}.grid") if "grid" in doc else DecisionSpace.percent_grid()
        return grid, PayoffFunction.brier()
    if kind == "matrix":
        rows = _require(doc, "rows", path)
        if not rows or not all(isinstance(r, list) for r in rows):
            raise ValidationError(f"{path}.rows: must be a non-empty list of rows", path=f"{path}.rows")
        labels = doc.get("decisions", [f"d{i}" for i in range(len(rows))])
        if len(labels) != len(rows):
            raise ValidationError(
                f"{path}.decisions: {len(labels)} labels for {len(rows)} matrix rows", path=f"{path}.decisions"
            )
        return DecisionSpace.categorical(labels), PayoffFunction.from_matrix(rows)
    raise ValidationError(f"{path}.kind: unknown payoff kind {kind!r}", path=f"{path}.kind")


def load_schema(path) -> SchemaConfig:
    """Parse and validate a schema document; raises ValidationError with a field path."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"schema: not valid JSON ({exc})", path="") from None
    return parse_schema_doc(doc)


def parse_schema_doc(doc: dict) -> SchemaConfig:
    if not isinstance(doc, dict):
        raise ValidationError("schema: top level must be an object", path="")
    state_doc = _require(doc, "state", "schema")
    state_column = _require(state_doc, "column", "state")
    labels = _require(state_doc, "labels", "state")
    states = StateSpace.of(labels)

    signals = []
    for i, sig in enumerate(doc.get("signals", [])):
        column = _require(sig, "column", f"signals[{i}]")
        values = _require(sig, "values", f"signals[{i}]")
        if len(set(values)) != len(values):
            raise ValidationError(f"signals[{i}].values: duplicate value", path=f"signals[{i}].values")
        signals.append(BasicSignal(str(column), tuple(str(v) for v in values)))

    decisions = []
    for i, dec in enumerate(doc.get("decisions", [])):
        column = _require(dec, "column", f"decisions[{i}]")
        role = dec.get("role", "other")
        if role not in ROLES:
            raise ValidationError(f"decisions[{i}].role: {role!r} not in {ROLES}", path=f"decisions[{i}].role")
        if "grid" in dec and "values" in dec:
            raise ValidationError(
                f"decisions[{i}]: declare either grid or values, not both", path=f"decisions[{i}]"
            )
        if "grid" in dec:
            domain = tuple(_parse_grid(dec["grid"], f"decisions[{i}].grid").points)
        else:
            values = _require(dec, "values", f"decisions[{i}]")
            if len(set(values)) != len(values):
                raise ValidationError(f"decisions[{i}].values: duplicate value", path=f"decisions[{i}].values")
            domain = tuple(str(v) for v in values)
        decisions.append(DecisionColumn(str(column), role, domain))

    schema = SignalSchema(signals=tuple(signals), decisions=tuple(decisions))
    grid, payoff = _parse_payoff(_require(doc, "payoff", "schema"), "payoff")
    problem = DecisionProblem(states=states, decisions=grid, payoff=payoff)

    options = doc.get("options", {})
    smoothing = float(options.get("smoothing", 0.0))
    if smoothing < 0:
        raise ValidationError("options.smoothing: must be non-negative", path="options.smoothing")
    decision_bins = options.get("decision_bins")
    if decision_bins is not None and (not isinstance(decision_bins, int) or decision_bins < 2):
        raise ValidationError("options.decision_bins: must be an integer >= 2", path="options.decision_bins")
    missing = options.get("missing", "error")
    if missing not in MISSING_POLICIES:
        raise ValidationError(f"options.missing: {missing!r} not in {MISSING_POLICIES}", path="options.missing")

    columns = [state_column] + [e.name for e in schema.entries]
    dupes = {c for c in columns if columns.count(c) > 1}
    if dupes:
        raise ValidationError(f"schema: duplicate column name(s) {sorted(dupes)}", path="")

    for diag in validate_schema(schema) + validate_problem(problem):
        if diag.severity == "error":
            raise ValidationError(f"schema: {diag.code}: {diag.message}", path=diag.code)

    return SchemaConfig(
        state_column=str(state_column),
        states=states,
        schema=schema,
        problem=problem,
        smoothing=smoothing,
        decision_bins=decision_bins,
        missing=missing,
    )


def schema_to_doc(cfg: SchemaConfig) -> dict:
    signals = [{"column": s.name, "values": list(s.domain)} for s in cfg.schema.signals]
    decisions = []
    for d in cfg.schema.decisions:
        if all(isinstance(v, Fraction) for v in d.domain) and d.domain:
            decisions.append({"column": d.name, "role": d.role, "grid": {"points": [fraction_to_str(v) for v in d.domain]}})
        else:
            decisions.append({"column": d.name, "role": d.role, "values": [str(v) for v in d.domain]})
    if cfg.problem.payoff.kind == "brier":
        payoff = {"kind": "brier", "grid": {"points": [fraction_to_str(v) for v in cfg.problem.decisions.points]}}
    else:
        payoff = {
            "kind": "matrix",
            "rows": [list(row) for row in cfg.problem.payoff.matrix],
            "decisions": [str(p) for p in cfg.problem.decisions.points],
        }
    return {
        "state": {"column": cfg.state_column, "labels": list(cfg.states.labels)},
        "signals": signals,
        "decisions": decisions,
        "payoff": payoff,
        "options": {"smoothing": cfg.smoothing, "decision_bins": cfg.decision_bins, "missing": cfg.missing},
    }


def write_schema(cfg: SchemaConfig, path) -> None:
    Path(path).write_text(json.dumps(schema_to_doc(cfg), indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _bin_domain(domain: tuple, bins: int) -> tuple[tuple, dict[int, int]]:
    """Equal-width bins over a numeric domain: (bin-center domain, index map)."""
    lo, hi = domain[0], domain[-1]
    width = (hi - lo) / bins
    centers = tuple(lo + width * Fraction(2 * k + 1, 2) for k in range(bins))
    mapping = {}
    for i, v in enumerate(domain):
        k = int((v - lo) / width) if width > 0 else 0
        mapping[i] = min(k, bins - 1)
    return centers, mapping


def load_dataset(path, cfg: SchemaConfig) -> Dataset:
    """Load a CSV against the schema, mapping labels/values to domain indices.

    Numeric decision cells parse as exact rationals and must equal a declared
    grid point.  Missing cells ("" after stripping) follow the schema's policy.
    With decision binning, numeric decision columns are re-domained to bin
    centers after exact matching.
    """
    entries = list(cfg.schema.entries)
    wanted = [cfg.state_column] + [e.name for e in entries]

    lookups: list[dict] = [{label: i for i, label in enumerate(cfg.states.labels)}]
    for e in entries:
        if all(isinstance(v, Fraction) for v in e.domain) and e.domain:
            lookups.append({v: i for i, v in enumerate(e.domain)})
        else:
            lookups.append({str(v): i for i, v in enumerate(e.domain)})

    rows = []
    dropped = 0
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError("dataset: file has no header row", path="") from None
        header = [h.strip() for h in header]
        dupes = sorted({h for h in header if header.count(h) > 1})
        if dupes:
            raise ValidationError(f"dataset: duplicate column(s) {dupes}", path=",".join(dupes))
        unknown = [h for h in header if h not in wanted]
        if unknown:
            raise ValidationError(f"dataset: unknown column(s) {unknown}", path=",".join(unknown))
        missing_cols = [c for c in wanted if c not in header]
        if missing_cols:
            raise ValidationError(f"dataset: missing column(s) {missing_cols}", path=",".join(missing_cols))
        col_pos = [header.index(c) for c in wanted]

        for lineno, record in enumerate(reader, start=2):
            if len(record) != len(header):
                raise ValidationError(
                    f"dataset row {lineno}: expected {len(header)} cells, got {len(record)}", path=f"row {lineno}"
                )
            out = []
            bad = None
            for col_name, pos, lookup, entry in zip(wanted, col_pos, lookups, [None] + entries):
                cell = record[pos].strip()
                if cell == "":
                    bad = ("missing", col_name)
                    break
                key = cell
                if entry is not None and isinstance(next(iter(lookup)), Fraction):
                    try:
                        key = Fraction(cell)
                    except (ValueError, ZeroDivisionError):
                        bad = ("value", col_name)
                        break
                if key not in lookup:
                    bad = ("value", col_name)
                    break
                out.append(lookup[key])
            if bad is None:
                rows.append(out)
            elif bad[0] == "missing" and cfg.missing == "drop":
                dropped += 1
            elif bad[0] == "missing":
                raise ValidationError(f"dataset row {lineno}, column {bad[1]!r}: missing value", path=f"row {lineno}")
            else:
                cell = record[col_pos[wanted.index(bad[1])]]
                raise ValidationError(
                    f"dataset row {lineno}, column {bad[1]!r}: value {cell!r} not in the declared domain",
                    path=f"row {lineno}",
                )
    if not rows:
        raise ValidationError("dataset: no rows left after parsing", path="")

    arr = np.array(rows, dtype=np.int64)
    schema = cfg.schema
    if cfg.decision_bins:
        new_decisions = []
        for j, dec in enumerate(cfg.schema.decisions):
            if not (dec.domain and all(isinstance(v, Fraction) for v in dec.domain)):
                new_decisions.append(dec)
                continue
            centers, mapping = _bin_domain(dec.domain, cfg.decision_bins)
            col = 1 + len(cfg.schema.signals) + j
            remap = np.array([mapping[i] for i in range(len(dec.domain))], dtype=np.int64)
            arr[:, col] = remap[arr[:, col]]
            new_decisions.append(DecisionColumn(dec.name, dec.role, centers))
        schema = SignalSchema(signals=cfg.schema.signals, decisions=tuple(new_decisions))

    return Dataset(
        states=cfg.states,
        schema=schema,
        rows=arr,
        state_name=cfg.state_column,
        dropped_rows=dropped,
    )


def write_dataset(data: Dataset, path) -> None:
    """Write a dataset back to CSV using domain labels/values."""
    header = [data.state_name] + list(data.schema.names)
    domains = [list(data.states.labels)] + [list(e.domain) for e in data.schema.entries]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in data.rows:
            writer.writerow([domain_value_str(domains[j][int(v)]) for j, v in enumerate(row)])


# --- result documents -------------------------------------------------------


def _gain_doc(g: GainValue) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "gain",
        "value": g.value,
        "raw": g.raw,
        "v1": list(g.v1),
        "ground": list(g.ground),
    }


def _shapley_doc(r: ShapleyReport) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "shapley",
        "signals": list(r.signals),
        "values": {s: v for s, v in zip(r.signals, r.values)},
        "ground": list(r.ground),
        "method": r.method,
        "total_gain": r.total_gain,
        "permutations": r.permutations,
        "seed": r.seed,
        "standard_errors": (
            {s: e for s, e in zip(r.signals, r.standard_errors)} if r.standard_errors is not None else None
        ),
        "label": r.label,
    }


def _bootstrap_doc(r: BootstrapResult) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "bootstrap",
        "replicates": r.replicates,
        "seed": r.seed,
        "alpha": r.alpha,
        "statistics": [
            {
                "name": s.name,
                "kind": s.kind,
                "signal": s.signal,
                "v1": list(s.v1) if s.v1 is not None else None,
                "ground": list(s.ground),
                "ground_role": s.ground_role,
                "mean": s.mean,
                "sd": s.sd,
                "quantiles": s.quantiles,
                "samples": list(s.samples),
            }
            for s in r.statistics
        ],
    }


Result = Union[GainValue, ShapleyReport, BootstrapResult]


def result_doc(obj: Result, provenance: Provenance | None = None) -> dict:
    if isinstance(obj, GainValue):
        doc = _gain_doc(obj)
    elif isinstance(obj, ShapleyReport):
        doc = _shapley_doc(obj)
    elif isinstance(obj, BootstrapResult):
        doc = _bootstrap_doc(obj)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    doc["provenance"] = provenance.to_doc() if provenance else None
    return doc


def _result_csv_rows(obj: Result) -> list[list]:
    header = ["statistic", "kind", "signal", "v1", "ground", "ground_role", "value", "sd",
              "q2.5", "q25", "q50", "q75", "q97.5"]
    rows: list[list] = [header]
    if isinstance(obj, GainValue):
        rows.append([f"gain({set_label(obj.v1)};{set_label(obj.ground)})", "gain", "",
                     ",".join(obj.v1), ",".join(obj.ground), "", repr(obj.value), "", "", "", "", "", ""])
    elif isinstance(obj, ShapleyReport):
        for s, v in zip(obj.signals, obj.values):
            rows.append([f"shapley(ground={set_label(obj.ground)}).{s}", "shapley", s, "",
                         ",".join(obj.ground), "", repr(v), "", "", "", "", "", ""])
    elif isinstance(obj, BootstrapResult):
        for s in obj.statistics:
            rows.append([
                s.name, s.kind, s.signal or "", ",".join(s.v1 or ()), ",".join(s.ground), s.ground_role,
                repr(s.mean), repr(s.sd),
                repr(s.quantiles["2.5"]), repr(s.quantiles["25"]), repr(s.quantiles["50"]),
                repr(s.quantiles["75"]), repr(s.quantiles["97.5"]),
            ])
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    return rows


def write_results(obj: Result, path, fmt: str = "json", provenance: Provenance | None = None) -> None:
    """Write a result document; JSON is byte-deterministic for identical inputs."""
    path = Path(path)
    if fmt == "json":
        path.write_text(json.dumps(result_doc(obj, provenance), indent=2, sort_keys=True) + "\n", encoding="utf-8")
    elif fmt == "csv":
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(_result_csv_rows(obj))
    else:
        raise ValueError(f"unknown results format {fmt!r}")


def read_results(path) -> tuple[Result, dict]:
    """Reload a JSON result document; returns (object, full document)."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(doc, dict) or doc.get("format_version") != FORMAT_VERSION:
        raise ValidationError(f"results {path}: missing or unsupported format_version", path="format_version")
    kind = doc.get("kind")
    if kind == "gain":
        obj: Result = GainValue(value=doc["value"], raw=doc["raw"], v1=tuple(doc["v1"]), ground=tuple(doc["ground"]))
    elif kind == "shapley":
        signals = tuple(doc["signals"])
        errs = doc.get("standard_errors")
        obj = ShapleyReport(
            signals=signals,
            values=tuple(doc["values"][s] for s in signals),
            ground=tuple(doc["ground"]),
            method=doc["method"],
            total_gain=doc["total_gain"],
            permutations=doc.get("permutations"),
            seed=doc.get("seed"),
            standard_errors=tuple(errs[s] for s in signals) if errs else None,
            label=doc.get("label"),
        )
    elif kind == "bootstrap":
        stats = tuple(
            StatResult(
                name=s["name"],
                kind=s["kind"],
                signal=s.get("signal"),
                v1=tuple(s["v1"]) if s.get("v1") is not None else None,
                ground=tuple(s["ground"]),
                ground_role=s["ground_role"],
                samples=tuple(s["samples"]),
                mean=s["mean"],
                sd=s["sd"],
                quantiles=dict(s["quantiles"]),
            )
            for s in doc["statistics"]
        )
        obj = BootstrapResult(replicates=doc["replicates"], seed=doc["seed"], alpha=doc["alpha"], statistics=stats)
    else:
        raise ValidationError(f"results {path}: unknown kind {kind!r}", path="kind")
    return obj, doc
