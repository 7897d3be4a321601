import csv
import hashlib
import io
import json
import re
import signal
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import infogain.io
from infogain.bootstrap import BootstrapSpec, GainStat, bootstrap_run
from infogain.errors import ValidationError
from infogain.io import (
    Provenance,
    SchemaConfig,
    _bin_domain,
    domain_value_str,
    file_sha256,
    fraction_to_str,
    load_dataset,
    load_schema,
    parse_schema_doc,
    read_results,
    schema_to_doc,
    write_dataset,
    write_results,
    write_schema,
)
from infogain.joint import Dataset
from infogain.model import BasicSignal, DecisionColumn, SignalSchema, StateSpace, is_numeric_domain
from infogain.rational import GainValue, information_gain
from infogain.joint import estimate_joint
from infogain.shapley import shapley_exact, shapley_sampled
from infogain.synth import make_deepfake_dataset, generate_dataset

from cases import deadline

MINIMAL_SCHEMA = {
    "state": {"column": "state", "labels": ["0", "1"]},
    "signals": [{"column": "x", "values": ["0", "1"]}],
    "decisions": [],
    "payoff": {"kind": "brier"},
}


def write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_load_minimal_schema(tmp_path):
    cfg = load_schema(write_json(tmp_path / "s.json", MINIMAL_SCHEMA))
    assert cfg.state_column == "state"
    assert cfg.schema.signal_names == ("x",)
    assert cfg.problem.decisions.size == 101
    assert cfg.smoothing == 0.0 and cfg.missing == "error"


def test_duplicate_column_across_sections(tmp_path):
    doc = dict(MINIMAL_SCHEMA)
    doc["decisions"] = [{"column": "x", "role": "human", "values": ["0", "1"]}]
    with pytest.raises(ValidationError, match="duplicate column"):
        load_schema(write_json(tmp_path / "s.json", doc))


@pytest.mark.parametrize("field, value, code", [
    ("payoff", {"kind": "matrix", "rows": [[0.0, 1.0, 2.0], [1.0, 0.0, 2.0]]}, "matrix-dimension-mismatch"),
    ("state", {"column": "state", "labels": ["0"]}, "state-space-too-small"),
    # 1/2 and 0.5 are one grid point
    ("decisions", [{"column": "d", "role": "human", "grid": {"points": ["0.5", "1/2", "1"]}}],
     "domain-values-duplicate"),
], ids=["matrix-dimension-mismatch", "state-space-too-small", "domain-values-duplicate"])
def test_matrix_dimension_mismatch(tmp_path, field, value, code):
    # a problem or schema the model's validators refuse, named by its diagnostic code
    doc = dict(MINIMAL_SCHEMA)
    doc[field] = value
    with pytest.raises(ValidationError, match=f"^schema: {code}: "):
        load_schema(write_json(tmp_path / "s.json", doc))


def test_duplicate_signal_values_named_with_path(tmp_path):
    doc = dict(MINIMAL_SCHEMA)
    doc["signals"] = [{"column": "x", "values": ["0", "0"]}]
    with pytest.raises(ValidationError, match=r"signals\[0\].values"):
        load_schema(write_json(tmp_path / "s.json", doc))


def test_decision_with_both_grid_and_values_rejected(tmp_path):
    doc = dict(MINIMAL_SCHEMA)
    doc["decisions"] = [{"column": "d", "role": "human", "grid": {"count": 11}, "values": ["a"]}]
    with pytest.raises(ValidationError, match="not both"):
        load_schema(write_json(tmp_path / "s.json", doc))


def _with_grid(grid, where):
    doc = dict(MINIMAL_SCHEMA)
    if where == "decisions[0].grid":
        doc["decisions"] = [{"column": "d", "role": "human", "grid": grid}]
    else:
        doc["payoff"] = {"kind": "brier", "grid": grid}
    return doc


@pytest.mark.parametrize("where", ["decisions[0].grid", "payoff.grid"])
@pytest.mark.parametrize("key", ["count", "points"])
def test_grid_above_the_point_limit_fails_before_any_point_is_built(monkeypatch, where, key):
    size = infogain.io.GRID_POINT_LIMIT + 1
    grid = {"count": size} if key == "count" else {"points": [str(k) for k in range(size)]}

    def refuse(*args):
        raise AssertionError("a grid point was built")

    monkeypatch.setattr(infogain.io, "_fraction", refuse)
    with pytest.raises(ValidationError, match=re.escape(f"{where}.{key}: {size} grid points exceed the limit")) as err:
        parse_schema_doc(_with_grid(grid, where))
    assert err.value.path == f"{where}.{key}"


@pytest.mark.parametrize("where", ["decisions[0].grid", "payoff.grid"])
def test_grid_at_the_point_limit_loads(where):
    cfg = parse_schema_doc(_with_grid({"count": infogain.io.GRID_POINT_LIMIT}, where))
    sizes = {"decisions[0].grid": len(cfg.schema.decisions[0].domain) if cfg.schema.decisions else 0,
             "payoff.grid": cfg.problem.decisions.size}
    assert sizes[where] == infogain.io.GRID_POINT_LIMIT


@pytest.mark.parametrize("section, key, path", [("state", "labels", "state.labels"),
                                                ("payoff", "decisions", "payoff.decisions")])
def test_label_lists_must_be_lists(tmp_path, section, key, path):
    doc = dict(MINIMAL_SCHEMA)
    doc["payoff"] = {"kind": "matrix", "rows": [[1.0, 0.0], [0.0, 1.0]], "decisions": ["a", "b"]}
    doc[section] = dict(doc[section], **{key: "ab"})  # a string would otherwise be split into labels
    with pytest.raises(ValidationError, match=f"{re.escape(path)}: must be a list"):
        load_schema(write_json(tmp_path / "s.json", doc))


def test_malformed_json_is_validation_error(tmp_path):
    path = tmp_path / "s.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ValidationError, match="not valid JSON"):
        load_schema(path)


def _schema_with_grid_decision(tmp_path, **options):
    doc = dict(MINIMAL_SCHEMA)
    doc["decisions"] = [{"column": "d", "role": "human", "grid": {"count": 101}}]
    if options:
        doc["options"] = options
    return load_schema(write_json(tmp_path / "s.json", doc))


def test_load_three_row_dataset(tmp_path):
    cfg = load_schema(write_json(tmp_path / "s.json", MINIMAL_SCHEMA))
    csv_path = tmp_path / "d.csv"
    csv_path.write_text("state,x\n0,1\n1,0\n1,1\n", encoding="utf-8")
    data = load_dataset(csv_path, cfg)
    assert data.n_rows == 3
    assert data.rows.tolist() == [[0, 1], [1, 0], [1, 1]]


def test_utf8_bom_before_the_header_is_accepted(tmp_path):
    cfg = load_schema(write_json(tmp_path / "s.json", MINIMAL_SCHEMA))
    csv_path = tmp_path / "d.csv"
    csv_path.write_bytes(b"\xef\xbb\xbfstate,x\r\n0,1\r\n1,0\r\n")
    assert load_dataset(csv_path, cfg).rows.tolist() == [[0, 1], [1, 0]]


def test_trailing_empty_records_are_ignored(tmp_path):
    cfg = load_schema(write_json(tmp_path / "s.json", MINIMAL_SCHEMA))
    csv_path = tmp_path / "d.csv"
    csv_path.write_text("state,x\n0,1\n1,0\n\n\r\n\n", encoding="utf-8")
    assert load_dataset(csv_path, cfg).rows.tolist() == [[0, 1], [1, 0]]


def test_blank_line_between_rows_names_its_row(tmp_path):
    cfg = load_schema(write_json(tmp_path / "s.json", MINIMAL_SCHEMA))
    csv_path = tmp_path / "d.csv"
    csv_path.write_text("state,x\n0,1\n\n\n1,0\n\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="row 3: expected 2 cells, got 0"):
        load_dataset(csv_path, cfg)


def test_unmappable_value_names_row_and_column(tmp_path):
    cfg = load_schema(write_json(tmp_path / "s.json", MINIMAL_SCHEMA))
    csv_path = tmp_path / "d.csv"
    csv_path.write_text("state,x\n0,1\n0,maybe\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="row 3.*'x'.*'maybe'"):
        load_dataset(csv_path, cfg)


def test_off_grid_decision_value_is_rejected(tmp_path):
    cfg = _schema_with_grid_decision(tmp_path)
    csv_path = tmp_path / "d.csv"
    csv_path.write_text("state,x,d\n0,1,0.50\n1,0,0.505\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="row 3.*'d'.*0.505"):
        load_dataset(csv_path, cfg)


def test_unknown_missing_and_duplicate_columns(tmp_path):
    cfg = load_schema(write_json(tmp_path / "s.json", MINIMAL_SCHEMA))
    bad = tmp_path / "d.csv"
    bad.write_text("state,x,extra\n0,1,9\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="unknown column"):
        load_dataset(bad, cfg)
    bad.write_text("state\n0\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="missing column"):
        load_dataset(bad, cfg)
    bad.write_text("state,x,x\n0,1,1\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="duplicate column"):
        load_dataset(bad, cfg)


def test_missing_value_policy_error_and_drop(tmp_path):
    csv_path = tmp_path / "d.csv"
    csv_path.write_text("state,x\n0,\n1,1\n", encoding="utf-8")
    strict = load_schema(write_json(tmp_path / "s1.json", MINIMAL_SCHEMA))
    with pytest.raises(ValidationError, match="missing value"):
        load_dataset(csv_path, strict)
    doc = dict(MINIMAL_SCHEMA)
    doc["options"] = {"missing": "drop"}
    lenient = load_schema(write_json(tmp_path / "s2.json", doc))
    data = load_dataset(csv_path, lenient)
    assert data.n_rows == 1 and data.dropped_rows == 1


def test_empty_after_drops_is_error(tmp_path):
    doc = dict(MINIMAL_SCHEMA)
    doc["options"] = {"missing": "drop"}
    cfg = load_schema(write_json(tmp_path / "s.json", doc))
    csv_path = tmp_path / "d.csv"
    csv_path.write_text("state,x\n0,\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="no rows"):
        load_dataset(csv_path, cfg)


def test_decision_binning(tmp_path):
    cfg = _schema_with_grid_decision(tmp_path, decision_bins=2)
    csv_path = tmp_path / "d.csv"
    csv_path.write_text("state,x,d\n0,0,0.00\n0,1,0.26\n1,0,0.49\n1,1,0.51\n1,1,1.00\n", encoding="utf-8")
    data = load_dataset(csv_path, cfg)
    dec = data.schema.decisions[0]
    assert dec.domain == (Fraction(1, 4), Fraction(3, 4))
    col = data.rows[:, data.schema.position("d") + 1]
    assert col.tolist() == [0, 0, 0, 1, 1]


def test_dataset_roundtrip_is_lossless(tmp_path):
    data, problem = make_deepfake_dataset(n_rows=150, seed=5)
    cfg = SchemaConfig(state_column=data.state_name, schema=data.schema, problem=problem)
    csv_path, schema_path = tmp_path / "d.csv", tmp_path / "s.json"
    write_dataset(data, csv_path)
    write_schema(cfg, schema_path)
    reloaded = load_dataset(csv_path, load_schema(schema_path))
    assert np.array_equal(reloaded.rows, data.rows)
    assert reloaded.schema == data.schema


def test_results_json_roundtrip_gain(tmp_path, xor_joint, brier):
    gain = information_gain(xor_joint, brier, ["s1", "s2"])
    path = tmp_path / "g.json"
    write_results(gain, path, provenance=Provenance(seed=0, alpha=0.0))
    obj, doc = read_results(path)
    assert obj == gain
    assert doc["provenance"]["alpha"] == 0.0


def test_results_json_roundtrip_shapley(tmp_path, xor_joint, brier):
    report = shapley_exact(xor_joint, brier)
    path = tmp_path / "r.json"
    write_results(report, path)
    obj, _ = read_results(path)
    assert obj == report


def test_results_json_roundtrip_bootstrap(tmp_path, xor_joint, brier):
    data = generate_dataset(xor_joint, brier, n_rows=50, seed=0)
    result = bootstrap_run(data, brier, BootstrapSpec(replicates=4, statistics=(GainStat(v1=("s1",)),)))
    path = tmp_path / "b.json"
    write_results(result, path)
    obj, _ = read_results(path)
    assert obj == result


def test_result_writes_are_byte_identical(tmp_path, xor_joint, brier):
    report = shapley_exact(xor_joint, brier)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    prov = Provenance(seed=1, alpha=0.0, tool_version="x")
    write_results(report, p1, provenance=prov)
    write_results(report, p2, provenance=prov)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("size", [0, 1, (1 << 20) + 3])
def test_file_sha256_is_the_digest_of_the_whole_file(tmp_path, size):
    data = bytes(range(256)) * (size // 256) + bytes(size % 256)
    path = tmp_path / "f.bin"
    path.write_bytes(data)
    assert file_sha256(path) == hashlib.sha256(data).hexdigest()


# Format 1 of each result document: its top-level keys, and the keys of its parts.
RESULT_KEYS = {
    "gain": {"format_version", "kind", "provenance", "value", "raw", "v1", "ground"},
    "shapley": {"format_version", "kind", "provenance", "signals", "values", "ground", "method", "total_gain",
                "permutations", "seed", "standard_errors", "label"},
    "bootstrap": {"format_version", "kind", "provenance", "replicates", "seed", "alpha", "statistics"},
}
STATISTIC_KEYS = {"name", "kind", "signal", "v1", "ground", "ground_role", "mean", "sd", "quantiles", "samples"}
PROVENANCE_KEYS = {"schema_sha256", "data_sha256", "seed", "alpha", "tool_version", "flags"}


def test_result_documents_hold_exactly_the_keys_of_format_1(tmp_path, xor_joint, brier):
    data = generate_dataset(xor_joint, brier, n_rows=50, seed=0)
    results = {
        "gain": information_gain(xor_joint, brier, ["s1", "s2"]),
        "exact shapley": shapley_exact(xor_joint, brier),
        "sampled shapley": shapley_sampled(xor_joint, brier, permutations=5, seed=2),
        "bootstrap": bootstrap_run(data, brier, BootstrapSpec(replicates=3, statistics=(GainStat(v1=("s1",)),))),
    }
    prov = Provenance(schema_sha256="a", data_sha256="b", seed=1, alpha=0.0, tool_version="x", flags={"f": 1})
    for what, result in results.items():
        path = tmp_path / "r.json"
        write_results(result, path, provenance=prov)
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert doc["format_version"] == 1, what
        assert set(doc) == RESULT_KEYS[doc["kind"]], what
        assert set(doc["provenance"]) == PROVENANCE_KEYS and doc["provenance"]["flags"] == {"f": 1}, what
    assert doc["kind"] == "bootstrap" and [set(s) for s in doc["statistics"]] == [STATISTIC_KEYS]
    assert set(doc["statistics"][0]["quantiles"]) == {"2.5", "25", "50", "75", "97.5"}

    sampled = results["sampled shapley"]
    write_results(sampled, path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert doc["provenance"] is None
    assert doc["values"] == dict(zip(sampled.signals, sampled.values))
    assert doc["standard_errors"] == dict(zip(sampled.signals, sampled.standard_errors))
    write_results(results["exact shapley"], path)
    assert json.loads(path.read_text(encoding="utf-8"))["standard_errors"] is None


def test_shapley_csv_has_one_row_per_signal(tmp_path):
    data, problem = make_deepfake_dataset(n_rows=100, seed=2)
    report = shapley_exact(estimate_joint(data), problem, ground=["human"])
    path = tmp_path / "r.csv"
    write_results(report, path, fmt="csv")
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 1 + 7


def test_gain_csv_label_sorts_like_bootstrap_stat_names(tmp_path):
    gain = GainValue(value=0.25, raw=0.25, v1=("s2", "s1"), ground=())
    path = tmp_path / "g.csv"
    write_results(gain, path, fmt="csv")
    with open(path, newline="", encoding="utf-8") as fh:
        label = list(csv.reader(fh))[1][0]
    assert label == GainStat(v1=("s2", "s1")).name == "gain(s1,s2;none)"


def test_fraction_to_str_roundtrips():
    for f in (Fraction(0), Fraction(1, 100), Fraction(1, 2), Fraction(1, 3), Fraction(-3, 8), Fraction(7, 20)):
        assert Fraction(fraction_to_str(f)) == f
    assert fraction_to_str(Fraction(1, 100)) == "0.01"
    assert fraction_to_str(Fraction(1, 3)) == "1/3"


def test_schema_doc_roundtrip(tmp_path):
    data, problem = make_deepfake_dataset(n_rows=10, seed=1)
    cfg = SchemaConfig(state_column="state", schema=data.schema, problem=problem)
    doc = schema_to_doc(cfg)
    path = write_json(tmp_path / "s.json", doc)
    again = load_schema(path)
    assert again.schema == cfg.schema
    assert again.states == cfg.states and again.states is again.problem.states
    assert again.problem.decisions == cfg.problem.decisions
    with pytest.raises(TypeError):  # the states are the problem's, not a second input
        SchemaConfig(state_column="state", states=data.states, schema=data.schema, problem=problem)


def test_schema_doc_roundtrip_with_categorical_decisions_and_a_matrix_payoff(tmp_path):
    doc = {
        "state": {"column": "truth", "labels": ["0", 1]},
        "signals": [{"column": "s1", "values": ["0", "1"]}],
        "decisions": [
            {"column": "h", "role": "human", "values": ["no", "yes, maybe"]},
            {"column": "t", "grid": {"count": 3}},
        ],
        "payoff": {"kind": "matrix", "rows": [[1.0, 0], [0.25, 1]], "decisions": ["no", "yes"]},
        "options": {"smoothing": 0.5, "decision_bins": 2, "missing": "drop"},
    }
    cfg = parse_schema_doc(doc)
    written = schema_to_doc(cfg)
    assert written["decisions"][0] == {"column": "h", "role": "human", "values": ["no", "yes, maybe"]}
    assert written["payoff"] == {"kind": "matrix", "rows": [[1.0, 0.0], [0.25, 1.0]], "decisions": ["no", "yes"]}
    again = load_schema(write_json(tmp_path / "s.json", written))
    assert again == cfg
    assert schema_to_doc(again) == written


@given(st.integers(0, 2), st.sampled_from(["state", "x"]))
def test_corrupted_cells_report_their_locus(tmp_path_factory, row, column):
    tmp = tmp_path_factory.mktemp("fixtures")
    cfg = load_schema(write_json(tmp / "s.json", MINIMAL_SCHEMA))
    lines = [["state", "x"], ["0", "1"], ["1", "0"], ["0", "0"]]
    col_idx = lines[0].index(column)
    lines[1 + row][col_idx] = "bogus"
    csv_path = tmp / "d.csv"
    csv_path.write_text("\n".join(",".join(line) for line in lines) + "\n", encoding="utf-8")
    with pytest.raises(ValidationError) as err:
        load_dataset(csv_path, cfg)
    message = str(err.value)
    assert f"row {row + 2}" in message
    assert column in message


# --- the block-streamed loader against the per-row reference ---------------


def _numbered_records(reader):
    """The reader's records numbered from row 2; a reader error names the row it stopped at."""
    lineno = 2
    while True:
        try:
            record = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            raise ValidationError(f"dataset row {lineno}: {exc}", path=f"row {lineno}") from None
        yield lineno, record
        lineno += 1


def _first_bad_byte(path):
    """The located error for the file's first byte that is not UTF-8, found in its whole bytes; None if none."""
    raw = path.read_bytes()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = raw[: exc.start]
        line = 1 + before.count(b"\n") + before.count(b"\r") - before.count(b"\r\n")
        return ValidationError(
            f"dataset line {line}, byte offset {exc.start}: "
            f"byte 0x{raw[exc.start]:02x} is not valid UTF-8 ({exc.reason})",
            path=f"line {line}",
        )
    return None


def _escaped(cells):
    """Whether a record read with errors="surrogateescape" holds an escaped byte (U+DC80..U+DCFF)."""
    return any("\udc80" <= ch <= "\udcff" for cell in cells for ch in cell)


# The text Python 3.10's Fraction reads (its _RATIONAL_FORMAT): later releases read more,
# and a numeric cell is read by this grammar on every release.
_FRACTION_310 = re.compile(r"""
    \A\s*[-+]?(?=\d|\.\d)\d*      # a sign, then digits or .digits, then
    (?:/\d+                          # a denominator,
    |(?:\.\d*)?(?:E[-+]?\d+)?)       # or a fractional part and an exponent
    \s*\Z
""", re.VERBOSE | re.IGNORECASE)


def _reference_load(path, cfg):
    """The per-row, per-cell loader that ``load_dataset`` replaced (reference oracle)."""
    entries = list(cfg.schema.entries)
    wanted = [cfg.state_column] + [e.name for e in entries]

    domains = [cfg.states.labels] + [e.domain for e in entries]
    numeric = [False] + [is_numeric_domain(e.domain) for e in entries]
    lookups = [{v if num else str(v): i for i, v in enumerate(dom)} for dom, num in zip(domains, numeric)]

    rows = []
    dropped = 0
    bad_byte = _first_bad_byte(path)
    with open(path, newline="", encoding="utf-8-sig", errors="surrogateescape") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError("dataset: file has no header row", path="") from None
        except csv.Error as exc:
            raise ValidationError(f"dataset row 1: {exc}", path="row 1") from None
        if _escaped(header):
            raise bad_byte
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

        records = _numbered_records(reader)
        for lineno, record in records:
            if _escaped(record):
                raise bad_byte
            if not record:
                try:
                    trailing = all(not rest for _, rest in records)
                except ValidationError:  # a record the reader fails on still follows this empty one
                    trailing = False
                if trailing:
                    break
            if len(record) != len(header):
                raise ValidationError(
                    f"dataset row {lineno}: expected {len(header)} cells, got {len(record)}", path=f"row {lineno}"
                )
            out = []
            bad = None
            for col_name, pos, lookup, num in zip(wanted, col_pos, lookups, numeric):
                cell = record[pos].strip()
                if cell == "":
                    bad = ("missing", col_name)
                    break
                key = cell
                if num:
                    try:
                        if not _FRACTION_310.match(cell):
                            raise ValueError(cell)
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
            if not is_numeric_domain(dec.domain):
                new_decisions.append(dec)
                continue
            centers, mapping = _bin_domain(dec.domain, cfg.decision_bins)
            col = 1 + len(cfg.schema.signals) + j
            remap = np.array([mapping[i] for i in range(len(dec.domain))], dtype=np.int64)
            arr[:, col] = remap[arr[:, col]]
            new_decisions.append(DecisionColumn(dec.name, dec.role, centers))
        schema = SignalSchema(signals=cfg.schema.signals, decisions=tuple(new_decisions))
    return Dataset(states=cfg.states, schema=schema, rows=arr, state_name=cfg.state_column, dropped_rows=dropped)


def _outcome(load, path, cfg):
    """A loader's result as comparable values: arrays and counts, or the error raised."""
    try:
        data = load(path, cfg)
    except ValidationError as exc:
        return ("ValidationError", str(exc), exc.path)
    rows = data.rows
    return ("ok", rows.tolist(), rows.dtype.str, rows.flags.c_contiguous, data.dropped_rows, data.schema)


def _assert_loaders_agree(path, cfg):
    expected = _outcome(_reference_load, path, cfg)
    assert _outcome(load_dataset, path, cfg) == expected
    return expected


FUZZ_SCHEMA = {
    "state": {"column": "state", "labels": ["0", "1"]},
    "signals": [{"column": "x", "values": ["a", "b,c"]}],
    "decisions": [{"column": "d", "role": "human", "grid": {"count": 11}}],
    "payoff": {"kind": "brier"},
}
# Raw cell text per column: in-domain spellings (padded, quoted, several per grid
# point), then cells that are missing or not in the domain.
FUZZ_GOOD = {
    "state": ["0", "1", " 1 ", '"0"'],
    "x": ["a", '"b,c"', " a", '"a"'],
    "d": ["0.1", "1/10", "0.10", " 0.5 ", "1", "0", "1e-1", "3/5"],
}
FUZZ_BAD = {
    "state": ["2", "", "  "],
    "x": ["b", "z", "", '"a\nb"'],
    "d": ["0.505", "abc", "1/0", "", "nan"],
}


# Quote-free cells for the byte tokenizer, some wider than its 8-byte key.  The bad
# "0.1000001" shares its first 8 bytes with the good "0.100000".
PLAIN_GOOD = {
    "state": ["0", "1", " 1 ", "         0"],
    "x": ["a", " a", "a         "],
    "d": ["0.1", "1/10", " 0.5 ", "1", "0", "1e-1", "3/5", "0.100000", "0.1000000000", "100000/1000000"],
}
PLAIN_BAD = {
    "state": ["2", "", "  ", "1         x"],
    "x": ["b", "z", "", "\u00e9", "\u00e9" * 6, "a       b"],
    "d": ["0.505", "abc", "1/0", "", "nan", "0.1000001", "0.10000001"],
}


@st.composite
def fuzz_csv(draw, good=FUZZ_GOOD, bad=FUZZ_BAD):
    """CSV text over the fuzz schema's columns; ``noise`` sets how often a cell or record is malformed."""
    header = draw(st.permutations(["state", "x", "d"]))
    noise = draw(st.integers(0, 3))
    records = []
    for _ in range(draw(st.integers(0, 12))):
        kind = "row" if draw(st.integers(0, 19)) >= noise else draw(st.sampled_from(["blank", "short", "long"]))
        if kind == "blank":
            records.append("")
            continue
        cells = [draw(st.sampled_from(bad[c] if draw(st.integers(0, 9)) < noise else good[c])) for c in header]
        if kind == "short":
            cells = cells[: draw(st.integers(1, 2))]
        elif kind == "long":
            cells.append(draw(st.sampled_from(["0", ""])))
        records.append(",".join(cells))
    records += [""] * draw(st.integers(0, 3))
    lines = [",".join(header)] + records
    ends = [draw(st.sampled_from(["\n", "\r\n"])) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    if draw(st.booleans()):
        text = text[: -len(ends[-1])]  # no line end after the last record
    return text


@settings(max_examples=300)
@given(
    fuzz_csv(),
    st.sampled_from(["error", "drop"]),
    st.sampled_from([None, 3]),
    st.sampled_from([1, 2, 3, infogain.io.BLOCK_ROWS]),
)
def test_block_loader_matches_per_row_reference(tmp_path_factory, text, missing, bins, block_rows):
    tmp = tmp_path_factory.mktemp("fuzz")
    cfg = parse_schema_doc({**FUZZ_SCHEMA, "options": {"missing": missing, "decision_bins": bins}})
    path = tmp / "d.csv"
    path.write_bytes(text.encode("utf-8"))
    with mock.patch.object(infogain.io, "BLOCK_ROWS", block_rows):
        _assert_loaders_agree(path, cfg)


@st.composite
def plain_fuzz_csv(draw):
    """Quote-free CSV bytes over the fuzz schema's columns, with or without a byte-order mark."""
    bom = "\ufeff" if draw(st.booleans()) else ""
    return (bom + draw(fuzz_csv(PLAIN_GOOD, PLAIN_BAD))).encode("utf-8")


@settings(max_examples=300)
@given(
    plain_fuzz_csv(),
    st.sampled_from(["error", "drop"]),
    st.sampled_from([None, 3]),
    st.sampled_from([1, 2, 7, 40, infogain.io.CHUNK_BYTES]),
)
def test_byte_tokenizer_matches_per_row_reference(tmp_path_factory, data, missing, bins, chunk_bytes):
    assert b'"' not in data
    tmp = tmp_path_factory.mktemp("plain")
    cfg = parse_schema_doc({**FUZZ_SCHEMA, "options": {"missing": missing, "decision_bins": bins}})
    path = tmp / "d.csv"
    path.write_bytes(data)
    with mock.patch.object(infogain.io, "CHUNK_BYTES", chunk_bytes):
        _assert_loaders_agree(path, cfg)


@st.composite
def mid_stream_csv(draw):
    """A plain fuzz file with one quoted first cell, one 0xff byte or one lone \\r at a random line."""
    lines = draw(plain_fuzz_csv()).splitlines(keepends=True)
    at = draw(st.integers(0, len(lines) - 1))
    line = lines[at]
    content = line.rstrip(b"\r\n")
    kind = draw(st.sampled_from(["quote", "not-utf8", "lone-cr"]))
    if kind == "quote":
        first, comma, rest = content.partition(b",")
        line = b'"' + first + b'"' + comma + rest + line[len(content) :]
    elif kind == "not-utf8":
        cut = draw(st.integers(0, len(content)))
        line = content[:cut] + b"\xff" + line[cut:]
    else:
        line = content + b"\r"
    return b"".join(lines[:at] + [line] + lines[at + 1 :])


@settings(max_examples=300)
@given(
    mid_stream_csv(),
    st.sampled_from(["error", "drop"]),
    st.sampled_from([None, 3]),
    st.sampled_from([1, 7, 40, infogain.io.CHUNK_BYTES]),
)
def test_one_irregular_line_anywhere_loads_like_the_reference(tmp_path_factory, data, missing, bins, chunk_bytes):
    # the byte tokenizer codes the chunks before the line; the csv module or the UTF-8 check takes the rest
    tmp = tmp_path_factory.mktemp("mid")
    cfg = parse_schema_doc({**FUZZ_SCHEMA, "options": {"missing": missing, "decision_bins": bins}})
    path = tmp / "d.csv"
    path.write_bytes(data)
    with mock.patch.object(infogain.io, "CHUNK_BYTES", chunk_bytes):
        _assert_loaders_agree(path, cfg)


@settings(max_examples=300)
@given(st.lists(st.sampled_from([b"a", b",", b"\r", b"\n"]), max_size=60).map(b"".join), st.integers(1, 9))
def test_line_chunks_cut_after_line_ends_and_never_inside_crlf(data, chunk_bytes):
    with mock.patch.object(infogain.io, "CHUNK_BYTES", chunk_bytes):
        chunks = list(infogain.io._line_chunks(io.BytesIO(data)))
    assert b"".join(chunks) == data and all(chunks)
    assert not any(a.endswith(b"\r") and b.startswith(b"\n") for a, b in zip(chunks, chunks[1:]))
    assert all(chunk.endswith((b"\r", b"\n")) for chunk in chunks[:-1])
    # each read is cut at its last line end, whichever kind, so only a chunk's first line spans reads
    assert all(len(chunk) - len(chunk.splitlines(keepends=True)[0]) <= chunk_bytes for chunk in chunks)


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="the deadline is a SIGALRM timer")
def test_one_long_line_is_chunked_in_linear_time(monkeypatch):
    # 2^17 reads with no line end: joined once, not once per read (which takes seconds)
    monkeypatch.setattr(infogain.io, "CHUNK_BYTES", 8)
    data = b"a" * 2**20 + b"\n"
    with deadline(2):
        assert list(infogain.io._line_chunks(io.BytesIO(data))) == [data]


def _fuzz_cfg(**options):
    return parse_schema_doc({**FUZZ_SCHEMA, "options": options})


def test_grid_point_spellings_load_to_one_index(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text('state,x,d\n0,a,0.1\n1,"b,c",1/10\r\n0, a ,0.10\n1,a, 1e-1 \n', encoding="utf-8")
    outcome = _assert_loaders_agree(path, _fuzz_cfg())
    assert outcome[1] == [[0, 0, 1], [1, 1, 1], [0, 0, 1], [1, 0, 1]]


@pytest.mark.parametrize("spelling, accepted", [
    ("1/2", True), (" +1/2 ", True), ("0.50", True), (".5", True), ("5E-1", True), ("0.05e+1", True),
    ("\u0660.\u0665", True),  # Arabic-Indic digits, which Fraction reads on every release
    ("0.5_0", False), ("1_0/2_0", False), ("5e-0_1", False),  # underscores: read from Python 3.11
    ("1 / 2", False), ("1/ 2", False), ("1 /2", False),  # spaces around the slash: read from Python 3.12
    ("1/2e0", False), ("0.5/1", False), ("", False),
])
def test_a_number_is_spelled_in_one_grammar_on_every_python(tmp_path, spelling, accepted):
    # as a cell, through both loaders, and as a grid point of the schema
    path = tmp_path / "d.csv"
    path.write_text(f"state,x,d\n0,a,{spelling}\n1,a,1\n", encoding="utf-8")
    outcome = _assert_loaders_agree(path, _fuzz_cfg())
    assert outcome[:2] == ("ok", [[0, 0, 5], [1, 0, 10]]) if accepted else outcome[0] == "ValidationError"
    doc = {**FUZZ_SCHEMA, "decisions": [{"column": "d", "role": "human", "grid": {"points": ["0", spelling, "1"]}}]}
    if accepted:
        assert parse_schema_doc(doc).schema.decisions[0].domain == (0, Fraction(1, 2), 1)
    else:
        with pytest.raises(ValidationError, match=re.escape("decisions[0].grid.points[1]: not a numeric value (")):
            parse_schema_doc(doc)


def test_error_in_a_later_block_names_its_line(monkeypatch, tmp_path):
    monkeypatch.setattr(infogain.io, "BLOCK_ROWS", 4)
    path = tmp_path / "d.csv"
    path.write_text("state,x,d\n" + "0,a,0.1\n" * 5 + "1,a,0.505\n" + "1,a,1\n", encoding="utf-8")
    with pytest.raises(ValidationError, match=r"row 7, column 'd': value '0.505'") as err:
        load_dataset(path, _fuzz_cfg())
    assert err.value.path == "row 7"
    _assert_loaders_agree(path, _fuzz_cfg())


def test_trailing_empty_records_across_a_block_edge(monkeypatch, tmp_path):
    monkeypatch.setattr(infogain.io, "BLOCK_ROWS", 4)
    path = tmp_path / "d.csv"
    path.write_text("state,x,d\n" + "0,a,0.1\n" * 3 + "\n\r\n\n\n", encoding="utf-8")
    assert load_dataset(path, _fuzz_cfg()).rows.tolist() == [[0, 0, 1]] * 3
    path.write_text("state,x,d\n" + "0,a,0.1\n" * 3 + "\n\r\n\n\n1,a,1\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="row 5: expected 3 cells, got 0"):
        load_dataset(path, _fuzz_cfg())


def test_earlier_bad_cell_wins_over_a_later_short_record(monkeypatch, tmp_path):
    monkeypatch.setattr(infogain.io, "BLOCK_ROWS", 4)
    path = tmp_path / "d.csv"
    path.write_text("state,x,d\n0,a,0.1\n0,,0.1\n0,z\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="row 3, column 'x': missing value"):
        load_dataset(path, _fuzz_cfg())
    assert _assert_loaders_agree(path, _fuzz_cfg(missing="drop"))[1] == "dataset row 4: expected 3 cells, got 2"


@pytest.mark.parametrize("bad_first", [False, True])
def test_reader_error_is_raised_after_the_records_before_it(tmp_path, bad_first):
    # A field over csv.field_size_limit() makes the reader itself fail.
    path = tmp_path / "d.csv"
    first = "0,z,0.1" if bad_first else "0,a,0.1"
    path.write_text(f"state,x,d\n{first}\n1,a,1\n0,{'a' * (csv.field_size_limit() + 1)},0\n", encoding="utf-8")
    outcome = _assert_loaders_agree(path, _fuzz_cfg())
    if bad_first:
        assert outcome[1:] == ("dataset row 2, column 'x': value 'z' not in the declared domain", "row 2")
    else:
        limit = csv.field_size_limit()
        assert outcome[1:] == (f"dataset row 4: field larger than field limit ({limit})", "row 4")


@pytest.mark.parametrize("block_rows, records", [(2, ["0,a,0.1"]), (infogain.io.BLOCK_ROWS, ['"0",a,0.1'] * 1023)])
def test_reader_error_after_an_empty_record_that_ends_a_block(monkeypatch, tmp_path, block_rows, records):
    # After an empty record, the loader reads on to see whether only empty records follow.
    # The record the reader fails on is not empty, so the empty record before it is the first bad row.
    monkeypatch.setattr(infogain.io, "BLOCK_ROWS", block_rows)
    path = tmp_path / "d.csv"
    limit = csv.field_size_limit()
    path.write_text("state,x,d\n" + "".join(r + "\n" for r in records) + f"\n0,{'a' * (limit + 1)},1\n",
                    encoding="utf-8")
    row = len(records) + 2
    outcome = _assert_loaders_agree(path, _fuzz_cfg())
    assert outcome[1:] == (f"dataset row {row}: expected 3 cells, got 0", f"row {row}")


def test_empty_record_before_a_record_the_reader_fails_on_is_reported_first(tmp_path):
    # the empty record and the failing one share a block: the reader's error waits, and loses to the empty record
    cfg = parse_schema_doc({**MINIMAL_SCHEMA, "state": {"column": "state", "labels": ["a", "b"]}})
    path = tmp_path / "d.csv"
    path.write_text("state,x\na,0\n\nb," + "1" * 200_000 + "\n", encoding="utf-8")
    with pytest.raises(ValidationError, match=r"^dataset row 3: expected 2 cells, got 0$"):
        load_dataset(path, cfg)
    assert _assert_loaders_agree(path, cfg)[1:] == ("dataset row 3: expected 2 cells, got 0", "row 3")


def test_synthetic_deepfake_loads_like_the_reference(tmp_path):
    data, problem = make_deepfake_dataset(n_rows=4000, seed=101)
    assert data.n_rows > 2 * infogain.io.BLOCK_ROWS
    cfg = SchemaConfig(state_column=data.state_name, schema=data.schema, problem=problem)
    path = tmp_path / "d.csv"
    write_dataset(data, path)
    assert _assert_loaders_agree(path, cfg)[1] == data.rows.tolist()


# --- the byte tokenizer and its hand-off to the csv path ---------------------


def test_plain_file_is_read_from_its_bytes_alone(monkeypatch, tmp_path):
    data, problem = make_deepfake_dataset(n_rows=4000, seed=101)
    cfg = SchemaConfig(state_column=data.state_name, schema=data.schema, problem=problem)
    path = tmp_path / "d.csv"
    write_dataset(data, path)
    monkeypatch.setattr(infogain.io, "CHUNK_BYTES", 4096)
    monkeypatch.setattr(infogain.io, "_csv_rows", mock.Mock(side_effect=AssertionError("csv path taken")))
    assert _assert_loaders_agree(path, cfg)[1] == data.rows.tolist()


PLAIN_HEAD = b"state,x,d\n" + b"0,a,0.1\n1, a ,1/10\n" * 8  # 17 lines, 162 bytes
# Each tail holds one thing the byte tokenizer leaves to the csv path, well past the
# first 64-byte chunk, and the start of the outcome the csv path gives.  What it makes
# of a NUL byte depends on the Python version.
BAD_BYTE_18 = "dataset line 18, byte offset 164: byte 0xff is not valid UTF-8 (invalid start byte)"
HAND_OFFS = {
    "quote": (b'0,"a",0.1\n', ("ok",)),
    "nul": (b"0,a\x00,0.1\n", ()),
    "lone-cr": (b"0,a,0.1\r\r\n", ("ValidationError", "dataset row 19: expected 3 cells, got 0", "row 19")),
    "blank": (b"\n", ("ValidationError", "dataset row 18: expected 3 cells, got 0", "row 18")),
    "short": (b"0,a\n", ("ValidationError", "dataset row 18: expected 3 cells, got 2", "row 18")),
    # padded cells in their domains, each within the csv module's field limit and their line past it
    "long-line": (b",".join(c + b" " * (csv.field_size_limit() // 2) for c in (b"0", b"a", b"1")) + b"\n", ("ok",)),
}


@pytest.mark.parametrize("tail, expected", HAND_OFFS.values(), ids=HAND_OFFS)
def test_csv_path_takes_over_after_the_first_chunk(monkeypatch, tmp_path, tail, expected):
    monkeypatch.setattr(infogain.io, "CHUNK_BYTES", 64)
    for name in ("_csv_rows", "_plain_rows"):
        monkeypatch.setattr(infogain.io, name, mock.Mock(wraps=getattr(infogain.io, name)))
    first_lines, add = [], infogain.io._Rows.add
    monkeypatch.setattr(infogain.io._Rows, "add", lambda rows, codes, first_line, cell: (
        first_lines.append(first_line), add(rows, codes, first_line, cell)))
    path = tmp_path / "d.csv"
    path.write_bytes(PLAIN_HEAD + tail + b"1,a,1\n")
    outcome = _assert_loaders_agree(path, _fuzz_cfg())
    assert infogain.io._plain_rows.call_count == infogain.io._csv_rows.call_count == 1
    # the byte path coded a chunk, then the csv path read on from the chunk it refused: no record is coded twice
    assert first_lines[0] == 2 and len(first_lines) > 1 and all(np.diff(first_lines) > 0)
    assert outcome[: len(expected)] == expected


def test_byte_that_is_not_utf8_past_the_first_chunk_is_raised_from_the_byte_path(monkeypatch, tmp_path):
    monkeypatch.setattr(infogain.io, "CHUNK_BYTES", 64)
    monkeypatch.setattr(infogain.io, "_csv_rows", mock.Mock(side_effect=AssertionError("csv path taken")))
    path = tmp_path / "d.csv"
    path.write_bytes(PLAIN_HEAD + b"0,\xffa,0.1\n" + b"1,a,1\n")
    assert _assert_loaders_agree(path, _fuzz_cfg()) == ("ValidationError", BAD_BYTE_18, "line 18")


@pytest.mark.parametrize("quoted", [False, True])
def test_a_load_opens_the_dataset_once(monkeypatch, tmp_path, quoted):
    data, problem = make_deepfake_dataset(n_rows=600, seed=101)
    cfg = SchemaConfig(state_column=data.state_name, schema=data.schema, problem=problem)
    path = tmp_path / "d.csv"
    write_dataset(data, path)
    if quoted:  # the last record's state cell quoted: the csv module reads on from the last chunk
        head, _, last = path.read_text(encoding="utf-8").rstrip("\r\n").rpartition("\n")
        state, _, rest = last.partition(",")
        path.write_text(f'{head}\n"{state}",{rest}\n', encoding="utf-8")
    monkeypatch.setattr(infogain.io, "CHUNK_BYTES", 4096)
    csv_rows = mock.Mock(wraps=infogain.io._csv_rows)
    monkeypatch.setattr(infogain.io, "_csv_rows", csv_rows)
    opened = []
    monkeypatch.setattr(infogain.io, "open", lambda *args, **kw: opened.append(args) or open(*args, **kw),
                        raising=False)
    assert load_dataset(path, cfg).rows.tolist() == data.rows.tolist()
    assert opened == [(path, "rb")] and csv_rows.call_count == quoted


# Ends of the last record that begin trailing empty records, or end it with a lone \r.
TRAILING_ENDS = {"crlf-lf-crlf": b"\r\n\n\r\n", "lone-cr": b"\r", "cr-crlf": b"\r\r\n", "lf-2^17": b"\n" * 2**17}


@pytest.mark.parametrize("chunk_bytes", [7, 40, infogain.io.CHUNK_BYTES])
@pytest.mark.parametrize("end", TRAILING_ENDS.values(), ids=TRAILING_ENDS)
def test_trailing_empty_records_are_stripped_after_the_byte_path(monkeypatch, tmp_path, chunk_bytes, end):
    monkeypatch.setattr(infogain.io, "CHUNK_BYTES", chunk_bytes)
    handed, plain_rows = [], infogain.io._plain_rows
    monkeypatch.setattr(infogain.io, "_plain_rows", lambda *args: handed.append(plain_rows(*args)) or handed[-1])
    path = tmp_path / "d.csv"
    path.write_bytes(PLAIN_HEAD + b"1,a,1" + end)
    assert _assert_loaders_agree(path, _fuzz_cfg())[1][-2:] == [[1, 0, 1], [1, 0, 10]]
    # the byte path coded every record before the chunk that holds the first empty record, and the
    # csv module read on from that chunk: the records it holds end at the last one, line 18
    (first_line, rest), = handed
    body = rest.rstrip(b"\r\n")
    assert first_line + (infogain.io._line_ends(body) + 1 if body else 0) == 19
    assert not rest or not body or infogain.io._line_ends(rest[len(body) :]) > 1


def test_cells_sharing_their_first_key_bytes_keep_their_own_codes(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("state,x,d\n0,a,0.1000000\n1,a,0.100000\n0,a,0.50000000\n1,a,0.1000000000\n", encoding="utf-8")
    assert _assert_loaders_agree(path, _fuzz_cfg())[1] == [[0, 0, 1], [1, 0, 1], [0, 0, 5], [1, 0, 1]]
    path.write_text("state,x,d\n0,a,0.100000\n1,a,0.1000001\n", encoding="utf-8")
    assert _assert_loaders_agree(path, _fuzz_cfg())[1] == (
        "dataset row 3, column 'd': value '0.1000001' not in the declared domain"
    )


def _grid_spellings(value: Fraction) -> list[str]:
    """Cells that all parse to ``value``: decimals with trailing zeros and padding, and fractions."""
    text = fraction_to_str(value)
    decimal = text if "." in text else text + "."
    cells = [text, " " + text, text + " ", "  " + text + "  ", "+" + text, text + "e0"]
    cells += [decimal + "0" * k for k in range(1, 9)]  # 0.5 grows past the 8-byte key: 0.50000000
    cells += [f"{value.numerator * m}/{value.denominator * m}" for m in range(1, 13)]
    return cells


# The last record of the file, far past the first chunk: no cell, the key 0, blanks, a
# cell off the grid, a 9-byte cell off the grid whose first 8 bytes are a grid point's,
# and a 10-byte cell on the grid.
KEY_TABLE_TAILS = {"none": None, "empty": "", "blank": "   ", "off-grid": "0.55", "wide-bad": "0.5000001",
                   "wide-good": "0.50000000"}


@pytest.mark.parametrize("missing", ["error", "drop"])
@pytest.mark.parametrize("tail", KEY_TABLE_TAILS.values(), ids=KEY_TABLE_TAILS)
def test_key_table_codes_like_the_csv_path(monkeypatch, tmp_path, missing, tail):
    # 11 grid points spelled 26 ways each: the decision column's table grows chunk after chunk
    cfg = _fuzz_cfg(missing=missing)
    spellings = [c for v in cfg.schema.decisions[0].domain for c in _grid_spellings(v)]
    assert len(set(spellings)) == 286 and {8, 9} <= {len(c) for c in spellings}
    rng = np.random.default_rng(17)
    records = [(str(rng.integers(2)), ["a", " a", "a "][rng.integers(3)], spellings[rng.integers(len(spellings))])
               for _ in range(1500)]
    records += [("1", "a", "1/2"), ("0", "a", "")] if missing == "drop" else []  # a row to drop mid-file
    records += [("0", "a", tail)] if tail is not None else []
    plain, quoted = tmp_path / "plain.csv", tmp_path / "quoted.csv"
    plain.write_text("state,x,d\n" + "".join(",".join(r) + "\n" for r in records), encoding="utf-8")
    quoted.write_text('state,x,d\n"' + plain.read_text(encoding="utf-8")[10:].replace(",", '",', 1),
                      encoding="utf-8")  # one quoted cell sends the whole file through the csv module
    monkeypatch.setattr(infogain.io, "CHUNK_BYTES", 512)
    builds = mock.Mock(wraps=infogain.io._KeyTable._build)
    monkeypatch.setattr(infogain.io._KeyTable, "_build", lambda table: builds(table))
    csv_rows = mock.Mock(wraps=infogain.io._csv_rows)
    monkeypatch.setattr(infogain.io, "_csv_rows", csv_rows)

    from_bytes = _assert_loaders_agree(plain, cfg)
    # laid out, then grown in the first chunk and in a later one
    assert csv_rows.call_count == 0 and builds.call_count >= 3
    assert _assert_loaders_agree(quoted, cfg) == from_bytes and csv_rows.call_count == 1
    last = len(records) + 1
    if tail in ("", "   ") and missing == "error":
        assert from_bytes[1:] == (f"dataset row {last}, column 'd': missing value", f"row {last}")
    elif tail in ("0.55", "0.5000001"):
        assert from_bytes[1] == f"dataset row {last}, column 'd': value '{tail}' not in the declared domain"
    else:
        assert len(from_bytes[1]) == len(records) - from_bytes[4]
        assert from_bytes[4] == (missing == "drop") + (tail in ("", "   ") and missing == "drop")


def test_lone_cr_in_the_header_line_is_a_line_end(tmp_path):
    path = tmp_path / "d.csv"
    path.write_bytes(b"state,x,d\r0,a,0.1\n1,a,1\n")
    assert _assert_loaders_agree(path, _fuzz_cfg())[1] == [[0, 0, 1], [1, 0, 10]]


@pytest.mark.parametrize("tail, outcome", [
    (b"", [[0, 0, 1], [1, 0, 10]]),
    (b"0,a\n", "dataset row 4: expected 3 cells, got 2"),
])
def test_quoted_line_end_in_the_header_leaves_the_body_to_the_csv_module(monkeypatch, tmp_path, tail, outcome):
    # the state cell "state\n" strips to state; records are numbered from the header, one record on two lines
    monkeypatch.setattr(infogain.io, "_plain_rows", mock.Mock(side_effect=AssertionError("byte path taken")))
    path = tmp_path / "d.csv"
    path.write_bytes(b'"state\n",x,d\n0,a,0.1\n1,a,1\n' + tail)
    assert _assert_loaders_agree(path, _fuzz_cfg())[1] == outcome


@pytest.mark.parametrize("chunk_bytes", [3, infogain.io.CHUNK_BYTES])
@pytest.mark.parametrize("text, outcome", [
    ("state\n0\n1\n\n\r\n", [[0], [1]]),
    ("state\n0\n\n1\n", "dataset row 3: expected 1 cells, got 0"),
    ("state\r\n0\r\n \r\n1\r\n", "dataset row 3, column 'state': missing value"),
])
def test_blank_records_of_a_one_column_file(monkeypatch, tmp_path, chunk_bytes, text, outcome):
    # a blank line holds one separator, like a one-cell record: only its length tells them apart
    monkeypatch.setattr(infogain.io, "CHUNK_BYTES", chunk_bytes)
    path = tmp_path / "d.csv"
    path.write_text(text, encoding="utf-8")
    cfg = parse_schema_doc({**MINIMAL_SCHEMA, "signals": []})
    assert _assert_loaders_agree(path, cfg)[1] == outcome


def _load_error(path, cfg=None):
    with pytest.raises(ValidationError) as err:
        load_dataset(path, cfg or _fuzz_cfg())
    return str(err.value), err.value.path


@pytest.mark.parametrize("quoted", [False, True])
@pytest.mark.parametrize("data, line, offset, detail", [
    (b"state,x,d\r\n0,a,0.1\r\n1,\xffa,1\r\n", 3, 22, "byte 0xff is not valid UTF-8 (invalid start byte)"),
    (b"\xef\xbb\xbfstate,x,d\n1,a,\xe9\n", 2, 17, "byte 0xe9 is not valid UTF-8 (invalid continuation byte)"),
    (b"st\xc0ate,x,d\n1,a,1\n", 1, 2, "byte 0xc0 is not valid UTF-8 (invalid start byte)"),
])
def test_byte_that_is_not_utf8_names_its_line_and_offset(tmp_path, quoted, data, line, offset, detail):
    # a quoted record after the bad byte is never read: the UTF-8 check of its chunk raises first
    path = tmp_path / "d.csv"
    path.write_bytes(data + (b'"0",a,1\n' if quoted else b""))
    assert _load_error(path) == (f"dataset line {line}, byte offset {offset}: {detail}", f"line {line}")
    _assert_loaders_agree(path, _fuzz_cfg())


def test_truncated_character_at_the_end_of_the_file_is_located(tmp_path):
    path = tmp_path / "d.csv"
    path.write_bytes(b"state,x,d\n1,a,1\xe2\x82")
    assert _load_error(path) == (
        "dataset line 2, byte offset 15: byte 0xe2 is not valid UTF-8 (unexpected end of data)", "line 2"
    )


@pytest.mark.parametrize("first", [b"0", b'"0"'])
def test_fatal_record_before_a_bad_byte_is_reported_first(tmp_path, first):
    # both records lie in the chunk that holds the bad byte, which is checked before either is read
    path = tmp_path / "d.csv"
    path.write_bytes(b"state,x,d\n" + first + b",a,0.1\n0,z,0.1\n1,\xff,1\n")
    assert _load_error(path) == ("dataset row 3, column 'x': value 'z' not in the declared domain", "row 3")
    data = b"state,x,d\n" + first + b",a,0.1\n1,\xff,1\n0,z,0.1\n"
    path.write_bytes(data)
    assert _load_error(path) == (
        f"dataset line 3, byte offset {data.index(0xFF)}: byte 0xff is not valid UTF-8 (invalid start byte)", "line 3"
    )


def test_bad_byte_line_counts_the_lines_of_a_quoted_cell(tmp_path):
    # the dropped record 3 spans lines 3-4, so record 4 starts on line 5
    path = tmp_path / "d.csv"
    path.write_bytes(b'state,x,d\n0,a,0.1\n,"a\nb",0.1\n1,a,\xff\n')
    cfg = _fuzz_cfg(missing="drop")
    assert _load_error(path, cfg) == (
        "dataset line 5, byte offset 33: byte 0xff is not valid UTF-8 (invalid start byte)", "line 5"
    )
    _assert_loaders_agree(path, cfg)


# --- column-wise writer ------------------------------------------------------


def _reference_write(data, path):
    """The per-cell writer that ``write_dataset`` replaced (reference oracle)."""
    header = [data.state_name] + list(data.schema.names)
    domains = [list(data.states.labels)] + [list(e.domain) for e in data.schema.entries]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in data.rows:
            writer.writerow([domain_value_str(domains[j][int(v)]) for j, v in enumerate(row)])


def _mixed_dataset(rng):
    """Categorical cells that need quoting and numeric cells with and without a finite decimal."""
    schema = SignalSchema(
        signals=(BasicSignal("s", ("plain", "with,comma", 'with "quote"', " padded ")),),
        decisions=(
            DecisionColumn("p", "ai", (Fraction(0), Fraction(1, 3), Fraction(-7, 20), Fraction(5, 2))),
            DecisionColumn("c", "human", ("yes", "no, maybe")),
        ),
    )
    sizes = (2, 4, 4, 2)
    rows = np.stack([rng.integers(0, k, size=500) for k in sizes], axis=1)
    return Dataset(states=StateSpace.of(["neg", "pos"]), schema=schema, rows=rows, state_name="truth")


@pytest.mark.parametrize("kind", ["deepfake", "mixed"])
def test_write_dataset_bytes_match_the_per_cell_writer(tmp_path, rng, kind):
    data = make_deepfake_dataset(n_rows=2000, seed=3)[0] if kind == "deepfake" else _mixed_dataset(rng)
    write_dataset(data, tmp_path / "new.csv")
    _reference_write(data, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
