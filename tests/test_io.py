import csv
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from infogain.bootstrap import BootstrapSpec, GainStat, ShapleyStat, bootstrap_run
from infogain.errors import ValidationError
from infogain.io import (
    Provenance,
    SchemaConfig,
    fraction_to_str,
    load_dataset,
    load_schema,
    read_results,
    schema_to_doc,
    write_dataset,
    write_results,
    write_schema,
)
from infogain.rational import GainValue, information_gain
from infogain.joint import estimate_joint
from infogain.shapley import shapley_exact
from infogain.synth import make_deepfake_dataset, make_xor_joint, generate_dataset, xor_problem

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


def test_matrix_dimension_mismatch(tmp_path):
    doc = dict(MINIMAL_SCHEMA)
    doc["payoff"] = {"kind": "matrix", "rows": [[0.0, 1.0, 2.0], [1.0, 0.0, 2.0]]}
    with pytest.raises(ValidationError, match="matrix-dimension-mismatch"):
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
    cfg = SchemaConfig(
        state_column=data.state_name, states=data.states, schema=data.schema, problem=problem
    )
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
    cfg = SchemaConfig(state_column="state", states=data.states, schema=data.schema, problem=problem)
    doc = schema_to_doc(cfg)
    path = write_json(tmp_path / "s.json", doc)
    again = load_schema(path)
    assert again.schema == cfg.schema
    assert again.states == cfg.states
    assert again.problem.decisions == cfg.problem.decisions


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
