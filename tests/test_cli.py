import csv
import io
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import infogain.bootstrap
from infogain.cli import main
from infogain.errors import EstimationError, ValidationError
from infogain.io import parse_schema_doc, read_results

XOR_EXACT_CSV = "state,s1,s2\n" + "".join(
    f"{s1 ^ s2},{s1},{s2}\n" for s1 in (0, 1) for s2 in (0, 1)
)


@pytest.fixture()
def xor_files(tmp_path):
    """Schema/data pair whose empirical joint is exactly the XOR table."""
    schema = {
        "state": {"column": "state", "labels": ["0", "1"]},
        "signals": [
            {"column": "s1", "values": ["0", "1"]},
            {"column": "s2", "values": ["0", "1"]},
        ],
        "decisions": [],
        "payoff": {"kind": "brier"},
    }
    schema_path = tmp_path / "schema.json"
    data_path = tmp_path / "data.csv"
    schema_path.write_text(json.dumps(schema), encoding="utf-8")
    data_path.write_text(XOR_EXACT_CSV, encoding="utf-8")
    return schema_path, data_path


def test_validate_ok(xor_files, capsys):
    schema, data = xor_files
    assert main(["validate", "--schema", str(schema), "--data", str(data)]) == 0
    assert "ok:" in capsys.readouterr().out


def test_validate_corrupt_csv_exits_1(xor_files, capsys):
    schema, data = xor_files
    data.write_text("state,s1,s2\n0,9,0\n", encoding="utf-8")
    assert main(["validate", "--schema", str(schema), "--data", str(data)]) == 1
    assert "row 2" in capsys.readouterr().err


def test_validate_warnings_still_exit_0(tmp_path, capsys):
    schema = {
        "state": {"column": "state", "labels": ["0", "1"]},
        "signals": [{"column": "fixed", "values": ["only"]}],
        "decisions": [],
        "payoff": {"kind": "brier"},
    }
    sp, dp = tmp_path / "s.json", tmp_path / "d.csv"
    sp.write_text(json.dumps(schema), encoding="utf-8")
    dp.write_text("state,fixed\n0,only\n1,only\n", encoding="utf-8")
    assert main(["validate", "--schema", str(sp), "--data", str(dp)]) == 0
    assert "signal-domain-constant" in capsys.readouterr().err


def test_validate_warns_of_rows_dropped_by_the_missing_value_policy(xor_files, capsys):
    schema, data = xor_files
    doc = json.loads(schema.read_text(encoding="utf-8"))
    schema.write_text(json.dumps({**doc, "options": {"missing": "drop"}}), encoding="utf-8")
    data.write_text(XOR_EXACT_CSV + "1,,0\n0,1,\n", encoding="utf-8")
    assert main(["validate", "--schema", str(schema), "--data", str(data)]) == 0
    out, err = capsys.readouterr()
    assert err == "[warning] dropped-rows: 2 rows dropped by missing-value policy\n"
    assert out == "ok: 4 rows, 2 signals, 0 decision columns\n"


@pytest.mark.parametrize("change, message", [
    ({"payoff": {"kind": "matrix", "rows": [[1.0, 0.0], [0.0, 1.0]], "decisions": ["a"]}},
     "payoff.decisions: 1 labels for 2 matrix rows"),
    ({"payoff": {"kind": "log"}}, "payoff.kind: unknown payoff kind 'log'"),
    ({"decisions": [{"column": "d", "role": "robot", "values": ["a"]}]},
     "decisions[0].role: 'robot' not in ('human', 'ai', 'human_ai', 'other')"),
    ({"options": {"missing": "impute"}}, "options.missing: 'impute' not in ('error', 'drop')"),
], ids=["matrix-decisions", "payoff-kind", "decision-role", "missing-policy"])
def test_schema_error_exits_1_naming_its_field(xor_files, capsys, change, message):
    schema, data = xor_files
    doc = json.loads(schema.read_text(encoding="utf-8"))
    schema.write_text(json.dumps({**doc, **change}), encoding="utf-8")
    assert main(["validate", "--schema", str(schema), "--data", str(data)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_empty_data_file_exits_1(xor_files, capsys):
    schema, data = xor_files
    data.write_bytes(b"")
    assert main(["validate", "--schema", str(schema), "--data", str(data)]) == 1
    assert capsys.readouterr() == ("", "error: dataset: file has no header row\n")


@pytest.mark.parametrize("grid, rows, message", [
    ({"count": 11}, "0,0,0,0.5\n1,0,1,1e999999999\n",
     "dataset row 3, column 'd': value '1e999999999' not in the declared domain"),
    ({"points": ["0", "1e-999999999"]}, "0,0,0,0\n",
     "decisions[0].grid.points[1]: not a numeric value (exponent -999999999 exceeds 4300 in magnitude)"),
], ids=["cell", "grid-point"])
def test_a_huge_decimal_exponent_is_refused_before_any_power_is_built(xor_files, grid, rows, message):
    # Fraction("1e999999999") would build 10**999999999: hours and ~415 MB
    schema, data = xor_files
    doc = json.loads(schema.read_text(encoding="utf-8"))
    schema.write_text(json.dumps({**doc, "decisions": [{"column": "d", "role": "human", "grid": grid}]}),
                      encoding="utf-8")
    data.write_text("state,s1,s2,d\n" + rows, encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(Path(infogain.__file__).resolve().parents[1]))
    run = subprocess.run([sys.executable, "-m", "infogain", "validate", "--schema", str(schema), "--data", str(data)],
                         capture_output=True, env=env, text=True, check=False, timeout=30)
    assert (run.returncode, run.stdout, run.stderr) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("user", [None, "2"], ids=["unset", "user-value"])
def test_a_command_starts_one_blas_thread_unless_the_user_asks_for_more(xor_files, user):
    # main sets OPENBLAS_NUM_THREADS before numpy loads, and keeps a value already set
    schema, data = xor_files
    env = dict(os.environ, PYTHONPATH=str(Path(infogain.__file__).resolve().parents[1]))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if user is not None:
        env["OPENBLAS_NUM_THREADS"] = user
    probe = ("import os, sys; from infogain.cmdline import main; code = main(sys.argv[1:]); "
             "tasks = len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else None; "
             "print(code, os.environ.get('OPENBLAS_NUM_THREADS', '-'), tasks)")
    run = subprocess.run([sys.executable, "-c", probe, "validate", "--schema", str(schema), "--data", str(data)],
                         capture_output=True, env=env, text=True, check=False, timeout=60)
    code, value, tasks = run.stdout.splitlines()[-1].split()
    assert (code, value) == ("0", user or "1")
    if user is None and tasks != "None":  # without /proc the threads are not counted
        assert tasks == "1"


def test_missing_file_exits_2(xor_files, capsys):
    schema, _ = xor_files
    assert main(["validate", "--schema", str(schema), "--data", "/nonexistent.csv"]) == 2
    assert "i/o error" in capsys.readouterr().err


def test_gain_none_none_is_zero(xor_files, capsys):
    schema, data = xor_files
    assert main(["gain", "--schema", str(schema), "--data", str(data), "--v1", "none", "--ground", "none"]) == 0
    assert "= 0.0" in capsys.readouterr().out


def test_gain_xor_pair(xor_files, capsys):
    schema, data = xor_files
    assert main(["gain", "--schema", str(schema), "--data", str(data), "--v1", "s1,s2", "--ground", "none"]) == 0
    assert "gain(s1,s2; none) = 0.25" in capsys.readouterr().out


@pytest.mark.parametrize("alpha", ["nan", "inf"])
def test_gain_rejects_non_finite_alpha(xor_files, capsys, alpha):
    schema, data = xor_files
    assert main(["gain", "--schema", str(schema), "--data", str(data), "--v1", "s1", "--ground", "none",
                 "--alpha", alpha]) == 1
    captured = capsys.readouterr()
    assert "finite non-negative" in captured.err and captured.out == ""


def _xor_schema_with(**changes):
    doc = {
        "state": {"column": "state", "labels": ["0", "1"]},
        "signals": [{"column": "s1", "values": ["0", "1"]}, {"column": "s2", "values": ["0", "1"]}],
        "decisions": [],
        "payoff": {"kind": "brier"},
    }
    doc.update(changes)
    return doc


@pytest.mark.parametrize(
    ("doc", "path"),
    [
        (_xor_schema_with(options={"smoothing": None}), "options.smoothing"),
        (_xor_schema_with(signals=[5]), "signals[0]"),
        (_xor_schema_with(options=[]), "options"),
        (_xor_schema_with(options={"smoothing": "abc"}), "options.smoothing"),
        (_xor_schema_with(payoff={"kind": "brier", "grid": {"count": 11, "start": "x"}}), "payoff.grid.start"),
        (_xor_schema_with(options={"smoothing": float("nan")}), "options.smoothing"),
        (_xor_schema_with(options={"smoothing": "0.5"}), "options.smoothing"),
        (_xor_schema_with(options={"smoothing": True}), "options.smoothing"),
        (_xor_schema_with(signals=[{"column": "s1", "values": [{}]}]), "signals[0].values[0]"),
        (_xor_schema_with(signals=[{"column": "s1", "values": ["0", [1]]}]), "signals[0].values[1]"),
        (_xor_schema_with(decisions=[{"column": "h", "values": [{}]}]), "decisions[0].values[0]"),
        (_xor_schema_with(signals=[{"column": None, "values": ["0", "1"]}]), "signals[0].column"),
        (_xor_schema_with(payoff={"kind": "matrix", "rows": [[1, None], [0, 1]]}), "payoff.rows[0][1]"),
        (_xor_schema_with(payoff={"kind": "matrix", "rows": [[1, 0], ["a", 1]]}), "payoff.rows[1][0]"),
    ],
    ids=["smoothing-null", "signal-not-object", "options-list", "smoothing-text", "grid-start-text", "smoothing-nan",
         "smoothing-numeric-text", "smoothing-bool", "label-object", "label-list", "decision-label-object",
         "column-null", "matrix-null", "matrix-text"],
)
def test_malformed_schema_field_is_located(xor_files, capsys, doc, path):
    schema, data = xor_files
    with pytest.raises(ValidationError) as err:
        parse_schema_doc(doc)
    assert err.value.path == path and str(err.value).startswith(f"{path}: ")
    schema.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", "--schema", str(schema), "--data", str(data)]) == 1
    assert capsys.readouterr().err == f"error: {err.value}\n"


def test_cross_fit_on_one_row_names_the_flag(xor_files, capsys):
    schema, data = xor_files
    data.write_text("state,s1,s2\n0,0,0\n", encoding="utf-8")
    assert main(["gain", "--schema", str(schema), "--data", str(data), "--v1", "s1", "--ground", "none",
                 "--cross-fit"]) == 1
    assert capsys.readouterr().err == "error: --cross-fit: cross-fit evaluation needs at least 2 rows\n"


@pytest.mark.parametrize("spec", [None, {"statistics": [{"kind": "shapley", "ground": ["h"]}]}])
def test_bootstrap_without_signals_to_attribute_is_refused(tmp_path, capsys, spec):
    schema = _xor_schema_with(signals=[], decisions=[{"column": "h", "values": ["0", "1"]}])
    sp, dp, out = tmp_path / "s.json", tmp_path / "d.csv", tmp_path / "boot.json"
    sp.write_text(json.dumps(schema), encoding="utf-8")
    dp.write_text("state,h\n0,0\n1,1\n", encoding="utf-8")
    argv = ["bootstrap", "--schema", str(sp), "--data", str(dp), "--replicates", "2", "--out", str(out)]
    if spec is not None:
        (tmp_path / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
        argv += ["--spec", str(tmp_path / "spec.json")]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: bootstrap spec requests no statistics: the schema has no signals\n"
    assert not out.exists()


def test_bootstrap_with_no_decision_columns_and_no_statistics_exits_1(xor_files, tmp_path, capsys):
    # the default statistics are one Shapley attribution per decision column
    schema, data = xor_files
    out = tmp_path / "boot.json"
    assert main(["bootstrap", "--schema", str(schema), "--data", str(data), "--replicates", "2",
                 "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", "error: no decision columns and no statistics requested\n")
    assert not out.exists()


@pytest.mark.parametrize("workers", [1, 2])
def test_bootstrap_refused_in_a_worker_exits_1(xor_files, tmp_path, capsys, monkeypatch, workers):
    # one replicate per block: with two workers, each of the two blocks is
    # refused in a worker, which inherits the replaced family_payoffs
    def refused(*args):
        raise EstimationError("no payoffs for this block")

    monkeypatch.setattr(infogain.bootstrap, "family_payoffs", refused)
    monkeypatch.setattr(infogain.bootstrap, "REPLICATE_CELLS", 1)
    monkeypatch.setattr(infogain.bootstrap, "usable_cpus", lambda: workers)
    sp, dp = xor_files
    out = tmp_path / "boot.json"
    argv = ["bootstrap", "--schema", str(sp), "--data", str(dp), "--replicates", "2", "--shapley", "none",
            "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: no payoffs for this block\n"
    assert not out.exists()


def test_bootstrap_over_the_exact_ceiling_exits_1(tmp_path, capsys, monkeypatch):
    # refused in the caller, while the statistics' sets are planned, before any worker starts
    monkeypatch.setattr(infogain.bootstrap, "REPLICATE_CELLS", 1)
    monkeypatch.setattr(infogain.bootstrap, "usable_cpus", lambda: 2)
    names = [f"s{i}" for i in range(16)]
    schema = _xor_schema_with(signals=[{"column": name, "values": ["0", "1"]} for name in names])
    sp, dp, out = tmp_path / "s.json", tmp_path / "d.csv", tmp_path / "boot.json"
    sp.write_text(json.dumps(schema), encoding="utf-8")
    rows = [[i % 2] + [(i >> j) & 1 for j in range(16)] for i in range(8)]
    dp.write_text("".join(",".join(map(str, row)) + "\n" for row in [["state", *names], *rows]), encoding="utf-8")
    argv = ["bootstrap", "--schema", str(sp), "--data", str(dp), "--replicates", "2", "--shapley", "none",
            "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "error: 16 signals exceed the exact-method ceiling of 15 (65536 subsets); use shapley_sampled instead\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("row", [1, 3])
def test_cell_over_the_csv_field_limit_is_located(xor_files, capsys, row):
    schema, data = xor_files
    lines = XOR_EXACT_CSV.splitlines()
    lines[row - 1] += "x" * (csv.field_size_limit() + 1)
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["validate", "--schema", str(schema), "--data", str(data)]) == 1
    limit = csv.field_size_limit()
    assert capsys.readouterr().err == f"error: dataset row {row}: field larger than field limit ({limit})\n"


def test_byte_that_is_not_utf8_is_located_and_exits_1(tmp_path, capsys):
    assert main(["synth", "--preset", "deepfake", "--rows", "4000", "--out-dir", str(tmp_path)]) == 0
    data = tmp_path / "data.csv"
    raw = bytearray(data.read_bytes())
    at = sum(map(len, raw.splitlines(keepends=True)[:300])) + 8  # a byte of record 301, past the first 8 KiB
    raw[at] = 0xFF
    data.write_bytes(bytes(raw))
    capsys.readouterr()
    assert main(["validate", "--schema", str(tmp_path / "schema.json"), "--data", str(data)]) == 1
    assert capsys.readouterr().err == (
        f"error: dataset line 301, byte offset {at}: byte 0xff is not valid UTF-8 (invalid start byte)\n"
    )


def test_gain_unknown_variable_lists_valid_names(xor_files, capsys):
    schema, data = xor_files
    code = main(["gain", "--schema", str(schema), "--data", str(data), "--v1", "nope", "--ground", "none"])
    assert code == 1
    err = capsys.readouterr().err
    assert "nope" in err and "s1" in err and "s2" in err


def test_first_unknown_name_in_sorted_order_is_reported_under_any_hash_seed(xor_files):
    # names are resolved in sorted order, not in the hash order of a set
    schema, data = xor_files
    argv = [sys.executable, "-m", "infogain", "gain", "--schema", str(schema), "--data", str(data),
            "--v1", "nopeC,nopeA,nopeB", "--ground", "none"]
    package_root = str(Path(infogain.__file__).resolve().parents[1])
    errs = set()
    for hash_seed in range(1, 7):
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=package_root)
        run = subprocess.run(argv, env=env, capture_output=True, text=True, check=False)
        assert run.returncode == 1
        errs.add(run.stderr)
    assert errs == {"error: unknown variable 'nopeA'; valid: s1, s2\n"}


@pytest.mark.parametrize("command", ["gain", "shapley"])
def test_smoothing_that_overflows_the_total_exits_1(xor_files, capsys, command):
    # alpha 1e308 over the 8 cells of XOR: from --alpha for gain, from the schema's options for shapley
    schema, data = xor_files
    argv = [command, "--schema", str(schema), "--data", str(data), "--ground", "none"]
    if command == "gain":
        argv += ["--v1", "s1", "--alpha", "1e308"]
    else:
        schema.write_text(json.dumps(_xor_schema_with(options={"smoothing": 1e308})), encoding="utf-8")
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: smoothing alpha=1e+308 over 8 cells overflows the total weight\n"
    assert captured.out == ""


def test_shapley_xor_exact(xor_files, capsys):
    schema, data = xor_files
    assert main(["shapley", "--schema", str(schema), "--data", str(data), "--ground", "none"]) == 0
    out = capsys.readouterr().out
    assert "phi(s1) = 0.125" in out
    assert "phi(s2) = 0.125" in out


def test_shapley_sampled_deterministic(xor_files, tmp_path, capsys):
    schema, data = xor_files
    outs = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        assert main([
            "shapley", "--schema", str(schema), "--data", str(data),
            "--ground", "none", "--sampled", "10000", "--seed", "7", "--out", str(path),
        ]) == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_gain_output_and_manifest_roundtrip(xor_files, tmp_path, capsys):
    schema, data = xor_files
    out = tmp_path / "gain.json"
    argv = ["gain", "--schema", str(schema), "--data", str(data),
            "--v1", "s1,s2", "--ground", "none", "--out", str(out)]
    assert main(argv) == 0
    first = out.read_bytes()
    doc = json.loads(first)
    assert doc["value"] == 0.25 and doc["format_version"] == 1
    assert doc["provenance"]["schema_sha256"]

    manifest = json.loads((tmp_path / "gain.json.manifest.json").read_text())
    assert manifest["subcommand"] == "gain" and manifest["argv"] == argv
    assert "argv" not in manifest["arguments"]
    assert manifest["numpy_version"] == np.__version__
    assert manifest["python_version"] == platform.python_version()
    assert main(manifest["argv"]) == 0
    assert out.read_bytes() == first


def _replay(out: Path) -> list[str]:
    """Delete ``out``, run the argv its manifest records, and return that argv."""
    argv = json.loads(out.with_name(out.name + ".manifest.json").read_text())["argv"]
    out.unlink()
    assert main(argv) == 0
    return argv


def test_manifest_replay_repeats_appended_flags_and_lists_many_valued_ones_once(xor_files, tmp_path, capsys):
    # --gain and --shapley append one value per flag; --results takes all its values after one flag
    schema, data = xor_files
    boot, svg = tmp_path / "boot.json", tmp_path / "boot.svg"
    assert main(["bootstrap", "--schema", str(schema), "--data", str(data), "--replicates", "3",
                 "--gain", "s1:none", "--gain", "s1,s2:s2", "--shapley", "none", "--shapley", "s2",
                 "--out", str(boot)]) == 0
    assert main(["report", "--results", str(boot), str(boot), "--out", str(svg)]) == 0
    for out in (boot, svg):
        first = out.read_bytes()
        argv = _replay(out)
        assert [argv.count(flag) for flag in ("--gain", "--shapley", "--results")] == (
            [2, 2, 0] if out is boot else [0, 0, 1]
        )
        assert out.read_bytes() == first


def test_manifest_replays_a_value_that_starts_with_a_dash(xor_files, tmp_path, capsys):
    # "-0.1:0.5" reads as a flag unless it is joined to --axis by "="
    schema, data = xor_files
    boot, svg = tmp_path / "boot.json", tmp_path / "boot.svg"
    assert main(["bootstrap", "--schema", str(schema), "--data", str(data), "--replicates", "3",
                 "--shapley", "none", "--out", str(boot)]) == 0
    assert main(["report", "--results", str(boot), str(boot), "--axis=-0.1:0.5", "--out", str(svg)]) == 0
    first = svg.read_bytes()
    assert "--axis=-0.1:0.5" in _replay(svg)
    assert svg.read_bytes() == first


def test_manifest_replays_synth_and_sampled_shapley(tmp_path, capsys):
    out_dir = tmp_path / "synth"
    assert main(["synth", "--preset", "xor", "--rows", "50", "--seed", "2", "--out-dir", str(out_dir)]) == 0
    schema, data = out_dir / "schema.json", out_dir / "data.csv"
    first = [schema.read_bytes(), data.read_bytes()]
    argv = json.loads((out_dir / "synth.manifest.json").read_text())["argv"]
    schema.unlink()
    data.unlink()
    assert main(argv) == 0
    assert [schema.read_bytes(), data.read_bytes()] == first

    phi = tmp_path / "phi.json"
    assert main(["shapley", "--schema", str(schema), "--data", str(data), "--ground", "none",
                 "--sampled", "20", "--seed", "5", "--out", str(phi)]) == 0
    first = phi.read_bytes()
    _replay(phi)
    assert phi.read_bytes() == first


def test_shapley_without_signals_reads_back(xor_files, tmp_path, capsys):
    schema, data = xor_files
    out = tmp_path / "phi.json"
    assert main(["shapley", "--schema", str(schema), "--data", str(data), "--ground", "s1",
                 "--signals", "none", "--out", str(out)]) == 0
    report, _ = read_results(out)
    assert report.signals == () and report.values == () and report.ground == ("s1",)
    assert report.total_gain == 0.0


def test_cross_fit_flag(xor_files, capsys):
    schema, data = xor_files
    code = main(["gain", "--schema", str(schema), "--data", str(data),
                 "--v1", "s1,s2", "--ground", "none", "--cross-fit"])
    assert code == 0


def test_synth_then_full_pipeline(tmp_path, capsys):
    out_dir = tmp_path / "synth"
    assert main(["synth", "--preset", "deepfake", "--rows", "300", "--seed", "3",
                 "--out-dir", str(out_dir)]) == 0
    schema, data = out_dir / "schema.json", out_dir / "data.csv"
    assert schema.exists() and data.exists() and (out_dir / "synth.manifest.json").exists()

    assert main(["validate", "--schema", str(schema), "--data", str(data)]) == 0

    boot = tmp_path / "boot.json"
    assert main(["bootstrap", "--schema", str(schema), "--data", str(data),
                 "--replicates", "8", "--seed", "1", "--out", str(boot)]) == 0
    doc = json.loads(boot.read_text())
    assert doc["kind"] == "bootstrap"
    # default statistics: per-signal attribution against each behavioral column
    grounds = {tuple(s["ground"]) for s in doc["statistics"]}
    assert grounds == {("human",), ("ai",), ("human_ai",)}

    svg = tmp_path / "fig.svg"
    assert main(["report", "--results", str(boot), "--out", str(svg)]) == 0
    body = svg.read_bytes()
    assert body.startswith(b"<svg") and b"</svg>" in body


def test_bootstrap_gain_stat_flag(xor_files, tmp_path, capsys):
    schema, data = xor_files
    boot = tmp_path / "b.json"
    assert main(["bootstrap", "--schema", str(schema), "--data", str(data),
                 "--replicates", "4", "--gain", "s1,s2:none", "--out", str(boot)]) == 0
    doc = json.loads(boot.read_text())
    assert doc["statistics"][0]["name"] == "gain(s1,s2;none)"


def test_bootstrap_gain_flag_with_two_colons_exits_1(xor_files, tmp_path, capsys):
    schema, data = xor_files
    boot = tmp_path / "b.json"
    assert main(["bootstrap", "--schema", str(schema), "--data", str(data),
                 "--replicates", "2", "--gain", "a:b:c", "--out", str(boot)]) == 1
    assert capsys.readouterr().err == "error: --gain 'a:b:c': expected V1:GROUND\n"
    assert not boot.exists()


def test_bootstrap_csv_rows_match_the_json_document(xor_files, tmp_path, capsys):
    schema, data = xor_files
    flags = ["bootstrap", "--schema", str(schema), "--data", str(data), "--replicates", "5", "--seed", "2",
             "--gain", "s1:s2", "--shapley", "none"]
    assert main([*flags, "--out", str(tmp_path / "b.json")]) == 0
    assert main([*flags, "--format", "csv", "--out", str(tmp_path / "b.csv")]) == 0
    doc = json.loads((tmp_path / "b.json").read_text(encoding="utf-8"))
    with open(tmp_path / "b.csv", newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == ["statistic", "kind", "signal", "v1", "ground", "ground_role", "value", "sd",
                      "q2.5", "q25", "q50", "q75", "q97.5"]
    assert rows == [
        [s["name"], s["kind"], s.get("signal") or "", ",".join(s.get("v1") or ()), ",".join(s["ground"]),
         s["ground_role"], repr(s["mean"]), repr(s["sd"])] + [repr(s["quantiles"][q[1:]]) for q in header[8:]]
        for s in doc["statistics"]
    ]
    assert [row[0] for row in rows] == ["gain(s1;s2)", "shapley(ground=none).s1", "shapley(ground=none).s2"]


def test_bootstrap_spec_file(xor_files, tmp_path, capsys):
    schema, data = xor_files
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "replicates": 3,
        "seed": 5,
        "statistics": [{"kind": "gain", "v1": ["s1"], "ground": []},
                       {"kind": "shapley", "ground": []}],
    }), encoding="utf-8")
    boot = tmp_path / "b.json"
    assert main(["bootstrap", "--schema", str(schema), "--data", str(data),
                 "--spec", str(spec_path), "--out", str(boot)]) == 0
    doc = json.loads(boot.read_text())
    assert doc["replicates"] == 3 and doc["seed"] == 5
    assert len(doc["statistics"]) == 1 + 2


@pytest.mark.parametrize("flags, named", [
    (["--gain", "s1:none"], "--gain"),
    (["--shapley", "none"], "--shapley"),
    (["--shapley", "none", "--gain", "s1:none"], "--gain"),
])
def test_bootstrap_spec_file_refuses_statistic_flags(xor_files, tmp_path, capsys, flags, named):
    schema, data = xor_files
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"statistics": [{"kind": "gain", "v1": ["s1"]}]}), encoding="utf-8")
    boot = tmp_path / "b.json"
    assert main(["bootstrap", "--schema", str(schema), "--data", str(data), "--replicates", "2",
                 "--spec", str(spec_path), *flags, "--out", str(boot)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {named}: cannot be combined with --spec")
    assert not boot.exists()


def test_report_mixed_schemas_exit_1(tmp_path, capsys):
    def run_boot(signals, out):
        schema = {
            "state": {"column": "state", "labels": ["0", "1"]},
            "signals": [{"column": s, "values": ["0", "1"]} for s in signals],
            "decisions": [],
            "payoff": {"kind": "brier"},
        }
        sp, dp = tmp_path / f"{out}.schema.json", tmp_path / f"{out}.csv"
        sp.write_text(json.dumps(schema), encoding="utf-8")
        rows = "".join(f"0,{'0,' * (len(signals) - 1)}0\n1,{'1,' * (len(signals) - 1)}1\n" for _ in range(2))
        dp.write_text("state," + ",".join(signals) + "\n" + rows, encoding="utf-8")
        bp = tmp_path / f"{out}.json"
        assert main(["bootstrap", "--schema", str(sp), "--data", str(dp),
                     "--replicates", "2", "--gain", f"{signals[0]}:none", "--out", str(bp)]) == 0
        return bp

    b1 = run_boot(["a"], "one")
    b2 = run_boot(["b"], "two")
    svg = tmp_path / "fig.svg"
    assert main(["report", "--results", str(b1), str(b2), "--out", str(svg)]) == 1
    assert "signal set" in capsys.readouterr().err


def test_report_of_a_gain_document_exits_1(tmp_path, xor_files, capsys):
    schema, data = xor_files
    gain, svg = tmp_path / "g.json", tmp_path / "fig.svg"
    assert main(["gain", "--schema", str(schema), "--data", str(data), "--v1", "s1", "--ground", "none",
                 "--out", str(gain)]) == 0
    capsys.readouterr()
    assert main(["report", "--results", str(gain), "--out", str(svg)]) == 1
    assert capsys.readouterr().err == f"error: {gain}: not a bootstrap result document\n"
    assert not svg.exists()


def test_report_single_result(tmp_path, xor_files, capsys):
    schema, data = xor_files
    boot = tmp_path / "b.json"
    assert main(["bootstrap", "--schema", str(schema), "--data", str(data),
                 "--replicates", "6", "--shapley", "none", "--out", str(boot)]) == 0
    svg = tmp_path / "one.svg"
    assert main(["report", "--results", str(boot), "--out", str(svg)]) == 0
    assert svg.exists()


def test_report_merges_three_ground_files(tmp_path, capsys):
    out_dir = tmp_path / "synth"
    assert main(["synth", "--preset", "deepfake", "--rows", "250", "--seed", "4",
                 "--out-dir", str(out_dir)]) == 0
    schema, data = out_dir / "schema.json", out_dir / "data.csv"
    paths = []
    for ground in ("human", "ai", "human_ai"):
        boot = tmp_path / f"{ground}.json"
        assert main(["bootstrap", "--schema", str(schema), "--data", str(data),
                     "--replicates", "4", "--seed", "2", "--shapley", ground,
                     "--out", str(boot)]) == 0
        paths.append(str(boot))
    svg = tmp_path / "fig.svg"
    assert main(["report", "--results", *paths, "--out", str(svg)]) == 0
    import xml.etree.ElementTree as ET

    root = ET.fromstring(svg.read_bytes())
    ns = "{http://www.w3.org/2000/svg}"
    # 7 signal groups x 3 ground strips, one density blob each
    assert len(root.findall(f".//{ns}path")) == 21
    labels = {t.text for t in root.findall(f".//{ns}text")}
    assert {"grainy", "blurry", "dark", "flicker", "two_people",
            "floating_distraction", "dark_skin"} <= labels


def test_synth_xor_preset_matches_exact_distribution(tmp_path, capsys):
    out_dir = tmp_path / "xor"
    assert main(["synth", "--preset", "xor", "--rows", "400", "--seed", "2",
                 "--out-dir", str(out_dir)]) == 0
    header = (out_dir / "data.csv").read_text().splitlines()[0]
    assert header == "state,s1,s2"


@pytest.mark.parametrize("case", ["axis", "rounded-axis", "samples"])
def test_report_refuses_a_range_too_wide_to_draw(tmp_path, xor_files, capsys, case):
    # -8e307:8e307 spans a finite 1.6e308, but rounded out to tick steps it spans 2e308
    schema, data = xor_files
    boot = tmp_path / "b.json"
    assert main(["bootstrap", "--schema", str(schema), "--data", str(data),
                 "--replicates", "3", "--shapley", "none", "--out", str(boot)]) == 0
    argv = ["report", "--results", str(boot), "--out", str(tmp_path / "fig.svg")]
    if case == "samples":
        doc = json.loads(boot.read_text())
        for stat, sample in zip(doc["statistics"], (1e308, -1e308)):
            stat["samples"] = [sample] * 3
            stat["quantiles"] = dict.fromkeys(stat["quantiles"], sample)
        boot.write_text(json.dumps(doc), encoding="utf-8")
    else:
        argv.append({"axis": "--axis=-1e308:1e308", "rounded-axis": "--axis=-8e307:8e307"}[case])
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == "error: axis range (-1e+308, 1e+308) is too wide to draw: its span hi - lo overflows\n"
    assert not (tmp_path / "fig.svg").exists()


def test_report_refuses_an_axis_whose_span_rounds_away(tmp_path, xor_files, capsys):
    # at -1e20 adding the least span of 0.05 leaves the bound where it was
    schema, data = xor_files
    boot, svg = tmp_path / "b.json", tmp_path / "fig.svg"
    assert main(["bootstrap", "--schema", str(schema), "--data", str(data),
                 "--replicates", "3", "--shapley", "none", "--out", str(boot)]) == 0
    doc = json.loads(boot.read_text())
    for stat in doc["statistics"]:
        stat["samples"] = [-1e20] * 3
        stat["quantiles"] = dict.fromkeys(stat["quantiles"], -1e20)
    boot.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert main(["report", "--results", str(boot), "--out", str(svg)]) == 1
    assert capsys.readouterr().err == (
        "error: axis range [-1e+20, -1e+20] has no span: widening it by 0.05 rounds away at that magnitude\n")
    assert not svg.exists()


@pytest.mark.parametrize("sd", [5e-324, 1e-310, 1e-300])
def test_report_draws_a_bandwidth_too_narrow_to_evaluate_as_a_point_mass(tmp_path, xor_files, sd):
    # only a hand-edited document holds such an sd: its strip is the median tick
    # alone, as for sd 0.0, and numpy prints no overflow warning on stderr
    schema, data = xor_files
    boot = tmp_path / "b.json"
    assert main(["bootstrap", "--schema", str(schema), "--data", str(data),
                 "--replicates", "20", "--shapley", "none", "--out", str(boot)]) == 0
    doc = json.loads(boot.read_text())
    env = dict(os.environ, PYTHONPATH=str(Path(infogain.__file__).resolve().parents[1]))
    svgs = []
    for value in (0.0, sd):
        doc["statistics"][0]["sd"] = value
        results, svg = tmp_path / f"sd_{value!r}.json", tmp_path / f"sd_{value!r}.svg"
        results.write_text(json.dumps(doc), encoding="utf-8")
        run = subprocess.run([sys.executable, "-m", "infogain", "report", "--results", str(results), "--out", str(svg)],
                             env=env, capture_output=True, text=True, check=False)
        assert (run.returncode, run.stderr) == (0, "")
        svgs.append(svg.read_bytes())
    assert svgs[1] == svgs[0]


@pytest.mark.parametrize("doc, message", [
    ([1], "top level must be an object"),
    ({"format_version": 2, "kind": "gain"}, "format_version: missing or unsupported (2)"),
    ({"format_version": 1, "kind": "histogram"}, "kind: unknown kind 'histogram'"),
], ids=["not-an-object", "format-version", "kind"])
def test_report_of_a_malformed_results_document_exits_1(tmp_path, capsys, doc, message):
    results, svg = tmp_path / "r.json", tmp_path / "fig.svg"
    results.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["report", "--results", str(results), "--out", str(svg)]) == 1
    assert capsys.readouterr().err == f"error: results {results}: {message}\n"
    assert not svg.exists()


class _ClosedStdout(io.StringIO):
    """A standard output whose reader has gone, as under ``infogain ... | head -c 10``."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("command", ["synth", "gain", "shapley", "bootstrap", "report"])
def test_closed_stdout_loses_no_output_file(tmp_path, capsys, monkeypatch, command):
    # every file is written before the first print; the broken pipe itself still exits 2
    xor = tmp_path / "xor"
    data_flags = ["--schema", str(xor / "schema.json"), "--data", str(xor / "data.csv")]
    boot = tmp_path / "boot.json"
    if command != "synth":
        assert main(["synth", "--preset", "xor", "--rows", "60", "--out-dir", str(xor)]) == 0
        assert main(["bootstrap", *data_flags, "--replicates", "2", "--shapley", "none", "--out", str(boot)]) == 0
    out = tmp_path / "out"
    argv, document, manifest = {
        "synth": (["synth", "--preset", "xor", "--rows", "60", "--out-dir", str(xor)],
                  xor / "data.csv", xor / "synth.manifest.json"),
        "gain": (["gain", *data_flags, "--v1", "s1", "--ground", "none", "--out", str(out)], out, None),
        "shapley": (["shapley", *data_flags, "--ground", "none", "--out", str(out)], out, None),
        "bootstrap": (["bootstrap", *data_flags, "--replicates", "2", "--shapley", "none", "--out", str(out)],
                      out, None),
        "report": (["report", "--results", str(boot), "--out", str(out)], out, None),
    }[command]
    manifest = manifest or Path(str(out) + ".manifest.json")
    capsys.readouterr()
    with monkeypatch.context() as patch:
        patch.setattr(sys, "stdout", _ClosedStdout())
        assert main(argv) == 2
    assert capsys.readouterr().err == "i/o error: [Errno 32] Broken pipe\n"
    assert manifest.exists() and (xor / "schema.json").exists()
    written = document.read_bytes()
    assert main(argv) == 0
    assert document.read_bytes() == written


@pytest.mark.parametrize("command, unbuffered", [
    ("shapley", False), ("shapley", True), ("--help", False), ("--help", True), ("--version", False),
    ("--version", True),
], ids=["buffered", "unbuffered", "help-buffered", "help-unbuffered", "version-buffered", "version-unbuffered"])
def test_closed_stdout_pipe_exits_2_in_a_real_process(xor_files, tmp_path, command, unbuffered):
    # a buffered standard output holds the prints until the command returns, or
    # until argparse exits after --help or --version: the broken pipe must fail
    # inside main, not in the interpreter's flush at exit; unbuffered, argparse
    # itself would ignore the failed write of its help or version text
    schema, data = xor_files
    out = tmp_path / "shapley.json"
    env = dict(os.environ, PYTHONPATH=str(Path(infogain.__file__).resolve().parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    argv = [command]
    if command == "shapley":
        argv += ["--schema", str(schema), "--data", str(data), "--ground", "none", "--out", str(out)]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        run = subprocess.run([sys.executable, "-m", "infogain", *argv],
                             stdout=write_end, stderr=subprocess.PIPE, env=env, text=True, check=False)
    finally:
        os.close(write_end)
    assert run.returncode == 2
    assert run.stderr == "i/o error: [Errno 32] Broken pipe\n"
    if command == "shapley":
        assert out.exists() and Path(str(out) + ".manifest.json").exists()


def _imported_modules(*args, cwd=None):
    """Run ``python -X importtime *args`` against this package; (exit code, names of the modules it imported)."""
    env = dict(os.environ, PYTHONPATH=str(Path(infogain.__file__).resolve().parents[1]))
    run = subprocess.run([sys.executable, "-X", "importtime", *args], env=env, cwd=cwd,
                         capture_output=True, text=True, check=False)
    names = {line.rsplit("|", 1)[1].strip() for line in run.stderr.splitlines() if line.startswith("import time:")}
    return run.returncode, names


def _loads_numpy(names) -> bool:
    return any(name == "numpy" or name.startswith("numpy.") for name in names)


@pytest.mark.parametrize("args, code", [
    (["-c", "import infogain"], 0),
    (["-m", "infogain", "--version"], 0),
    (["-m", "infogain", "--help"], 0),
    (["-m", "infogain", "gain", "--schema", "s.json", "--data", "d.csv", "--v1", "s1", "--ground", "none",
      "--alpha", "-1"], 1),
    (["-m", "infogain", "gain", "--schema", "s.json", "--data", "d.csv", "--v1", "s1"], 2),
], ids=["import", "version", "help", "flag-error", "usage-error"])
def test_start_without_a_command_to_run_does_not_load_numpy(tmp_path, args, code):
    returncode, names = _imported_modules(*args, cwd=tmp_path)
    assert returncode == code
    assert "infogain" in names and not _loads_numpy(names)


def test_a_command_that_runs_loads_numpy(xor_files):
    schema, data = xor_files
    returncode, names = _imported_modules("-m", "infogain", "validate", "--schema", str(schema), "--data", str(data))
    assert returncode == 0 and _loads_numpy(names)
