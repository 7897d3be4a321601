"""Schema, bootstrap spec and result documents, and typed flags: located errors, no tracebacks."""

import contextlib
import copy
import io
import json
import math

import pytest
from hypothesis import example, given, strategies as st

from infogain.cli import main

SCHEMA = {
    "state": {"column": "state", "labels": ["0", "1"]},
    "signals": [{"column": "s1", "values": ["0", "1"]}, {"column": "s2", "values": ["0", "1"]}],
    "decisions": [{"column": "h", "role": "human", "values": ["0", "1"]}],
    "payoff": {"kind": "brier"},
}
CSV = "state,s1,s2,h\n" + "".join(f"{a ^ b},{a},{b},{(a ^ b) if a else 0}\n" for a in (0, 1) for b in (0, 1)) * 3
SPEC = {
    "replicates": 2,
    "seed": 3,
    "statistics": [
        {"kind": "gain", "v1": ["s1", "s2"], "ground": ["h"], "name": "pair"},
        {"kind": "shapley", "ground": [], "signals": ["s1", "s2"], "permutations": 2},
    ],
}

# Schema documents that between them hold every schema field.
FULL_SCHEMAS = {
    "matrix": {
        "state": {"column": "state", "labels": ["0", 1]},
        "signals": [{"column": "s1", "values": ["0", "1"]}, {"column": "s2", "values": [0, 1.5]}],
        "decisions": [
            {"column": "h", "role": "human", "values": ["0", "1"]},
            {"column": "a", "role": "ai", "grid": {"count": 3, "start": "0", "stop": 1}},
            {"column": "t", "grid": {"points": ["0", 0.5, "1"]}},
        ],
        "payoff": {"kind": "matrix", "rows": [[1.0, 0], [0.25, 1]], "decisions": ["no", "yes"]},
        "options": {"smoothing": 0.5, "decision_bins": 2, "missing": "drop"},
    },
    "brier": {
        "state": {"column": "state", "labels": ["0", "1"]},
        "signals": [{"column": "s1", "values": ["0", "1"]}, {"column": "s2", "values": ["0", "1.5"]}],
        "decisions": [
            {"column": "h", "values": [0, 1]},
            {"column": "a", "grid": {"points": [0, "1/2", 1]}},
            {"column": "t", "role": "human_ai", "grid": {"count": 3}},
        ],
        "payoff": {"kind": "brier", "grid": {"count": 11, "start": 0, "stop": "1"}},
        "options": {"smoothing": 0, "decision_bins": None, "missing": "error"},
    },
}
FULL_CSV = "state,s1,s2,h,a,t\n0,0,0,0,0,0\n1,1,1.5,1,1,0.5\n1,0,1.5,0,0.5,1\n0,1,0,1,0.5,0.5\n"

NUMBER = {"int", "float"}
LABEL = {"string", "int", "float"}  # a label, or a grid bound or point
# Field rules per document kind: location pattern (list indices written "[]")
# -> (JSON types the field may hold, whether its object must have it).
SPEC_RULES = {
    "": ({"object"}, True),
    "replicates": ({"int"}, False),
    "seed": ({"int"}, False),
    "statistics": ({"list"}, True),
    "statistics[]": ({"object"}, True),
    "statistics[].kind": ({"string"}, True),
    "statistics[].name": ({"string", "null"}, False),
    "statistics[].v1": ({"list"}, True),
    "statistics[].v1[]": ({"string"}, True),
    "statistics[].ground": ({"list"}, False),
    "statistics[].ground[]": ({"string"}, True),
    "statistics[].signals": ({"list", "null"}, False),
    "statistics[].signals[]": ({"string"}, True),
    "statistics[].permutations": ({"int", "null"}, False),
}
RESULT_RULES = {
    "": ({"object"}, True),
    "format_version": ({"int"}, True),
    "kind": ({"string"}, True),
    "replicates": ({"int"}, True),
    "seed": ({"int"}, True),
    "alpha": (NUMBER, True),
    "provenance": ({"object", "null"}, False),
    "statistics": ({"list"}, True),
    "statistics[]": ({"object"}, True),
    "statistics[].name": ({"string"}, True),
    "statistics[].kind": ({"string"}, True),
    "statistics[].signal": ({"string", "null"}, False),
    "statistics[].v1": ({"list", "null"}, False),
    "statistics[].v1[]": ({"string"}, True),
    "statistics[].ground": ({"list"}, True),
    "statistics[].ground[]": ({"string"}, True),
    "statistics[].ground_role": ({"string"}, True),
    "statistics[].mean": (NUMBER, True),
    "statistics[].sd": (NUMBER, True),
    "statistics[].quantiles": ({"object"}, True),
    **{f"statistics[].quantiles.{q}": (NUMBER, True) for q in ("2.5", "25", "50", "75", "97.5")},
    "statistics[].samples": ({"list"}, True),
    "statistics[].samples[]": (NUMBER, True),
}
GRID_RULES = {
    "": ({"object"}, False),
    ".count": ({"int"}, True),
    ".start": (LABEL, False),
    ".stop": (LABEL, False),
    ".points": ({"list"}, False),
    ".points[]": (LABEL, True),
}
SCHEMA_RULES = {
    "": ({"object"}, True),
    "state": ({"object"}, True),
    "state.column": ({"string"}, True),
    "state.labels": ({"list"}, True),
    "state.labels[]": (LABEL, True),
    "signals": ({"list"}, False),
    "signals[]": ({"object"}, True),
    "signals[].column": ({"string"}, True),
    "signals[].values": ({"list"}, True),
    "signals[].values[]": (LABEL, True),
    "decisions": ({"list"}, False),
    "decisions[]": ({"object"}, True),
    "decisions[].column": ({"string"}, True),
    "decisions[].role": ({"string"}, False),
    "decisions[].values": ({"list"}, True),
    "decisions[].values[]": (LABEL, True),
    **{f"decisions[].grid{key}": rule for key, rule in GRID_RULES.items()},
    "payoff": ({"object"}, True),
    "payoff.kind": ({"string"}, True),
    **{f"payoff.grid{key}": rule for key, rule in GRID_RULES.items()},
    "payoff.rows": ({"list"}, True),
    "payoff.rows[]": ({"list"}, True),
    "payoff.rows[][]": (NUMBER, True),
    "payoff.decisions": ({"list"}, False),
    "payoff.decisions[]": (LABEL, True),
    "options": ({"object"}, False),
    "options.smoothing": (NUMBER, False),
    "options.decision_bins": ({"int", "null"}, False),
    "options.missing": ({"string"}, False),
}
NON_EMPTY = {
    "statistics", "statistics[].samples",
    "state.labels", "signals[].values", "decisions[].values", "decisions[].grid.points", "payoff.grid.points",
    "payoff.rows", "payoff.decisions",
}
# One value of each JSON type, for the type-changing mutation.
OF_TYPE = {"object": {"k": 1}, "list": [1], "string": "ab", "int": 7, "float": 2.5, "bool": True, "null": None}


def _json_type(value):
    if isinstance(value, bool):
        return "bool"
    return {dict: "object", list: "list", str: "string", int: "int", float: "float", type(None): "null"}[type(value)]


def _text(parts, index="[{}]"):
    out = ""
    for part in parts:
        out += index.format(part) if isinstance(part, int) else (f".{part}" if out else part)
    return out


def _locations(doc, rules, parts=()):
    """(parts, value, rule) of every location in ``doc`` that ``rules`` covers."""
    rule = rules.get(_text(parts, "[]"))
    if rule is None:
        return
    yield parts, doc, rule
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _locations(value, rules, parts + (key,))


def _replace(doc, parts, value):
    if not parts:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for part in parts[:-1]:
        parent = parent[part]
    if value is _replace:  # delete
        del parent[parts[-1]]
    else:
        parent[parts[-1]] = value
    return doc


@st.composite
def mutations(draw, doc, rules):
    """A document that breaks one field rule, and the path of the broken field."""
    locations = list(_locations(doc, rules))
    kind = draw(st.sampled_from(["delete", "retype", "nest", "empty", "non-finite"]))
    if kind == "delete":
        choices = [(p, _replace) for p, _, (_, required) in locations if p and isinstance(p[-1], str) and required]
    elif kind == "retype":
        choices = [(p, OF_TYPE[t]) for p, _, (types, _) in locations for t in sorted(set(OF_TYPE) - types)]
    elif kind == "nest":  # an object, list or null as a list entry that may not hold one
        choices = [(p, OF_TYPE[t]) for p, _, (types, _) in locations if p and isinstance(p[-1], int)
                   for t in ("object", "list", "null") if t not in types]
    elif kind == "empty":
        choices = [(p, []) for p, _, _ in locations if _text(p, "[]") in NON_EMPTY]
    else:
        bad = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        choices = [(p, bad) for p, _, (types, _) in locations if types & NUMBER]
    parts, value = draw(st.sampled_from(choices))
    return _replace(doc, parts, value), _text(parts) or "top level"


def _run(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, err.getvalue()


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    base = tmp_path_factory.mktemp("documents")
    (base / "schema.json").write_text(json.dumps(SCHEMA), encoding="utf-8")
    (base / "data.csv").write_text(CSV, encoding="utf-8")
    (base / "full.csv").write_text(FULL_CSV, encoding="utf-8")
    (base / "spec.json").write_text(json.dumps(SPEC), encoding="utf-8")
    return base


def _bootstrap(files, spec_path, out):
    return _run(["bootstrap", "--schema", str(files / "schema.json"), "--data", str(files / "data.csv"),
                 "--spec", str(spec_path), "--out", str(out)])


@pytest.fixture(scope="module")
def result_doc(files):
    assert _bootstrap(files, files / "spec.json", files / "boot.json") == (0, "")
    return json.loads((files / "boot.json").read_text(encoding="utf-8"))


def _report(files, doc):
    path = files / "mutated.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return _run(["report", "--results", str(path), "--out", str(files / "fig.svg")])


def _validate(files, schema_doc):
    path = files / "mutated_schema.json"
    path.write_text(json.dumps(schema_doc), encoding="utf-8")
    return _run(["validate", "--schema", str(path), "--data", str(files / "full.csv")])


def test_valid_documents_pass(files, result_doc):
    assert _report(files, result_doc) == (0, "")
    for doc in FULL_SCHEMAS.values():
        assert _validate(files, doc) == (0, "")


@pytest.mark.parametrize("spec, message", [
    ([1], "bootstrap spec: top level must be an object"),
    ({"statistics": [{"kind": "shapley", "permutations": "3"}]}, "statistics[0].permutations: must be an integer"),
    ({"statistics": [{"kind": "gain", "v1": "s1"}]}, "statistics[0].v1: must be a list"),
    ({"statistics": [{"kind": "gain", "v1": ["s1"], "ground": "h"}]}, "statistics[0].ground: must be a list"),
    ({"replicates": 2.5, "statistics": [{"kind": "gain", "v1": ["s1"]}]}, "replicates: must be an integer"),
    ({"statistics": [{"kind": "gain"}]}, "statistics[0].v1: missing required field"),
    ({"statistics": [{"kind": "gain", "v1": ["s1", "nope"]}]}, "statistics[0].v1[1]: unknown variable 'nope'"),
    ({"statistics": [{"kind": "mean"}]}, "statistics[0].kind: unknown statistic kind 'mean'"),
    ({"statistics": []}, "statistics: must be a non-empty list"),
])
def test_malformed_spec_names_its_field(files, spec, message):
    path = files / "bad_spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    code, err = _bootstrap(files, path, files / "unused.json")
    assert code == 1 and message in err, err


@pytest.mark.parametrize("mutate, message", [
    (lambda d: d["statistics"].__setitem__(0, 5), "statistics[0]: must be an object"),
    (lambda d: d["statistics"][0].__setitem__("samples", "0.1"), "statistics[0].samples: must be a non-empty list"),
    (lambda d: d["statistics"][0].__setitem__("samples", []), "statistics[0].samples: must be a non-empty list"),
    (lambda d: d["statistics"][0].__setitem__("quantiles", {}), "statistics[0].quantiles.2.5: missing required field"),
    (lambda d: d.pop("statistics"), "statistics: missing required field"),
    (lambda d: d["statistics"][1]["samples"].__setitem__(1, math.nan), "statistics[1].samples[1]: must be a finite"),
    (lambda d: d["statistics"][0]["quantiles"].__setitem__("25", 2.0), "statistics[0].quantiles: quantiles out of order"),
    (lambda d: d["statistics"][0].__setitem__("kind", "mean"), "statistics[0].kind: unknown statistic kind 'mean'"),
    (lambda d: d.update(kind="shapley", signals=["b"], values={"b": "0.1"}), "values.b: must be a finite number"),
    (lambda d: d["statistics"][0].__setitem__("sd", -1), "statistics[0].sd: must be a finite non-negative number"),
    (lambda d: d["statistics"][0]["quantiles"].update({"50": 5.0, "75": 5.0, "97.5": 5.0}),
     "statistics[0].quantiles.50: 5.0 lies outside the samples' range"),
    (lambda d: d["statistics"][1].__setitem__("samples", d["statistics"][1]["samples"][:1]),
     "statistics[1].samples: must hold one sample per replicate (2), not 1"),
])
def test_malformed_result_names_its_field(files, result_doc, mutate, message):
    doc = copy.deepcopy(result_doc)
    mutate(doc)
    code, err = _report(files, doc)
    assert code == 1 and message in err, err


@given(case=st.data())
def test_mutated_spec_fails_with_a_located_message(files, case):
    doc, path = case.draw(mutations(SPEC, SPEC_RULES))
    spec_path = files / "mutated_spec.json"
    spec_path.write_text(json.dumps(doc), encoding="utf-8")
    code, err = _bootstrap(files, spec_path, files / "unused.json")
    assert code in (1, 2) and path in err and "Traceback" not in err, (doc, err)


@given(case=st.data())
def test_mutated_result_fails_with_a_located_message(files, result_doc, case):
    doc, path = case.draw(mutations(result_doc, RESULT_RULES))
    code, err = _report(files, doc)
    assert code in (1, 2) and path in err and "Traceback" not in err, (doc, err)


@given(case=st.data())
def test_mutated_schema_fails_with_a_located_message(files, case):
    base = FULL_SCHEMAS[case.draw(st.sampled_from(sorted(FULL_SCHEMAS)))]
    doc, path = case.draw(mutations(base, SCHEMA_RULES))
    code, err = _validate(files, doc)
    assert code in (1, 2) and path in err and "Traceback" not in err, (doc, err)


@pytest.mark.parametrize("argv, what", [
    (["validate", "--schema", "{bad}", "--data", "{data}"], "schema"),
    (["bootstrap", "--schema", "{schema}", "--data", "{data}", "--spec", "{bad}", "--out", "{out}"], "bootstrap spec"),
    (["report", "--results", "{bad}", "--out", "{out}"], "results {bad}"),
])
@pytest.mark.parametrize("text", [b"{not json", b"[" * 100_000, b'{"state": "\xff"}'],
                         ids=["malformed", "nested too deep", "not UTF-8"])
def test_invalid_json_names_its_document(files, argv, what, text):
    names = {"bad": files / "bad.json", "schema": files / "schema.json", "data": files / "data.csv",
             "out": files / "unused.out"}
    names["bad"].write_bytes(text)
    code, err = _run([a.format(**names) for a in argv])
    assert code == 1 and err.startswith(f"error: {what.format(**names)}: not valid JSON ("), err


def test_documents_may_start_with_a_byte_order_mark(files, result_doc, tmp_path):
    # like a dataset, a schema, a spec and a results document may start with a UTF-8 byte-order mark
    bom = b"\xef\xbb\xbf"
    schema, spec, results = (tmp_path / name for name in ("schema.json", "spec.json", "boot.json"))
    schema.write_bytes(bom + json.dumps(SCHEMA).encode("utf-8"))
    assert _run(["validate", "--schema", str(schema), "--data", str(files / "data.csv")]) == (0, "")
    spec.write_bytes(bom + json.dumps(SPEC).encode("utf-8"))
    assert _bootstrap(files, spec, tmp_path / "spec_boot.json") == (0, "")
    spec_doc = json.loads((tmp_path / "spec_boot.json").read_text(encoding="utf-8"))
    assert spec_doc["statistics"] == result_doc["statistics"]
    results.write_bytes(bom + (files / "boot.json").read_bytes())
    assert _run(["report", "--results", str(results), "--out", str(tmp_path / "fig.svg")]) == (0, "")


# Text that no typed flag accepts: an int flag wants digits, a number flag a float.
NOT_A_NUMBER = st.text(alphabet="bcdgxyz,;_ -", max_size=5)
FLOAT_TEXT = st.floats(allow_nan=True, allow_infinity=True).map(repr)
BAD_FLAG_TEXT = {
    "--seed": st.one_of(st.integers(max_value=-1).map(str), FLOAT_TEXT, NOT_A_NUMBER),
    "--sampled": st.one_of(st.integers(max_value=0).map(str), FLOAT_TEXT, NOT_A_NUMBER),
    "--replicates": st.one_of(st.integers(max_value=0).map(str), FLOAT_TEXT, NOT_A_NUMBER),
    "--rows": st.one_of(st.integers(max_value=0).map(str), FLOAT_TEXT, NOT_A_NUMBER),
    "--alpha": st.one_of(st.floats(max_value=-1e-300).map(repr), st.sampled_from(["nan", "inf", "-inf", "1e999"]),
                         NOT_A_NUMBER),
    "--axis": st.one_of(
        st.tuples(st.floats(allow_nan=False), st.floats(allow_nan=False)).map(lambda t: f"{max(t)!r}:{min(t)!r}"),
        st.tuples(FLOAT_TEXT, st.sampled_from(["nan", "inf", "-inf"])).map(":".join),
        st.lists(FLOAT_TEXT, min_size=1, max_size=4).filter(lambda parts: len(parts) != 2).map(":".join),
        NOT_A_NUMBER,
    ),
}
FLAG_COMMANDS = {
    "--seed": ["shapley", "--ground", "none"],
    "--sampled": ["shapley", "--ground", "none"],
    "--alpha": ["gain", "--v1", "s1", "--ground", "none"],
    "--replicates": ["bootstrap", "--out", "unused.json"],
    "--rows": ["synth", "--preset", "xor", "--out-dir", "unused"],
    "--axis": ["report", "--results", "unused.json", "--out", "unused.svg"],
}


@given(case=st.data())
@example(case=("--sampled", "0"))
@example(case=("--seed", "-1"))
@example(case=("--axis", "1"))
@example(case=("--alpha", "--"))
def test_malformed_flag_names_the_flag(files, case):
    if isinstance(case, tuple):
        flag, text = case
    else:
        flag = case.draw(st.sampled_from(sorted(BAD_FLAG_TEXT)))
        text = case.draw(BAD_FLAG_TEXT[flag])
    argv = FLAG_COMMANDS[flag] + [f"{flag}={text}"]
    if argv[0] not in ("synth", "report"):
        argv += ["--schema", str(files / "schema.json"), "--data", str(files / "data.csv")]
    code, err = _run(argv)
    assert code == 1 and err.startswith(f"error: {flag}: must ") and "Traceback" not in err, (argv, err)
