"""Self-test of the benchmark itself.

    python3 bench/selftest.py

1. Smoke: every workload at a tiny size, untraced and traced, must exit 0,
   pass its output checks, emit exactly the metrics BENCHMARK.json lists with
   their units, and print every named metric with its unit.
2. The correctness gate bites: tampered result documents and a flipped output
   digest must each be counted as a failed operation.

Exits 0 when every test holds and prints what failed otherwise.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import io
import json
import re
import sys
import tempfile
import time
from pathlib import Path

import run

TINY = {name: dataclasses.replace(w, rows=300, replicates=3) for name, w in run.WORKLOADS.items()}
SEED = 3

# Layer metrics named by the benchmark's design; the traced run prints each.
NAMED_LAYER_METRICS = (
    "io.load_dataset_s", "io.load_dataset_calls", "io.rows_loaded", "io.write_results_s", "io.result_bytes",
    "joint.estimate_joint_s", "joint.estimate_joint_calls", "joint.distinct_tuples",
    "joint.state_mass_s", "joint.state_mass_calls", "joint.groups",
    "rational.payoff_self_s", "rational.payoff_evals", "rational.cache_lookups", "rational.cache_hit_ratio",
    "rational.cross_fit_s", "shapley.exact_s", "shapley.exact_calls", "shapley.coalitions",
    "bootstrap.run_s", "bootstrap.self_s", "bootstrap.replicate_mean_s",
    "report.build_plot_spec_s", "report.render_svg_s", "report.svg_bytes", "cli.self_s", "trace.overhead_s",
)
SELF_SHARES = (
    "io.load_dataset_self_share", "io.write_results_self_share", "joint.estimate_joint_self_share",
    "joint.state_mass_self_share", "rational.payoff_self_share", "rational.cache_lookup_self_share",
    "rational.cross_fit_self_share", "shapley.exact_self_share", "bootstrap.self_share",
    "report.build_plot_spec_self_share", "report.render_svg_self_share", "cli.self_share",
)


def named_end_to_end(workload: run.Workload) -> list[str]:
    names = ["setup_s", "wall_s", "peak_rss_mb", "ops_failed"]
    names += [f"cmd.{name}_s" for name, _ in workload.commands]
    commands = {argv[0] for _, argv in workload.commands}
    names += ["replicates_per_s"] * ("bootstrap" in commands) + ["rows_per_s"] * ("validate" in commands)
    return names


def smoke(bench: dict) -> list[str]:
    problems = []
    for name, workload in TINY.items():
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = run.main(["--workload", name, "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
                              workloads=TINY)
            lines = out.getvalue().strip().splitlines()
            result = json.loads(lines[-1])
            where = f"{name} --trace {trace}"
            if rc != 0 or not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: rc={rc}, result {result['attempted']} attempted, {result['failed']} failed")
            listed = {m["name"]: m["unit"] for m in bench[section]}
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            if emitted != listed:
                problems.append(f"{where}: emitted metrics differ from BENCHMARK.json {section}: "
                                f"{sorted(set(emitted.items()) ^ set(listed.items()))}")
            printed = dict(re.findall(r"^(\S+) = \S+ (\S+)$", "\n".join(lines[:-1]), re.MULTILINE))
            named = NAMED_LAYER_METRICS if trace else named_end_to_end(workload)
            absent = [n for n in named if n not in printed]
            if absent:
                problems.append(f"{where}: named metrics not printed with a unit: {absent}")
            if trace:
                total = sum(result["metrics"][n]["value"] for n in SELF_SHARES)
                if abs(total - 1.0) > 1e-9:
                    problems.append(f"{where}: self shares sum to {total!r}, not 1")
    return problems


def _shift_total(doc: dict, delta: float) -> None:
    """Move total_gain off the oracle while keeping the values summing to it."""
    doc["total_gain"] += delta
    first = doc["signals"][0]
    doc["values"][first] += delta


TAMPERS = (
    ("boot.json", "a bootstrap sample pushed above 1",
     lambda d: d["statistics"][0]["samples"].__setitem__(0, 1.5)),
    ("boot.json", "a bootstrap sample dropped", lambda d: d["statistics"][-1]["samples"].pop()),
    ("boot.json", "bootstrap quantiles out of order",
     lambda d: d["statistics"][0]["quantiles"].__setitem__("2.5", 2.0)),
    ("shapley.json", "a Shapley value below -1e-9",
     lambda d: d["values"].__setitem__(d["signals"][0], -1e-6)),
    ("shapley.json", "Shapley total 1e-9 off the oracle", lambda d: _shift_total(d, 1e-9)),
)


def gate_bites() -> list[str]:
    import checks
    from infogain.io import load_schema

    problems = []
    steps = [("bootstrap", ["bootstrap", *run.DATA, "--replicates", "3", "--out", "boot.json"]),
             ("shapley", ["shapley", *run.DATA, "--ground", "human", "--out", "shapley.json"])]
    synth = ["synth", "--preset", "deepfake", "--rows", "300", "--seed", str(SEED), "--out-dir", "."]
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="selftest-", dir=run.WORK) as tmp:
        workdir = Path(tmp)
        deadline = time.perf_counter() + 150
        for argv in [synth] + [argv for _, argv in steps]:
            done = run.run_cli(argv, workdir, deadline)
            if done.rc != 0:
                return [f"tiny {argv[0]} exited {done.rc}: {done.stderr}"]
        cfg = load_schema(workdir / "schema.json")
        rows = checks.read_rows(cfg, workdir / "data.csv")

        def failed() -> int:
            tally = checks.Tally()
            run.check_outputs(steps, {"bootstrap": "", "shapley": ""}, workdir, cfg, rows, 3, SEED, tally)
            return tally.failed

        if failed():
            problems.append("genuine tiny outputs fail their checks")
        for name, what, mutate in TAMPERS:
            path = workdir / name
            original = path.read_text(encoding="utf-8")
            doc = copy.deepcopy(json.loads(original))
            mutate(doc)
            path.write_text(json.dumps(doc), encoding="utf-8")
            if not failed():
                problems.append(f"tampered document ({what}) was not counted as a failed operation")
            path.write_text(original, encoding="utf-8")

        record = workdir / "digests.json"
        tally = checks.Tally()
        run.check_repeat_record(record, checks.digests(workdir, run.OUTPUTS), tally)
        run.check_repeat_record(record, checks.digests(workdir, run.OUTPUTS), tally)
        data = bytearray((workdir / "boot.json").read_bytes())
        data[-2] ^= 1  # flip one bit of the document
        (workdir / "boot.json").write_bytes(bytes(data))
        run.check_repeat_record(record, checks.digests(workdir, run.OUTPUTS), tally)
        if (tally.attempted, tally.failed) != (2, 1):
            problems.append(f"flipped digest: {tally.failed} of {tally.attempted} repeat checks failed, expected 1 of 2")
    return problems


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = smoke(bench)
    problems += gate_bites()
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
