"""Seeded end-to-end benchmark of the infogain CLI.

    python3 bench/run.py --workload boot-4k --seed 1 --seconds 15 --trace 0

One client runs ``python -m infogain <subcommand>`` as a subprocess, one
command at a time (a closed loop), with CLI defaults: no ``--threads``, so the
bootstrap uses its default of ``os.cpu_count()`` threads.  Inputs come from
``infogain synth --preset deepfake --seed <seed>``, untimed, in a scratch
directory under ``.bench_work/``.  The command sequence repeats until
``--seconds`` have passed (at least once); times are medians over those
iterations.  Every command exit status and every output check counts as one
attempted operation.

``--trace 1`` instead runs the sequence twice in this process through
``infogain.cli.main``: once plain, once with spans around each layer (see
``tracing.py``), and reports per-layer metrics plus the tracing overhead.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it list every
metric with its unit, the input digests and an environment stamp.  A run
record is also written to ``.bench_work/records/``.  Two runs compare only
if their input digests agree.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_LAUNCHES = 5
# Leave time to check and report before the 180 s a run may take.
RUN_LIMIT_S = 165.0

DATA = ("--schema", "schema.json", "--data", "data.csv")
REPORT = ("report", "--results", "boot.json", "--out", "boot.svg")
# Result documents whose bytes must repeat for one seed.
OUTPUTS = ("boot.json", "boot.svg", "shapley.json")


@dataclass(frozen=True)
class Workload:
    rows: int
    replicates: int  # B of the workload's bootstrap command, if it has one
    commands: tuple[tuple[str, tuple[str, ...]], ...]  # (metric name, argv after `infogain`)

    def steps(self) -> list[tuple[str, list[str]]]:
        return [(name, [a.format(B=self.replicates) for a in argv]) for name, argv in self.commands]


# Why each workload exists (BENCHMARK.json repeats these):
# boot-4k      - the per-replicate estimate_joint -> state_mass -> payoff loop on a
#                small joint (K ~ 3k); loading and serialization are negligible.
# analyze-200k - CSV loading on every command, estimate_joint at K ~ 91k, the
#                per-row cross-fit loop; no bootstrap.
# smoothed-4k  - the same joint/rational layers through the dense smoothed branch;
#                the memory-heavy workload.
WORKLOADS = {
    "boot-4k": Workload(4000, 20, (
        ("bootstrap", ("bootstrap", *DATA, "--replicates", "{B}", "--out", "boot.json")),
        ("report", REPORT),
    )),
    "analyze-200k": Workload(200_000, 0, (
        ("validate", ("validate", *DATA)),
        ("gain", ("gain", *DATA, "--v1", "flicker", "--ground", "human")),
        ("gain_crossfit", ("gain", *DATA, "--v1", "flicker", "--ground", "human", "--cross-fit")),
        ("shapley", ("shapley", *DATA, "--ground", "human_ai", "--out", "shapley.json")),
    )),
    "smoothed-4k": Workload(4000, 5, (
        ("gain", ("gain", *DATA, "--alpha", "0.01", "--v1", "flicker", "--ground", "human,ai,human_ai")),
        ("bootstrap", ("bootstrap", *DATA, "--alpha", "0.01", "--replicates", "{B}",
                       "--gain", "flicker:human,ai,human_ai", "--shapley", "human", "--out", "boot.json")),
        ("report", REPORT),
    )),
}

# The end-to-end metrics every workload reports in its JSON line.
GATED = ("setup_s", "wall_s", "peak_rss_mb")


@dataclass(frozen=True)
class CliRun:
    seconds: float
    rc: int
    maxrss_kib: int
    stdout: str
    stderr: str


def run_cli(argv, workdir: Path, deadline: float) -> CliRun:
    """Run ``python -m infogain`` once; wall time and peak RSS come from that child alone."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out_path, err_path = workdir / "cli.stdout", workdir / "cli.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "infogain", *argv], cwd=workdir, env=env,
                                stdout=out, stderr=err)
        killer = threading.Timer(max(deadline - start, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            killer.join()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return CliRun(seconds, proc.returncode, usage.ru_maxrss,
                  out_path.read_text(encoding="utf-8", errors="replace"),
                  err_path.read_text(encoding="utf-8", errors="replace"))


def run_in_process(cli, steps, workdir: Path, tally, tracer=None) -> dict[str, tuple[float, str]]:
    """Run the steps through ``cli.main`` in this process; (seconds, stdout) per step."""
    done = {}
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for name, argv in steps:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = time.perf_counter()
                try:
                    rc = tracer.call(f"cli.{name}", cli.main, (argv,)) if tracer else cli.main(argv)
                except SystemExit as exc:
                    rc = exc.code
                except Exception:  # a crash is one failed operation, not the end of the run
                    traceback.print_exc()
                    rc = -1
                seconds = time.perf_counter() - start
            tally.check(rc == 0, f"{name} (in process) exited {rc}: {err.getvalue()[-300:]}")
            done[name] = (seconds, out.getvalue())
    finally:
        os.chdir(cwd)
    return done


def flag(argv, name: str, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def check_outputs(steps, stdouts, workdir: Path, cfg, rows, replicates: int, seed: int, tally) -> None:
    """Range, shape and oracle checks on the outputs of one pass over the steps."""
    import checks

    decisions = set(cfg.schema.decision_names)
    signals = cfg.schema.signal_names
    for name, argv in steps:
        out, smoothed, sub = stdouts[name], "--alpha" in argv, argv[0]
        if sub == "validate":
            tally.check(f"ok: {len(rows)} rows" in out, f"{name}: row count not reported as {len(rows)}")
        elif sub == "gain" and "--cross-fit" in argv:
            value = checks.parse_gain(out)
            tally.check(value is not None and -1.0 <= value <= 1.0, f"{name}: cross-fit gain {value!r} not in [-1, 1]")
        elif sub == "gain":
            value = checks.parse_gain(out)
            tally.check(value is not None and checks.in_range(value), f"{name}: gain {value!r} out of range")
            ground = flag(argv, "--ground")
            if not smoothed and ground in decisions:
                raw = checks.oracle_gain(cfg, rows, flag(argv, "--v1").split(","), ground)
                tally.check(checks.matches_oracle(value, raw), f"{name}: gain {value!r}, oracle {raw!r}")
        elif sub == "shapley":
            doc = json.loads((workdir / flag(argv, "--out")).read_text(encoding="utf-8"))
            problems = checks.shapley_problems(doc)
            tally.check(not problems, f"{name}: {problems}")
            ground = flag(argv, "--ground")
            if not smoothed and ground in decisions:
                raw = checks.oracle_gain(cfg, rows, signals, ground)
                total = doc.get("total_gain")
                tally.check(checks.matches_oracle(total, raw), f"{name}: total {total!r}, oracle {raw!r}")
        elif sub == "bootstrap":
            doc = json.loads((workdir / flag(argv, "--out")).read_text(encoding="utf-8"))
            stats = checks.bootstrap_statistics(argv, cfg)
            problems = checks.bootstrap_problems(doc, replicates, checks.stat_columns(stats, cfg))
            tally.check(not problems, f"{name}: {problems}")
            grounds = [g[0] for kind, _, g in stats if kind == "shapley" and len(g) == 1 and g[0] in decisions]
            if not smoothed and grounds and not problems:
                # replicate 0 against the oracle, one ground per run, rotating with the seed
                ground = grounds[seed % len(grounds)]
                phis = [s["samples"][0] for s in doc["statistics"] if s["kind"] == "shapley" and s["ground"] == [ground]]
                sample = checks.replicate_rows(rows, int(flag(argv, "--seed", 0)), 0)
                raw = checks.oracle_gain(cfg, sample, signals, ground)
                total = sum(phis)
                tally.check(checks.matches_oracle(total, raw),
                            f"{name}: replicate 0 Shapley total vs {ground} {total!r}, oracle {raw!r}")
        elif sub == "report":
            svg = (workdir / flag(argv, "--out")).read_bytes()
            tally.check(svg.startswith(b"<") and b"</svg>" in svg, f"{name}: not an SVG document")


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "infogain").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_rev() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
    return done.stdout.strip() or "unknown"


def repeat_record(key: dict) -> Path:
    return WORK / "digests" / (hashlib.sha256(json.dumps(key, sort_keys=True).encode()).hexdigest()[:24] + ".json")


def check_repeat_record(path: Path, found: dict, tally) -> None:
    """Output digests must match those recorded at ``path`` by an earlier run with the same key."""
    if path.is_file():
        before = json.loads(path.read_text(encoding="utf-8"))
        tally.check(before == found, f"output digests differ from an earlier run of this seed: {before} vs {found}")
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(found, sort_keys=True), encoding="utf-8")


def timed_run(workload: Workload, workdir: Path, seconds: float, deadline: float, tally):
    """Closed loop over the CLI; returns (all end-to-end metrics, per-step stdout, output digests)."""
    from checks import digests

    setups = []
    for _ in range(SETUP_LAUNCHES):
        done = run_cli(["--version"], workdir, deadline)
        tally.check(done.rc == 0, f"--version exited {done.rc}")
        setups.append(done.seconds)
    steps = workload.steps()
    iterations, first = [], None
    start = time.perf_counter()
    while not iterations or time.perf_counter() - start < seconds:
        begun = time.perf_counter()
        runs = {}
        for name, argv in steps:
            runs[name] = run_cli(argv, workdir, deadline)
            tally.check(runs[name].rc == 0, f"{name} exited {runs[name].rc}: {runs[name].stderr[-300:]}")
        found = digests(workdir, OUTPUTS)
        if first is None:
            first = found
        else:
            tally.check(found == first, f"output digests changed between iterations: {first} vs {found}")
        iterations.append(runs)
        if time.perf_counter() + (time.perf_counter() - begun) > deadline:
            break

    def median(name):
        return statistics.median(it[name].seconds for it in iterations)

    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(sum(r.seconds for r in it.values()) for it in iterations), "s"),
    }
    for name, _ in steps:
        metrics[f"cmd.{name}_s"] = (median(name), "s")
    if "bootstrap" in iterations[0]:
        metrics["replicates_per_s"] = (workload.replicates / median("bootstrap"), "1/s")
    if "validate" in iterations[0]:
        metrics["rows_per_s"] = (workload.rows / median("validate"), "1/s")
    # peak of the largest child in each iteration; the median damps the overlap of two bootstrap threads
    metrics["peak_rss_mb"] = (statistics.median(max(r.maxrss_kib for r in it.values()) for it in iterations) / 1024.0,
                              "MiB")
    metrics["iterations"] = (len(iterations), "count")
    return metrics, {name: run.stdout for name, run in iterations[-1].items()}, first


def traced_run(workload: Workload, workdir: Path, tally):
    """One plain and one traced pass in process; returns (per-layer metrics, stdout, digests)."""
    import infogain.cli as cli
    from checks import digests
    from tracing import Tracer, layer_metrics

    steps = workload.steps()
    plain = run_in_process(cli, steps, workdir, tally)
    first = digests(workdir, OUTPUTS)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_in_process(cli, steps, workdir, tracer=tracer, tally=tally)
    finally:
        tracer.uninstall()
    found = digests(workdir, OUTPUTS)
    tally.check(found == first, f"output digests differ between plain and traced passes: {first} vs {found}")
    if tracer.missing:
        print(f"trace: missing wrapper targets (their metrics are left out): {', '.join(tracer.missing)}",
              file=sys.stderr)
    metrics = layer_metrics(tracer, sum(seconds for seconds, _ in plain.values()))
    overhead, unaccounted = metrics["trace.overhead_s"][0], metrics["trace.unaccounted_s"][0]
    tally.check(abs(unaccounted) <= max(abs(overhead), 1e-6),
                f"layer self times miss {unaccounted!r} s of traced wall time")
    for name, (seconds, _) in traced.items():
        print(f"  in-process cmd.{name}_s: plain {plain[name][0]:.4f} s, traced {seconds:.4f} s")
    return metrics, {name: text for name, (_, text) in traced.items()}, found


def main(argv=None, workloads=WORKLOADS) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "infogain" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'infogain'}; run from a full checkout", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import numpy

    import checks
    import infogain
    from infogain.io import load_schema
    from tracing import PER_LAYER

    if Path(infogain.__file__).resolve().parent != (SRC / "infogain").resolve():
        print(f"error: imported infogain from {infogain.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    workload = workloads[args.workload]
    began = time.perf_counter()
    deadline = began + RUN_LIMIT_S
    tally = checks.Tally()
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{args.workload}-{args.seed}-", dir=WORK) as tmp:
        workdir = Path(tmp)
        synth = run_cli(["synth", "--preset", "deepfake", "--rows", str(workload.rows), "--seed", str(args.seed),
                         "--out-dir", "."], workdir, deadline)
        if synth.rc != 0:
            print(f"error: synth exited {synth.rc}: {synth.stderr}", file=sys.stderr)
            return 1
        cfg = load_schema(workdir / "schema.json")
        rows = checks.read_rows(cfg, workdir / "data.csv")
        k, singleton_share = checks.tuple_stats(rows)
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "rows": len(rows),
            "inputs_sha256": checks.digests(workdir, ("data.csv", "schema.json")),
            "distinct_tuples": k,
            "singleton_row_share": singleton_share,
            "env": {
                "python": platform.python_version(),
                "numpy": numpy.__version__,
                "cpu_count": os.cpu_count(),
                "nproc": len(os.sched_getaffinity(0)),
                "git_rev": git_rev(),
                "source_sha256": source_digest(),
            },
        }
        boot = [argv for name, argv in workload.steps() if argv[0] == "bootstrap"]
        if boot:
            stats = checks.bootstrap_statistics(boot[0], cfg)
            record["replicates"] = workload.replicates
            record["payoff_evals_per_replicate"] = checks.payoff_sets(stats, cfg)
        if args.trace:
            metrics, stdouts, found = traced_run(workload, workdir, tally)
            wanted = [name for name in PER_LAYER if name in metrics]
        else:
            metrics, stdouts, found = timed_run(workload, workdir, args.seconds, deadline, tally)
            wanted = list(GATED)
        check_outputs(workload.steps(), stdouts, workdir, cfg, rows, workload.replicates, args.seed, tally)
        # one key per source tree, workload and seed: a different program may legitimately differ
        check_repeat_record(repeat_record({"source": record["env"]["source_sha256"], "workload": args.workload,
                                           "seed": args.seed, "spec": repr(workload)}), found, tally)

    if not args.trace:
        metrics["ops_failed"] = (tally.failed / tally.attempted, "share")
    record["metrics"] = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    record["attempted"], record["failed"], record["failures"] = tally.attempted, tally.failed, tally.notes
    record["elapsed_s"] = time.perf_counter() - began
    (WORK / "records").mkdir(exist_ok=True)
    (WORK / "records" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")

    for note in tally.notes:
        print(f"FAILED: {note}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}: {len(rows)} rows, K={k}, "
          f"singleton row share {singleton_share:.4f}"
          + (f", B={workload.replicates}, {record['payoff_evals_per_replicate']} payoff evaluations per replicate"
             if boot else ""))
    print("inputs " + " ".join(f"{n}:sha256={d}" for n, d in record["inputs_sha256"].items()))
    print("env " + " ".join(f"{n}={v}" for n, v in record["env"].items()))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"ops: {tally.failed} failed of {tally.attempted} attempted")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
