"""Output checks for the benchmark.

Every check is one attempted operation; a check that does not hold is one
failed operation.  The oracle checks recompute results from the CSV the CLI
read, with a parser and joint estimate of their own, through the package's
independent dense-enumeration oracle ``synth.brute_force_rational``.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import math
import re
from pathlib import Path

import numpy as np

from infogain.io import SchemaConfig, domain_value_str
from infogain.joint import JointDistribution
from infogain.model import SignalSchema
from infogain.synth import brute_force_rational

# Range of every gain and Shapley value under the quadratic (Brier) score.
VALUE_LO, VALUE_HI = -1e-9, 1.0
QUANTILE_KEYS = ("2.5", "25", "50", "75", "97.5")
# Agreement required between a reported value and the oracle.
ORACLE_TOL = 1e-12
# The CLI reports a gain within this distance of zero as exactly 0.
CLAMP_TOL = 1e-9

_VALUE_LINE = re.compile(r"^gain\(.*\) = (\S+)$", re.MULTILINE)


class Tally:
    """Counts attempted and failed operations and keeps a note per failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)
        return ok


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def digests(workdir: Path, names) -> dict[str, str]:
    return {name: sha256(workdir / name) if (workdir / name).is_file() else "missing" for name in names}


def parse_gain(stdout: str) -> float | None:
    found = _VALUE_LINE.findall(stdout)
    return float(found[-1]) if found else None


def in_range(value: float) -> bool:
    return VALUE_LO <= value <= VALUE_HI


def bootstrap_problems(doc: dict, replicates: int, n_stats: int) -> list[str]:
    """Invariants of a bootstrap result document; an empty list means it passes."""
    stats = doc.get("statistics") or []
    problems = []
    if len(stats) != n_stats:
        problems.append(f"{len(stats)} statistics, expected {n_stats}")
    for stat in stats:
        name, samples = stat.get("name"), stat.get("samples") or []
        if len(samples) != replicates:
            problems.append(f"{name}: {len(samples)} samples, expected {replicates}")
        if not all(in_range(x) for x in samples):
            problems.append(f"{name}: sample outside [{VALUE_LO}, {VALUE_HI}]")
        qs = [stat.get("quantiles", {}).get(k) for k in QUANTILE_KEYS]
        if None in qs or any(b < a for a, b in zip(qs, qs[1:])):
            problems.append(f"{name}: quantiles missing or out of order")
    return problems


def shapley_problems(doc: dict) -> list[str]:
    """Range and efficiency of an exact Shapley result document."""
    values = list((doc.get("values") or {}).values())
    total = doc.get("total_gain")
    problems = []
    if not values or total is None:
        return ["no values or no total_gain"]
    if not all(in_range(v) for v in values + [total]):
        problems.append(f"value outside [{VALUE_LO}, {VALUE_HI}]")
    if abs(math.fsum(values) - total) > ORACLE_TOL:
        problems.append(f"values sum to {math.fsum(values)!r}, total_gain is {total!r}")
    return problems


def read_rows(cfg: SchemaConfig, csv_path: Path) -> np.ndarray:
    """Parse the dataset CSV into domain indices, state first, in schema order.

    A plain lookup of each cell's exact text, sharing no code with
    ``io.load_dataset``; raises KeyError on a cell outside its domain.
    """
    names = [cfg.state_column] + [e.name for e in cfg.schema.entries]
    lookups = [{label: i for i, label in enumerate(cfg.states.labels)}]
    lookups += [{domain_value_str(v): i for i, v in enumerate(e.domain)} for e in cfg.schema.entries]
    with open(csv_path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        positions = [header.index(name) for name in names]
        rows = [[lookup[record[p]] for lookup, p in zip(lookups, positions)] for record in reader]
    return np.array(rows, dtype=np.int64)


def tuple_stats(rows: np.ndarray) -> tuple[int, float]:
    """Distinct tuples K and the share of rows that sit alone in their cell."""
    _, counts = np.unique(rows, axis=0, return_counts=True)
    return len(counts), float((counts == 1).sum()) / len(rows)


def _projected_joint(cfg: SchemaConfig, rows: np.ndarray, decision: str) -> JointDistribution:
    """Empirical joint over (state, every signal, one decision column)."""
    cols = list(range(1 + len(cfg.schema.signals))) + [1 + cfg.schema.position(decision)]
    keys, counts = np.unique(rows[:, cols], axis=0, return_counts=True)
    schema = SignalSchema(signals=cfg.schema.signals, decisions=(cfg.schema.entry(decision),))
    return JointDistribution(states=cfg.states, schema=schema, keys=keys, probs=counts / len(rows),
                             state_name=cfg.state_column)


def oracle_gain(cfg: SchemaConfig, rows: np.ndarray, v1, decision: str) -> float:
    """Unclamped in-sample gain of ``v1`` over one decision column, by dense enumeration."""
    joint = _projected_joint(cfg, rows, decision)
    both = set(v1) | {decision}
    return brute_force_rational(joint, cfg.problem, both) - brute_force_rational(joint, cfg.problem, {decision})


def matches_oracle(reported: float | None, raw: float) -> bool:
    if reported is None:
        return False
    return abs(reported - raw) <= ORACLE_TOL or (reported == 0.0 and abs(raw) <= CLAMP_TOL)


def replicate_rows(rows: np.ndarray, seed: int, b: int) -> np.ndarray:
    """Rows of bootstrap replicate b: n draws with replacement from the stream (seed, b).

    This is the documented replicate contract of ``infogain.bootstrap`` (results
    are a pure function of data, spec and seed, independent of scheduling).
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(b,)))
    return rows[rng.integers(0, len(rows), size=len(rows))]


def bootstrap_statistics(argv, cfg: SchemaConfig) -> list[tuple[str, tuple, tuple]]:
    """(kind, v1, ground) of each statistic a bootstrap command requests."""
    stats = []
    for flag, value in zip(argv, argv[1:]):
        if flag == "--gain":
            v1, ground = value.split(":")
            stats.append(("gain", tuple(v1.split(",")), tuple(ground.split(","))))
        elif flag == "--shapley":
            stats.append(("shapley", (), tuple(value.split(","))))
    return stats or [("shapley", (), (name,)) for name in cfg.schema.decision_names]


def stat_columns(stats, cfg: SchemaConfig) -> int:
    n_signals = len(cfg.schema.signal_names)
    return sum(1 if kind == "gain" else n_signals for kind, _, _ in stats)


def payoff_sets(stats, cfg: SchemaConfig) -> int:
    """Distinct observed-variable sets, hence payoff evaluations, per replicate."""
    signals = cfg.schema.signal_names
    sets = set()
    for kind, v1, ground in stats:
        if kind == "gain":
            sets |= {frozenset(v1 + ground), frozenset(ground)}
        else:
            for r in range(len(signals) + 1):
                sets |= {frozenset(c + ground) for c in itertools.combinations(signals, r)}
    return len(sets)
