"""Nonparametric bootstrap over dataset rows.

Rows are resampled i.i.d. with replacement; each replicate re-estimates the
joint and recomputes the requested gain and Shapley statistics.  Replicate b
draws from its own random stream derived from (seed, b), so results are a pure
function of (data, spec); replicates run in index order.

The resampling scheme treats rows as exchangeable.  Datasets with repeated
measures (the same video or participant on many rows) violate that, so the
output is labeled as a row bootstrap rather than a generic sampling
distribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

import numpy as np

from .joint import Dataset, estimate_joint
from .model import DecisionProblem
from .rational import RationalCache
from .shapley import shapley_exact, shapley_sampled

QUANTILE_LEVELS = (2.5, 25.0, 50.0, 75.0, 97.5)


def set_label(names: Iterable[str]) -> str:
    """Label of a variable set in statistic names: sorted, comma-joined, or "none"."""
    names = tuple(sorted(names))
    return ",".join(names) if names else "none"


@dataclass(frozen=True)
class GainStat:
    """Request one information-gain statistic per replicate."""

    v1: tuple[str, ...]
    ground: tuple[str, ...] = ()
    name: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "v1", tuple(sorted(set(self.v1))))
        object.__setattr__(self, "ground", tuple(sorted(set(self.ground))))
        if self.name is None:
            object.__setattr__(self, "name", f"gain({set_label(self.v1)};{set_label(self.ground)})")


@dataclass(frozen=True)
class ShapleyStat:
    """Request per-signal Shapley statistics for one ground set per replicate.

    ``permutations=None`` means exact enumeration; otherwise sampled with a
    replicate-specific stream.
    """

    ground: tuple[str, ...] = ()
    signals: tuple[str, ...] | None = None
    permutations: int | None = None
    name: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "ground", tuple(sorted(set(self.ground))))
        if self.signals is not None:
            object.__setattr__(self, "signals", tuple(self.signals))
        if self.name is None:
            object.__setattr__(self, "name", f"shapley(ground={set_label(self.ground)})")


StatSpec = Union[GainStat, ShapleyStat]


@dataclass(frozen=True)
class BootstrapSpec:
    replicates: int = 1000
    seed: int = 0
    statistics: tuple[StatSpec, ...] = ()

    def __post_init__(self):
        if self.replicates < 1:
            raise ValueError("need at least one replicate")
        object.__setattr__(self, "statistics", tuple(self.statistics))


@dataclass(frozen=True)
class StatResult:
    """Bootstrap distribution of one scalar statistic."""

    name: str
    kind: str  # "gain" or "shapley"
    signal: str | None
    v1: tuple[str, ...] | None
    ground: tuple[str, ...]
    ground_role: str
    samples: tuple[float, ...]
    mean: float
    sd: float
    quantiles: dict[str, float]

    def __post_init__(self):
        qs = [self.quantiles[f"{q:g}"] for q in QUANTILE_LEVELS]
        if any(b < a for a, b in zip(qs, qs[1:])):
            raise ValueError("quantiles out of order")


@dataclass(frozen=True)
class BootstrapResult:
    replicates: int
    seed: int
    alpha: float
    statistics: tuple[StatResult, ...]

    def by_name(self, name: str) -> StatResult:
        for stat in self.statistics:
            if stat.name == name:
                return stat
        raise KeyError(name)


def _ground_role(data: Dataset, ground: tuple[str, ...]) -> str:
    if not ground:
        return "none"
    if len(ground) == 1 and data.schema.is_decision(ground[0]):
        return data.schema.entry(ground[0]).role
    return "other"


def _expand_layout(data: Dataset, spec: BootstrapSpec) -> list[dict]:
    """Fixed column layout of scalar statistics produced by each replicate."""
    layout = []
    for idx, stat in enumerate(spec.statistics):
        if isinstance(stat, GainStat):
            layout.append(
                dict(name=stat.name, kind="gain", signal=None, v1=stat.v1, ground=stat.ground,
                     ground_role=_ground_role(data, stat.ground), stat_index=idx)
            )
        elif isinstance(stat, ShapleyStat):
            signals = stat.signals if stat.signals is not None else data.schema.signal_names
            for sig in signals:
                layout.append(
                    dict(name=f"{stat.name}.{sig}", kind="shapley", signal=sig, v1=None,
                         ground=stat.ground, ground_role=_ground_role(data, stat.ground), stat_index=idx)
                )
        else:
            raise TypeError(f"unknown statistic spec {stat!r}")
    if not layout:
        raise ValueError("bootstrap spec requests no statistics")
    return layout


def _replicate_values(
    data: Dataset, problem: DecisionProblem, spec: BootstrapSpec, alpha: float, b: int
) -> list[float]:
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed, spawn_key=(b,)))
    idx = rng.integers(0, data.n_rows, size=data.n_rows)
    resampled = Dataset(data.states, data.schema, data.rows[idx], state_name=data.state_name)
    joint = estimate_joint(resampled, alpha)
    cache = RationalCache(joint, problem)
    values: list[float] = []
    for stat_index, stat in enumerate(spec.statistics):
        if isinstance(stat, GainStat):
            values.append(cache.gain(stat.v1, stat.ground).value)
        else:
            signals = stat.signals if stat.signals is not None else data.schema.signal_names
            if stat.permutations is None:
                report = shapley_exact(joint, problem, signals, stat.ground, cache=cache)
            else:
                sub_seed = np.random.SeedSequence(spec.seed, spawn_key=(b, 10_000 + stat_index))
                report = shapley_sampled(
                    joint, problem, signals, stat.ground,
                    permutations=stat.permutations,
                    seed=int(sub_seed.generate_state(1)[0]),
                    cache=cache,
                )
            values.extend(report.values)
    return values


def bootstrap_run(
    data: Dataset,
    problem: DecisionProblem,
    spec: BootstrapSpec,
    *,
    alpha: float = 0.0,
) -> BootstrapResult:
    """Run the bootstrap; output depends only on (data, problem, spec, alpha)."""
    layout = _expand_layout(data, spec)
    rows = [_replicate_values(data, problem, spec, alpha, b) for b in range(spec.replicates)]
    samples = np.array(rows, dtype=np.float64)  # (B, n_stats), ordered by replicate index

    stats = []
    for j, item in enumerate(layout):
        col = samples[:, j]
        qs = np.quantile(col, [q / 100.0 for q in QUANTILE_LEVELS], method="linear")
        stats.append(
            StatResult(
                name=item["name"],
                kind=item["kind"],
                signal=item["signal"],
                v1=item["v1"],
                ground=item["ground"],
                ground_role=item["ground_role"],
                samples=tuple(float(x) for x in col),
                mean=float(np.mean(col)),
                sd=float(np.std(col, ddof=1)) if len(col) > 1 else 0.0,
                quantiles={f"{q:g}": float(v) for q, v in zip(QUANTILE_LEVELS, qs)},
            )
        )
    return BootstrapResult(replicates=spec.replicates, seed=spec.seed, alpha=alpha, statistics=tuple(stats))
