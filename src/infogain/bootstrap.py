"""Nonparametric bootstrap over dataset rows.

Rows are resampled i.i.d. with replacement; each replicate recomputes the
requested gain and Shapley statistics on the joint of its resampled rows.
Replicate b draws from its own random stream derived from (seed, b), so
results are a pure function of (data, spec).

A replicate's joint only reweights the distinct tuples of the dataset, so a
replicate is a count vector over those K tuples rather than a resampled
dataset.  Replicates are evaluated in blocks of at most
``REPLICATE_CELLS // K`` (and at least one): ``_payoff_sets`` replays their
statistics to learn the variable sets they read, ``rational.primed_caches``
evaluates those in one walk of their subset lattice and gives each replicate
a cache over its own joint (the block's tuples, its count row), and
``_replicate_values`` reads its statistics from that cache.  The tables are
exact count sums, so the samples are those of an estimate on each
replicate's resampled rows.

The resampling scheme treats rows as exchangeable.  Datasets with repeated
measures (the same video or participant on many rows) violate that, so the
output is labeled as a row bootstrap rather than a generic sampling
distribution.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Union

import numpy as np

from .joint import Dataset, JointDistribution, encode, estimate_joint
from .model import DecisionProblem
from .rational import RationalCache, primed_caches
from .shapley import ShapleyReport, shapley_exact, shapley_sampled

QUANTILE_LEVELS = (2.5, 25.0, 50.0, 75.0, 97.5)
# Bound on replicates x distinct tuples per block of replicates evaluated together.
REPLICATE_CELLS = 2**15


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


def _ground_role(data: Dataset, ground: tuple[str, ...]) -> str:
    if not ground:
        return "none"
    if len(ground) == 1 and data.schema.is_decision(ground[0]):
        return data.schema.entry(ground[0]).role
    return "other"


def _expand_layout(data: Dataset, spec: BootstrapSpec) -> list[dict]:
    """Fixed column layout of scalar statistics produced by each replicate."""
    layout = []
    for stat in spec.statistics:
        if isinstance(stat, GainStat):
            layout.append(
                dict(name=stat.name, kind="gain", signal=None, v1=stat.v1, ground=stat.ground,
                     ground_role=_ground_role(data, stat.ground))
            )
        elif isinstance(stat, ShapleyStat):
            signals = stat.signals if stat.signals is not None else data.schema.signal_names
            for sig in signals:
                layout.append(
                    dict(name=f"{stat.name}.{sig}", kind="shapley", signal=sig, v1=None,
                         ground=stat.ground, ground_role=_ground_role(data, stat.ground))
                )
        else:
            raise TypeError(f"unknown statistic spec {stat!r}")
    if not layout:
        raise ValueError("bootstrap spec requests no statistics")
    return layout


def _draw(data: Dataset, seed: int, b: int) -> np.ndarray:
    """Row indices of replicate b: n draws with replacement from the stream (seed, b)."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(b,)))
    return rng.integers(0, data.n_rows, size=data.n_rows)


def _shapley(
    joint: JointDistribution, problem: DecisionProblem, spec: BootstrapSpec, b: int, stat_index: int,
    cache: RationalCache,
) -> ShapleyReport:
    stat = spec.statistics[stat_index]
    signals = stat.signals if stat.signals is not None else joint.schema.signal_names
    if stat.permutations is None:
        return shapley_exact(joint, problem, signals, stat.ground, cache=cache)
    sub_seed = np.random.SeedSequence(spec.seed, spawn_key=(b, 10_000 + stat_index))
    return shapley_sampled(
        joint, problem, signals, stat.ground,
        permutations=stat.permutations,
        seed=int(sub_seed.generate_state(1)[0]),
        cache=cache,
    )


class _Requests(RationalCache):
    """Records the variable sets whose payoffs are read; every payoff reads as 0."""

    def __init__(self, joint: JointDistribution, problem: DecisionProblem):
        super().__init__(joint, problem)
        self.sets: set[frozenset] = set()

    def prime(self, sets: Iterable[Iterable[str]]) -> list[float]:
        sets = [frozenset(s) for s in sets]
        self.sets.update(sets)
        return [0.0] * len(sets)


def _payoff_sets(joint: JointDistribution, problem: DecisionProblem, spec: BootstrapSpec, b: int) -> set[frozenset]:
    """The variable sets whose payoffs replicate b's statistics read.

    They follow from the spec and the seed, never from payoff values, so they
    are known before any payoff of the replicate is computed.
    """
    requests = _Requests(joint, problem)
    for stat_index, stat in enumerate(spec.statistics):
        if isinstance(stat, GainStat):
            requests.gain(stat.v1, stat.ground)
        else:
            _shapley(joint, problem, spec, b, stat_index, requests)
    return requests.sets


def _replicate_values(
    joint: JointDistribution, problem: DecisionProblem, spec: BootstrapSpec, b: int, cache: RationalCache
) -> list[float]:
    """The statistics of replicate b, with payoffs from its cache."""
    values: list[float] = []
    for stat_index, stat in enumerate(spec.statistics):
        if isinstance(stat, GainStat):
            values.append(cache.gain(stat.v1, stat.ground).value)
        else:
            values.extend(_shapley(joint, problem, spec, b, stat_index, cache).values)
    return values


def _block_values(
    data: Dataset, problem: DecisionProblem, spec: BootstrapSpec,
    joint: JointDistribution, row_key: np.ndarray, block: range,
) -> list[list[float]]:
    """Statistics of the replicates in ``block``, evaluated together.

    ``joint`` is the dataset's joint and ``row_key`` maps each dataset row to
    its tuple.  A tuple that no replicate of the block draws is a background
    cell of each of them, so the block's tables cover only the drawn tuples,
    weighted by each replicate's count rows.
    """
    counts = np.array([np.bincount(row_key[_draw(data, spec.seed, b)], minlength=len(joint.keys)) for b in block])
    support = counts.any(axis=0)
    counts = counts[:, support].astype(np.float64)
    block_joint = replace(joint, keys=joint.keys[support], probs=counts[0])
    wanted: dict[frozenset, list[int]] = {}  # variable set -> the block rows that read its payoff
    for r, b in enumerate(block):
        for key in _payoff_sets(block_joint, problem, spec, b):
            wanted.setdefault(key, []).append(r)
    caches = primed_caches(block_joint, problem, counts, wanted)
    return [_replicate_values(cache.joint, problem, spec, b, cache) for b, cache in zip(block, caches)]


def bootstrap_run(
    data: Dataset,
    problem: DecisionProblem,
    spec: BootstrapSpec,
    *,
    alpha: float = 0.0,
) -> BootstrapResult:
    """Run the bootstrap; output depends only on (data, problem, spec, alpha)."""
    layout = _expand_layout(data, spec)
    joint = estimate_joint(data, alpha)
    # the index of each row's tuple among joint.keys, which are sorted by the same codes
    _, row_key = np.unique(encode(data.rows, joint.domain_sizes), return_inverse=True)
    per_block = max(1, REPLICATE_CELLS // len(joint.keys))
    rows = []
    for start in range(0, spec.replicates, per_block):
        block = range(start, min(start + per_block, spec.replicates))
        rows += _block_values(data, problem, spec, joint, row_key, block)
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
