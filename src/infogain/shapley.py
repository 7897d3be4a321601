"""Shapley attribution of unexploited information value per basic signal.

The coalition game assigns each signal subset its information gain over a
fixed ground set of variables (typically a behavioral decision column).  A
signal's Shapley value is its average marginal contribution across coalitions,
so individually worthless but jointly valuable signals still get credit.

Coalition values are memoized by subset bitmask; since the ground set only
shifts which benchmark payoffs are needed, one payoff cache serves every
ground set in a comparison.  Exact enumeration primes that cache with all
2^n coalition payoffs as one family, so each coalition's table is derived
from a superset's rather than grouped from the joint's tuples.  All
accumulation uses exact float summation, so results do not depend on
evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import SchemaError, ShapleyCeilingError
from .joint import JointDistribution
from .model import DecisionProblem
from .rational import RationalCache, clamp_gain

EXACT_CEILING_DEFAULT = 15


@dataclass(frozen=True)
class ShapleyReport:
    """Per-signal attribution of the gain of all signals over the ground set."""

    signals: tuple[str, ...]
    values: tuple[float, ...]
    ground: tuple[str, ...]
    method: str  # "exact" or "sampled"
    total_gain: float  # gain of the full signal set over the ground set
    permutations: int | None = None
    seed: int | None = None
    standard_errors: tuple[float, ...] | None = None
    label: str | None = None

    def value_of(self, signal: str) -> float:
        return self.values[self.signals.index(signal)]


def resolve_signals(joint: JointDistribution, signals: Sequence[str] | None) -> tuple[str, ...]:
    """The Shapley players: ``signals`` (every signal of the schema for None), checked to be distinct basic signals."""
    if signals is None:
        return joint.schema.signal_names
    out = []
    for name in signals:
        if joint.schema.is_decision(name):
            raise SchemaError(f"{name!r} is a decision column; Shapley players must be basic signals")
        out.append(name)
    if len(set(out)) != len(out):
        raise SchemaError("duplicate signal in Shapley player list")
    return tuple(out)


class _CoalitionGame:
    """v(subset) = clamped information gain of the subset over the ground set."""

    def __init__(self, cache: RationalCache, signals: tuple[str, ...], ground: tuple[str, ...]):
        self.cache = cache
        self.signals = signals
        self.ground = set(ground)
        self._values: dict[int, float] = {}
        self._r_ground = cache.payoff(self.ground)

    def value(self, mask: int) -> float:
        v = self._values.get(mask)
        if v is None:
            members = {s for i, s in enumerate(self.signals) if mask >> i & 1}
            v = clamp_gain(self.cache.payoff(members | self.ground) - self._r_ground)
            self._values[mask] = v
        return v


def coalition_sets(
    signals: Sequence[str], ground: Iterable[str], ceiling: int = EXACT_CEILING_DEFAULT
) -> list[frozenset[str]]:
    """The 2^n variable sets exact enumeration reads: the ground set joined
    with each subset of ``signals``, by bitmask.  More than ``ceiling``
    signals raise ``ShapleyCeilingError`` before any set is built."""
    n = len(signals)
    if n > ceiling:
        raise ShapleyCeilingError(
            f"{n} signals exceed the exact-method ceiling of {ceiling} "
            f"({2 ** n} subsets); use shapley_sampled instead"
        )
    ground = frozenset(ground)
    return [ground.union(s for i, s in enumerate(signals) if mask >> i & 1) for mask in range(1 << n)]


def shapley_exact(
    joint: JointDistribution,
    problem: DecisionProblem,
    signals: Sequence[str] | None = None,
    ground: Iterable[str] = (),
    *,
    ceiling: int = EXACT_CEILING_DEFAULT,
    cache: RationalCache | None = None,
    label: str | None = None,
) -> ShapleyReport:
    """Exact Shapley values by full subset enumeration (2^n coalition values)."""
    signals = resolve_signals(joint, signals)
    ground = tuple(sorted(set(ground)))
    n = len(signals)
    sets = coalition_sets(signals, ground, ceiling)
    cache = cache or RationalCache(joint, problem)
    cache.prime(sets)
    game = _CoalitionGame(cache, signals, ground)
    # weight of a coalition of size k not containing the player
    weights = [1.0 / (n * math.comb(n - 1, k)) for k in range(n)] if n else []
    values = []
    for i in range(n):
        bit = 1 << i
        terms = []
        for mask in range(1 << n):
            if mask & bit:
                continue
            k = mask.bit_count()
            terms.append(weights[k] * (game.value(mask | bit) - game.value(mask)))
        values.append(math.fsum(terms))
    full = (1 << n) - 1
    return ShapleyReport(
        signals=signals,
        values=tuple(values),
        ground=ground,
        method="exact",
        total_gain=game.value(full),
        label=label,
    )


def shapley_sampled(
    joint: JointDistribution,
    problem: DecisionProblem,
    signals: Sequence[str] | None = None,
    ground: Iterable[str] = (),
    *,
    permutations: int,
    seed: int = 0,
    cache: RationalCache | None = None,
    label: str | None = None,
) -> ShapleyReport:
    """Monte Carlo Shapley estimate from uniformly random signal orderings.

    Unbiased for the exact values; deterministic for a fixed seed.  Standard
    errors are the per-signal sample errors of the permutation contributions.
    """
    signals = resolve_signals(joint, signals)
    ground = tuple(sorted(set(ground)))
    n = len(signals)
    if permutations < 1:
        raise ValueError("need at least one permutation")
    cache = cache or RationalCache(joint, problem)
    game = _CoalitionGame(cache, signals, ground)
    rng = np.random.default_rng(seed)
    contrib = np.empty((permutations, n), dtype=np.float64)
    for p in range(permutations):
        order = rng.permutation(n)
        mask = 0
        prev = game.value(0)
        for i in order:
            mask |= 1 << int(i)
            cur = game.value(mask)
            contrib[p, i] = cur - prev
            prev = cur
    values = tuple(math.fsum(contrib[:, i]) / permutations for i in range(n))
    if permutations > 1:
        errs = tuple(float(np.std(contrib[:, i], ddof=1)) / math.sqrt(permutations) for i in range(n))
    else:
        errs = tuple(0.0 for _ in range(n))
    return ShapleyReport(
        signals=signals,
        values=values,
        ground=ground,
        method="sampled",
        total_gain=game.value((1 << n) - 1),
        permutations=permutations,
        seed=seed,
        standard_errors=errs,
        label=label,
    )

