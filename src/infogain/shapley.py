"""Shapley attribution of unexploited information value per basic signal.

The coalition game assigns each signal subset its information gain over a
fixed ground set of variables (typically a behavioral decision column).  A
signal's Shapley value is its average marginal contribution across coalitions,
so individually worthless but jointly valuable signals still get credit.

A coalition's value is the clamped gain of its variable set (the coalition
joined with the ground set) over the ground set.  ``exact_values`` and
``sampled_values`` turn the payoffs of the sets read (``coalition_sets``, or
a ``sampled_walk``'s visited coalitions) into values, for these functions
and for the bootstrap alike.  The functions read those payoffs from one
``rational.payoffs`` call, so the sets are one family and each set's table
is summed from a superset's (see ``rational.family_payoffs``).  All
accumulation uses exact float summation, so results do not depend on
evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import SchemaError, ShapleyCeilingError
from .joint import JointDistribution
from .model import DecisionProblem
from .rational import clamp_gain, payoffs

# The most players exact enumeration takes: 2^15 coalition sets.
EXACT_CEILING = 15


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


def coalition_sets(signals: Sequence[str], ground: Iterable[str]) -> list[frozenset[str]]:
    """The 2^n variable sets exact enumeration reads: the ground set joined
    with each subset of ``signals``, by bitmask.  More than ``EXACT_CEILING``
    signals raise ``ShapleyCeilingError`` before any set is built."""
    n = len(signals)
    if n > EXACT_CEILING:
        raise ShapleyCeilingError(
            f"{n} signals exceed the exact-method ceiling of {EXACT_CEILING} "
            f"({2 ** n} subsets); use shapley_sampled instead"
        )
    ground = frozenset(ground)
    return [ground.union(s for i, s in enumerate(signals) if mask >> i & 1) for mask in range(1 << n)]


def exact_weights(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each of n players i, (n, 2^(n-1)) arrays: the coalitions S without i and S + i, as
    ``coalition_sets`` positions (bitmasks), and the weight 1 / (n C(n-1, |S|)) of S's term."""
    masks = np.arange(1 << n)
    without = np.array([masks[masks >> i & 1 == 0] for i in range(n)], dtype=np.intp).reshape(n, (1 << n) // 2)
    per_size = np.array([1.0 / (n * math.comb(n - 1, k)) for k in range(n)])
    sizes = np.array([mask.bit_count() for mask in range(1 << n)])
    return without, without | (1 << np.arange(n))[:, None], per_size[sizes[without]]


def exact_values(payoffs: Sequence[float], weights: tuple) -> tuple[tuple[float, ...], float]:
    """Exact Shapley values (one exact sum per player) and the total gain, from the payoffs of
    ``coalition_sets``, in its order, and the ``exact_weights`` of its players."""
    without, joined, weight = weights
    value = clamp_gain(np.asarray(payoffs, dtype=np.float64) - payoffs[0])
    terms = weight * (value[joined] - value[without])
    return tuple(math.fsum(row) for row in terms.tolist()), float(value[-1])


class SampledWalk(NamedTuple):
    """Random orders of the players (P, n), the sets their prefixes visit (each once, the ground set
    first), and the position in ``sets`` of each order's first j players (P, n + 1)."""

    orders: np.ndarray
    sets: list[frozenset]
    steps: np.ndarray


def check_permutations(permutations: int) -> None:
    """Refuse a sampled estimate over fewer than one order."""
    if permutations < 1:
        raise ValueError("need at least one permutation")


def sampled_walk(players: Sequence[str], ground: Iterable[str], permutations: int, seed: int) -> SampledWalk:
    """``permutations`` uniformly random orders of ``players`` drawn from ``seed``, and the sets they visit."""
    check_permutations(permutations)
    rng = np.random.default_rng(seed)
    orders = [rng.permutation(len(players)).tolist() for _ in range(permutations)]
    index = {frozenset(ground): 0}  # visited set -> its position in ``sets``
    steps = []
    for order in orders:
        coalition, step = frozenset(ground), [0]
        for i in order:
            coalition = coalition | {players[i]}
            step.append(index.setdefault(coalition, len(index)))
        steps.append(step)
    orders = np.array(orders, dtype=np.intp).reshape(permutations, len(players))
    return SampledWalk(orders, list(index), np.array(steps))


def sampled_values(payoffs: Sequence[float], walk: SampledWalk) -> tuple[tuple[float, ...], tuple[float, ...], float]:
    """Sampled Shapley values (mean contributions), their standard errors and the total gain, from the
    payoffs of ``walk.sets``: a player's contribution to an order is the clamped gain of the prefix
    it ends minus that of the prefix before."""
    orders, _, steps = walk
    permutations, n = orders.shape
    value = clamp_gain(np.asarray(payoffs, dtype=np.float64) - payoffs[0])
    contrib = np.empty((permutations, n), dtype=np.float64)
    np.put_along_axis(contrib, orders, np.diff(value[steps], axis=1), axis=1)
    values = tuple(math.fsum(contrib[:, i]) / permutations for i in range(n))
    errs = tuple(float(np.std(contrib[:, i], ddof=1)) / math.sqrt(permutations) if permutations > 1 else 0.0
                 for i in range(n))
    return values, errs, float(value[steps[0, -1]])


def shapley_exact(
    joint: JointDistribution,
    problem: DecisionProblem,
    signals: Sequence[str] | None = None,
    ground: Iterable[str] = (),
    *,
    label: str | None = None,
) -> ShapleyReport:
    """Exact Shapley values by full subset enumeration (2^n coalition values)."""
    signals = resolve_signals(joint, signals)
    ground = tuple(sorted(set(ground)))
    sets = coalition_sets(signals, ground)
    values, total = exact_values(payoffs(joint, problem, sets), exact_weights(len(signals)))
    return ShapleyReport(signals=signals, values=values, ground=ground, method="exact", total_gain=total, label=label)


def shapley_sampled(
    joint: JointDistribution,
    problem: DecisionProblem,
    signals: Sequence[str] | None = None,
    ground: Iterable[str] = (),
    *,
    permutations: int,
    seed: int = 0,
    label: str | None = None,
) -> ShapleyReport:
    """Monte Carlo Shapley estimate from uniformly random signal orderings.

    Unbiased for the exact values; deterministic for a fixed seed.  Standard
    errors are the per-signal sample errors of the permutation contributions.
    """
    signals = resolve_signals(joint, signals)
    ground = tuple(sorted(set(ground)))
    walk = sampled_walk(signals, ground, permutations, seed)
    values, errs, total = sampled_values(payoffs(joint, problem, walk.sets), walk)
    return ShapleyReport(signals=signals, values=values, ground=ground, method="sampled", total_gain=total,
                         permutations=permutations, seed=seed, standard_errors=errs, label=label)
