"""Bayesian-rational benchmark payoffs and information gains.

The benchmark agent knows the joint distribution, observes a set of variables
(signals and/or logged decision columns), forms the posterior over the state,
and picks the expected-payoff-maximizing decision.  The information gain of
one variable set over another is the benchmark payoff improvement from
observing both rather than the ground set alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .errors import SchemaError
from .joint import Dataset, JointDistribution, Posterior, estimate_joint, state_mass
from .model import DecisionProblem

# Gains within this tolerance of zero are floating-point noise, not negative
# information value; they are reported as exactly 0 with the raw value kept.
CLAMP_TOL = 1e-9


@dataclass(frozen=True)
class GainValue:
    """Information gain of ``v1`` over the ground set, in payoff units."""

    value: float
    raw: float
    v1: tuple[str, ...]
    ground: tuple[str, ...]


def clamp_gain(raw: float) -> float:
    """The reported gain: ``raw``, or exactly 0 within ``CLAMP_TOL`` of zero."""
    return 0.0 if abs(raw) <= CLAMP_TOL else raw


def _gain_value(payoff: Callable[[set], float], v1: Iterable[str], ground: Iterable[str]) -> GainValue:
    v1 = tuple(sorted(set(v1)))
    ground = tuple(sorted(set(ground)))
    raw = payoff(set(v1) | set(ground)) - payoff(set(ground))
    return GainValue(value=clamp_gain(raw), raw=raw, v1=v1, ground=ground)


def best_response(post: Posterior, problem: DecisionProblem) -> int:
    """Index of the decision maximizing expected payoff under the posterior.

    Ties break toward the lowest decision index.
    """
    post = np.asarray(post, dtype=np.float64)
    if post.shape != (problem.states.size,):
        raise ValueError(f"posterior must have shape ({problem.states.size},)")
    expected = problem.payoff_matrix @ post
    return int(np.argmax(expected))


def _group_contributions(mass: np.ndarray, problem: DecisionProblem) -> np.ndarray:
    """Per-realization contribution mass[g] . S[d*, .] of the best decision.

    ``mass[g, w]`` is the unnormalized joint mass of realization g and state w;
    maximizing the unnormalized expectation is equivalent to maximizing under
    the posterior and avoids the normalizing division.
    """
    if problem.payoff.kind == "brier" and problem.decisions.is_numeric and problem.states.size == 2:
        # Closed form: the optimizer over d of sum_w mass_w (1 - (w - d)^2) is
        # the grid point nearest the posterior mean (lower point on exact ties).
        grid = problem.decisions.grid_floats
        p = mass[:, 0] + mass[:, 1]
        with np.errstate(invalid="ignore", divide="ignore"):
            mu = np.where(p > 0, mass[:, 1] / p, 0.0)
        d = grid[problem.decisions.nearest_index(mu)]
        return p - (mass[:, 0] * d * d + mass[:, 1] * (1.0 - d) * (1.0 - d))
    payoffs = problem.payoff_matrix  # (|D|, |W|)
    best = mass @ payoffs[0]
    for d in range(1, payoffs.shape[0]):
        best = np.maximum(best, mass @ payoffs[d])
    return best


def rational_payoff(joint: JointDistribution, problem: DecisionProblem, variables: Iterable[str] = ()) -> float:
    """Expected payoff of the rational benchmark observing the given variables.

    The empty set yields the best-fixed-action payoff under the prior.
    """
    if problem.states.size != joint.states.size:
        raise SchemaError("problem and joint disagree on the number of states")
    _, mass, absent, background_row = state_mass(joint, variables)
    terms = _group_contributions(mass, problem)
    if absent:
        # absent * c, added exactly as the terms of absent's binary expansion
        c = float(_group_contributions(background_row[None, :], problem)[0])
        terms = np.append(terms, [math.ldexp(c, k) for k in range(absent.bit_length()) if absent >> k & 1])
    return math.fsum(terms)


def information_gain(
    joint: JointDistribution,
    problem: DecisionProblem,
    v1: Iterable[str],
    ground: Iterable[str] = (),
) -> GainValue:
    """Benchmark payoff improvement of ``v1`` over the ground set alone.

    Decision columns are ordinary variables here, so this simultaneously covers
    the gain of signals over behavioral decisions, of behavioral decisions over
    signals, and of one decision column over another.
    """
    return RationalCache(joint, problem).gain(v1, ground)


def gain_of_decisions_over_signals(
    joint: JointDistribution,
    problem: DecisionProblem,
    decision_col: str,
    signals: Iterable[str] = (),
) -> GainValue:
    """Value of a behavioral decision column beyond the named signals."""
    if not joint.schema.is_decision(decision_col):
        raise SchemaError(f"{decision_col!r} is not a decision column")
    return information_gain(joint, problem, {decision_col}, signals)


class RationalCache:
    """Memoized benchmark payoffs for one (joint, problem) pair, keyed by variable set.

    Values are pure functions of the key, so results never depend on
    evaluation order.
    """

    def __init__(self, joint: JointDistribution, problem: DecisionProblem):
        self.joint = joint
        self.problem = problem
        self._cache: dict[frozenset, float] = {}

    def payoff(self, variables: Iterable[str]) -> float:
        key = frozenset(variables)
        value = self._cache.get(key)
        if value is None:
            value = rational_payoff(self.joint, self.problem, key)
            self._cache[key] = value
        return value

    def gain(self, v1: Iterable[str], ground: Iterable[str] = ()) -> GainValue:
        return _gain_value(self.payoff, v1, ground)


def cross_fit_payoff(
    data: Dataset,
    problem: DecisionProblem,
    variables: Iterable[str] = (),
    smoothing: float = 0.0,
) -> float:
    """Split-sample benchmark payoff: condition on one half, score on the other.

    Rows alternate between two folds by index; each fold is scored with the
    decision rule fitted on the other and the two halves are averaged by row
    count.  Realizations unseen in the fitting fold fall back to its best fixed
    action, or, when smoothed, to the best action for its background row.
    Unlike the in-sample benchmark this can decrease when variables are added,
    which is the point: conditioning on fine-grained columns in-sample
    overstates the benchmark in small samples.
    """
    n = data.n_rows
    if n < 2:
        raise ValueError("cross-fit evaluation needs at least 2 rows")
    names = set(variables)
    if data.state_name in names:
        raise SchemaError(f"{data.state_name!r} is the state, not a signal or decision column")
    cols = tuple(sorted(1 + data.schema.position(name) for name in names))
    fold = np.arange(n) % 2
    payoffs = problem.payoff_matrix
    total = []
    for f in (0, 1):
        train = Dataset(data.states, data.schema, data.rows[fold != f], state_name=data.state_name)
        train_joint = estimate_joint(train, smoothing)
        reals, mass, absent, background_row = state_mass(train_joint, variables)
        rule = {}
        for real, row in zip(reals, mass):
            d = int(np.argmax(payoffs @ row))
            rule[tuple(int(v) for v in real)] = d
        unseen_action = int(np.argmax(payoffs @ (background_row if absent else mass.sum(axis=0))))
        for row in data.rows[fold == f]:
            key = tuple(int(row[c]) for c in cols)
            d = rule.get(key, unseen_action)
            total.append(float(payoffs[d, row[0]]))
    return math.fsum(total) / n


def cross_fit_gain(
    data: Dataset,
    problem: DecisionProblem,
    v1: Iterable[str],
    ground: Iterable[str] = (),
    smoothing: float = 0.0,
) -> GainValue:
    """Cross-fit analogue of ``information_gain``; may be legitimately negative."""
    return _gain_value(lambda names: cross_fit_payoff(data, problem, names, smoothing), v1, ground)
