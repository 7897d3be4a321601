"""Bayesian-rational benchmark payoffs and information gains.

The benchmark agent knows the joint distribution, observes a set of variables
(signals and/or logged decision columns), forms the posterior over the state,
and picks the expected-payoff-maximizing decision.  The information gain of
one variable set over another is the benchmark payoff improvement from
observing both rather than the ground set alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import SchemaError
from .joint import Dataset, JointDistribution, Posterior, estimate_joint, locate, state_mass
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


def _brier_closed_form(problem: DecisionProblem) -> bool:
    return problem.payoff.kind == "brier" and problem.decisions.is_numeric and problem.states.size == 2


def _best_actions(mass: np.ndarray, problem: DecisionProblem) -> np.ndarray:
    """Index of the best decision for each row of ``mass``, lowest index on exact ties.

    ``mass[g, w]`` is the unnormalized joint weight of realization g and state
    w; maximizing the unnormalized expectation is equivalent to maximizing
    under the posterior.  Each row's action depends on that row alone, never
    on the rows it is batched with.
    """
    if _brier_closed_form(problem):
        # The optimizer over d of sum_w mass_w (1 - (w - d)^2) is the grid
        # point nearest the posterior mean (the lower point on exact ties).
        p = mass[:, 0] + mass[:, 1]
        with np.errstate(invalid="ignore", divide="ignore"):
            mu = np.where(p > 0, mass[:, 1] / p, 0.0)
        return problem.decisions.nearest_index(mu)
    # One pass over the decisions with a running argmax; each expectation is
    # a sum of elementwise products, left to right over the states.
    columns = list(mass.T)
    best = np.full(len(mass), -np.inf)
    actions = np.zeros(len(mass), dtype=np.intp)
    for d, payoffs in enumerate(problem.payoff_matrix):
        expected = functools.reduce(np.add, map(np.multiply, columns, payoffs))
        better = expected > best
        best = np.where(better, expected, best)
        actions[better] = d
    return actions


def _group_contributions(mass: np.ndarray, problem: DecisionProblem) -> np.ndarray:
    """Per-realization contribution mass[g] . S[d*, .] of the best decision d*."""
    actions = _best_actions(mass, problem)
    if _brier_closed_form(problem):
        d = problem.decisions.grid_floats[actions]
        return mass[:, 0] + mass[:, 1] - (mass[:, 0] * d * d + mass[:, 1] * (1.0 - d) * (1.0 - d))
    return functools.reduce(np.add, map(np.multiply, mass.T, problem.payoff_matrix[actions].T))


def rational_payoff(
    joint: JointDistribution,
    problem: DecisionProblem,
    variables: Iterable[str] = (),
    probs: np.ndarray | None = None,
) -> float | list[float]:
    """Expected payoff of the rational benchmark observing the given variables.

    The empty set yields the best-fixed-action payoff under the prior.  The
    contributions of all realizations are summed exactly (``math.fsum``) in
    weight units and divided once by ``joint.total``.  With weight rows
    ``probs`` of shape (R, K) over ``joint.keys`` (see ``joint.grouped_mass``)
    it returns the R payoffs of those weightings, each equal to the payoff of
    that weighting's own joint.
    """
    if problem.states.size != joint.states.size:
        raise SchemaError("problem and joint disagree on the number of states")
    _, mass, absent, background_row = state_mass(joint, variables, probs)
    terms = _group_contributions(mass.reshape(-1, joint.states.size), problem).reshape(mass.shape[:-1])
    extra = []
    if absent:
        # absent * c, added exactly as the terms of absent's binary expansion
        c = float(_group_contributions(background_row[None, :], problem)[0])
        extra = [math.ldexp(c, k) for k in range(absent.bit_length()) if absent >> k & 1]
    payoffs = [math.fsum(row.tolist() + extra) / joint.total for row in np.atleast_2d(terms)]
    return payoffs if terms.ndim > 1 else payoffs[0]


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


class RationalCache:
    """Memoized benchmark payoffs for one (joint, problem) pair, keyed by variable set.

    ``probs`` replaces the joint's tuple weights (see ``rational_payoff``).
    Values are pure functions of the key, so results never depend on
    evaluation order.
    """

    def __init__(self, joint: JointDistribution, problem: DecisionProblem, probs: np.ndarray | None = None):
        self.joint = joint
        self.problem = problem
        self.probs = probs
        self._cache: dict[frozenset, float] = {}

    def payoff(self, variables: Iterable[str]) -> float:
        key = frozenset(variables)
        value = self._cache.get(key)
        if value is None:
            value = rational_payoff(self.joint, self.problem, key, self.probs)
            self._cache[key] = value
        return value

    def gain(self, v1: Iterable[str], ground: Iterable[str] = ()) -> GainValue:
        return _gain_value(self.payoff, v1, ground)


def primed_caches(
    joint: JointDistribution, problem: DecisionProblem, probs: np.ndarray, wanted: Mapping[frozenset, Sequence[int]]
) -> list[RationalCache]:
    """One cache per weight row of ``probs`` (R, K), holding the payoffs that ``wanted`` maps to it.

    In the bootstrap each row is one replicate's tuple counts over ``joint.keys``.

    ``wanted`` maps a variable set to the rows that read its payoff; each set
    is evaluated once, in one ``rational_payoff`` call over those rows.
    """
    caches = [RationalCache(joint, problem, row) for row in probs]
    # a fixed evaluation order: the order of a set of variable sets varies with the hash seed
    for key, rows in sorted(wanted.items(), key=lambda item: sorted(item[0])):
        values = rational_payoff(joint, problem, key, probs if len(rows) == len(probs) else probs[rows])
        for r, value in zip(rows, values):
            caches[r]._cache[key] = value
    return caches


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
    cols = sorted(1 + data.schema.position(name) for name in names)
    sizes = (data.states.size,) + data.schema.domain_sizes()
    total = []
    for f in (0, 1):
        train = Dataset(data.states, data.schema, data.rows[1 - f :: 2], state_name=data.state_name)
        train_joint = estimate_joint(train, smoothing)
        reals, mass, absent, background_row = state_mass(train_joint, variables)
        # the last action is the one for realizations unseen in the fitting fold
        unseen = background_row if absent else mass.sum(0)
        actions = _best_actions(np.vstack([mass, unseen]), problem)
        test = data.rows[f::2]
        chosen = actions[locate(reals, test[:, cols], [sizes[c] for c in cols])]
        total.append(problem.payoff_matrix[chosen, test[:, 0]])
    return math.fsum(np.concatenate(total)) / n


def cross_fit_gain(
    data: Dataset,
    problem: DecisionProblem,
    v1: Iterable[str],
    ground: Iterable[str] = (),
    smoothing: float = 0.0,
) -> GainValue:
    """Cross-fit analogue of ``information_gain``; may be legitimately negative."""
    return _gain_value(lambda names: cross_fit_payoff(data, problem, names, smoothing), v1, ground)
