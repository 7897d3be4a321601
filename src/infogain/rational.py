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
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import SchemaError
from .joint import (
    Dataset,
    JointDistribution,
    Posterior,
    background_mass,
    estimate_joint,
    group_counts,
    locate,
    state_mass,
)
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


def _lattice(
    joint: JointDistribution, family: Mapping[frozenset, Sequence[int]], weights: np.ndarray
) -> Iterator[tuple[frozenset, tuple[int, ...], np.ndarray, np.ndarray]]:
    """Yield ``(set, cols, realizations, counts)`` for each variable set of ``family``, depth first.

    ``family`` maps a set to the rows of ``weights`` (R, K) that read it;
    ``counts`` (len(rows), G, |states|) holds those rows' count sums over the
    set's realizations (see ``joint.group_counts``), without the background.
    A set's parent is ``S + {c}`` for the lowest key column c not in S such
    that ``S + {c}`` is in the family and reads every row S reads; S is
    grouped from its parent's table, and a set without a parent from the keys.
    A table is held only while some child of it is still to be built.
    """
    sizes, width = joint.domain_sizes, joint.states.size
    nodes = {joint.columns(key, allow_state=False): (key, tuple(rows)) for key, rows in family.items()}
    children: dict[tuple[int, ...] | None, list[tuple[int, ...]]] = {}
    for cols, (_, rows) in sorted(nodes.items()):
        supersets = (tuple(sorted(cols + (c,))) for c in range(1, len(sizes)) if c not in cols)
        parent = next((p for p in supersets if p in nodes and set(rows) <= set(nodes[p][1])), None)
        children.setdefault(parent, []).append(cols)

    # A source is (columns, weight rows, realizations, (rows, M, w) table,
    # inner column of each cell): the keys, or a built set's counts table.
    keys = (tuple(range(len(sizes))), tuple(range(len(weights))), joint.keys, weights[:, :, None], joint.keys[:, :1])
    own = np.arange(width)

    def build(cols, source):
        source_cols, source_rows, realizations, table, inner = source
        rows = nodes[cols][1]
        if rows != source_rows:
            position = {r: i for i, r in enumerate(source_rows)}
            table = table[[position[r] for r in rows]]
        keep = [source_cols.index(c) for c in cols]
        reals, counts = group_counts(realizations, [sizes[c] for c in source_cols], keep, table, inner, width)
        return cols, rows, reals, counts, own

    # Children are popped in descending column order: a child that drops a
    # higher column has more descendants, so its parent is freed before that walk.
    stack = [(cols, keys) for cols in children.get(None, [])]
    while stack:
        node = build(*stack.pop())
        cols, _, reals, counts, _ = node
        stack += [(child, node) for child in children.get(cols, [])]
        yield nodes[cols][0], cols, reals, counts


def family_payoffs(
    joint: JointDistribution,
    problem: DecisionProblem,
    family: Mapping[frozenset, Sequence[int]],
    probs: np.ndarray | None = None,
) -> dict[frozenset, list[float]]:
    """Benchmark payoffs of a family of variable sets, each for the weight rows that read it.

    ``probs`` holds R weight rows (R, K) over ``joint.keys``, each the tuple
    weights of a joint with these keys, background and total; without it the
    joint's own weights are the one row 0.  ``family`` maps each set to the
    rows that read its payoff, and the result maps it to those payoffs, in
    the same order.  The sets' tables come from one walk of their subset
    lattice (see ``_lattice``); each cell is a count sum plus the background,
    the contributions of all realizations are summed exactly (``math.fsum``)
    in weight units and divided once by ``joint.total``.
    """
    if problem.states.size != joint.states.size:
        raise SchemaError("problem and joint disagree on the number of states")
    weights = joint.probs[None] if probs is None else np.asarray(probs, dtype=np.float64)
    width = joint.states.size
    payoffs = {}
    for key, cols, reals, counts in _lattice(joint, family, weights):
        absent, background = background_mass(joint, cols, len(reals), width)
        mass = counts + background if background else counts
        terms = _group_contributions(mass.reshape(-1, width), problem).reshape(mass.shape[:-1])
        extra = []
        if absent:
            # absent * c, added exactly as the terms of absent's binary expansion
            c = float(_group_contributions(np.full((1, width), background), problem)[0])
            extra = [math.ldexp(c, k) for k in range(absent.bit_length()) if absent >> k & 1]
        payoffs[key] = [math.fsum(row.tolist() + extra) / joint.total for row in terms]
    return payoffs


def rational_payoff(
    joint: JointDistribution,
    problem: DecisionProblem,
    variables: Iterable[str] = (),
    probs: np.ndarray | None = None,
) -> float | list[float]:
    """Expected payoff of the rational benchmark observing the given variables.

    The empty set yields the best-fixed-action payoff under the prior.  This
    is ``family_payoffs`` for a family of one set, so its table is grouped
    from the keys.  With weight rows ``probs`` of shape (R, K) over
    ``joint.keys`` it returns the R payoffs of those weightings, each equal
    to the payoff of that weighting's own joint.
    """
    key = frozenset(variables)
    weights = None if probs is None else np.asarray(probs, dtype=np.float64).reshape(-1, len(joint.keys))
    payoffs = family_payoffs(joint, problem, {key: range(1 if weights is None else len(weights))}, weights)[key]
    return payoffs if np.ndim(probs) > 1 else payoffs[0]


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
    A missing payoff is computed alone, from a table grouped from the keys;
    ``prime`` computes many as one family, each set's table derived from a
    cached parent's where it can be.  Values are pure functions of the key,
    so results never depend on evaluation order.
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

    def prime(self, sets: Iterable[Iterable[str]]) -> None:
        """Compute the payoffs of every set not yet cached, as one family."""
        missing = {frozenset(s) for s in sets} - self._cache.keys()
        if missing:
            probs = None if self.probs is None else np.asarray(self.probs, dtype=np.float64)[None]
            for key, (value,) in family_payoffs(self.joint, self.problem, dict.fromkeys(missing, (0,)), probs).items():
                self._cache[key] = value

    def gain(self, v1: Iterable[str], ground: Iterable[str] = ()) -> GainValue:
        return _gain_value(self.payoff, v1, ground)


def primed_caches(
    joint: JointDistribution, problem: DecisionProblem, probs: np.ndarray, wanted: Mapping[frozenset, Sequence[int]]
) -> list[RationalCache]:
    """One cache per weight row of ``probs`` (R, K), holding the payoffs that ``wanted`` maps to it.

    In the bootstrap each row is one replicate's tuple counts over ``joint.keys``.

    ``wanted`` maps a variable set to the rows that read its payoff; all sets
    are evaluated in one ``family_payoffs`` call, so each set's tables, for
    the rows that read it, come from one walk of the subset lattice.
    """
    caches = [RationalCache(joint, problem, row) for row in probs]
    for key, values in family_payoffs(joint, problem, wanted, probs).items():
        for r, value in zip(wanted[key], values):
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
