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
    encode,
    estimate_joint,
    group_counts,
    state_mass,  # unused here; the benchmark tracer still wraps the site infogain.rational:state_mass
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


def clamp_gain(raw):
    """The reported gain: ``raw``, or exactly 0 within ``CLAMP_TOL`` of zero; elementwise for an array."""
    noise = np.abs(raw) <= CLAMP_TOL
    if np.ndim(raw):
        return np.where(noise, 0.0, raw)
    return 0.0 if noise else raw


def gain_sets(v1: Iterable[str], ground: Iterable[str]) -> list[frozenset]:
    """The family a gain of ``v1`` over ``ground`` reads, in order: [V1 | G, G]."""
    return [frozenset(v1).union(ground), frozenset(ground)]


def gain_value(payoffs: Callable[[list], list[float]], v1: Iterable[str], ground: Iterable[str]) -> GainValue:
    """The gain of ``v1`` over ``ground``, from ``payoffs`` of its ``gain_sets``."""
    v1 = tuple(sorted(set(v1)))
    ground = tuple(sorted(set(ground)))
    both, alone = payoffs(gain_sets(v1, ground))
    raw = both - alone
    return GainValue(value=clamp_gain(raw), raw=raw, v1=v1, ground=ground)


def _times(count: int, value: float) -> list[float]:
    """Exact float terms that sum to ``count * value``: ``value`` times each power of two of ``count``."""
    return [math.ldexp(value, k) for k in range(count.bit_length()) if count >> k & 1]


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
        # each absent realization contributes the background row's c: absent * c, in exact terms
        extra = _times(absent, _group_contributions(np.full((1, width), background), problem).item()) if absent else []
        payoffs[key] = [math.fsum(row.tolist() + extra) / joint.total for row in terms]
    return payoffs


def _cross_fit_payoffs(data: Dataset, problem: DecisionProblem, sets: list[frozenset], smoothing: float) -> list[float]:
    """Cross-fit payoffs of ``sets``, in their order, from one walk over two count rows, the folds.

    Each fold's actions are fitted on the other row plus the background (without
    it, a realization the fitting row never saw takes that row's prior action);
    its counts are tallied exactly per (action, state), and the sum of tally
    times payoff over both folds is rounded once and divided by n.
    """
    if data.n_rows < 2:
        raise ValueError("cross-fit evaluation needs at least 2 rows")
    joint = estimate_joint(data, smoothing)
    _, row_key = np.unique(encode(data.rows, joint.domain_sizes), return_inverse=True)
    folds = np.array([np.bincount(row_key[f::2], minlength=len(joint.keys)) for f in (0, 1)], dtype=np.float64)
    table, width = problem.payoff_matrix, joint.states.size
    payoffs = {}
    for key, cols, reals, counts in _lattice(joint, dict.fromkeys(sets, (0, 1)), folds):
        _, background = background_mass(joint, cols, len(reals), width)
        terms = []
        for fit, scored in ((counts[1], counts[0]), (counts[0], counts[1])):
            actions = _best_actions(fit + background, problem)
            if not background:
                actions[~fit.any(axis=1)] = _best_actions(fit.sum(axis=0, keepdims=True), problem)[0]
            cells = (actions[:, None] * width + np.arange(width)).ravel()  # (action, state) of each count
            tally = np.bincount(cells, scored.ravel(), table.size)
            terms += [t for s, c in zip(table.flat, tally) for t in _times(int(c), s)]
        payoffs[key] = math.fsum(terms) / data.n_rows
    return [payoffs[key] for key in sets]


def rational_payoff(
    joint: JointDistribution,
    problem: DecisionProblem,
    variables: Iterable[str] = (),
) -> float:
    """Expected payoff of the rational benchmark observing the given variables.

    The empty set yields the best-fixed-action payoff under the prior.  This
    is ``family_payoffs`` for a family of one set, so its table is grouped
    from the keys.
    """
    key = frozenset(variables)
    return family_payoffs(joint, problem, {key: (0,)})[key][0]


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

    A missing payoff is computed alone, from a table grouped from the keys;
    ``prime`` computes many as one family, each set's table derived from a
    cached parent's where it can be, and ``gain`` primes V1 | G with G.
    Under counts, values are pure functions of the key, so results never
    depend on evaluation order.
    """

    def __init__(self, joint: JointDistribution, problem: DecisionProblem):
        self.joint = joint
        self.problem = problem
        self._cache: dict[frozenset, float] = {}

    def payoff(self, variables: Iterable[str]) -> float:
        key = frozenset(variables)
        return self._cache[key] if key in self._cache else self.prime([key])[0]

    def prime(self, sets: Iterable[Iterable[str]]) -> list[float]:
        """The payoffs of ``sets``, in order; those not yet cached are computed as one family."""
        sets = [frozenset(s) for s in sets]
        missing = set(sets) - self._cache.keys()
        if missing:
            for key, (value,) in family_payoffs(self.joint, self.problem, dict.fromkeys(missing, (0,))).items():
                self._cache[key] = value
        return [self._cache[key] for key in sets]

    def gain(self, v1: Iterable[str], ground: Iterable[str] = ()) -> GainValue:
        return gain_value(self.prime, v1, ground)


def cross_fit_payoff(
    data: Dataset,
    problem: DecisionProblem,
    variables: Iterable[str] = (),
    smoothing: float = 0.0,
) -> float:
    """Split-sample benchmark payoff: condition on one half, score on the other.

    Rows alternate between two folds by index, whose tables come from one
    grouping of the dataset's tuples; each fold is scored with the decision
    rule fitted on the other and the halves are averaged by row count.
    Realizations unseen in the fitting fold fall back to its best fixed
    action, or, when smoothed, to the best action for its background row.
    Unlike the in-sample benchmark this can decrease when variables are added,
    which is the point: conditioning on fine-grained columns in-sample
    overstates the benchmark in small samples.
    """
    return _cross_fit_payoffs(data, problem, [frozenset(variables)], smoothing)[0]


def cross_fit_gain(
    data: Dataset,
    problem: DecisionProblem,
    v1: Iterable[str],
    ground: Iterable[str] = (),
    smoothing: float = 0.0,
) -> GainValue:
    """Cross-fit analogue of ``information_gain``, V1 | G and G as one family; may be legitimately negative."""
    return gain_value(lambda sets: _cross_fit_payoffs(data, problem, sets, smoothing), v1, ground)
