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
    GroupIndex,
    GroupIndexes,
    JointDistribution,
    background_mass,
    estimate_joint,
    group_index,
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


def exact_row_sums(terms: np.ndarray, extra: Sequence[float] = ()) -> list[float]:
    """``math.fsum(row.tolist() + extra)`` of each row of ``terms`` (R, G), bit for bit, in whole-array passes.

    Error-free extraction (Rump, Ogita & Oishi, *Accurate floating-point
    summation I*, SIAM J. Sci. Comput. 31(1), 2008): where the residuals x
    have |x| <= 2^e and 2^L >= G + 2, sigma = 2^(e + L) splits each x into
    q = (sigma + x) - sigma, a multiple of ulp(sigma) / 2 with
    |q| <= 2^e + ulp(sigma) / 2, and the exact remainder x - q, at most
    ulp(sigma) / 2 = 2^(e + L - 53).  Every sum of a row's q is exact, so
    one numpy sum per pass records it, and the bound e drops by 53 - L a
    pass until all remainders are 0.  ``math.fsum`` then rounds each row's
    few partial sums with ``extra`` once: the same exact sum, so the same
    bits.  Where sigma would overflow (or a term is not finite), and for a
    row whose sum is zero, whose sign is ``fsum``'s own, ``math.fsum``
    sums the row itself.
    """
    terms = np.asarray(terms, dtype=np.float64)
    extra = list(extra)
    n_rows, n_terms = terms.shape
    lift = (n_terms + 1).bit_length()  # L = ceil(log2(G + 2))
    top = max(float(terms.max(initial=0.0)), -float(terms.min(initial=0.0)))  # max|x|, or NaN
    if not top < math.ldexp(1.0, 1023 - lift):  # past this, sigma overflows
        return [math.fsum(row + extra) for row in terms.tolist()]
    e = math.frexp(top)[1]  # |x| < 2^e
    x, partials, left = terms, [], top > 0
    while left:
        sigma = math.ldexp(1.0, e + lift)
        q = x + sigma
        q -= sigma
        x = x - q if x is terms else np.subtract(x, q, out=x)
        partials.append(q.sum(axis=1))
        left = x.any()
        e += lift - 53
    sums = [math.fsum(parts + extra) for parts in np.reshape(partials, (len(partials), n_rows)).T.tolist()]
    return [total or math.fsum(terms[r].tolist() + extra) for r, total in enumerate(sums)]


def _brier_closed_form(problem: DecisionProblem) -> bool:
    return problem.payoff.kind == "brier" and problem.decisions.is_numeric and problem.states.size == 2


def _actions(planes: np.ndarray, problem: DecisionProblem) -> np.ndarray:
    """Index of the best decision for each realization of ``planes``, lowest index on exact ties.

    ``planes[w]`` holds the unnormalized joint weights of state w, one per
    realization, in any shape; maximizing the unnormalized expectation is
    equivalent to maximizing under the posterior.  Each realization's action
    depends on its own weights alone, never on those it is batched with.
    """
    if _brier_closed_form(problem):
        # The optimizer over d of sum_w mass_w (1 - (w - d)^2) is the grid
        # point nearest the posterior mean (the lower point on exact ties).
        p = planes[0] + planes[1]
        with np.errstate(invalid="ignore", divide="ignore"):
            mu = np.where(p > 0, planes[1] / p, 0.0)
        return problem.decisions.nearest_index(mu)
    # One pass over the decisions with a running argmax; each expectation is
    # a sum of elementwise products, left to right over the states.
    best = np.full(planes.shape[1:], -np.inf)
    actions = np.zeros(planes.shape[1:], dtype=np.intp)
    for d, payoffs in enumerate(problem.payoff_matrix):
        expected = functools.reduce(np.add, map(np.multiply, planes, payoffs))
        better = expected > best
        best = np.where(better, expected, best)
        actions[better] = d
    return actions


def _contributions(planes: np.ndarray, problem: DecisionProblem) -> np.ndarray:
    """Contribution mass . S[d*, .] of the best decision d* of each realization of ``planes`` (see ``_actions``)."""
    actions = _actions(planes, problem)
    if _brier_closed_form(problem):
        m0, m1 = planes
        d = problem.decisions.grid_floats.take(actions)
        e = 1.0 - d
        return m0 + m1 - (m0 * d * d + m1 * e * e)
    return functools.reduce(np.add, map(np.multiply, planes, problem.payoff_matrix.T[:, actions]))


def _lattice(
    joint: JointDistribution,
    family: Mapping[frozenset, Sequence[int]],
    weights: np.ndarray,
    indexes: GroupIndexes | None = None,
) -> Iterator[tuple[frozenset, GroupIndex, np.ndarray]]:
    """Yield ``(set, index, counts)`` for each variable set of ``family``, depth first.

    ``family`` maps a set to the rows of ``weights`` (R, K) that read it;
    ``counts`` (len(rows), |states|, G) holds those rows' weight sums in each
    state over the set's G realizations, in the order of its group
    ``index``, without the background.  A set's parent is ``S + {c}`` for
    the lowest key column c not in S such that ``S + {c}`` is in the family
    and reads every row S reads; S is grouped from its parent's groups, and
    a set without a parent from the keys, by ``group_index``, through whose
    index its weights are summed: one ``bincount`` per set.  The indexes come
    from ``indexes``, a cache later walks share, or else live for this walk
    alone.  A table is held only while some child of it is still to be built.
    """
    width, n_cols = joint.states.size, len(joint.domain_sizes)
    nodes = {joint.columns(key): (key, tuple(rows)) for key, rows in family.items()}
    children: dict[tuple[int, ...] | None, list[tuple[int, ...]]] = {}
    for cols, (_, rows) in sorted(nodes.items()):
        supersets = (tuple(sorted(cols + (c,))) for c in range(1, n_cols) if c not in cols)
        parent = next((p for p in supersets if p in nodes and set(rows) <= set(nodes[p][1])), None)
        children.setdefault(parent, []).append(cols)

    index_of = functools.partial(group_index, joint) if indexes is None else indexes.get
    # a state times a group count would wrap in the keys' narrow type (uint8 up to 256 values): widen first
    states, planes = joint.keys[:, 0].astype(np.intp), np.arange(width)[:, None]

    def build(cols, source):
        # a source is (index, weight rows, table): None and the keys' (R, K) weights, or a built set's counts
        parent, source_rows, table = source
        index = index_of(cols, parent)
        rows = nodes[cols][1]
        if rows != source_rows:
            position = {r: i for i, r in enumerate(source_rows)}
            table = table[[position[r] for r in rows]]
        n_cells = width * index.size
        # the cell (state, group) of each cell of the source: a tuple's own state, a parent's plane
        if parent is None:
            cells = index.inverse + states * index.size
        else:
            cells = (index.inverse + planes * index.size).ravel()
        counts = np.bincount((np.arange(len(rows))[:, None] * n_cells + cells).ravel(), weights=table.ravel(),
                             minlength=len(rows) * n_cells)
        return index, rows, counts.reshape(len(rows), width, index.size)

    # Children are popped in descending column order: a child that drops a
    # higher column has more descendants, so its parent is freed before that walk.
    keys = (None, tuple(range(len(weights))), weights)
    stack = [(cols, keys) for cols in children.get(None, [])]
    while stack:
        cols, source = stack.pop()
        node = build(cols, source)
        stack += [(child, node) for child in children.get(cols, [])]
        yield nodes[cols][0], node[0], node[2]


def state_mass(joint: JointDistribution, variables: Iterable[str]) -> tuple[np.ndarray, np.ndarray, int, np.ndarray]:
    """Per-realization state-weight table for the named (non-state) variables: the one-set walk of ``_lattice``.

    Returns ``(realizations, mass, absent, background_row)`` where mass has
    shape (G, |states|) and ``mass[g, w] / joint.total = P(realization g,
    state w)`` for the G realizations with an explicit tuple, listed in
    lexicographic order, that of the set's ``group_index`` from the keys
    (built for this call, not kept).  Each cell is an exact count sum plus
    the smoothing weight of the product cells it covers (see ``background_mass``).
    Row sums are realization weights and row normalization gives the
    posterior.  Under smoothing each of the ``absent`` other realizations has
    the state-weight row ``background_row``; without smoothing ``absent`` is 0.
    """
    ((_, index, counts),) = _lattice(joint, {frozenset(variables): (0,)}, joint.probs[None])
    n_states = joint.states.size
    absent, background = background_mass(joint, index.cols, index.size)
    return joint.keys[index.member][:, index.cols], counts[0].T + background, absent, np.full(n_states, background)


def family_payoffs(
    joint: JointDistribution,
    problem: DecisionProblem,
    family: Mapping[frozenset, Sequence[int]],
    probs: np.ndarray | None = None,
    indexes: GroupIndexes | None = None,
) -> dict[frozenset, list[float]]:
    """Benchmark payoffs of a family of variable sets, each for the weight rows that read it.

    ``probs`` holds R weight rows (R, K) over ``joint.keys``, each the tuple
    weights of a joint with these keys, background and total; without it the
    joint's own weights are the one row 0.  ``family`` maps each set to the
    rows that read its payoff, and the result maps it to those payoffs, in
    the same order.  The sets' tables come from one walk of their subset
    lattice (see ``_lattice``), with the group indexes of ``indexes`` where
    the caller keeps them for later calls (a bootstrap run's blocks); each
    cell is a count sum plus the background.  Each payoff is one correctly
    rounded exact sum of the contributions of all realizations, in weight
    units, equal bit for bit to their ``math.fsum`` and computed for all
    rows at once by error-free extraction (``exact_row_sums``), divided once
    by ``joint.total``.
    """
    if problem.states.size != joint.states.size:
        raise SchemaError("problem and joint disagree on the number of states")
    weights = joint.probs[None] if probs is None else np.asarray(probs, dtype=np.float64)
    width = joint.states.size
    payoffs = {}
    for key, index, counts in _lattice(joint, family, weights, indexes):
        absent, background = background_mass(joint, index.cols, index.size)
        mass = counts + background if background else counts
        terms = _contributions(mass.swapaxes(0, 1), problem)
        # each absent realization contributes the background row's c: absent * c, in exact terms
        extra = _times(absent, _contributions(np.full((width, 1), background), problem).item()) if absent else []
        payoffs[key] = [total / joint.total for total in exact_row_sums(terms, extra)]
    return payoffs


def _cross_fit_payoffs(data: Dataset, problem: DecisionProblem, sets: list[frozenset], smoothing: float) -> list[float]:
    """Cross-fit payoffs of ``sets``, in their order, from one walk over two count rows, the folds.

    Each fold's actions are fitted on the other row plus the background (without
    it, a realization the fitting row never saw takes that row's prior action);
    its counts are tallied exactly per (action, state), and the sum of tally
    times payoff over both folds is rounded once and divided by n.  Each row's
    tuple comes from the grouping that estimated the joint (``Dataset.row_tuples``).
    """
    if data.n_rows < 2:
        raise ValueError("cross-fit evaluation needs at least 2 rows")
    joint = estimate_joint(data, smoothing)
    folds = np.array([np.bincount(data.row_tuples[f::2], minlength=len(joint.keys)) for f in (0, 1)], dtype=np.float64)
    table, width = problem.payoff_matrix, joint.states.size
    payoffs = {}
    for key, index, counts in _lattice(joint, dict.fromkeys(sets, (0, 1)), folds):
        _, background = background_mass(joint, index.cols, index.size)
        terms = []
        for fit, scored in ((counts[1], counts[0]), (counts[0], counts[1])):
            actions = _actions(fit + background, problem)
            if not background:
                actions[~fit.any(axis=0)] = _actions(fit.sum(axis=1, keepdims=True), problem)[0]
            cells = (actions * width + np.arange(width)[:, None]).ravel()  # (action, state) of each count
            tally = np.bincount(cells, scored.ravel(), table.size)
            terms += [t for s, c in zip(table.flat, tally) for t in _times(int(c), s)]
        payoffs[key] = math.fsum(terms) / data.n_rows
    return [payoffs[key] for key in sets]


def payoffs(joint: JointDistribution, problem: DecisionProblem, sets: Iterable[Iterable[str]]) -> list[float]:
    """Benchmark payoffs of the variable ``sets``, in their order, from one ``family_payoffs`` call over the
    distinct sets: the in-sample mirror of ``_cross_fit_payoffs``.

    The empty set yields the best-fixed-action payoff under the prior.  Under
    counts a payoff is a pure function of its set, whatever family it is
    computed in.
    """
    sets = [frozenset(s) for s in sets]
    table = family_payoffs(joint, problem, dict.fromkeys(sets, (0,)))
    return [table[key][0] for key in sets]


def rational_payoff(
    joint: JointDistribution,
    problem: DecisionProblem,
    variables: Iterable[str] = (),
) -> float:
    """Expected payoff of the rational benchmark observing the given variables: ``payoffs`` of one set."""
    return payoffs(joint, problem, [variables])[0]


def information_gain(
    joint: JointDistribution,
    problem: DecisionProblem,
    v1: Iterable[str],
    ground: Iterable[str] = (),
) -> GainValue:
    """Benchmark payoff improvement of ``v1`` over the ground set alone, from ``payoffs`` of V1 | G and G.

    Decision columns are ordinary variables here, so this simultaneously covers
    the gain of signals over behavioral decisions, of behavioral decisions over
    signals, and of one decision column over another.
    """
    return gain_value(functools.partial(payoffs, joint, problem), v1, ground)


# unused here; the benchmark tracer still wraps the site infogain.rational:RationalCache.payoff
class RationalCache:
    """``rational_payoff`` of one (joint, problem) pair."""

    def __init__(self, joint: JointDistribution, problem: DecisionProblem):
        self.joint = joint
        self.problem = problem

    def payoff(self, variables: Iterable[str]) -> float:
        return rational_payoff(self.joint, self.problem, variables)


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
