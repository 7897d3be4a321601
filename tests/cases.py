"""Random joints and decision problems for property tests, the best response to one posterior, and a
time bound for tests that could hang.

``best_response`` is the per-realization reference rule: it decides one
posterior at a time and shares no code with the batched actions in ``src/``.
"""

import contextlib
import itertools
import math
import signal

import numpy as np

from infogain.joint import JointDistribution
from infogain.model import (
    BasicSignal,
    DecisionColumn,
    DecisionProblem,
    DecisionSpace,
    PayoffFunction,
    SignalSchema,
    StateSpace,
)


def random_joint(
    rng: np.random.Generator,
    n_signals: int = 3,
    n_states: int = 2,
    domain_size: int = 2,
    n_decision_columns: int = 0,
    decision_domain_size: int = 2,
) -> JointDistribution:
    """Random dense joint over small binary-ish spaces, for property tests."""
    signals = tuple(BasicSignal(f"x{i + 1}", tuple(str(v) for v in range(domain_size))) for i in range(n_signals))
    decisions = tuple(
        DecisionColumn(f"b{i + 1}", "other", tuple(str(v) for v in range(decision_domain_size)))
        for i in range(n_decision_columns)
    )
    schema = SignalSchema(signals=signals, decisions=decisions)
    sizes = (n_states,) + schema.domain_sizes()
    n_cells = math.prod(sizes)
    raw = rng.random(n_cells)
    raw[rng.random(n_cells) < 0.2] = 0.0  # sparse-ish support
    if raw.sum() == 0.0:
        raw[0] = 1.0
    probs = raw / raw.sum()
    keep = probs > 0
    keys = np.array(list(itertools.product(*(range(s) for s in sizes))), dtype=np.int64)[keep]
    return JointDistribution(
        states=StateSpace.of(tuple(str(v) for v in range(n_states))),
        schema=schema,
        keys=keys,
        probs=probs[keep],
    )


def random_matrix_problem(rng: np.random.Generator, n_states: int = 2, n_decisions: int | None = None) -> DecisionProblem:
    """Random finite decision problem with a uniform[-1, 1] payoff matrix."""
    if n_decisions is None:
        n_decisions = int(rng.integers(2, 5))
    rows = rng.uniform(-1.0, 1.0, size=(n_decisions, n_states))
    return DecisionProblem(
        states=StateSpace.of(tuple(str(v) for v in range(n_states))),
        decisions=DecisionSpace.categorical(tuple(f"d{i}" for i in range(n_decisions))),
        payoff=PayoffFunction.from_matrix(rows),
    )


def best_response(post: np.ndarray, problem: DecisionProblem) -> int:
    """Index of the decision maximizing expected payoff under the posterior.

    Ties break toward the lowest decision index.
    """
    post = np.asarray(post, dtype=np.float64)
    if post.shape != (problem.states.size,):
        raise ValueError(f"posterior must have shape ({problem.states.size},)")
    expected = problem.payoff_matrix @ post
    return int(np.argmax(expected))


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError in the block if it runs longer than ``seconds`` (a hang fails instead of blocking)."""

    def expired(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
