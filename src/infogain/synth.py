"""Synthetic generators and brute-force oracles.

Everything here exists to manufacture ground truth: joints with known
information structure (the XOR pair of individually worthless but jointly
decisive bits), behavioral agents with a known subset of used signals and a
known noise level, and a naive dense-enumeration benchmark payoff that shares
no code with the production path.

An agent decides from the state weights of its used signals' realizations,
read with their group index from one walk of the benchmark's subset lattice,
all realizations at once; one that no tuple weighs is decided under the prior.
Agents can be materialized two ways: exactly, by extending a population joint
with their decision column, or empirically, by sampling a dataset.  The exact
route lets invariants be tested without sampling noise.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import OracleError, ProductSpaceError, SchemaError
from .joint import Dataset, JointDistribution
from .model import (
    BasicSignal,
    DecisionColumn,
    DecisionProblem,
    SignalSchema,
    StateSpace,
    brier_problem,
)
from .rational import _lattice

REPORTING_RULES = ("posterior_mean_on_grid", "argmax_payoff")

# Namespaces for deriving per-purpose random streams from one master seed.
_ROW_STREAM = 0
_AGENT_STREAM = 1

# Population joints with noisy agents grow multiplicatively in the decision
# grid; refuse ridiculous tables rather than thrash.
POPULATION_CELL_LIMIT = 5_000_000


@dataclass(frozen=True)
class SyntheticAgentSpec:
    """A behavioral decision-maker stub defined purely by information usage.

    The agent observes ``used_signals``, forms the posterior under the true
    joint, reports per ``rule``, and with probability ``noise`` replaces the
    informed report with a uniform random decision.
    """

    name: str
    used_signals: tuple[str, ...]
    noise: float = 0.0
    rule: str = "posterior_mean_on_grid"
    role: str = "other"

    def __post_init__(self):
        if not (0.0 <= self.noise <= 1.0):
            raise ValueError("noise must lie in [0, 1]")
        if self.rule not in REPORTING_RULES:
            raise ValueError(f"rule must be one of {REPORTING_RULES}")
        object.__setattr__(self, "used_signals", tuple(self.used_signals))

    def stream_key(self) -> int:
        """Stable 32-bit key: identical information-usage specs share a noise stream."""
        text = "|".join(sorted(self.used_signals)) + f"|{float(self.noise)!r}|{self.rule}"
        return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big")


def make_xor_joint() -> JointDistribution:
    """Two independent uniform bits whose XOR is the state.

    Each bit alone leaves the state posterior uniform; together they pin it
    down, so all the information value lives in the combination.
    """
    schema = SignalSchema(signals=(BasicSignal("s1", ("0", "1")), BasicSignal("s2", ("0", "1"))))
    keys = []
    for s1, s2 in itertools.product((0, 1), repeat=2):
        keys.append((s1 ^ s2, s1, s2))
    keys.sort()
    return JointDistribution(
        states=StateSpace.of(("0", "1")),
        schema=schema,
        keys=np.array(keys, dtype=np.int64),
        probs=np.full(4, 0.25),
    )


def xor_problem() -> DecisionProblem:
    return brier_problem(("0", "1"))


def _informed_decisions(joint: JointDistribution, problem: DecisionProblem, agent: SyntheticAgentSpec) -> np.ndarray:
    """The agent's informed decision index for each tuple of ``joint.keys``, from one one-set walk of
    ``_lattice``: all used-signal realizations are decided at once, one without weight under the prior
    (the state weights of the whole joint), and each tuple takes its realization's decision through the walk's index."""
    for name in agent.used_signals:
        if joint.schema.is_decision(name):
            raise SchemaError(f"agent {agent.name!r} uses {name!r}, which is a decision column")
    if agent.rule == "posterior_mean_on_grid" and not problem.decisions.is_numeric:
        raise SchemaError("posterior_mean_on_grid needs a numeric decision grid")
    ((_, index, counts),) = _lattice(joint, {frozenset(agent.used_signals): (0,)}, joint.probs[None])
    mass = np.where(counts[0].any(axis=0), counts[0], counts[0].sum(axis=1, keepdims=True))  # (|states|, G)
    post = mass / mass.sum(axis=0)
    if agent.rule == "posterior_mean_on_grid":
        decided = problem.decisions.nearest_index(np.arange(joint.states.size) @ post)
    else:
        decided = np.argmax(problem.payoff_matrix @ post, axis=0)
    return decided[index.inverse]


def _extended_schema(schema: SignalSchema, problem: DecisionProblem, agents: Sequence[SyntheticAgentSpec]) -> SignalSchema:
    existing = set(schema.names)
    new_cols = []
    for agent in agents:
        if agent.name in existing:
            raise SchemaError(f"agent name {agent.name!r} collides with an existing variable")
        existing.add(agent.name)
        new_cols.append(DecisionColumn(agent.name, agent.role, tuple(problem.decisions.points)))
    return SignalSchema(signals=schema.signals, decisions=schema.decisions + tuple(new_cols))


def with_population_agents(
    joint: JointDistribution, problem: DecisionProblem, agents: Sequence[SyntheticAgentSpec]
) -> JointDistribution:
    """Extend a joint with agent decision columns exactly (no sampling).

    Each agent's column is conditionally independent of everything else given
    its used signals: the informed decision with probability 1 - noise, plus a
    uniform noise floor over the whole decision space.
    """
    if joint.background != 0.0:
        raise ValueError("population agents require an unsmoothed joint")
    n_dec = problem.decisions.size
    schema = _extended_schema(joint.schema, problem, agents)
    keys, probs = joint.keys, joint.probs
    origin = np.arange(len(keys))  # each current key's tuple in ``joint``
    for agent in agents:
        informed = _informed_decisions(joint, problem, agent)[origin]
        eps = float(agent.noise)
        if eps == 0.0:
            keys = np.column_stack([keys, informed])
            continue
        if len(keys) * n_dec > POPULATION_CELL_LIMIT:
            raise ProductSpaceError("population joint with agents exceeds the cell limit")
        cell = np.repeat(np.arange(len(keys)), n_dec)  # each cell once per decision
        d = np.tile(np.arange(n_dec), len(keys))
        w = eps / n_dec + np.where(d == informed[cell], 1.0 - eps, 0.0)
        keys, probs, origin = np.column_stack([keys[cell], d]), probs[cell] * w, origin[cell]
    order = np.lexsort(keys.T[::-1])
    return JointDistribution(
        states=joint.states,
        schema=schema,
        keys=keys[order],
        probs=probs[order],
        state_name=joint.state_name,
        total=joint.total,
    )


def generate_dataset(
    joint: JointDistribution,
    problem: DecisionProblem,
    agents: Sequence[SyntheticAgentSpec] = (),
    n_rows: int = 1000,
    seed: int = 0,
) -> Dataset:
    """Sample rows from the joint and append one decision column per agent.

    Agent decisions use the posterior under the generating joint (not the
    sample).  Row sampling and each agent's noise use independent streams
    derived from the seed; agents with identical information-usage specs share
    a stream, so they produce identical columns.
    """
    if n_rows < 1:
        raise ValueError("need at least one row")
    if joint.background != 0.0:
        raise ValueError("generated datasets require an unsmoothed joint")
    row_rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(_ROW_STREAM,)))
    picks = row_rng.choice(len(joint.probs), size=n_rows, p=joint.probs / joint.total)
    rows = joint.keys[picks]
    n_dec = problem.decisions.size
    columns = [rows]
    for agent in agents:
        informed = _informed_decisions(joint, problem, agent)[picks]
        agent_rng = np.random.default_rng(
            np.random.SeedSequence(seed, spawn_key=(_AGENT_STREAM, agent.stream_key()))
        )
        noise_mask = agent_rng.random(n_rows) < agent.noise
        uniform = agent_rng.integers(0, n_dec, size=n_rows)
        columns.append(np.where(noise_mask, uniform, informed)[:, None])
    schema = _extended_schema(joint.schema, problem, agents)
    return Dataset(
        states=joint.states,
        schema=schema,
        rows=np.hstack(columns),
        state_name=joint.state_name,
    )


def brute_force_rational(joint: JointDistribution, problem: DecisionProblem, variables: Iterable[str] = ()) -> float:
    """Benchmark payoff by naive enumeration of the full dense product space.

    A deliberately independent implementation kept as a test oracle: plain
    Python loops, no grouping tricks, no shared code with ``rational_payoff``.
    """
    sizes = joint.domain_sizes
    if math.prod(sizes) > 1_000_000:
        raise OracleError(f"dense space of {math.prod(sizes)} cells is over the oracle's 1e6 budget")
    cols = joint.columns(variables, allow_state=False)
    explicit = {tuple(int(v) for v in key): float(p) for key, p in zip(joint.keys, joint.probs)}
    acc: dict[tuple[int, ...], list[float]] = {}
    for cell in itertools.product(*(range(s) for s in sizes)):
        p = (joint.background + explicit.get(cell, 0.0)) / joint.total
        if p == 0.0:
            continue
        v = tuple(cell[c] for c in cols)
        acc.setdefault(v, [0.0] * joint.states.size)[cell[0]] += p
    payoffs = problem.payoff_matrix
    total = []
    for v in sorted(acc):
        masses = acc[v]
        best = None
        for d in range(problem.decisions.size):
            e = math.fsum(masses[w] * payoffs[d, w] for w in range(joint.states.size))
            if best is None or e > best:
                best = e
        total.append(best)
    return math.fsum(total)


# Deepfake-style preset: binary state, seven binary video features with
# state-dependent frequencies, and three behavioral columns.
DEEPFAKE_STATE_LABELS = ("genuine", "fake")
DEEPFAKE_SIGNALS = (
    # (name, P(feature | fake), P(feature | genuine))
    ("grainy", 0.55, 0.35),
    ("blurry", 0.50, 0.30),
    ("dark", 0.45, 0.35),
    ("flicker", 0.65, 0.15),
    ("two_people", 0.30, 0.22),
    ("floating_distraction", 0.40, 0.15),
    ("dark_skin", 0.27, 0.25),
)
DEEPFAKE_AI_ACCURACY = 0.65


def make_deepfake_joint() -> JointDistribution:
    """Uniform binary state; features conditionally independent given the state."""
    signals = tuple(BasicSignal(name, ("0", "1")) for name, _, _ in DEEPFAKE_SIGNALS)
    schema = SignalSchema(signals=signals)
    keys = []
    probs = []
    # itertools.product yields cells in lexicographic order already
    for cell in itertools.product((0, 1), repeat=1 + len(signals)):
        w, feats = cell[0], cell[1:]
        p = 0.5
        for (_, p_fake, p_genuine), f in zip(DEEPFAKE_SIGNALS, feats):
            q = p_fake if w == 1 else p_genuine
            p *= q if f == 1 else 1.0 - q
        keys.append(cell)
        probs.append(p)
    probs = np.array(probs, dtype=np.float64)
    probs /= probs.sum()
    return JointDistribution(
        states=StateSpace.of(DEEPFAKE_STATE_LABELS),
        schema=schema,
        keys=np.array(keys, dtype=np.int64),
        probs=probs,
    )


def _binarized_accuracy(joint: JointDistribution, problem: DecisionProblem, agent: SyntheticAgentSpec) -> float:
    """Population probability that the agent's report, thresholded at 1/2, matches
    the state; a report of exactly 1/2 counts as a coin flip."""
    grid = problem.decisions.grid_floats
    states = joint.keys[:, 0]
    # credit[d, w]: report d thresholded at 1/2 names state w; exactly 1/2 earns half
    credit = np.where(grid[:, None] == 0.5, 0.5, (grid[:, None] > 0.5) == (np.arange(joint.states.size) == 1))
    informed = _informed_decisions(joint, problem, agent)
    informed_acc = math.fsum(joint.probs * credit[informed, states])
    noise_acc = math.fsum((joint.probs * credit[:, states]).ravel()) / problem.decisions.size
    return (1.0 - agent.noise) * informed_acc + agent.noise * noise_acc


def make_deepfake_agents(joint: JointDistribution, problem: DecisionProblem) -> tuple[SyntheticAgentSpec, ...]:
    """Three behavioral stubs: an unaided human, an AI tuned to the target
    binarized accuracy, and a human-AI team."""
    human = SyntheticAgentSpec(
        name="human",
        used_signals=("grainy", "blurry", "dark", "dark_skin"),
        noise=0.35,
        role="human",
    )
    ai_sharp = SyntheticAgentSpec(
        name="ai",
        used_signals=("flicker", "grainy", "blurry", "floating_distraction"),
        noise=0.0,
        role="ai",
    )
    acc0 = _binarized_accuracy(joint, problem, ai_sharp)
    if acc0 <= DEEPFAKE_AI_ACCURACY:
        raise ValueError("preset AI signals too weak for the target accuracy")
    # acc(eps) = (1 - eps) * acc0 + eps * 1/2, solved for the target
    eps = (acc0 - DEEPFAKE_AI_ACCURACY) / (acc0 - 0.5)
    ai = SyntheticAgentSpec(name="ai", used_signals=ai_sharp.used_signals, noise=eps, role="ai")
    team = SyntheticAgentSpec(
        name="human_ai",
        used_signals=("grainy", "blurry", "dark", "dark_skin", "flicker"),
        noise=0.25,
        role="human_ai",
    )
    return (human, ai, team)


def make_deepfake_dataset(n_rows: int = 4000, seed: int = 0) -> tuple[Dataset, DecisionProblem]:
    """Sampled deepfake-style dataset with human/ai/human_ai columns."""
    joint = make_deepfake_joint()
    problem = brier_problem(DEEPFAKE_STATE_LABELS)
    agents = make_deepfake_agents(joint, problem)
    return generate_dataset(joint, problem, agents, n_rows=n_rows, seed=seed), problem
