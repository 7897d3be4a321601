"""Sparse joint distribution over (state, signals, decision columns).

Storage is a table of distinct realization tuples (small integer indices,
state first) with their probabilities.  Add-alpha smoothing is kept
implicit: every tuple absent from the table carries the same ``background``
probability, so the smoothed distribution over the full product space is never
materialized.  Marginals and conditionals account for the background mass
analytically; they only enumerate a product space when it is the (small) space
of the requested variables.

Caution: smoothing spans the full product space including decision columns.
With wide decision grids this adds a lot of background cells and can dilute
information gains; it is an escape hatch for sparse data, not the default.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import ConditioningError, EstimationError, ProductSpaceError, SchemaError
from .model import SignalSchema, StateSpace

MASS_TOL = 1e-12

# A posterior is a non-negative probability vector over the state space.
Posterior = np.ndarray
# Ceiling on the dense marginal mapping of a smoothed joint.
DENSE_CELL_LIMIT = 20_000_000


@dataclass(frozen=True)
class Dataset:
    """Rows of (state index, signal value indices, decision value indices)."""

    states: StateSpace
    schema: SignalSchema
    rows: np.ndarray  # (N, 1 + n_variables) integer array, column 0 is the state
    state_name: str = "state"
    dropped_rows: int = 0

    def __post_init__(self):
        rows = np.ascontiguousarray(np.asarray(self.rows, dtype=np.int64))
        object.__setattr__(self, "rows", rows)
        sizes = (self.states.size,) + self.schema.domain_sizes()
        if rows.ndim != 2 or rows.shape[1] != len(sizes):
            raise ValueError(f"rows must have shape (N, {len(sizes)})")
        if rows.shape[0] < 1:
            raise ValueError("dataset needs at least one row")
        if rows.min(initial=0) < 0 or (rows >= np.array(sizes)).any():
            raise ValueError("row indices out of domain range")
        rows.setflags(write=False)

    @property
    def n_rows(self) -> int:
        return int(self.rows.shape[0])


@dataclass(frozen=True)
class JointDistribution:
    """Distribution over (state, all schema variables) as a sparse table plus
    a constant background probability for every cell not in the table."""

    states: StateSpace
    schema: SignalSchema
    keys: np.ndarray  # (K, 1 + n_variables) distinct tuples, column 0 is the state
    probs: np.ndarray  # (K,) probabilities of the explicit tuples
    background: float = 0.0
    state_name: str = "state"

    def __post_init__(self):
        keys = np.ascontiguousarray(np.asarray(self.keys, dtype=np.int64))
        probs = np.ascontiguousarray(np.asarray(self.probs, dtype=np.float64))
        object.__setattr__(self, "keys", keys)
        object.__setattr__(self, "probs", probs)
        sizes = self.domain_sizes
        if keys.ndim != 2 or keys.shape[1] != len(sizes):
            raise ValueError(f"keys must have shape (K, {len(sizes)})")
        if probs.shape != (keys.shape[0],):
            raise ValueError("probs must align with keys")
        if keys.shape[0] and (keys.min(initial=0) < 0 or (keys >= np.array(sizes)).any()):
            raise ValueError("key indices out of domain range")
        if (probs < 0).any() or self.background < 0:
            raise ValueError("probabilities must be non-negative")
        if keys.shape[0] and len(np.unique(keys, axis=0)) != keys.shape[0]:
            raise ValueError("keys must be distinct")
        total = math.fsum(probs) + self.background * (self.n_cells - keys.shape[0])
        if abs(total - 1.0) > MASS_TOL:
            raise ValueError(f"total mass {total!r} differs from 1 by more than {MASS_TOL}")
        keys.setflags(write=False)
        probs.setflags(write=False)

    @property
    def domain_sizes(self) -> tuple[int, ...]:
        return (self.states.size,) + self.schema.domain_sizes()

    @property
    def n_cells(self) -> int:
        return math.prod(self.domain_sizes)

    @property
    def variables(self) -> tuple[str, ...]:
        return (self.state_name,) + self.schema.names

    def columns(self, names: Iterable[str], allow_state: bool = True) -> tuple[int, ...]:
        """Resolve variable names to key-column indices, in schema order."""
        cols = []
        for name in set(names):
            if name == self.state_name:
                if not allow_state:
                    raise SchemaError(f"{name!r} is the state, not a signal or decision column")
                cols.append(0)
            else:
                cols.append(1 + self.schema.position(name))
        return tuple(sorted(cols))

    def _encode_cols(self, cols: tuple[int, ...]) -> np.ndarray:
        """Mixed-radix encode the selected key columns; preserves lexicographic order."""
        if not cols:
            return np.zeros(self.keys.shape[0], dtype=np.int64)
        sizes = self.domain_sizes
        if math.prod(sizes[c] for c in cols) > 2**62:
            raise ProductSpaceError("product space too large to encode without overflow")
        radix = np.ones(len(cols), dtype=np.int64)
        for i in range(len(cols) - 2, -1, -1):
            radix[i] = radix[i + 1] * sizes[cols[i + 1]]
        return self.keys[:, list(cols)] @ radix


def estimate_joint(data: Dataset, smoothing: float = 0.0) -> JointDistribution:
    """Plug-in estimate of the joint from dataset rows.

    With ``smoothing`` alpha > 0, every cell of the full product space gets an
    add-alpha pseudo-count before normalization (see module caution note).
    """
    if smoothing < 0:
        raise ValueError("smoothing must be non-negative")
    if data is None or data.n_rows == 0:
        raise EstimationError("cannot estimate a joint from an empty dataset")
    keys, counts = np.unique(data.rows, axis=0, return_counts=True)
    n = data.n_rows
    if smoothing == 0.0:
        probs = counts / n
        background = 0.0
    else:
        n_cells = math.prod((data.states.size,) + data.schema.domain_sizes())
        denom = n + smoothing * n_cells
        probs = (counts + smoothing) / denom
        background = smoothing / denom
    return JointDistribution(
        states=data.states,
        schema=data.schema,
        keys=keys,
        probs=probs,
        background=background,
        state_name=data.state_name,
    )


def _excluded_cells(joint: JointDistribution, cols: tuple[int, ...]) -> int:
    sizes = joint.domain_sizes
    excluded = [sizes[c] for c in range(len(sizes)) if c not in cols]
    return math.prod(excluded)


def grouped_mass(
    joint: JointDistribution, cols: tuple[int, ...], inner: np.ndarray | int = 0, width: int = 1
) -> tuple[np.ndarray, np.ndarray, int, float]:
    """Aggregate probability by distinct realization of the selected columns.

    Returns ``(realizations, mass, absent, background)``.  The realizations
    with an explicit tuple come sorted lexicographically; ``mass`` has shape
    (G, width), and ``inner`` (one value, or one per tuple) is the column each
    tuple's probability goes to.  Every cell starts from the background mass
    of the product cells it covers and each explicit tuple replaces one of
    them.  The single ``bincount`` adds the start values first and then the
    tuples in key order, so every cell is summed in the same order at any
    smoothing level.  Other realizations are not listed: with smoothing they
    are counted in ``absent`` and each of their cells has mass ``background``;
    without smoothing they have no mass and ``absent`` is 0.
    """
    enc = joint._encode_cols(cols)
    uniq, first, inverse = np.unique(enc, return_index=True, return_inverse=True)
    n_cells = len(uniq) * width
    rest = _excluded_cells(joint, cols) // width
    background = joint.background * rest
    mass = np.bincount(
        np.concatenate([np.arange(n_cells), inverse * width + inner]),
        weights=np.concatenate([np.full(n_cells, background), joint.probs - joint.background]),
        minlength=n_cells,
    )
    absent = 0
    if joint.background > 0.0:
        sizes = joint.domain_sizes
        absent = math.prod(sizes[c] for c in cols) - len(uniq)
    return joint.keys[first][:, list(cols)], mass.reshape(len(uniq), width), absent, background


def marginal(joint: JointDistribution, variables: Iterable[str]) -> dict[tuple[int, ...], float]:
    """Marginal over the named variables (state name allowed), as a sparse mapping.

    Realization tuples are ordered by schema position (state first when included).
    With a smoothed joint every realization has mass, so the mapping covers the
    whole product space of the variables, up to ``DENSE_CELL_LIMIT`` entries.
    """
    cols = joint.columns(variables)
    reals, mass, absent, background = grouped_mass(joint, cols)
    explicit = {tuple(int(v) for v in row): float(m) for row, m in zip(reals, mass[:, 0])}
    if not absent:
        return explicit
    shape = [joint.domain_sizes[c] for c in cols]
    if math.prod(shape) > DENSE_CELL_LIMIT:
        raise ProductSpaceError(
            f"smoothed marginal over {math.prod(shape)} cells exceeds the "
            f"{DENSE_CELL_LIMIT}-cell limit; reduce the variable set or use smoothing=0"
        )
    return {real: explicit.get(real, background) for real in itertools.product(*(range(s) for s in shape))}


def support(joint: JointDistribution, variables: Iterable[str]) -> Iterator[tuple[tuple[int, ...], float]]:
    """Positive-mass realizations of the marginal, in lexicographic index order."""
    for real, mass in marginal(joint, variables).items():
        if mass > 0.0:
            yield real, mass


def state_mass(
    joint: JointDistribution, variables: Iterable[str]
) -> tuple[np.ndarray, np.ndarray, int, np.ndarray]:
    """Per-realization state-mass table for the named (non-state) variables.

    Returns ``(realizations, mass, absent, background_row)`` where mass has
    shape (G, |states|) and ``mass[g, w] = P(realization g, state w)`` for the
    G realizations with an explicit tuple.  This is the workhorse behind
    rational-benchmark payoffs: row sums are realization probabilities and row
    normalization gives the posterior.  Under smoothing each of the ``absent``
    other realizations has the state-mass row ``background_row``; without
    smoothing ``absent`` is 0.
    """
    cols = joint.columns(variables, allow_state=False)
    n_states = joint.states.size
    reals, mass, absent, background = grouped_mass(joint, cols, joint.keys[:, 0], n_states)
    return reals, mass, absent, np.full(n_states, background)


def posterior(joint: JointDistribution, assignment: Mapping[str, int]) -> Posterior:
    """Bayesian posterior over the state given a realization of some variables.

    ``assignment`` maps variable names to value indices; an empty assignment
    returns the prior.  Conditioning on a zero-probability realization raises
    ``ConditioningError`` (iterating ``support`` never triggers it).
    """
    cols = joint.columns(assignment.keys(), allow_state=False)
    values = np.array([assignment[joint.variables[c]] for c in cols], dtype=np.int64)
    sizes = joint.domain_sizes
    for c, v in zip(cols, values):
        if not (0 <= v < sizes[c]):
            raise SchemaError(f"value index {v} out of range for variable {joint.variables[c]!r}")
    mask = (joint.keys[:, list(cols)] == values).all(axis=1) if cols else np.ones(len(joint.probs), dtype=bool)
    n_states = joint.states.size
    mass = np.zeros(n_states, dtype=np.float64)
    counts = np.zeros(n_states, dtype=np.int64)
    state_col = joint.keys[mask, 0]
    np.add.at(mass, state_col, joint.probs[mask])
    np.add.at(counts, state_col, 1)
    if joint.background > 0.0:
        rest = _excluded_cells(joint, (0,) + cols)
        mass += joint.background * (rest - counts)
    total = float(mass.sum())
    if total <= 0.0:
        raise ConditioningError(f"assignment {dict(assignment)!r} has zero marginal probability")
    out = mass / total
    out.setflags(write=False)
    return out
