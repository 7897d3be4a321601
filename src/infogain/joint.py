"""Sparse joint distribution over (state, signals, decision columns).

Storage is a table of distinct realization tuples (small integer indices,
state first) with their weights, plus a ``background`` weight and a
``total``.  Every cell of the full product space weighs ``background``, each
explicit tuple weighs its own weight on top of that, and a probability is a
weight divided by ``total``.  A joint estimated from data stores raw counts,
so every mass table is an exact integer sum plus the smoothing weight of the
cells it covers, and the division by ``total`` happens once, on the payoff.
The smoothed distribution over the full product space is never materialized.

Caution: smoothing spans the full product space including decision columns.
With wide decision grids this adds a lot of background cells and can dilute
information gains; it is an escape hatch for sparse data, not the default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import EstimationError, SchemaError
from .model import SignalSchema, StateSpace

# Relative tolerance on a joint's weights summing to its total.
MASS_TOL = 1e-12

CODE_LIMIT = 2**62
# Bound on the int32 entries of the group indexes one ``GroupIndexes`` keeps.
INDEX_ENTRIES = 2**22


def encode(table: np.ndarray, sizes: Sequence[int], cols: Iterable[int] | None = None) -> np.ndarray:
    """One int64 code per row of ``table`` for its values in the columns ``cols`` (all by default),
    where column c holds values in range(sizes[c]).

    The columns fold in as mixed-radix digits, first column most significant,
    so codes sort like the rows' values do lexicographically and are equal
    exactly when they are.  Before a digit that would carry the code past
    ``CODE_LIMIT``, the code so far is replaced by its rank; while the
    product of sizes fits, the code is the plain mixed-radix value.  Each run
    of digits between ranks is one matrix product of the whole table with
    int64 place values that are zero outside the run, so no column is
    gathered and the codes of a narrow table are int64.
    """
    table = np.asarray(table)
    code, span, run = None, 1, []  # every code lies in range(span)
    for c in range(len(sizes)) if cols is None else cols:
        if span * sizes[c] > CODE_LIMIT:
            uniq, code = np.unique(_fold(code, table, sizes, run), return_inverse=True)
            span, run = max(len(uniq), 1), []  # a table without rows leaves no code to rank
        span *= sizes[c]
        run.append(c)
    return _fold(code, table, sizes, run)


def _fold(code: np.ndarray | None, table: np.ndarray, sizes: Sequence[int], run: Sequence[int]) -> np.ndarray:
    """``code`` (None for none) followed by the mixed-radix digits of ``table``'s columns ``run``."""
    places, place = np.zeros(len(sizes), dtype=np.int64), 1
    for c in reversed(run):
        places[c], place = place, place * sizes[c]
    value = table @ places
    return value if code is None else code * place + value


def _cell_count(cells: int) -> str:
    """A cell count for a message: in full below 10^15, else its power of ten."""
    return str(cells) if cells < 10**15 else f"~10^{math.log10(cells):.0f}"


def _index_table(table, sizes: Sequence[int], what: str) -> np.ndarray:
    """``table`` as a read-only C-contiguous int64 array of rows whose column c holds values in range(sizes[c])."""
    table = np.ascontiguousarray(table, dtype=np.int64)
    if table.ndim != 2 or table.shape[1] != len(sizes):
        raise ValueError(f"{what} must have shape (n, {len(sizes)})")
    if table.min(initial=0) < 0 or (table >= np.array(sizes)).any():
        raise ValueError(f"{what} hold an index out of domain range")
    table.setflags(write=False)
    return table


@dataclass(frozen=True)
class Dataset:
    """Rows of (state index, signal value indices, decision value indices)."""

    states: StateSpace
    schema: SignalSchema
    rows: np.ndarray  # (N, 1 + n_variables) integer array, column 0 is the state
    state_name: str = "state"
    dropped_rows: int = 0

    def __post_init__(self):
        sizes = (self.states.size,) + self.schema.domain_sizes()
        object.__setattr__(self, "rows", _index_table(self.rows, sizes, "rows"))
        if self.rows.shape[0] < 1:
            raise ValueError("dataset needs at least one row")

    @property
    def n_rows(self) -> int:
        return int(self.rows.shape[0])

    @cached_property
    def row_tuples(self) -> np.ndarray:
        """Index (int32) of each row's tuple among the keys of ``estimate_joint(self)``: the one grouping of the rows."""
        sizes = (self.states.size,) + self.schema.domain_sizes()
        return np.unique(encode(self.rows, sizes), return_inverse=True)[1].astype(np.int32)


@dataclass(frozen=True)
class JointDistribution:
    """Distribution over (state, all schema variables) as a sparse table of
    weights: every cell weighs ``background``, tuple i weighs ``probs[i]`` on
    top of that, and a probability is a weight divided by ``total``.

    A population joint has ``total`` 1 and no background, so its weights are
    its probabilities; a joint estimated from data holds counts."""

    states: StateSpace
    schema: SignalSchema
    keys: np.ndarray  # (K, 1 + n_variables) distinct tuples, column 0 is the state
    probs: np.ndarray  # (K,) weights of the explicit tuples, on top of the background
    background: float = 0.0
    state_name: str = "state"
    total: float = 1.0
    _sizes: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sizes = (self.states.size,) + self.schema.domain_sizes()
        object.__setattr__(self, "_sizes", sizes)
        keys = _index_table(self.keys, sizes, "keys")
        probs = np.ascontiguousarray(self.probs, dtype=np.float64)
        object.__setattr__(self, "keys", keys)
        object.__setattr__(self, "probs", probs)
        if probs.shape != (keys.shape[0],):
            raise ValueError("probs must align with keys")
        if (probs < 0).any() or self.background < 0:
            raise ValueError("weights must be non-negative")
        codes = np.sort(encode(keys, sizes))
        if (codes[1:] == codes[:-1]).any():
            raise ValueError("keys must be distinct")
        try:
            mass = math.fsum(memoryview(probs)) + (self.background * self.n_cells if self.background else 0.0)
        except OverflowError:  # background times a cell count past the float range
            mass = math.inf
        if not (math.isfinite(self.total) and self.total > 0) or abs(mass - self.total) > MASS_TOL * self.total:
            raise ValueError(f"total weight {mass!r} over {_cell_count(self.n_cells)} cells differs from total "
                             f"{self.total!r} by more than {MASS_TOL} of it")
        probs.setflags(write=False)

    @property
    def domain_sizes(self) -> tuple[int, ...]:
        """The state space's size, then each schema variable's domain size: built once, as a walk reads it per set."""
        return self._sizes

    @property
    def n_cells(self) -> int:
        return math.prod(self.domain_sizes)

    @property
    def variables(self) -> tuple[str, ...]:
        return (self.state_name,) + self.schema.names

    def columns(self, names: Iterable[str], allow_state: bool = True) -> tuple[int, ...]:
        """Resolve variable names to key-column indices, in schema order."""
        cols = []
        for name in sorted(set(names)):  # the first bad name in sorted order is the one reported
            if name == self.state_name:
                if not allow_state:
                    raise SchemaError(f"{name!r} is the state, not a signal or decision column")
                cols.append(0)
            else:
                cols.append(1 + self.schema.position(name))
        return tuple(sorted(cols))


def estimate_joint(data: Dataset, smoothing: float = 0.0) -> JointDistribution:
    """Plug-in estimate of the joint from dataset rows: the count of each
    distinct tuple, over a total of the row count.

    With ``smoothing`` alpha > 0, every cell of the full product space gets an
    add-alpha pseudo-count (see module caution note): the background weight is
    alpha and the total is n + alpha * n_cells; a total past the float range
    raises ``EstimationError``.  Without smoothing the total is n, whatever
    the number of cells.
    """
    if not math.isfinite(smoothing) or smoothing < 0:
        raise ValueError(f"smoothing must be a finite non-negative number, got {smoothing!r}")
    sizes = (data.states.size,) + data.schema.domain_sizes()
    total = float(data.n_rows)
    if smoothing:
        cells = math.prod(sizes)
        try:
            total += smoothing * cells
        except OverflowError:
            total = math.inf
        if not math.isfinite(total):
            raise EstimationError(
                f"smoothing alpha={smoothing!r} over {_cell_count(cells)} cells overflows the total weight")
    inverse = data.row_tuples
    counts = np.bincount(inverse)
    held_by = np.empty(len(counts), dtype=np.intp)
    held_by[inverse] = np.arange(data.n_rows)  # some row of each tuple; any one holds its values
    return JointDistribution(
        states=data.states,
        schema=data.schema,
        keys=data.rows[held_by],
        probs=counts,
        background=float(smoothing),
        state_name=data.state_name,
        total=total,
    )


class GroupIndex(NamedTuple):
    """The groups of a joint's tuples by their values in the key columns ``cols``, in lexicographic order.

    ``parent`` holds the columns of the superset whose groups these group,
    or None for the joint's keys, and ``inverse`` (int32) this set's group
    of each of the parent's groups (of each tuple).  ``member`` (int32)
    holds one tuple of each group, in order, as a row of the joint's keys:
    any tuple of a group holds its values in ``cols``.
    """

    parent: tuple[int, ...] | None
    cols: tuple[int, ...]
    inverse: np.ndarray
    member: np.ndarray

    @property
    def size(self) -> int:
        return len(self.member)


def group_index(joint: JointDistribution, cols: tuple[int, ...], parent: GroupIndex | None) -> GroupIndex:
    """The index of the key columns ``cols``, grouped from the groups of ``parent`` (the index of a superset
    of ``cols``), or from the keys for None, by the ``encode`` codes of ``cols`` over the rows of the keys or
    the parent's member tuples: the one grouping rule of a joint's variable sets, on its keys alone."""
    keys = joint.keys
    rows = np.arange(len(keys), dtype=np.int32) if parent is None else parent.member
    table = keys if parent is None else keys.take(rows, axis=0)
    distinct, inverse = np.unique(encode(table, joint.domain_sizes, cols), return_inverse=True)
    member = np.empty(len(distinct), dtype=np.int32)
    member[inverse] = rows  # any key row of a group holds its values
    return GroupIndex(None if parent is None else parent.cols, cols, inverse.astype(np.int32), member)


class GroupIndexes:
    """A cache of ``group_index`` for walks over one joint that share it, as a bootstrap run's blocks do:
    an index is kept while the kept ones hold at most ``INDEX_ENTRIES`` entries, else built again when asked."""

    def __init__(self, joint: JointDistribution):
        self._joint = joint
        self._kept: dict[tuple, GroupIndex] = {}
        self._entries = 0

    def get(self, cols: tuple[int, ...], parent: GroupIndex | None) -> GroupIndex:
        """``group_index(joint, cols, parent)``, kept while the budget lasts."""
        name = (None if parent is None else parent.cols, cols)
        index = self._kept.get(name)
        if index is None:
            index = group_index(self._joint, cols, parent)
            entries = len(index.inverse) + len(index.member)
            if self._entries + entries <= INDEX_ENTRIES:
                self._kept[name] = index
                self._entries += entries
        return index


def background_mass(joint: JointDistribution, cols: Sequence[int], n_groups: int, width: int) -> tuple[int, float]:
    """``(absent, background)`` of a table of ``n_groups`` realizations of the key columns ``cols``.

    Each cell of the table covers ``rest`` product cells of the joint, so it
    weighs ``background = joint.background * rest`` on top of its tuples'
    weights; the ``absent`` realizations without a tuple weigh ``background``
    in each of their ``width`` cells.  Without smoothing both are 0.
    """
    if joint.background == 0.0:
        return 0, 0.0
    sizes = joint.domain_sizes
    rest = math.prod(s for c, s in enumerate(sizes) if c not in cols) // width
    return math.prod(sizes[c] for c in cols) - n_groups, joint.background * rest
