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
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import EstimationError, SchemaError
from .model import SignalSchema, StateSpace

# Relative tolerance on a joint's weights summing to its total.
MASS_TOL = 1e-12

# A posterior is a non-negative probability vector over the state space.
Posterior = np.ndarray
CODE_LIMIT = 2**62
# Bound on the int32 entries of the group indexes a joint keeps (see ``GroupIndexes``).
INDEX_ENTRIES = 2**22


def encode(table: np.ndarray, sizes: Sequence[int]) -> np.ndarray:
    """One int64 code per row of ``table``, whose column j holds values in range(sizes[j]).

    Columns fold in as mixed-radix digits, first column most significant, so
    codes sort like the rows do lexicographically and are equal exactly when the
    rows are.  Before a digit that would carry the code past ``CODE_LIMIT``, the
    code so far is replaced by its rank; while the product of sizes fits, the
    code is the plain mixed-radix value.  Each run of digits between ranks is
    one matrix product with its place values.
    """
    table = np.asarray(table, dtype=np.int64)
    code, span, start = None, 1, 0  # every code lies in range(span)
    for j, size in enumerate(sizes):
        if span * size > CODE_LIMIT:
            uniq, code = np.unique(_fold(code, table[:, start:j], sizes[start:j]), return_inverse=True)
            span, start = max(len(uniq), 1), j  # a table without rows leaves no code to rank
        span *= size
    return _fold(code, table[:, start:], sizes[start:])


def _fold(code: np.ndarray | None, digits: np.ndarray, sizes: Sequence[int]) -> np.ndarray:
    """``code`` (None for none) followed by the mixed-radix digits ``digits`` of radices ``sizes``."""
    places = [math.prod(sizes[j + 1 :]) for j in range(len(sizes))]
    value = digits @ np.array(places, dtype=np.int64)
    return value if code is None else code * math.prod(sizes) + value


def locate(realizations: np.ndarray, rows: np.ndarray, sizes: Sequence[int]) -> np.ndarray:
    """Index of each row of ``rows`` in the sorted, distinct ``realizations``,
    or ``len(realizations)`` for a row that is not among them."""
    codes = encode(np.concatenate([realizations, rows]), sizes)
    known, probe = codes[: len(realizations)], codes[len(realizations) :]
    pos = np.searchsorted(known, probe)
    # codes are non-negative, so the appended -1 matches no row past the end
    return np.where(np.append(known, -1)[pos] == probe, pos, len(known))


def _cell_count(cells: int) -> str:
    """A cell count for a message: in full below 10^15, else its power of ten."""
    return str(cells) if cells < 10**15 else f"~10^{math.log10(cells):.0f}"


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

    @cached_property
    def _tuples(self) -> np.ndarray:
        """``_ranks`` of the rows' codes: the one sort of the rows, shared by ``estimate_joint`` and ``row_tuples``."""
        return _ranks(encode(self.rows, (self.states.size,) + self.schema.domain_sizes()))


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
        keys.setflags(write=False)
        probs.setflags(write=False)

    @property
    def domain_sizes(self) -> tuple[int, ...]:
        return (self.states.size,) + self.schema.domain_sizes()

    @cached_property
    def group_indexes(self) -> GroupIndexes:
        """The group indexes of this joint's variable sets, built once each (see ``GroupIndexes``)."""
        return GroupIndexes(self)

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


def _ranks(codes: np.ndarray) -> np.ndarray:
    """The int32 rank of each value of ``codes`` among its distinct values in ascending order, from one unstable sort."""
    order = np.argsort(codes)
    ordered = codes[order]
    new = np.concatenate(([True], ordered[1:] != ordered[:-1]))
    del ordered
    inverse = np.empty(len(codes), dtype=np.int32)
    inverse[order] = np.cumsum(new, dtype=np.int32) - 1
    return inverse


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
    if data is None or data.n_rows == 0:
        raise EstimationError("cannot estimate a joint from an empty dataset")
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
    inverse = data._tuples
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


def row_tuples(data: Dataset) -> np.ndarray:
    """Index of each row's tuple among the keys of ``estimate_joint(data)``, from the sort that estimate made."""
    return data._tuples


def _span(sizes: Sequence[int]) -> int | None:
    """The number of mixed-radix codes over ``sizes``, or None past ``CODE_LIMIT``, where ``encode`` ranks."""
    span = math.prod(sizes)
    return span if span <= CODE_LIMIT else None


def group_counts(
    realizations: np.ndarray,
    sizes: Sequence[int],
    keep: Sequence[int],
    weights: np.ndarray,
    inner: np.ndarray | int,
    width: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Sum the weights of a source table by distinct value of its columns ``keep``.

    The source lists M distinct rows ``realizations``, whose column j holds
    values in range(sizes[j]), and R rows of ``weights`` of shape (R, M, w):
    ``weights[r, m, j]`` goes to column ``inner[m, j]`` (``inner`` broadcasts
    against (M, w)) of a table ``width`` wide.  Returns ``(groups, counts)``:
    the G distinct values of the kept columns, sorted lexicographically, and
    the (R, G, width) sums, all from one group index and one ``bincount``.

    The source is either a joint's keys (inner column: the state of each
    tuple) or the counts table of a superset of the kept columns (inner
    column: the table's own); when the weights are counts, both give the same
    integer sums, bit for bit.
    """
    enc = encode(realizations[:, keep], [sizes[c] for c in keep])
    uniq, inverse = np.unique(enc, return_inverse=True)
    member = np.empty(len(uniq), dtype=np.intp)
    member[inverse] = np.arange(len(inverse))  # some row of each group; any one holds its values
    n_rows, n_cells = len(weights), len(uniq) * width
    slots = np.broadcast_to(inverse[:, None] * width + inner, weights.shape[1:])
    cells = (np.arange(n_rows)[:, None, None] * n_cells + slots).ravel()
    counts = np.bincount(cells, weights=weights.ravel(), minlength=n_rows * n_cells)
    return realizations[member][:, keep], counts.reshape(n_rows, len(uniq), width)


class GroupIndex(NamedTuple):
    """The groups of a joint's tuples by their values in the key columns ``cols``, in lexicographic order.

    ``parent`` holds the columns of the superset whose groups these group,
    or None for the joint's keys, and ``inverse`` (int32) this set's group
    of each of the parent's groups (of each tuple).  ``codes`` holds the
    realizations of the groups, in order, as ``encode`` codes over the
    domain sizes of ``cols``: mixed-radix, except past ``CODE_LIMIT``,
    where they are ranks among the keys' values.
    """

    parent: tuple[int, ...] | None
    cols: tuple[int, ...]
    inverse: np.ndarray
    codes: np.ndarray

    @property
    def size(self) -> int:
        return len(self.codes)


class GroupIndexes:
    """The group indexes of one joint, each built at most once per (parent, set) while the budget lasts.

    Indexes depend on the keys alone, so every weight row of the joint (a
    bootstrap replicate, a cross-fit fold) sums its weights through the same
    ones.  A set is grouped from a parent's group codes by arithmetic
    (dropping a column's mixed-radix digit), and from the keys where it has
    no parent or its parent's codes are ranks.  An index is kept while the
    kept indexes hold at most ``budget`` entries; past that, it is built
    again when asked.
    """

    def __init__(self, joint: JointDistribution, budget: int = INDEX_ENTRIES):
        self._keys, self._sizes, self._budget = joint.keys, joint.domain_sizes, budget
        self._kept: dict[tuple, GroupIndex] = {}
        self._entries = 0

    def get(self, cols: tuple[int, ...], parent: GroupIndex | None) -> GroupIndex:
        """The index of the key columns ``cols``, grouped from the groups of ``parent`` (the index of
        ``cols`` and one more column), or from the keys for None."""
        sizes = [self._sizes[c] for c in cols]
        if parent is not None and _span([self._sizes[c] for c in parent.cols]) is None:
            parent = None
        name = (None if parent is None else parent.cols, cols)
        index = self._kept.get(name)
        if index is None:
            if parent is None and _span(sizes) is not None:  # mixed-radix: weigh the key columns in place
                places = np.zeros(len(self._sizes), dtype=np.int64)
                places[list(cols)] = [math.prod(sizes[j + 1 :]) for j in range(len(cols))]
                codes = self._keys @ places
            elif parent is None:
                codes = encode(self._keys[:, cols], sizes)
            else:
                (c,) = set(parent.cols) - set(cols)  # a parent holds one more column: drop its digit
                place = math.prod(self._sizes[k] for k in parent.cols if k > c)
                codes = parent.codes // (place * self._sizes[c]) * place + parent.codes % place
            distinct, inverse = np.unique(codes, return_inverse=True)
            if math.prod(sizes) < 2**31:
                distinct = distinct.astype(np.int32)
            index = GroupIndex(name[0], cols, inverse.astype(np.int32), distinct)
            entries = len(index.inverse) + len(index.codes)
            if self._entries + entries <= self._budget:
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


def state_mass(joint: JointDistribution, variables: Iterable[str]) -> tuple[np.ndarray, np.ndarray, int, np.ndarray]:
    """Per-realization state-weight table for the named (non-state) variables, grouped from the keys.

    Returns ``(realizations, mass, absent, background_row)`` where mass has
    shape (G, |states|) and ``mass[g, w] / joint.total = P(realization g,
    state w)`` for the G realizations with an explicit tuple, listed in
    lexicographic order.  Each cell is an exact count sum plus the smoothing
    weight of the product cells it covers (see ``background_mass``).  Row
    sums are realization weights and row normalization gives the posterior.
    Under smoothing each of the ``absent`` other realizations has the
    state-weight row ``background_row``; without smoothing ``absent`` is 0.
    """
    cols = joint.columns(variables, allow_state=False)
    n_states = joint.states.size
    reals, counts = group_counts(
        joint.keys, joint.domain_sizes, cols, joint.probs[None, :, None], joint.keys[:, :1], n_states
    )
    absent, background = background_mass(joint, cols, len(reals), n_states)
    return reals, counts[0] + background, absent, np.full(n_states, background)
