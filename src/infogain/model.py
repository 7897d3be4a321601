"""Domain types: decision problems, payoff functions, and signal schemas.

States, decisions, and signal values are indexed internally (dense integer
indices); labels appear only at the I/O boundary.  Numeric decision grids are
stored as exact `Fraction` values so that grid membership and argmax
tie-breaking never depend on float equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import SchemaError

ROLES = ("human", "ai", "human_ai", "other")

DecisionPoint = Union[str, Fraction]


@dataclass(frozen=True)
class Diagnostic:
    """One validation finding: a machine-readable code plus a human message."""

    code: str
    message: str
    severity: str = "error"  # "error" or "warning"

    def __str__(self) -> str:
        return f"[{self.severity}] {self.code}: {self.message}"


@dataclass(frozen=True)
class StateSpace:
    """Finite space of payoff-relevant states, identified by ordered labels."""

    labels: tuple[str, ...]

    @classmethod
    def of(cls, labels: Iterable[str]) -> "StateSpace":
        return cls(tuple(str(x) for x in labels))

    @property
    def size(self) -> int:
        return len(self.labels)


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    if isinstance(value, float):
        # Exact binary value of the float; callers wanting decimal semantics
        # should pass strings or Fractions.
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a grid point")


def is_numeric_domain(values: Sequence) -> bool:
    """True for a non-empty domain of exact rationals, i.e. a numeric grid."""
    return bool(values) and all(isinstance(v, Fraction) for v in values)


@dataclass(frozen=True)
class DecisionSpace:
    """Ordered space of decisions: categorical labels or a numeric grid in [0, 1]."""

    points: tuple[DecisionPoint, ...]

    @classmethod
    def categorical(cls, labels: Iterable[str]) -> "DecisionSpace":
        return cls(tuple(str(x) for x in labels))

    @classmethod
    def numeric(cls, values: Iterable) -> "DecisionSpace":
        return cls(tuple(_as_fraction(v) for v in values))

    @classmethod
    def uniform_grid(cls, start=0, stop=1, count: int = 101) -> "DecisionSpace":
        """``count`` evenly spaced points from ``start`` to ``stop``; by default the percent grid {0.00, ..., 1.00}."""
        start, stop = _as_fraction(start), _as_fraction(stop)
        if count < 2:
            raise ValueError("grid needs at least 2 points")
        step = (stop - start) / (count - 1)
        return cls(tuple(start + k * step for k in range(count)))

    @property
    def size(self) -> int:
        return len(self.points)

    @cached_property
    def is_numeric(self) -> bool:
        return is_numeric_domain(self.points)

    @cached_property
    def grid_floats(self) -> np.ndarray:
        if not self.is_numeric:
            raise SchemaError("decision space is categorical, not a numeric grid")
        arr = np.array([float(p) for p in self.points], dtype=np.float64)
        arr.setflags(write=False)
        return arr

    @cached_property
    def _midpoints(self) -> np.ndarray:
        """Midpoints of adjacent grid points, each rounded once from its exact value."""
        if not self.is_numeric:
            raise SchemaError("decision space is categorical, not a numeric grid")
        points = self.points
        arr = np.array([float((a + b) / 2) for a, b in zip(points, points[1:])], dtype=np.float64)
        arr.setflags(write=False)
        return arr

    @cached_property
    def _step_rule(self) -> tuple[float, float, np.ndarray] | None:
        """``(scale, offset, above)`` of the arithmetic rule of ``nearest_index``, or None where it does not hold.

        The rule holds on a grid of equal exact steps where, at every
        midpoint and at the float just above it, ``searchsorted``'s index is
        the guess or the one after it.  Guess and index both grow with the
        value, so it is then so for every value.  ``above[i]`` is the
        midpoint above point i, and NaN, which no value is above, for the last.
        """
        points = self.points
        if not self.is_numeric or len(points) < 2:
            return None
        step = points[1] - points[0]
        if step <= 0 or any(b - a != step for a, b in zip(points, points[1:])):
            return None
        try:
            scale, offset = float(1 / step), float(-points[0] / step)
        except OverflowError:  # a Fraction past the float range raises rather than giving inf
            return None
        mids = self._midpoints
        rule = (scale, offset, np.concatenate((mids, [np.nan])))
        probes = np.concatenate((mids, np.nextafter(mids, np.inf)))
        after = np.searchsorted(mids, probes, side="left") - _guess(probes, rule)
        return rule if ((after == 0) | (after == 1)).all() else None

    def nearest_index(self, value):
        """Index of the grid point nearest to ``value`` (lower point on exact ties; the last for NaN).

        This is ``np.searchsorted(midpoints, value, side="left")``, and
        ``value`` may be an array, giving an index array of its shape.  On a
        grid of equal steps (see ``_step_rule``) the index is found by
        arithmetic instead: the guess ``trunc((value - start) / step)``,
        clipped to the grid, is the point at or below the value, and the
        index is the one after it where the value is above their midpoint.
        """
        rule = self._step_rule
        if rule is None:
            # a one-point grid has no midpoints, so every value maps to index 0
            idx = np.searchsorted(self._midpoints, value, side="left")
        else:
            value = np.asarray(value, dtype=np.float64)
            idx = _guess(value, rule)
            idx += value > rule[2].take(idx)
        return int(idx) if np.ndim(idx) == 0 else idx


def _guess(value: np.ndarray, rule: tuple) -> np.ndarray:
    """``trunc(value * scale + offset)`` clipped to the grid of ``rule``; NaN guesses the last point."""
    scale, offset, above = rule
    x = np.multiply(value, scale, out=np.empty(np.shape(value)))
    x += offset
    np.fmin(x, len(above) - 1, out=x)  # fmin and fmax pass NaN over, so NaN lands on the last point
    np.fmax(x, 0.0, out=x)
    return x.astype(np.intp)


@dataclass(frozen=True)
class PayoffFunction:
    """Payoff S(d, w): either an explicit |D| x |Omega| matrix or the quadratic
    probability score 1 - (w - d)^2 for probabilistic reports on a binary state."""

    kind: str  # "matrix" or "brier"
    matrix: tuple[tuple[float, ...], ...] | None = None

    @classmethod
    def brier(cls) -> "PayoffFunction":
        return cls(kind="brier")

    @classmethod
    def from_matrix(cls, rows: Sequence[Sequence[float]]) -> "PayoffFunction":
        return cls(kind="matrix", matrix=tuple(tuple(float(x) for x in row) for row in rows))


@dataclass(frozen=True)
class BasicSignal:
    """A contextual signal with a finite, ordered value domain."""

    name: str
    domain: tuple[str, ...]


@dataclass(frozen=True)
class DecisionColumn:
    """A logged behavioral decision variable (human, AI, or team), treated as a
    signal when conditioning.  The role tag only labels output."""

    name: str
    role: str
    domain: tuple[DecisionPoint, ...]


@dataclass(frozen=True)
class SignalSchema:
    """Ordered basic signals followed by decision columns; names are unique."""

    signals: tuple[BasicSignal, ...]
    decisions: tuple[DecisionColumn, ...] = ()

    @cached_property
    def entries(self) -> tuple:
        return self.signals + self.decisions

    @cached_property
    def names(self) -> tuple[str, ...]:
        return tuple(e.name for e in self.entries)

    @cached_property
    def _positions(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.names)}

    @property
    def signal_names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.signals)

    @property
    def decision_names(self) -> tuple[str, ...]:
        return tuple(d.name for d in self.decisions)

    def position(self, name: str) -> int:
        try:
            return self._positions[name]
        except KeyError:
            raise SchemaError(f"unknown variable {name!r}; valid: {', '.join(self.names)}") from None

    def entry(self, name: str):
        return self.entries[self.position(name)]

    def is_decision(self, name: str) -> bool:
        return isinstance(self.entry(name), DecisionColumn)

    def domain_sizes(self) -> tuple[int, ...]:
        return tuple(len(e.domain) for e in self.entries)


@dataclass(frozen=True)
class DecisionProblem:
    """States, decisions, and the payoff function scoring one against the other."""

    states: StateSpace
    decisions: DecisionSpace
    payoff: PayoffFunction

    @cached_property
    def payoff_matrix(self) -> np.ndarray:
        """Dense |D| x |Omega| float payoff table; brier entries are computed
        exactly in rational arithmetic before the final float rounding."""
        if self.payoff.kind == "matrix":
            if self.payoff.matrix is None:
                raise SchemaError("matrix payoff has no matrix")
            arr = np.array(self.payoff.matrix, dtype=np.float64)
        elif self.payoff.kind == "brier":
            rows = []
            for d in self.decisions.points:
                dv = _as_fraction(d)
                rows.append([float(1 - (Fraction(w) - dv) ** 2) for w in range(self.states.size)])
            arr = np.array(rows, dtype=np.float64)
        else:
            raise SchemaError(f"unknown payoff kind {self.payoff.kind!r}")
        arr.setflags(write=False)
        return arr


def validate_problem(problem: DecisionProblem) -> list[Diagnostic]:
    """Check all decision-problem invariants, returning diagnostics instead of raising."""
    out: list[Diagnostic] = []
    states, dec, pay = problem.states, problem.decisions, problem.payoff

    if states.size < 2:
        out.append(Diagnostic("state-space-too-small", f"need at least 2 states, got {states.size}"))
    if len(set(states.labels)) != states.size:
        out.append(Diagnostic("state-labels-duplicate", "state labels are not unique"))

    if dec.size == 0:
        out.append(Diagnostic("decision-space-empty", "decision space has no points"))
    numeric = [p for p in dec.points if isinstance(p, Fraction)]
    if numeric and len(numeric) != dec.size:
        out.append(Diagnostic("decision-points-mixed", "decision points mix labels and numeric values"))
    elif numeric:
        if any(b <= a for a, b in zip(numeric, numeric[1:])):
            out.append(Diagnostic("grid-not-strictly-increasing", "numeric grid must be strictly increasing"))
        if any(p < 0 or p > 1 for p in numeric):
            out.append(Diagnostic("grid-out-of-unit-range", "numeric grid points must lie in [0, 1]"))
    else:
        if len(set(dec.points)) != dec.size:
            out.append(Diagnostic("decision-labels-duplicate", "decision labels are not unique"))

    if pay.kind == "matrix":
        if pay.matrix is None:
            out.append(Diagnostic("matrix-missing", "matrix payoff declared without entries"))
        else:
            if len(pay.matrix) != dec.size or any(len(row) != states.size for row in pay.matrix):
                out.append(
                    Diagnostic(
                        "matrix-dimension-mismatch",
                        f"payoff matrix must be {dec.size}x{states.size}",
                    )
                )
    elif pay.kind == "brier":
        if states.size != 2:
            out.append(Diagnostic("brier-requires-binary-state", f"brier payoff needs 2 states, got {states.size}"))
        if not dec.is_numeric:
            out.append(Diagnostic("brier-requires-numeric-grid", "brier payoff needs a numeric decision grid in [0, 1]"))
    else:
        out.append(Diagnostic("payoff-kind-unknown", f"unknown payoff kind {pay.kind!r}"))
    return out


def validate_schema(schema: SignalSchema) -> list[Diagnostic]:
    """Check signal/decision-column invariants. Constant domains are legal but flagged."""
    out: list[Diagnostic] = []
    seen: set[str] = set()
    for entry in schema.entries:
        if entry.name in seen:
            out.append(Diagnostic("variable-name-duplicate", f"variable name {entry.name!r} appears more than once"))
        seen.add(entry.name)
        if len(set(entry.domain)) != len(entry.domain):
            out.append(Diagnostic("domain-values-duplicate", f"domain of {entry.name!r} has duplicate values"))
        if len(entry.domain) == 0:
            out.append(Diagnostic("domain-empty", f"domain of {entry.name!r} is empty"))
    for sig in schema.signals:
        if len(sig.domain) == 1:
            out.append(
                Diagnostic(
                    "signal-domain-constant",
                    f"signal {sig.name!r} has a single-value domain and carries no information",
                    severity="warning",
                )
            )
    for col in schema.decisions:
        if col.role not in ROLES:
            out.append(Diagnostic("decision-role-unknown", f"role {col.role!r} of {col.name!r} not in {ROLES}"))
    return out


def brier_problem(state_labels: Iterable[str] = ("0", "1"), grid_count: int = 101) -> DecisionProblem:
    """Binary-state problem scored by the quadratic probability score on a uniform grid."""
    grid = DecisionSpace.uniform_grid(0, 1, grid_count)
    return DecisionProblem(StateSpace.of(state_labels), grid, PayoffFunction.brier())
