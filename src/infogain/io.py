"""Dataset and schema ingestion, and result serialization.

The schema is a separate JSON document, never inferred from data: state,
signal, and decision-column roles are semantically different and silent
inference would guess wrong.  Dataset cells are mapped to declared domain
values by exact match only; in particular numeric decision values must hit a
declared grid point exactly (no rounding).

Result documents are the fields of the result dataclasses as versioned JSON
with stable key ordering, full float precision, and provenance (input
hashes, seed, smoothing, mode flags), so identical runs produce
byte-identical files, and a field added to a result dataclass changes the
format.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from io import StringIO
from itertools import chain, islice
from operator import itemgetter
from pathlib import Path
from typing import Union

import numpy as np

from .bootstrap import QUANTILE_LEVELS, BootstrapResult, BootstrapSpec, GainStat, ShapleyStat, StatResult
from .errors import ValidationError
from .joint import Dataset
from .model import (
    BasicSignal,
    DecisionColumn,
    DecisionProblem,
    DecisionSpace,
    PayoffFunction,
    ROLES,
    SignalSchema,
    StateSpace,
    is_numeric_domain,
    validate_problem,
    validate_schema,
)
from .rational import GainValue
from .shapley import ShapleyReport

FORMAT_VERSION = 1
MISSING_POLICIES = ("error", "drop")
# Records the csv path of load_dataset parses per block.  Small blocks measured
# fastest and left the lowest peak RSS: on a 200k-row file, `gain --cross-fit`
# peaked 5 MiB higher after loading in 2^14-row blocks than in 2^10-row blocks.
BLOCK_ROWS = 1 << 10
# Bytes load_dataset reads per chunk, before cutting the chunk after its last line
# end.  A chunk's temporaries set the heap's high-water mark, so larger chunks
# cost memory for little time: on a 200k-row file, 2^14- to 2^18-byte chunks
# loaded in 85, 80, 78, 84 and 73 ms and left peaks of 40.9, 41.4, 41.9, 44.8 and
# 47.9 MiB (medians of 12 alternating fresh processes, 2 shared vCPUs, Python 3.11,
# numpy 2.4); 20 more alternations read 76 ms at 2^15 against 73 ms at 2^16.
CHUNK_BYTES = 1 << 16
# load_dataset cell codes: empty after stripping, not in the domain
MISSING, BAD = -1, -2
# Most points a decision or payoff grid may list.  Each point is an exact
# Fraction, so a larger grid is refused before any point is built.
GRID_POINT_LIMIT = 10_001
# Largest decimal exponent, in magnitude, of a numeric cell or grid value: Python's
# own limit on the digits of an int read from text.  Fraction builds 10**exponent
# before anything checks it, so "1e999999999" would take hours; past this it is
# not a number.
EXPONENT_LIMIT = 4300
# A number: what Fraction reads on Python 3.10 (a sign and digits, then a /denominator or a .fraction and
# an exponent), on every release, though later ones read more ("0.5_0" from 3.11, "1 / 2" from 3.12).
_NUMBER = re.compile(r"\s*[-+]?(?=\d|\.\d)\d*(?:/\d+|(?:\.\d*)?(?:e(?P<exp>[-+]?\d+))?)\s*", re.IGNORECASE)


@dataclass(frozen=True)
class SchemaConfig:
    """Validated schema document: column layout, domains, payoff, and options."""

    state_column: str
    schema: SignalSchema
    problem: DecisionProblem
    smoothing: float = 0.0
    decision_bins: int | None = None
    missing: str = "error"

    @property
    def states(self) -> StateSpace:
        """The state space: the decision problem's."""
        return self.problem.states


@dataclass(frozen=True)
class Provenance:
    """Reproducibility stamp attached to result documents."""

    schema_sha256: str | None = None
    data_sha256: str | None = None
    seed: int | None = None
    alpha: float | None = None
    tool_version: str | None = None
    flags: dict = field(default_factory=dict)


def file_sha256(path) -> str:
    """The SHA-256 of the file at ``path``, read 1 MiB at a time rather than whole."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while block := fh.read(1 << 20):
            digest.update(block)
    return digest.hexdigest()


def fraction_to_str(value: Fraction) -> str:
    """Shortest exact decimal if one exists, else 'p/q'; parseable by Fraction()."""
    den = value.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return f"{value.numerator}/{value.denominator}"
    digits = max(twos, fives)
    if digits == 0:
        return str(value.numerator)
    scaled = value.numerator * 10**digits // value.denominator
    sign = "-" if scaled < 0 else ""
    text = str(abs(scaled)).rjust(digits + 1, "0")
    return f"{sign}{text[:-digits]}.{text[-digits:]}"


def domain_value_str(value) -> str:
    return fraction_to_str(value) if isinstance(value, Fraction) else str(value)


def read_json(path, what: str):
    """The JSON document at ``path``, after any leading UTF-8 byte-order mark (as in a dataset);
    a file that is not UTF-8 JSON raises ValidationError naming ``what``."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8-sig"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ValidationError(f"{what}: not valid JSON ({exc})", path="") from None


def _at(path: str, key: str) -> str:
    """Path of field ``key`` of the object at ``path`` ("" is the top level)."""
    return f"{path}.{key}" if path else key


def _require(doc: dict, key: str, path: str):
    _object(doc, path)
    if key not in doc:
        raise ValidationError(f"{_at(path, key)}: missing required field", path=_at(path, key))
    return doc[key]


def _object(doc, path: str) -> dict:
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: must be an object", path=path)
    return doc


def _list(value, path: str) -> list:
    if not isinstance(value, list):
        raise ValidationError(f"{path}: must be a list", path=path)
    return value


def _nonempty(value, path: str) -> list:
    if not isinstance(value, list) or not value:
        raise ValidationError(f"{path}: must be a non-empty list", path=path)
    return value


def _string(value, path: str, optional: bool = False) -> str | None:
    if not (isinstance(value, str) or (optional and value is None)):
        raise ValidationError(f"{path}: must be a string{' or null' if optional else ''}", path=path)
    return value


def _strings(value, path: str) -> tuple[str, ...]:
    return tuple(_string(v, f"{path}[{i}]") for i, v in enumerate(_list(value, path)))


def _integer(value, path: str, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ValidationError(f"{path}: must be an integer >= {minimum}", path=path)
    return value


def _is_number(value) -> bool:
    return not isinstance(value, bool) and isinstance(value, (int, float)) and math.isfinite(value)


def _number(value, path: str, non_negative: bool = False) -> float:
    if not _is_number(value) or (non_negative and value < 0):
        raise ValidationError(f"{path}: must be a finite {'non-negative ' if non_negative else ''}number", path=path)
    return float(value)


def _labels(value, path: str) -> tuple[str, ...]:
    """A non-empty list of distinct labels; a number entry becomes its ``str``."""
    labels: dict[str, None] = {}
    for i, v in enumerate(_nonempty(_list(value, path), path)):
        if not (isinstance(v, str) or _is_number(v)):
            raise ValidationError(f"{path}[{i}]: must be a string or a finite number", path=f"{path}[{i}]")
        label = str(v)
        if label in labels:
            raise ValidationError(f"{path}: duplicate value {label!r}", path=path)
        labels[label] = None
    return tuple(labels)


def _exact_number(text: str) -> Fraction:
    """``Fraction(text)`` of a ``_NUMBER`` within ``EXPONENT_LIMIT``; else a ValueError, before any power is built."""
    number = _NUMBER.fullmatch(text)
    if number is None:
        raise ValueError(f"Invalid literal for Fraction: {text!r}")
    if number["exp"] and abs(int(number["exp"])) > EXPONENT_LIMIT:
        raise ValueError(f"exponent {number['exp']} exceeds {EXPONENT_LIMIT} in magnitude")
    return Fraction(text)


def _fraction(value, path: str) -> Fraction:
    try:
        return _exact_number(str(value))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"{path}: not a numeric value ({exc})", path=path) from None


def _grid_size(size: int, path: str) -> int:
    if size > GRID_POINT_LIMIT:
        raise ValidationError(f"{path}: {size} grid points exceed the limit of {GRID_POINT_LIMIT}", path=path)
    return size


def _parse_grid(doc, path: str) -> DecisionSpace:
    _object(doc, path)
    if "points" in doc:
        points = _nonempty(_list(doc["points"], f"{path}.points"), f"{path}.points")
        _grid_size(len(points), f"{path}.points")
        return DecisionSpace.numeric([_fraction(p, f"{path}.points[{i}]") for i, p in enumerate(points)])
    count = _grid_size(_integer(_require(doc, "count", path), f"{path}.count", 2), f"{path}.count")
    start = _fraction(doc.get("start", "0"), f"{path}.start")
    stop = _fraction(doc.get("stop", "1"), f"{path}.stop")
    return DecisionSpace.uniform_grid(start, stop, count)


def _parse_payoff(doc, path: str) -> tuple[DecisionSpace, PayoffFunction]:
    kind = _string(_require(doc, "kind", path), f"{path}.kind")
    if kind == "brier":
        grid = _parse_grid(doc["grid"], f"{path}.grid") if "grid" in doc else DecisionSpace.uniform_grid()
        return grid, PayoffFunction.brier()
    if kind == "matrix":
        at = f"{path}.rows"
        rows = [
            [_number(x, f"{at}[{i}][{j}]") for j, x in enumerate(_list(row, f"{at}[{i}]"))]
            for i, row in enumerate(_nonempty(_list(_require(doc, "rows", path), at), at))
        ]
        labels = [f"d{i}" for i in range(len(rows))]
        if "decisions" in doc:
            labels = _labels(doc["decisions"], f"{path}.decisions")
        if len(labels) != len(rows):
            raise ValidationError(
                f"{path}.decisions: {len(labels)} labels for {len(rows)} matrix rows", path=f"{path}.decisions"
            )
        return DecisionSpace.categorical(labels), PayoffFunction.from_matrix(rows)
    raise ValidationError(f"{path}.kind: unknown payoff kind {kind!r}", path=f"{path}.kind")


def load_schema(path) -> SchemaConfig:
    """Parse and validate a schema document; raises ValidationError with a field path."""
    return parse_schema_doc(read_json(path, "schema"))


def parse_schema_doc(doc: dict) -> SchemaConfig:
    if not isinstance(doc, dict):
        raise ValidationError("schema: top level must be an object", path="")
    state_doc = _require(doc, "state", "")
    state_column = _string(_require(state_doc, "column", "state"), "state.column")
    states = StateSpace.of(_labels(_require(state_doc, "labels", "state"), "state.labels"))

    signals = []
    for i, sig in enumerate(_list(doc.get("signals", []), "signals")):
        at = f"signals[{i}]"
        column = _string(_require(sig, "column", at), f"{at}.column")
        signals.append(BasicSignal(column, _labels(_require(sig, "values", at), f"{at}.values")))

    decisions = []
    for i, dec in enumerate(_list(doc.get("decisions", []), "decisions")):
        at = f"decisions[{i}]"
        column = _string(_require(dec, "column", at), f"{at}.column")
        role = _string(dec.get("role", "other"), f"{at}.role")
        if role not in ROLES:
            raise ValidationError(f"{at}.role: {role!r} not in {ROLES}", path=f"{at}.role")
        if "grid" in dec and "values" in dec:
            raise ValidationError(f"{at}: declare either grid or values, not both", path=at)
        if "grid" in dec:
            domain = tuple(_parse_grid(dec["grid"], f"{at}.grid").points)
        else:
            domain = _labels(_require(dec, "values", at), f"{at}.values")
        decisions.append(DecisionColumn(column, role, domain))

    schema = SignalSchema(signals=tuple(signals), decisions=tuple(decisions))
    grid, payoff = _parse_payoff(_require(doc, "payoff", ""), "payoff")
    problem = DecisionProblem(states=states, decisions=grid, payoff=payoff)

    options = _object(doc.get("options", {}), "options")
    smoothing = _number(options.get("smoothing", 0.0), "options.smoothing", non_negative=True)
    decision_bins = options.get("decision_bins")
    if decision_bins is not None:
        _integer(decision_bins, "options.decision_bins", 2)
    missing = _string(options.get("missing", "error"), "options.missing")
    if missing not in MISSING_POLICIES:
        raise ValidationError(f"options.missing: {missing!r} not in {MISSING_POLICIES}", path="options.missing")

    columns = [state_column] + [e.name for e in schema.entries]
    dupes = {c for c in columns if columns.count(c) > 1}
    if dupes:
        raise ValidationError(f"schema: duplicate column name(s) {sorted(dupes)}", path="")

    for diag in validate_schema(schema) + validate_problem(problem):
        if diag.severity == "error":
            raise ValidationError(f"schema: {diag.code}: {diag.message}", path=diag.code)

    return SchemaConfig(
        state_column=state_column,
        schema=schema,
        problem=problem,
        smoothing=smoothing,
        decision_bins=decision_bins,
        missing=missing,
    )


def _names(value, path: str, schema: SignalSchema) -> tuple[str, ...]:
    """A list of variable names of the schema."""
    names = _strings(value, path)
    for i, name in enumerate(names):
        if name not in schema.names:
            raise ValidationError(f"{path}[{i}]: unknown variable {name!r}", path=f"{path}[{i}]")
    return names


def parse_spec_doc(doc, schema: SignalSchema, *, replicates: int, seed: int) -> BootstrapSpec:
    """Parse a bootstrap spec document against the schema.

    ``replicates`` and ``seed`` stand in for absent fields.  Raises
    ValidationError naming the failing field, e.g. ``statistics[0].v1``.
    """
    try:
        if not isinstance(doc, dict):
            raise ValidationError("top level must be an object", path="")
        if "replicates" in doc:
            replicates = _integer(doc["replicates"], "replicates", 1)
        if "seed" in doc:
            seed = _integer(doc["seed"], "seed", 0)
        stats: list = []
        for i, item in enumerate(_nonempty(_require(doc, "statistics", ""), "statistics")):
            at = f"statistics[{i}]"
            kind = _require(item, "kind", at)
            name = _string(item.get("name"), f"{at}.name", optional=True)
            ground = _names(item.get("ground", []), f"{at}.ground", schema)
            if kind == "gain":
                v1 = _names(_require(item, "v1", at), f"{at}.v1", schema)
                stats.append(GainStat(v1=v1, ground=ground, name=name))
            elif kind == "shapley":
                signals, permutations = item.get("signals"), item.get("permutations")
                if signals is not None:  # an empty list, like no list, means every signal
                    signals = _names(signals, f"{at}.signals", schema) or None
                if permutations is not None:
                    permutations = _integer(permutations, f"{at}.permutations", 1)
                stats.append(ShapleyStat(ground=ground, signals=signals, permutations=permutations, name=name))
            else:
                raise ValidationError(f"{at}.kind: unknown statistic kind {kind!r}", path=f"{at}.kind")
    except ValidationError as exc:
        raise ValidationError(f"bootstrap spec: {exc}", path=exc.path) from None
    return BootstrapSpec(replicates=replicates, seed=seed, statistics=tuple(stats))


def schema_to_doc(cfg: SchemaConfig) -> dict:
    signals = [{"column": s.name, "values": list(s.domain)} for s in cfg.schema.signals]
    decisions = []
    for d in cfg.schema.decisions:
        if is_numeric_domain(d.domain):
            decisions.append({"column": d.name, "role": d.role, "grid": {"points": [fraction_to_str(v) for v in d.domain]}})
        else:
            decisions.append({"column": d.name, "role": d.role, "values": [str(v) for v in d.domain]})
    if cfg.problem.payoff.kind == "brier":
        payoff = {"kind": "brier", "grid": {"points": [fraction_to_str(v) for v in cfg.problem.decisions.points]}}
    else:
        payoff = {
            "kind": "matrix",
            "rows": [list(row) for row in cfg.problem.payoff.matrix],
            "decisions": [str(p) for p in cfg.problem.decisions.points],
        }
    return {
        "state": {"column": cfg.state_column, "labels": list(cfg.states.labels)},
        "signals": signals,
        "decisions": decisions,
        "payoff": payoff,
        "options": {"smoothing": cfg.smoothing, "decision_bins": cfg.decision_bins, "missing": cfg.missing},
    }


def write_schema(cfg: SchemaConfig, path) -> None:
    Path(path).write_text(json.dumps(schema_to_doc(cfg), indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _bin_domain(domain: tuple, bins: int) -> tuple[tuple, tuple[int, ...]]:
    """Equal-width bins over a numeric domain: (bin-center domain, the bin of each point)."""
    lo, hi = domain[0], domain[-1]
    width = (hi - lo) / bins
    centers = tuple(lo + width * Fraction(2 * k + 1, 2) for k in range(bins))
    return centers, tuple(min(int((v - lo) / width), bins - 1) if width > 0 else 0 for v in domain)


class _CellCodes(dict):
    """One column's map from a raw cell string to its domain index (or its bin's) or a negative code.

    Each distinct string is stripped and parsed once, on its first lookup.
    """

    def __init__(self, domain: tuple, bins: tuple[int, ...] | None = None):
        super().__init__()
        self.numeric = numeric = is_numeric_domain(domain)
        self.index = dict(zip(domain if numeric else map(str, domain), bins or range(len(domain))))

    def __missing__(self, raw: str) -> int:
        cell = raw.strip()
        if cell == "":
            code = MISSING
        elif self.numeric:
            try:
                code = self.index.get(_exact_number(cell), BAD)
            except (ValueError, ZeroDivisionError):
                code = BAD
        else:
            code = self.index.get(cell, BAD)
        self[raw] = code
        return code


def _line_chunks(fh):
    """A binary file as chunks of about ``CHUNK_BYTES``, all but the last cut after a line end, not in a ``\\r\\n``."""
    reads = []  # the reads since the last cut: only the last may end in a \r, which ends a line unless a \n follows
    while data := fh.read(CHUNK_BYTES):
        cut = max(data.rfind(b"\n"), data.rfind(b"\r", 0, len(data) - 1)) + 1
        if cut or reads and reads[-1].endswith(b"\r"):
            yield b"".join([*reads, data[:cut]])
            reads = []
        reads.append(data[cut:])
    if rest := b"".join(reads):
        yield rest


def _utf8_chunks(fh, path):
    """The chunks of ``fh`` checked as UTF-8: at the first byte that is not, the complete lines before it,
    then the error naming the byte."""
    for chunk in _line_chunks(fh):
        if not chunk.isascii():
            try:
                chunk.decode()
            except UnicodeDecodeError as exc:
                if cut := max(chunk.rfind(b"\n", 0, exc.start), chunk.rfind(b"\r", 0, exc.start)) + 1:
                    yield chunk[:cut]
                raise _decode_error(path) from None
        yield chunk


def _lines(chunks):
    """The text lines of UTF-8 ``chunks``, each with its line end, for the csv module."""
    return chain.from_iterable(StringIO(chunk.decode(), newline="") for chunk in chunks)


def _line_ends(data: bytes) -> int:
    """Line ends in ``data`` as the csv module counts them: ``\\n``, ``\\r\\n`` or a lone ``\\r``."""
    return data.count(b"\n") + data.count(b"\r") - data.count(b"\r\n")


def _decode_error(path) -> ValidationError:
    """The error naming the line and byte offset of the first byte of ``path`` that is not UTF-8."""
    line, offset = 1, 0
    with open(path, "rb") as fh:
        for chunk in _line_chunks(fh):
            try:
                chunk.decode("utf-8")
            except UnicodeDecodeError as exc:
                line += _line_ends(chunk[: exc.start])
                return ValidationError(
                    f"dataset line {line}, byte offset {offset + exc.start}: "
                    f"byte 0x{chunk[exc.start]:02x} is not valid UTF-8 ({exc.reason})",
                    path=f"line {line}",
                )
            line += _line_ends(chunk)
            offset += len(chunk)
    return ValidationError("dataset: not valid UTF-8", path="")  # the file changed while it was read


class _Rows:
    """The coded rows of one load: every block of either tokenizer passes ``add``."""

    def __init__(self, wanted: list[str], col_pos: list[int], caches: list[_CellCodes], drop: bool):
        self.wanted, self.col_pos, self.caches, self.drop = wanted, col_pos, caches, drop
        # the smallest integer type that holds every domain index and the negative codes
        self.dtype = np.min_scalar_type(-max(len(cache.index) for cache in caches))
        self.blocks, self.dropped = [], 0

    def add(self, codes: np.ndarray, first_line: int, cell) -> None:
        """Keep the rows of ``codes`` whose every cell is in its domain; raise at the first fatal row.

        The code in each row's first failing column (``wanted`` order) decides its fate:
        under the drop policy a missing cell drops the row, any other failing cell is
        fatal.  Row 0 is record ``first_line``; ``cell(i, j)`` is the raw text of row
        i's cell in column ``wanted[j]``.
        """
        if codes.min(initial=0) >= 0:  # every cell in its domain
            self.blocks.append(codes)
            return
        decisive = np.take_along_axis(codes, (codes < 0).argmax(axis=1)[:, None], axis=1)[:, 0]
        fatal = decisive == BAD if self.drop else decisive < 0
        if fatal.any():
            i = int(fatal.argmax())
            lineno = first_line + i
            j = int((codes[i] < 0).argmax())
            if decisive[i] == MISSING:
                raise ValidationError(
                    f"dataset row {lineno}, column {self.wanted[j]!r}: missing value", path=f"row {lineno}"
                )
            raise ValidationError(
                f"dataset row {lineno}, column {self.wanted[j]!r}: value {cell(i, j)!r} not in the declared domain",
                path=f"row {lineno}",
            )
        keep = decisive >= 0
        self.dropped += len(codes) - int(keep.sum())
        self.blocks.append(codes[keep])


_COMMA, _LF, _CR = ord(","), ord("\n"), ord("\r")
_KEY_BYTES = 8
# Indexed by a cell's length plus one, the mask of its key bytes; the last serves every wider cell too.
_KEY_MASKS = np.array([0] + [(1 << 8 * k) - 1 for k in range(_KEY_BYTES + 1)], dtype=np.uint64)
# The key of every wider cell, and a key no cell has: no narrower cell has either, as its
# bytes are non-zero up to its length.
_WIDE_KEY, _NO_KEY = 1 << 8, 1 << 9
# Multiply-shift hashing: a key's first slot in a table of 2^b is the top b bits of key * _HASH mod 2^64.
_HASH = 0x9E3779B97F4A7C15


class _KeyTable:
    """The codes of the cell keys of every wanted column, for a whole load.

    Each column has its own region of an open-addressing hash table with linear
    probing, at most a quarter full.  A key a column's region does not hold is
    decoded once, from its own bytes, and coded by the column's ``_CellCodes``; the
    key of the wide cells maps to 0 (their codes are looked up one by one).  A region
    holds its keys in the order they were first seen, the commonest of a chunk first,
    so the keys seen most often sit in their first slot.
    """

    def __init__(self, caches: list[_CellCodes], dtype):
        self.caches, self.dtype = caches, dtype
        self.entries: list[list[tuple[int, int]]] = [[] for _ in caches]  # (key, code) per column
        self.bits = [4] * len(caches)
        self._build()

    def _build(self) -> None:
        """Lay out a region of 2^bits[j] slots per column j and put its entries in."""
        sizes = [1 << b for b in self.bits]
        self.offsets = np.cumsum([0] + sizes[:-1])
        self.masks = np.array(sizes) - 1
        self.shifts = np.array([64 - b for b in self.bits], dtype=np.uint64)[:, None]
        self.keys = np.full(sum(sizes), _NO_KEY, dtype=np.uint64)
        self.codes = np.zeros(sum(sizes), dtype=self.dtype)
        for j, entries in enumerate(self.entries):
            self._put(j, entries)

    def _put(self, j: int, entries: list[tuple[int, int]]) -> None:
        offset, mask, shift = int(self.offsets[j]), int(self.masks[j]), 64 - self.bits[j]
        for key, code in entries:
            slot = (key * _HASH & 0xFFFFFFFFFFFFFFFF) >> shift
            while self.keys[offset + slot] != _NO_KEY:
                slot = (slot + 1) & mask
            self.keys[offset + slot], self.codes[offset + slot] = key, code

    def _add(self, j: int, entries: list[tuple[int, int]]) -> None:
        self.entries[j] += entries
        if 4 * len(self.entries[j]) <= 1 << self.bits[j]:
            self._put(j, entries)
            return
        while 4 * len(self.entries[j]) > 1 << self.bits[j]:
            self.bits[j] += 1
        self._build()

    def _find(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The slot of each key of ``keys`` (columns, lines), and the flat indices of the
        keys their column's region does not hold (their slot is a free one)."""
        slots = keys * np.uint64(_HASH)
        slots >>= self.shifts
        slots = slots.view(np.intp)
        slots += self.offsets[:, None]
        flat, values = slots.reshape(-1), keys.reshape(-1)
        todo = np.flatnonzero(self.keys.take(flat) != values)  # not in their first slot
        if not todo.size:
            return slots, todo
        columns = todo // keys.shape[1]
        start, mask, value = self.offsets.take(columns), self.masks.take(columns), values.take(todo)
        probe = flat.take(todo)
        held = self.keys.take(probe)
        while (on := (held != value) & (held != _NO_KEY)).any():
            probe = np.where(on, start + ((probe - start + 1) & mask), probe)
            held = self.keys.take(probe)
        flat[todo] = probe
        return slots, todo[held == _NO_KEY]

    def lookup(self, keys: np.ndarray) -> np.ndarray:
        """The codes (lines, columns) of ``keys`` (columns, lines)."""
        slots, absent = self._find(keys)
        if absent.size:
            columns, lines = np.divmod(absent, keys.shape[1])
            for j in np.flatnonzero(np.bincount(columns)).tolist():
                new, counts = np.unique(keys[j, lines[columns == j]], return_counts=True)
                new = new[np.argsort(-counts, kind="stable")].tolist()
                texts = (key.to_bytes(_KEY_BYTES, "little").rstrip(b"\0").decode() for key in new)
                self._add(j, [(key, 0 if key == _WIDE_KEY else self.caches[j][text]) for key, text in zip(new, texts)])
            slots, _ = self._find(keys)
        return self.codes.take(slots.T)


def _plain_rows(chunks, width: int, rows: _Rows) -> tuple[int, bytes]:
    """Code the body ``chunks`` into ``rows`` from their bytes while they are plain; return the row
    number of the next record and the first chunk refused (b"" if none), where the csv module reads on.

    A plain chunk holds a record, no ``"``, no NUL and no ``\\r`` but before a ``\\n`` or in its
    closing line end, which is stripped; a closing run of more than one line end holds empty
    records, which the csv module reads.  The rest must have ``width`` cells on every line, no
    blank line and no line longer than the csv module's field limit, and is split at its commas
    and line ends in one pass.  A cell's first ``_KEY_BYTES`` bytes make its integer key (no cell
    holds a NUL, so the zero bytes past its end give its length), and the keys of a chunk are
    coded through one ``_KeyTable``, which decodes each distinct key of a column once per load.
    Wider cells are looked up one by one.
    """
    limit = csv.field_size_limit()
    first_line = 2
    cols = np.array(rows.col_pos)
    table = _KeyTable(rows.caches, rows.dtype)
    for chunk in chunks:
        body = chunk.rstrip(b"\r\n")
        if not body or b'"' in body or b"\0" in body or _line_ends(chunk[len(body) :]) > 1:
            return first_line, chunk

        # The \n put before the body is the separator before its first cell.
        padded = b"".join((b"\n", body, b"\n", bytes(_KEY_BYTES)))
        buf = np.frombuffer(padded, dtype=np.uint8, count=len(body) + 2)
        is_lf = buf == _LF
        seps = np.flatnonzero(is_lf | (buf == _COMMA))
        # Where every line has width cells, every width-th separator ends a line.
        lf, n = seps[::width], np.count_nonzero(is_lf) - 1
        if len(seps) != n * width + 1 or (buf.take(lf) != _LF).any():
            return first_line, chunk  # a short or long record: the csv path names it
        cr = buf.take(lf[1:] - 1) == _CR
        if np.count_nonzero(cr) != np.count_nonzero(buf == _CR):
            return first_line, chunk  # a \r that does not end a line
        lengths = np.diff(lf) - 1 - cr
        if not lengths.all() or lengths.max() > limit:
            return first_line, chunk  # a blank record, or a line past the csv module's field limit

        # per wanted column, the separator before each cell and the cell's length plus one
        before = seps[:-1].reshape(n, width).T[cols]
        span = seps[1:].reshape(n, width).T[cols] - before
        span[cols == width - 1] -= cr

        def cell(i, j):
            """The text of line i's cell in column ``wanted[j]``."""
            return padded[before[j, i] + 1 : before[j, i] + span[j, i]].decode()

        words = np.ndarray((len(buf) - 1,), dtype="<u8", buffer=padded, offset=1, strides=(1,))
        keys = words.take(before)
        keys &= _KEY_MASKS.take(span, mode="clip")
        wide = np.flatnonzero(span > _KEY_BYTES + 1)
        keys.reshape(-1)[wide] = _WIDE_KEY
        codes = table.lookup(keys)
        if wide.size:
            columns, lines = np.divmod(wide, n)
            at = before.reshape(-1)[wide] + 1
            spans = zip(columns.tolist(), at.tolist(), (at + span.reshape(-1)[wide] - 1).tolist())
            codes[lines, columns] = [rows.caches[j][padded[a:b].decode()] for j, a, b in spans]
        rows.add(codes, first_line, cell)
        first_line += n
    return first_line, b""


def _records(reader, lineno: int):
    """The records of a csv reader, the first numbered ``lineno``; a reader error, e.g. a cell longer
    than ``csv.field_size_limit()``, raises a ValidationError naming the row it stopped at."""
    while True:
        try:
            record = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            raise ValidationError(f"dataset row {lineno}: {exc}", path=f"row {lineno}") from None
        yield record
        lineno += 1


def _only_empty(items) -> bool:
    """Whether ``items`` are all empty; one that fails to be read (a ValidationError) is not."""
    try:
        return not any(items)
    except ValidationError:
        return False


def _csv_rows(lines, width: int, rows: _Rows, first_line: int) -> None:
    """Code the records the csv module reads from the text ``lines`` into ``rows``, the first of them
    row ``first_line``, in blocks of ``BLOCK_ROWS``; a ValidationError raised while reading (see
    ``_records``) is raised once the records before it are checked."""
    reader = _records(csv.reader(lines), first_line)
    while True:
        records, pending = [], None
        try:
            records.extend(islice(reader, BLOCK_ROWS))
        except ValidationError as exc:
            pending = exc
        if not records and pending is None:
            return
        # Records before the first one with the wrong cell count are checked first.
        lengths = np.fromiter(map(len, records), dtype=np.int64, count=len(records))
        wrong = np.flatnonzero(lengths != width)
        n = int(wrong[0]) if wrong.size else len(records)

        codes = np.empty((n, len(rows.caches)), dtype=rows.dtype)
        for j, (pos, cache) in enumerate(zip(rows.col_pos, rows.caches)):
            column = map(itemgetter(pos), islice(records, n))
            codes[:, j] = np.fromiter(map(cache.__getitem__, column), dtype=rows.dtype, count=n)
        rows.add(codes, first_line, lambda i, j: records[i][rows.col_pos[j]])

        if n < len(records):
            if not any(records[n:]) and pending is None and _only_empty(reader):
                return  # trailing empty records; an empty record before any other record fails below
            lineno = first_line + n
            raise ValidationError(f"dataset row {lineno}: expected {width} cells, got {len(records[n])}",
                                  path=f"row {lineno}")
        if pending is not None:
            raise pending
        first_line += len(records)


def load_dataset(path, cfg: SchemaConfig) -> Dataset:
    """Load a CSV against the schema, mapping labels/values to domain indices.

    Numeric decision cells parse as exact rationals and must equal a declared
    grid point.  Missing cells ("" after stripping) follow the schema's policy.
    With decision binning, numeric decision columns are re-domained to bin
    centers, and each grid point's cell codes to its bin.

    The file is read once, in chunks of about ``CHUNK_BYTES`` cut after line
    ends and checked as UTF-8 as they are read.  The csv module reads the
    header.  After a header of one line, the byte tokenizer codes the chunks
    while they are plain (``_plain_rows``), and the csv module reads on from
    the first chunk it refuses, in blocks of ``BLOCK_ROWS`` records; a header
    with a quoted line end leaves the whole body to the csv module.  Both map
    each distinct cell string of a column through one cache and give the same
    rows and errors.  The first fatal record in file order raises, whatever
    block it is in; a byte that is not UTF-8 raises, naming its line and byte
    offset, once the records before it are checked.
    """
    schema, bins = cfg.schema, {}
    if cfg.decision_bins:
        decisions = []
        for dec in cfg.schema.decisions:
            if is_numeric_domain(dec.domain):
                centers, bins[dec.name] = _bin_domain(dec.domain, cfg.decision_bins)
                dec = DecisionColumn(dec.name, dec.role, centers)
            decisions.append(dec)
        schema = SignalSchema(signals=cfg.schema.signals, decisions=tuple(decisions))
    entries = list(cfg.schema.entries)
    wanted = [cfg.state_column] + [e.name for e in entries]
    caches = [_CellCodes(cfg.states.labels)] + [_CellCodes(e.domain, bins.get(e.name)) for e in entries]

    with open(path, "rb") as fh:
        chunks = _utf8_chunks(fh, path)
        head = StringIO(next(chunks, b"").decode().removeprefix("\ufeff"), newline="")  # skip a byte-order mark
        lines = chain(head, _lines(chunks))
        reader = csv.reader(lines)
        header = next(_records(reader, 1), None)
        if header is None:
            raise ValidationError("dataset: file has no header row", path="")
        header = [h.strip() for h in header]
        dupes = sorted({h for h in header if header.count(h) > 1})
        if dupes:
            raise ValidationError(f"dataset: duplicate column(s) {dupes}", path=",".join(dupes))
        unknown = [h for h in header if h not in wanted]
        if unknown:
            raise ValidationError(f"dataset: unknown column(s) {unknown}", path=",".join(unknown))
        missing_cols = [c for c in wanted if c not in header]
        if missing_cols:
            raise ValidationError(f"dataset: missing column(s) {missing_cols}", path=",".join(missing_cols))

        rows = _Rows(wanted, [header.index(c) for c in wanted], caches, cfg.missing == "drop")
        if reader.line_num > 1:  # a quoted line end in the header
            _csv_rows(lines, len(header), rows, 2)
        else:
            body = head.read().encode()  # the rest of the first chunk
            first_line, rest = _plain_rows(chain([body], chunks) if body else chunks, len(header), rows)
            if rest:
                _csv_rows(_lines(chain([rest], chunks)), len(header), rows, first_line)

    if not sum(map(len, rows.blocks)):
        raise ValidationError("dataset: no rows left after parsing", path="")

    return Dataset(
        states=cfg.states,
        schema=schema,
        rows=np.concatenate(rows.blocks),
        state_name=cfg.state_column,
        dropped_rows=rows.dropped,
    )


def write_dataset(data: Dataset, path) -> None:
    """Write a dataset back to CSV using domain labels/values, formatting each value once."""
    header = [data.state_name] + list(data.schema.names)
    domains = [data.states.labels] + [e.domain for e in data.schema.entries]
    labels = [np.array([domain_value_str(v) for v in dom], dtype=object) for dom in domains]
    columns = [lab[data.rows[:, j]].tolist() for j, lab in enumerate(labels)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*columns))


# --- result documents -------------------------------------------------------


Result = Union[GainValue, ShapleyReport, BootstrapResult]
_RESULT_KINDS = {GainValue: "gain", ShapleyReport: "shapley", BootstrapResult: "bootstrap"}


def result_doc(obj: Result, provenance: Provenance | None = None) -> dict:
    """The fields of ``obj`` and of ``provenance``, with a Shapley report's per-signal values keyed by signal."""
    if type(obj) not in _RESULT_KINDS:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    doc = {"format_version": FORMAT_VERSION, "kind": _RESULT_KINDS[type(obj)], **asdict(obj),
           "provenance": asdict(provenance) if provenance else None}
    if isinstance(obj, ShapleyReport):
        for key in ("values", "standard_errors"):
            if doc[key] is not None:
                doc[key] = dict(zip(obj.signals, doc[key]))
    return doc


def _result_csv_rows(obj: Result) -> list[list]:
    header = ["statistic", "kind", "signal", "v1", "ground", "ground_role", "value", "sd",
              "q2.5", "q25", "q50", "q75", "q97.5"]
    rows: list[list] = [header]
    if isinstance(obj, GainValue):
        rows.append([GainStat(obj.v1, obj.ground).name, "gain", "",
                     ",".join(obj.v1), ",".join(obj.ground), "", repr(obj.value), "", "", "", "", "", ""])
    elif isinstance(obj, ShapleyReport):
        name = ShapleyStat(obj.ground).name
        for s, v in zip(obj.signals, obj.values):
            rows.append([f"{name}.{s}", "shapley", s, "", ",".join(obj.ground), "", repr(v), "", "", "", "", "", ""])
    elif isinstance(obj, BootstrapResult):
        for s in obj.statistics:
            rows.append([
                s.name, s.kind, s.signal or "", ",".join(s.v1 or ()), ",".join(s.ground), s.ground_role,
                repr(s.mean), repr(s.sd),
                repr(s.quantiles["2.5"]), repr(s.quantiles["25"]), repr(s.quantiles["50"]),
                repr(s.quantiles["75"]), repr(s.quantiles["97.5"]),
            ])
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    return rows


def write_results(obj: Result, path, fmt: str = "json", provenance: Provenance | None = None) -> None:
    """Write a result document; JSON is byte-deterministic for identical inputs."""
    path = Path(path)
    if fmt == "json":
        path.write_text(json.dumps(result_doc(obj, provenance), indent=2, sort_keys=True) + "\n", encoding="utf-8")
    elif fmt == "csv":
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(_result_csv_rows(obj))
    else:
        raise ValueError(f"unknown results format {fmt!r}")


def _quantiles(value, path: str) -> dict[str, float]:
    _object(value, path)
    out = {}
    for level in QUANTILE_LEVELS:
        key = f"{level:g}"
        out[key] = _number(_require(value, key, path), f"{path}.{key}")
    qs = list(out.values())
    if any(b < a for a, b in zip(qs, qs[1:])):
        raise ValidationError(f"{path}: quantiles out of order", path=path)
    return out


def _stat_result(doc, path: str, replicates: int) -> StatResult:
    """One statistic; its samples number ``replicates`` and bound its quantiles, and its ``sd`` is non-negative."""
    kind = _string(_require(doc, "kind", path), f"{path}.kind")
    if kind not in ("gain", "shapley"):
        raise ValidationError(f"{path}.kind: unknown statistic kind {kind!r}", path=f"{path}.kind")
    v1 = doc.get("v1")
    samples = tuple(
        _number(x, f"{path}.samples[{i}]")
        for i, x in enumerate(_nonempty(_require(doc, "samples", path), f"{path}.samples"))
    )
    if len(samples) != replicates:
        raise ValidationError(f"{path}.samples: must hold one sample per replicate ({replicates}), not {len(samples)}",
                              path=f"{path}.samples")
    quantiles = _quantiles(_require(doc, "quantiles", path), f"{path}.quantiles")
    lo, hi = min(samples), max(samples)
    for key, q in quantiles.items():
        if not lo <= q <= hi:
            raise ValidationError(f"{path}.quantiles.{key}: {q!r} lies outside the samples' range [{lo!r}, {hi!r}]",
                                  path=f"{path}.quantiles.{key}")
    return StatResult(
        name=_string(_require(doc, "name", path), f"{path}.name"),
        kind=kind,
        signal=_string(doc.get("signal"), f"{path}.signal", optional=True),
        v1=_strings(v1, f"{path}.v1") if v1 is not None else None,
        ground=_strings(_require(doc, "ground", path), f"{path}.ground"),
        ground_role=_string(_require(doc, "ground_role", path), f"{path}.ground_role"),
        samples=samples,
        mean=_number(_require(doc, "mean", path), f"{path}.mean"),
        sd=_number(_require(doc, "sd", path), f"{path}.sd", non_negative=True),
        quantiles=quantiles,
    )


def _signal_values(value, signals: tuple[str, ...], path: str) -> tuple[float, ...]:
    _object(value, path)
    return tuple(_number(_require(value, s, path), _at(path, s)) for s in signals)


def _result(doc) -> Result:
    """The result object of a result document; raises ValidationError naming the failing field."""
    if not isinstance(doc, dict):
        raise ValidationError("top level must be an object", path="")
    version = doc.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise ValidationError(f"format_version: missing or unsupported ({version!r})", path="format_version")
    if doc.get("provenance") is not None:
        _object(doc["provenance"], "provenance")
    kind = _require(doc, "kind", "")
    if kind == "gain":
        return GainValue(
            value=_number(_require(doc, "value", ""), "value"),
            raw=_number(_require(doc, "raw", ""), "raw"),
            v1=_strings(_require(doc, "v1", ""), "v1"),
            ground=_strings(_require(doc, "ground", ""), "ground"),
        )
    if kind == "shapley":
        signals = _strings(_require(doc, "signals", ""), "signals")
        errs, permutations, seed = doc.get("standard_errors"), doc.get("permutations"), doc.get("seed")
        return ShapleyReport(
            signals=signals,
            values=_signal_values(_require(doc, "values", ""), signals, "values"),
            ground=_strings(_require(doc, "ground", ""), "ground"),
            method=_string(_require(doc, "method", ""), "method"),
            total_gain=_number(_require(doc, "total_gain", ""), "total_gain"),
            permutations=_integer(permutations, "permutations", 1) if permutations is not None else None,
            seed=_integer(seed, "seed", 0) if seed is not None else None,
            standard_errors=_signal_values(errs, signals, "standard_errors") if errs is not None else None,
            label=_string(doc.get("label"), "label", optional=True),
        )
    if kind == "bootstrap":
        stats = _nonempty(_require(doc, "statistics", ""), "statistics")
        replicates = _integer(_require(doc, "replicates", ""), "replicates", 1)
        return BootstrapResult(
            replicates=replicates,
            seed=_integer(_require(doc, "seed", ""), "seed", 0),
            alpha=_number(_require(doc, "alpha", ""), "alpha", non_negative=True),
            statistics=tuple(_stat_result(s, f"statistics[{i}]", replicates) for i, s in enumerate(stats)),
        )
    raise ValidationError(f"kind: unknown kind {kind!r}", path="kind")


def read_results(path) -> tuple[Result, dict]:
    """Reload a JSON result document; returns (object, full document).

    A malformed document raises ValidationError naming the failing field,
    e.g. ``statistics[0].samples[3]``.
    """
    doc = read_json(path, f"results {path}")
    try:
        return _result(doc), doc
    except ValidationError as exc:
        raise ValidationError(f"results {path}: {exc}", path=exc.path) from None
