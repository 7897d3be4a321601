"""Nonparametric bootstrap over dataset rows.

Rows are resampled i.i.d. with replacement; each replicate recomputes the
requested gain and Shapley statistics on the joint of its resampled rows.
Replicate b draws from its own random stream derived from (seed, b), so
results are a pure function of (data, spec).

A replicate's joint only reweights the distinct tuples of the dataset, so a
replicate is a count vector over those K tuples rather than a resampled
dataset.  ``_plan`` is the only reader of a statistic: once, it checks every
variable name the statistic holds and lists the result columns it fills, the
variable sets it reads and how their payoffs become its values (for sampled
Shapley, the sets follow from the orders each replicate draws).  Replicates
are evaluated in blocks of at most ``REPLICATE_CELLS // K`` (and at least
one), near-equal in size and as many as a multiple of the workers that run
them (see ``_blocks``): one ``family_payoffs`` call computes the payoffs of
every set the block's replicates read, in one walk of their subset lattice,
and ``_replicate_values`` maps each replicate's payoffs to its statistics
(Shapley values through ``shapley.exact_values`` and
``shapley.sampled_values``, as ``shapley_exact`` and ``shapley_sampled``
do).  Every block reweights the same joint, so the run makes one
``GroupIndexes`` before any block or fork: each set's group index is
built once per process, on the first block that reads the set, and kept
there; a block then only counts its replicates' weights through the
indexes and scores the tables.  The tables are exact count sums, so the
samples are those of an estimate on each replicate's resampled rows.

Blocks run in worker processes forked from the caller, one per usable CPU
and at most one per block, or in the caller when only one would run or the
platform has no ``os.fork``; the plan is built in the caller, so a
statistic that cannot be computed fails before any worker starts.  Worker
w inherits every input through the fork, runs the fixed share
``blocks[w::W]`` of the W workers and writes one pickle, its rows or the
exception it raised, to its own pipe; the caller reads the pipes in worker
order and interleaves the shares back into block order, raising a
worker's error from its traceback there.  A worker that ends without a
complete message raises ``WorkerError``, naming the worker and its exit
status or signal, and on any error the caller kills and reaps the workers
still running.  A block's samples are a pure function of its replicate
range, so they do not depend on the number of workers.

The resampling scheme treats rows as exchangeable.  Datasets with repeated
measures (the same video or participant on many rows) violate that, so the
output is labeled as a row bootstrap rather than a generic sampling
distribution.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, NamedTuple, NoReturn, Sequence, Union

import numpy as np

from .errors import ValidationError, WorkerError
from .joint import Dataset, GroupIndexes, JointDistribution, estimate_joint
from .model import DecisionProblem
from .rational import clamp_gain, family_payoffs, gain_sets
from .shapley import check_permutations, coalition_sets, exact_values, exact_weights, resolve_signals, sampled_values
# shapley_exact is unused here; the benchmark tracer still wraps the site infogain.bootstrap:shapley_exact
from .shapley import sampled_walk, shapley_exact

QUANTILE_LEVELS = (2.5, 25.0, 50.0, 75.0, 97.5)
# Bound on replicates x distinct tuples per block of replicates evaluated together.
REPLICATE_CELLS = 2**15


def set_label(names: Iterable[str]) -> str:
    """Label of a variable set in statistic names: sorted, comma-joined, or "none"."""
    names = tuple(sorted(names))
    return ",".join(names) if names else "none"


@dataclass(frozen=True)
class GainStat:
    """Request one information-gain statistic per replicate."""

    v1: tuple[str, ...]
    ground: tuple[str, ...] = ()
    name: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "v1", tuple(sorted(set(self.v1))))
        object.__setattr__(self, "ground", tuple(sorted(set(self.ground))))
        if self.name is None:
            object.__setattr__(self, "name", f"gain({set_label(self.v1)};{set_label(self.ground)})")


@dataclass(frozen=True)
class ShapleyStat:
    """Request per-signal Shapley statistics for one ground set per replicate.

    ``permutations=None`` means exact enumeration; otherwise sampled with a
    replicate-specific stream.
    """

    ground: tuple[str, ...] = ()
    signals: tuple[str, ...] | None = None
    permutations: int | None = None
    name: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "ground", tuple(sorted(set(self.ground))))
        if self.signals is not None:
            object.__setattr__(self, "signals", tuple(self.signals))
        if self.name is None:
            object.__setattr__(self, "name", f"shapley(ground={set_label(self.ground)})")


StatSpec = Union[GainStat, ShapleyStat]


@dataclass(frozen=True)
class BootstrapSpec:
    replicates: int = 1000
    seed: int = 0
    statistics: tuple[StatSpec, ...] = ()

    def __post_init__(self):
        if self.replicates < 1:
            raise ValueError("need at least one replicate")
        object.__setattr__(self, "statistics", tuple(self.statistics))


@dataclass(frozen=True)
class StatResult:
    """Bootstrap distribution of one scalar statistic."""

    name: str
    kind: str  # "gain" or "shapley"
    signal: str | None
    v1: tuple[str, ...] | None
    ground: tuple[str, ...]
    ground_role: str
    samples: tuple[float, ...]
    mean: float
    sd: float
    quantiles: dict[str, float]

    def __post_init__(self):
        qs = [self.quantiles[f"{q:g}"] for q in QUANTILE_LEVELS]
        if any(b < a for a, b in zip(qs, qs[1:])):
            raise ValueError("quantiles out of order")


@dataclass(frozen=True)
class BootstrapResult:
    replicates: int
    seed: int
    alpha: float
    statistics: tuple[StatResult, ...]


def _ground_role(joint: JointDistribution, ground: tuple[str, ...]) -> str:
    if not ground:
        return "none"
    if len(ground) == 1 and joint.schema.is_decision(ground[0]):
        return joint.schema.entry(ground[0]).role
    return "other"


def _draw(data: Dataset, seed: int, b: int) -> np.ndarray:
    """Row indices of replicate b: n draws with replacement from the stream (seed, b)."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(b,)))
    return rng.integers(0, data.n_rows, size=data.n_rows)


class _Reads(NamedTuple):
    """The variable sets a statistic reads in a replicate, the map from their payoffs, in order, to its values,
    and the result columns of those values: ``StatResult`` fields from ``name`` to ``ground_role``."""

    sets: list[frozenset]
    values: Callable[[list[float]], Sequence[float]]
    columns: tuple[dict, ...]

    def reads(self, seed: int, b: int) -> _Reads:
        return self


@dataclass(frozen=True)
class _Sampled:
    """A sampled Shapley statistic; replicate b's sets follow from the orders it draws."""

    stat_index: int
    players: tuple[str, ...]
    ground: tuple[str, ...]
    permutations: int
    columns: tuple[dict, ...]

    def reads(self, seed: int, b: int) -> _Reads:
        stream = np.random.SeedSequence(seed, spawn_key=(b, 10_000 + self.stat_index))
        walk = sampled_walk(self.players, self.ground, self.permutations, int(stream.generate_state(1)[0]))
        return _Reads(walk.sets, lambda payoffs: sampled_values(payoffs, walk)[0], self.columns)


def _plan(joint: JointDistribution, spec: BootstrapSpec) -> list[_Reads | _Sampled]:
    """What each statistic of ``spec`` fills and reads; ``reads(seed, b)`` of an entry gives replicate b's ``_Reads``.

    The only reader of a statistic.  Variable names (unknown ones, and the
    state column), player lists, the exact-method ceiling and permutation
    counts are checked here, in the caller, so a statistic that cannot be
    computed fails before any block.
    """
    if not spec.statistics:
        raise ValueError("bootstrap spec requests no statistics")
    plan: list[_Reads | _Sampled] = []
    for stat_index, stat in enumerate(spec.statistics):
        if not isinstance(stat, (GainStat, ShapleyStat)):
            raise TypeError(f"unknown statistic spec {stat!r}")
        joint.columns(stat.ground, allow_state=False)
        role = _ground_role(joint, stat.ground)
        if isinstance(stat, GainStat):
            joint.columns(stat.v1, allow_state=False)
            column = dict(name=stat.name, kind="gain", signal=None, v1=stat.v1, ground=stat.ground, ground_role=role)
            plan.append(_Reads(gain_sets(stat.v1, stat.ground), lambda payoffs: [clamp_gain(payoffs[0] - payoffs[1])],
                               (column,)))
            continue
        players = resolve_signals(joint, stat.signals)
        columns = tuple(dict(name=f"{stat.name}.{sig}", kind="shapley", signal=sig, v1=None, ground=stat.ground,
                             ground_role=role) for sig in players)
        if stat.permutations is None:
            sets = coalition_sets(players, stat.ground)  # refuses too many players before any 2^n array
            weights = exact_weights(len(players))
            plan.append(_Reads(sets, lambda payoffs, weights=weights: exact_values(payoffs, weights)[0], columns))
        else:
            check_permutations(stat.permutations)
            plan.append(_Sampled(stat_index, players, stat.ground, stat.permutations, columns))
    if not any(entry.columns for entry in plan):
        why = "no Shapley statistic lists a signal" if joint.schema.signals else "the schema has no signals"
        raise ValidationError(f"bootstrap spec requests no statistics: {why}", path="statistics")
    return plan


def _replicate_values(payoffs: Mapping[frozenset, float], reads: list[_Reads]) -> list[float]:
    """The statistics of one replicate, from its payoff of each set its statistics read."""
    values: list[float] = []
    for stat in reads:
        values.extend(stat.values([payoffs[key] for key in stat.sets]))
    return values


def _block_values(
    data: Dataset, problem: DecisionProblem, spec: BootstrapSpec, plan: list,
    joint: JointDistribution, row_key: np.ndarray, indexes: GroupIndexes, block: range,
) -> list[list[float]]:
    """Statistics of the replicates in ``block``, from one payoff table.

    ``joint`` is the dataset's joint, ``indexes`` the run's cache of its group indexes and ``row_key``
    maps each dataset row to its tuple; each replicate is a count row over all of the joint's tuples.
    """
    counts = np.array([np.bincount(row_key[_draw(data, spec.seed, b)], minlength=len(joint.keys)) for b in block],
                      dtype=np.float64)
    reads = [[stat.reads(spec.seed, b) for stat in plan] for b in block]
    family: dict[frozenset, list[int]] = {}  # variable set -> the block rows that read its payoff
    for r, replicate in enumerate(reads):
        for key in {key for stat in replicate for key in stat.sets}:
            family.setdefault(key, []).append(r)
    payoffs: list[dict[frozenset, float]] = [{} for _ in block]
    for key, values in family_payoffs(joint, problem, family, counts, indexes).items():
        for r, value in zip(family[key], values):
            payoffs[r][key] = value
    return [_replicate_values(row, replicate) for row, replicate in zip(payoffs, reads)]


def _blocks(replicates: int, per_block: int, workers: int) -> list[range]:
    """Consecutive ranges over ``range(replicates)``, at most ``per_block`` long, sizes differing by at most 1.

    Their count, ``ceil(replicates / per_block)``, is rounded up to a multiple
    of the workers that run them (at most one block per replicate), so every
    worker runs as many blocks and the longest share is near ``replicates /
    workers``: 23 replicates at 11 per block on two workers run as 5 + 6 +
    6 + 6, not 7 + 8 + 8, where one worker would run 15.
    """
    n = -(-replicates // per_block)
    shares = min(workers, n)
    n = min(replicates, -(-n // shares) * shares)
    return [range(replicates * i // n, replicates * (i + 1) // n) for i in range(n)]


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _sendable(exc: BaseException, worker: int) -> BaseException:
    """``exc`` if it survives a pickle round trip, else a ``WorkerError`` that carries its type name and message."""
    try:
        pickle.loads(pickle.dumps(exc, pickle.HIGHEST_PROTOCOL))
    except Exception:
        return WorkerError(f"bootstrap worker {worker} raised {type(exc).__name__}: {exc} (the error cannot be pickled)")
    return exc


class _RemoteTraceback(Exception):
    """The formatted traceback of an error raised in a worker: the ``__cause__`` it is raised from in the caller."""


def _work(inputs: tuple, share: list[range], worker: int, write_fd: int) -> NoReturn:
    """A forked worker: write one pickle, the rows of ``share`` or what stopped them and its traceback, to ``write_fd``.

    It leaves by ``os._exit``, with status 0 only once the whole message is
    written, so none of the caller's cleanup (buffered output, ``atexit``)
    runs in it twice.
    """
    status = 1
    try:
        try:
            message = [_block_values(*inputs, block) for block in share]
        except BaseException as exc:  # raised again in the caller
            import traceback  # here: only a failing worker formats a traceback
            message = (_sendable(exc, worker), traceback.format_exc())
        with open(write_fd, "wb") as pipe:
            pipe.write(pickle.dumps(message, pickle.HIGHEST_PROTOCOL))
        status = 0
    finally:
        os._exit(status)


def _received(worker: int, message: bytes, status: int) -> list[list[list[float]]]:
    """The rows worker ``worker`` sent, from its message and its wait status; raises what it raised."""
    code = os.waitstatus_to_exitcode(status)
    if code != 0 or not message:
        how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
        raise WorkerError(f"bootstrap worker {worker} {how} before it sent its blocks")
    rows = pickle.loads(message)  # bytes a forked copy of this process wrote
    if isinstance(rows, tuple):  # (the exception the worker raised, its formatted traceback)
        raise rows[0] from _RemoteTraceback(f'\n"""\n{rows[1]}"""')
    return rows


def _run_blocks(inputs: tuple, blocks: list[range], cpus: int) -> list[list[list[float]]]:
    """``_block_values(*inputs, block)`` of each block, in block order.

    Blocks run in forked workers, one per usable CPU (``cpus``) and at most
    one per block; with one worker, or where the platform cannot fork, they
    run in this process.  Worker w runs ``blocks[w::W]`` on the inputs it
    inherits and sends its rows through its own pipe, so a block's rows do
    not depend on where it ran.  An exception raised in a worker is raised
    here, with its type; a worker that dies first raises ``WorkerError``.
    Whatever ends this call, no worker is left running or unreaped.
    """
    workers = min(len(blocks), cpus)
    if workers == 1 or not hasattr(os, "fork"):
        return [_block_values(*inputs, block) for block in blocks]
    import signal  # here: building its enums would add ~1 ms to every command that starts no worker

    running = []  # (pid, read end of its pipe) of each worker not yet reaped, in worker order
    shares = []
    try:
        for worker in range(workers):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                _work(inputs, blocks[worker::workers], worker, write_fd)
            os.close(write_fd)
            running.append((pid, open(read_fd, "rb")))
        for worker in range(workers):
            pid, pipe = running[0]
            with pipe:
                message = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del running[0]
            shares.append(_received(worker, message, status))
    finally:
        for pid, pipe in running:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return [shares[i % workers][i // workers] for i in range(len(blocks))]


def bootstrap_run(
    data: Dataset,
    problem: DecisionProblem,
    spec: BootstrapSpec,
    *,
    alpha: float = 0.0,
) -> BootstrapResult:
    """Run the bootstrap; output depends only on (data, problem, spec, alpha)."""
    joint = estimate_joint(data, alpha)
    plan = _plan(joint, spec)
    row_key = data.row_tuples  # each row's tuple, from the grouping of the estimate
    cpus = usable_cpus()
    blocks = _blocks(spec.replicates, max(1, REPLICATE_CELLS // len(joint.keys)), cpus)
    block_rows = _run_blocks((data, problem, spec, plan, joint, row_key, GroupIndexes(joint)), blocks, cpus)
    samples = np.array([row for rows in block_rows for row in rows], dtype=np.float64)  # (B, n_stats), by replicate

    stats = []
    for col, column in zip(samples.T, [column for entry in plan for column in entry.columns], strict=True):
        qs = np.quantile(col, [q / 100.0 for q in QUANTILE_LEVELS], method="linear")
        stats.append(
            StatResult(
                **column,
                samples=tuple(float(x) for x in col),
                mean=float(np.mean(col)),
                sd=float(np.std(col, ddof=1)) if len(col) > 1 else 0.0,
                quantiles={f"{q:g}": float(v) for q, v in zip(QUANTILE_LEVELS, qs)},
            )
        )
    return BootstrapResult(replicates=spec.replicates, seed=spec.seed, alpha=alpha, statistics=tuple(stats))
