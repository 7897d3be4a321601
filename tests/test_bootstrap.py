import dataclasses
import itertools
import math
import os
import signal
import time
import traceback
import warnings
from fractions import Fraction

import numpy as np
import pytest

import infogain.bootstrap
import infogain.joint
import infogain.rational
import infogain.shapley
from infogain.bootstrap import BootstrapSpec, GainStat, ShapleyStat, bootstrap_run
from infogain.errors import EstimationError, SchemaError, ShapleyCeilingError, ValidationError, WorkerError
from infogain.joint import Dataset, estimate_joint
from infogain.model import (
    BasicSignal,
    DecisionColumn,
    DecisionProblem,
    DecisionSpace,
    PayoffFunction,
    SignalSchema,
    StateSpace,
)
from infogain.rational import clamp_gain, information_gain, payoffs
from infogain.shapley import shapley_exact, shapley_sampled
from infogain.synth import (
    SyntheticAgentSpec,
    brute_force_rational,
    generate_dataset,
    make_deepfake_dataset,
    make_xor_joint,
    xor_problem,
)
from cases import deadline, random_joint


def small_xor_dataset(n_rows=4):
    schema = SignalSchema(signals=(BasicSignal("s1", ("0", "1")), BasicSignal("s2", ("0", "1"))))
    cells = [(0, 0, 0), (1, 0, 1), (1, 1, 0), (0, 1, 1)]
    rows = (cells * ((n_rows + 3) // 4))[:n_rows]
    return Dataset(StateSpace.of(("0", "1")), schema, np.array(rows, dtype=np.int64))


def find_identity_seed(n_rows: int) -> int:
    """Seed whose first replicate resamples a permutation of the rows."""
    for seed in range(10_000):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
        idx = rng.integers(0, n_rows, size=n_rows)
        if sorted(idx) == list(range(n_rows)):
            return seed
    raise AssertionError("no identity seed found")


def test_identity_replicate_reproduces_plugin_statistics(brier):
    data = small_xor_dataset(4)
    seed = find_identity_seed(4)
    spec = BootstrapSpec(replicates=1, seed=seed, statistics=(GainStat(v1=("s1", "s2")),))
    result = bootstrap_run(data, brier, spec)
    direct = information_gain(estimate_joint(data), brier, ["s1", "s2"]).value
    assert result.statistics[0].samples == (direct,)
    assert result.statistics[0].mean == direct
    assert result.statistics[0].sd == 0.0


def test_bootstrap_deterministic(brier):
    data = small_xor_dataset(32)
    spec = BootstrapSpec(replicates=25, seed=3, statistics=(GainStat(v1=("s1", "s2")), ShapleyStat()))
    a = bootstrap_run(data, brier, spec)
    b = bootstrap_run(data, brier, spec)
    assert a == b


def test_xor_gain_distribution_centers_on_population_value(xor_joint, brier):
    data = generate_dataset(xor_joint, brier, n_rows=10_000, seed=6)
    spec = BootstrapSpec(replicates=200, seed=1, statistics=(GainStat(v1=("s1", "s2")),))
    result = bootstrap_run(data, brier, spec)
    assert result.statistics[0].mean == pytest.approx(0.25, abs=0.02)


def test_quantiles_are_type7_linear_interpolation(brier):
    data = small_xor_dataset(16)
    spec = BootstrapSpec(replicates=40, seed=9, statistics=(GainStat(v1=("s1",)),))
    result = bootstrap_run(data, brier, spec)
    stat = result.statistics[0]
    samples = np.array(stat.samples)
    for level in (2.5, 25, 50, 75, 97.5):
        assert stat.quantiles[f"{level:g}"] == float(np.quantile(samples, level / 100, method="linear"))
    sym = np.array([0.1, 0.2, 0.3, 0.4])
    assert float(np.quantile(sym, 0.5, method="linear")) == pytest.approx(0.25)


def test_every_replicate_satisfies_gain_and_efficiency_invariants(xor_joint, brier):
    data = generate_dataset(xor_joint, brier, n_rows=200, seed=8)
    spec = BootstrapSpec(
        replicates=30,
        seed=4,
        statistics=(ShapleyStat(), GainStat(v1=("s1", "s2"))),
    )
    result = bootstrap_run(data, brier, spec)
    phi_cols = [s for s in result.statistics if s.kind == "shapley"]
    gain_col = next(s for s in result.statistics if s.kind == "gain")
    for b in range(spec.replicates):
        total = math.fsum(col.samples[b] for col in phi_cols)
        assert total == pytest.approx(gain_col.samples[b], abs=1e-9)
        assert gain_col.samples[b] >= 0.0
        assert gain_col.samples[b] <= 1.0


def test_collapsed_resample_still_defines_statistics(brier):
    # tiny dataset: some replicates lose a signal value entirely
    data = small_xor_dataset(5)
    spec = BootstrapSpec(replicates=50, seed=11, statistics=(GainStat(v1=("s1", "s2")), ShapleyStat()))
    result = bootstrap_run(data, brier, spec)
    for stat in result.statistics:
        assert len(stat.samples) == 50
        assert all(math.isfinite(x) for x in stat.samples)


def test_sampled_shapley_statistic_inside_bootstrap(xor_joint, brier):
    data = generate_dataset(xor_joint, brier, n_rows=400, seed=1)
    spec = BootstrapSpec(replicates=5, seed=2, statistics=(ShapleyStat(permutations=200),))
    a = bootstrap_run(data, brier, spec)
    b = bootstrap_run(data, brier, spec)
    assert a == b
    assert all(len(s.samples) == 5 for s in a.statistics)


def test_spec_validation():
    with pytest.raises(ValueError):
        BootstrapSpec(replicates=0)
    data = small_xor_dataset(4)
    with pytest.raises(ValueError):
        bootstrap_run(data, xor_problem(), BootstrapSpec(replicates=1, statistics=()))
    # an explicit empty player list fills no column either
    with pytest.raises(ValidationError, match="requests no statistics: no Shapley statistic lists a signal"):
        bootstrap_run(data, xor_problem(), BootstrapSpec(replicates=1, statistics=(ShapleyStat(signals=()),)))


def test_stat_names_and_roles(xor_joint, brier):
    agent = SyntheticAgentSpec(name="human", used_signals=("s1",), noise=0.2, role="human")
    data = generate_dataset(xor_joint, brier, [agent], n_rows=100, seed=3)
    spec = BootstrapSpec(
        replicates=2,
        seed=0,
        statistics=(GainStat(v1=("s1",), ground=("human",)), ShapleyStat(ground=("human",))),
    )
    result = bootstrap_run(data, brier, spec)
    names = [s.name for s in result.statistics]
    assert names[0] == "gain(s1;human)"
    assert "shapley(ground=human).s1" in names
    assert all(s.ground_role == "human" for s in result.statistics)


# --- count-reweighted, blocked replicates against the per-replicate loop -----


def reference_values(joint, problem, spec, b):
    """Replicate b's statistics on ``joint``, each through the public function."""
    values = []
    for stat_index, stat in enumerate(spec.statistics):
        if isinstance(stat, GainStat):
            values.append(information_gain(joint, problem, stat.v1, stat.ground).value)
            continue
        signals = stat.signals if stat.signals is not None else joint.schema.signal_names
        if stat.permutations is None:
            report = shapley_exact(joint, problem, signals, stat.ground)
        else:
            sub_seed = np.random.SeedSequence(spec.seed, spawn_key=(b, 10_000 + stat_index))
            report = shapley_sampled(joint, problem, signals, stat.ground, permutations=stat.permutations,
                                     seed=int(sub_seed.generate_state(1)[0]))
        values.extend(report.values)
    return values


def reference_samples(data, problem, spec, alpha):
    """Per-replicate loop: resample the rows, estimate their joint, evaluate every statistic on it."""
    samples = []
    for b in range(spec.replicates):
        rng = np.random.default_rng(np.random.SeedSequence(spec.seed, spawn_key=(b,)))
        idx = rng.integers(0, data.n_rows, size=data.n_rows)
        resampled = Dataset(data.states, data.schema, data.rows[idx], state_name=data.state_name)
        joint = estimate_joint(resampled, alpha)
        values = reference_values(joint, problem, spec, b)
        samples.append([x.hex() for x in values])
    return samples


def blocked_samples(data, problem, spec, alpha):
    result = bootstrap_run(data, problem, spec, alpha=alpha)
    return [[stat.samples[b].hex() for stat in result.statistics] for b in range(spec.replicates)]


def _deepfake_case():
    data, problem = make_deepfake_dataset(n_rows=600, seed=11)
    stats = (
        ShapleyStat(ground=("human",), signals=("flicker", "blurry", "dark", "grainy")),
        ShapleyStat(ground=("ai",), permutations=5),
        GainStat(v1=("flicker", "dark"), ground=("human_ai",)),
    )
    return data, problem, stats


def _xor_case():
    data = generate_dataset(make_xor_joint(), xor_problem(), n_rows=300, seed=2)
    return data, xor_problem(), (GainStat(v1=("s1", "s2")), ShapleyStat(), ShapleyStat(permutations=3))


def _matrix_case():
    # every payoff of the first and last decisions is negative, so a group
    # without mass contributes -0.0 under them
    states = StateSpace.of(("0", "1", "2"))
    problem = DecisionProblem(
        states=states,
        decisions=DecisionSpace.categorical(("a", "b", "c", "none")),
        payoff=PayoffFunction.from_matrix(
            [[-0.25, -1.0, -0.5], [0.75, -0.5, 0.125], [-1.0, 0.5, 0.25], [-0.125, -0.125, -0.125]]
        ),
    )
    joint = random_joint(np.random.default_rng(7), n_signals=3, n_states=3, domain_size=3,
                         n_decision_columns=1, decision_domain_size=4)
    data = generate_dataset(joint, problem, n_rows=150, seed=4)
    stats = (ShapleyStat(), ShapleyStat(ground=("b1",), permutations=4), GainStat(v1=("x1",), ground=("b1",)))
    return data, problem, stats


CASES = {"deepfake": _deepfake_case, "xor": _xor_case, "matrix": _matrix_case}


def subset_weight_reference(joint, problem, players, ground):
    """Exact Shapley values and total gain by the subset-weight formula, each set's payoff from one table.

    phi_i = sum over S without i of w_|S| (v(S + i) - v(S)), w_k = 1 / (n C(n-1, k)),
    v(S) = clamp_gain(P(S | G) - P(G)), each sum exact (fsum).
    """
    coalitions = [frozenset(c).union(ground) for k in range(len(players) + 1)
                  for c in itertools.combinations(players, k)]
    table = dict(zip(coalitions, payoffs(joint, problem, coalitions)))
    base = table[frozenset(ground)]

    def v(members):
        return clamp_gain(table[frozenset(members).union(ground)] - base)

    n = len(players)
    values = []
    for i, player in enumerate(players):
        others = players[:i] + players[i + 1:]
        terms = [1.0 / (n * math.comb(n - 1, k)) * (v(subset + (player,)) - v(subset))
                 for k in range(n) for subset in itertools.combinations(others, k)]
        values.append(math.fsum(terms))
    return values, v(players)


@pytest.mark.parametrize("alpha", [0.0, 0.3])
@pytest.mark.parametrize("case", sorted(CASES))
def test_exact_shapley_equals_the_subset_weight_formula_bit_for_bit(case, alpha):
    # the bootstrap's reference samples call shapley_exact; this pins
    # shapley_exact to the formula itself, so they do not rest on its helpers
    data, problem, stats = CASES[case]()
    joint = estimate_joint(data, alpha)
    other_ground = {"deepfake": ("human_ai",), "matrix": ("b1",), "xor": ("s1",)}[case]
    exact = [stat for stat in stats if isinstance(stat, ShapleyStat) and stat.permutations is None]
    assert exact
    for stat in exact:
        players = stat.signals if stat.signals is not None else data.schema.signal_names
        for ground in (stat.ground, other_ground):
            report = shapley_exact(joint, problem, players, ground)
            values, total = subset_weight_reference(joint, problem, tuple(players), tuple(ground))
            assert [x.hex() for x in report.values] == [x.hex() for x in values]
            assert report.total_gain.hex() == total.hex()


@pytest.mark.parametrize("alpha", [0.0, 0.3])
@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("blocks", ["default", "of three and one", "at most two", "K over the bound"])
def test_blocked_replicates_equal_the_per_replicate_loop(monkeypatch, case, alpha, blocks):
    # on two CPUs the 7 replicates run as one block in process; as 3 + 3 | 1, a
    # layout set here; as blocks of at most two, 1 + 2 | 2 + 2; and as 1 each
    data, problem, stats = CASES[case]()
    n_keys = len(estimate_joint(data).keys)
    cells = {"default": infogain.bootstrap.REPLICATE_CELLS, "of three and one": 3 * n_keys,
             "at most two": 2 * n_keys, "K over the bound": n_keys - 1}[blocks]
    monkeypatch.setattr(infogain.bootstrap, "REPLICATE_CELLS", cells)
    monkeypatch.setattr(infogain.bootstrap, "usable_cpus", lambda: 2)
    if blocks == "of three and one":
        monkeypatch.setattr(infogain.bootstrap, "_shares", lambda *args: [[range(0, 3), range(3, 6)], [range(6, 7)]])
    spec = BootstrapSpec(replicates=7, seed=5, statistics=stats)
    assert blocked_samples(data, problem, spec, alpha) == reference_samples(data, problem, spec, alpha)


def test_shares_cover_the_replicates_in_order_in_near_equal_sizes(monkeypatch):
    shares_of = infogain.bootstrap._shares
    for replicates, per_block, cpus in itertools.product(range(1, 60), range(1, 25), range(1, 6)):
        shares = shares_of(replicates, per_block, cpus)
        assert [b for share in shares for block in share for b in block] == list(range(replicates))
        # a share per CPU, but no more than the fewest blocks that cover the replicates
        assert len(shares) == min(cpus, -(-replicates // per_block))
        sizes = [sum(map(len, share)) for share in shares]
        assert max(sizes) - min(sizes) <= 1
        for share, size in zip(shares, sizes):
            blocks = [len(block) for block in share]
            # the fewest blocks that cover the share, none empty
            assert len(share) == -(-size // per_block) and min(blocks) >= 1
            assert max(blocks) <= per_block and max(blocks) - min(blocks) <= 1
    assert shares_of(20, 11, 2) == [[range(0, 10)], [range(10, 20)]]
    assert shares_of(23, 11, 1) == [[range(0, 7), range(7, 15), range(15, 23)]]
    assert shares_of(23, 11, 2) == [[range(0, 11)], [range(11, 17), range(17, 23)]]
    assert shares_of(23, 11, 4) == [[range(0, 7)], [range(7, 15)], [range(15, 23)]]
    assert shares_of(200, 11, 2) == [[range(b, b + 10) for b in range(start, start + 100, 10)] for start in (0, 100)]
    monkeypatch.delattr(os, "fork", raising=False)  # one share where the platform cannot fork
    assert shares_of(23, 11, 2) == shares_of(23, 11, 1)


def _collapsing_seed(n_rows):
    """Seed whose replicate 1 draws one row n times."""
    for seed in range(10_000):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
        if len(set(rng.integers(0, n_rows, size=n_rows))) == 1:
            return seed
    raise AssertionError("no collapsing seed found")


@pytest.mark.parametrize("alpha", [0.0, 0.3])
def test_replicate_drawing_one_tuple(brier, alpha):
    data = small_xor_dataset(4)
    spec = BootstrapSpec(replicates=3, seed=_collapsing_seed(4), statistics=(GainStat(v1=("s1", "s2")), ShapleyStat()))
    samples = blocked_samples(data, brier, spec, alpha)
    assert samples == reference_samples(data, brier, spec, alpha)
    if alpha == 0.0:  # one tuple: observing the signals tells nothing
        assert samples[1] == [0.0.hex()] * 3


def test_every_payoff_is_evaluated_for_a_block(monkeypatch):
    # the sets a sampled Shapley value reads are drawn before the block's
    # payoffs are computed, so each block evaluates every payoff in one
    # family and no replicate evaluates a payoff of its own (through payoffs,
    # which looks family_payoffs up in infogain.rational); one worker, so
    # that every block runs in this process, where the calls are counted
    monkeypatch.setattr(infogain.bootstrap, "usable_cpus", lambda: 1)
    data, problem, stats = _deepfake_case()
    calls, blocks = [], []
    evaluate, block_values = infogain.bootstrap.family_payoffs, infogain.bootstrap._block_values

    def recording(joint, problem, family, probs=None, indexes=None):
        calls.append(None if probs is None else np.ndim(probs))
        return evaluate(joint, problem, family, probs, indexes)

    def counting(*args):
        blocks.append(len(args[-1]))
        return block_values(*args)

    monkeypatch.setattr(infogain.bootstrap, "family_payoffs", recording)
    monkeypatch.setattr(infogain.rational, "family_payoffs", recording)
    monkeypatch.setattr(infogain.bootstrap, "_block_values", counting)
    bootstrap_run(data, problem, BootstrapSpec(replicates=4, seed=1, statistics=stats))
    assert sum(blocks) == 4 and calls == [2] * len(blocks)


def test_a_second_block_in_a_process_builds_no_group_index(monkeypatch):
    # the blocks of a run share its one cache of group indexes, which builds
    # each once per set and process while its budget lasts: the first block
    # builds one for each set its statistics read, the others none; one
    # replicate per block, in process.  Under a budget of half what the first
    # block builds, the later blocks build again exactly the indexes that did
    # not fit, and the samples do not change.
    monkeypatch.setattr(infogain.bootstrap, "usable_cpus", lambda: 1)
    monkeypatch.setattr(infogain.bootstrap, "REPLICATE_CELLS", 1)
    data, problem = make_deepfake_dataset(n_rows=600, seed=11)
    stats = (ShapleyStat(ground=("human",)), GainStat(v1=("flicker", "dark"), ground=("human_ai",)))
    spec = BootstrapSpec(replicates=3, seed=1, statistics=stats)
    per_block = []  # the (parent, set, entries) of each index each block builds
    group_index, block_values = infogain.joint.GroupIndex, infogain.bootstrap._block_values

    def recording(parent, cols, inverse, member):
        per_block[-1].append((parent, cols, len(inverse) + len(member)))
        return group_index(parent, cols, inverse, member)

    def counting(*args):
        per_block.append([])
        return block_values(*args)

    monkeypatch.setattr(infogain.joint, "GroupIndex", recording)
    monkeypatch.setattr(infogain.bootstrap, "_block_values", counting)
    result = bootstrap_run(data, problem, spec)
    n = len(data.schema.signal_names)
    first = per_block[0]
    assert [len(built) for built in per_block] == [2**n + 2, 0, 0]
    assert len({cols for _, cols, _ in first}) == len(first)

    budget = sum(entries for _, _, entries in first) // 2
    kept, left_out = 0, []  # each index is kept while the kept ones fit the budget
    for parent, cols, entries in first:
        if kept + entries <= budget:
            kept += entries
        else:
            left_out.append((parent, cols, entries))
    monkeypatch.setattr(infogain.joint, "INDEX_ENTRIES", budget)
    per_block.clear()
    assert bootstrap_run(data, problem, spec) == result
    assert per_block == [first, left_out, left_out] and 0 < len(left_out) < len(first)
    monkeypatch.undo()
    assert result == bootstrap_run(data, problem, spec)


def test_bootstrap_on_a_grid_of_unequal_steps_matches_the_oracle():
    # each replicate's gain against the oracle on the joint of its resampled rows
    grid = DecisionSpace.numeric([0, Fraction(1, 10), Fraction(1, 2), 1])
    problem = DecisionProblem(StateSpace.of(("0", "1")), grid, PayoffFunction.brier())
    assert grid._step_rule is None
    population = random_joint(np.random.default_rng(4), n_signals=3, domain_size=3, n_decision_columns=1)
    data = generate_dataset(population, problem, n_rows=200, seed=6)
    stat = GainStat(v1=("x1", "x2"), ground=("b1",))
    for alpha in (0.0, 0.3):
        result = bootstrap_run(data, problem, BootstrapSpec(replicates=4, seed=2, statistics=(stat,)), alpha=alpha)
        for b, sample in enumerate(result.statistics[0].samples):
            joint = estimate_joint(dataclasses.replace(data, rows=data.rows[infogain.bootstrap._draw(data, 2, b)]), alpha)
            both, alone = (brute_force_rational(joint, problem, names) for names in (("x1", "x2", "b1"), ("b1",)))
            assert sample == pytest.approx(clamp_gain(both - alone), abs=1e-12)


class _RecordingPayoffs(dict):
    """Payoffs of 0 for ``keys``, recording each key that is looked up."""

    def __init__(self, keys):
        super().__init__(dict.fromkeys(keys, 0.0))
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


@pytest.mark.parametrize("kinds", ["gain", "exact", "sampled", "mixed"])
def test_payoff_sets_are_exactly_the_sets_a_replicate_reads(monkeypatch, kinds):
    # the plan lists each replicate's sets before any payoff; a set it misses
    # has no payoff in the block's table, and a set it adds is evaluated for
    # nothing.  The sets a replicate's statistics read are those its values
    # look up, and those the public functions read through payoffs.
    data, problem, mixed = _deepfake_case()
    stats = {
        "gain": (GainStat(v1=("flicker", "dark"), ground=("human_ai",)), GainStat(v1=("grainy",))),
        "exact": (ShapleyStat(ground=("human",)), ShapleyStat(ground=("dark",), signals=("dark", "blurry"))),
        "sampled": (ShapleyStat(ground=("ai",), permutations=5), ShapleyStat(signals=("grainy", "dark"), permutations=2)),
        "mixed": mixed,
    }[kinds]
    spec = BootstrapSpec(replicates=3, seed=4, statistics=stats)
    joint = estimate_joint(data)
    plan = infogain.bootstrap._plan(joint, spec)
    for b in range(spec.replicates):
        reads = [stat.reads(spec.seed, b) for stat in plan]
        planned = {key for stat in reads for key in stat.sets}
        looked_up = _RecordingPayoffs(planned)
        infogain.bootstrap._replicate_values(looked_up, reads)
        recorded = set()

        def recording(joint, problem, sets):  # every payoff reads as 0
            sets = [frozenset(s) for s in sets]
            recorded.update(sets)
            return [0.0] * len(sets)

        with monkeypatch.context() as patch:
            patch.setattr(infogain.rational, "payoffs", recording)
            patch.setattr(infogain.shapley, "payoffs", recording)
            reference_values(joint, problem, spec, b)
        assert looked_up.read == planned == recorded


def test_exact_shapley_over_the_ceiling_fails_before_any_payoff(monkeypatch, brier):
    # the sets of an exact statistic are planned through coalition_sets,
    # which refuses 16 signals before the first block evaluates a single payoff
    names = tuple(f"s{i}" for i in range(16))
    schema = SignalSchema(signals=tuple(BasicSignal(name, ("0", "1")) for name in names))
    rows = np.random.default_rng(0).integers(0, 2, size=(20, 17))
    data = Dataset(StateSpace.of(("0", "1")), schema, rows)
    calls = []
    monkeypatch.setattr(infogain.bootstrap, "family_payoffs", lambda *args: calls.append(args))
    with pytest.raises(ShapleyCeilingError):
        bootstrap_run(data, brier, BootstrapSpec(replicates=2, statistics=(GainStat(v1=names[:2]), ShapleyStat())))
    assert calls == []


def test_exact_shapley_over_the_ceiling_fails_before_its_weights(monkeypatch, brier):
    # exact_weights builds (n, 2^(n-1)) arrays, so at 64 signals the ceiling
    # check must come first; recorders stand in for both, so a wrong order
    # shows as a call instead of a 2^64 allocation
    names = tuple(f"s{i}" for i in range(64))
    schema = SignalSchema(signals=tuple(BasicSignal(name, ("0", "1")) for name in names))
    rows = np.random.default_rng(0).integers(0, 2, size=(20, 65))
    data = Dataset(StateSpace.of(("0", "1")), schema, rows)
    calls = []
    monkeypatch.setattr(infogain.bootstrap, "exact_weights", lambda n: calls.append(("exact_weights", n)))
    monkeypatch.setattr(infogain.bootstrap, "family_payoffs", lambda *args: calls.append("family_payoffs"))
    with pytest.raises(ShapleyCeilingError, match="64 signals exceed the exact-method ceiling of 15"):
        bootstrap_run(data, brier, BootstrapSpec(replicates=2, statistics=(ShapleyStat(),)))
    assert calls == []


def _sixteen_signals_and_a_decision():
    names = tuple(f"s{i}" for i in range(16))
    schema = SignalSchema(signals=tuple(BasicSignal(name, ("0", "1")) for name in names),
                          decisions=(DecisionColumn("h", "human", ("0", "1")),))
    rows = np.random.default_rng(0).integers(0, 2, size=(20, 18))
    return Dataset(StateSpace.of(("0", "1")), schema, rows)


@pytest.mark.parametrize("stat, error, message", [
    (ShapleyStat(), ShapleyCeilingError, "16 signals exceed the exact-method ceiling of 15"),
    (ShapleyStat(signals=("s0", "h"), permutations=3), SchemaError, "'h' is a decision column"),
    (ShapleyStat(signals=("s0", "s1", "s0")), SchemaError, "duplicate signal in Shapley player list"),
    (ShapleyStat(signals=("s0", "s1"), permutations=0), ValueError, "need at least one permutation"),
    (GainStat(v1=("nope",)), SchemaError, "unknown variable 'nope'"),
    (GainStat(v1=("s0",), ground=("h", "state")), SchemaError, "'state' is the state"),
    (ShapleyStat(ground=("h", "nope"), signals=("s0", "s1")), SchemaError, "unknown variable 'nope'"),
])
def test_spec_errors_fail_before_any_block(monkeypatch, brier, stat, error, message):
    # the plan is built in the caller: with two usable CPUs and one replicate
    # per block, a statistic that cannot be computed never reaches a worker
    monkeypatch.setattr(infogain.bootstrap, "REPLICATE_CELLS", 1)
    monkeypatch.setattr(infogain.bootstrap, "usable_cpus", lambda: 2)
    blocks = []
    monkeypatch.setattr(infogain.bootstrap, "_block_values", lambda *args: blocks.append(args))
    spec = BootstrapSpec(replicates=2, statistics=(GainStat(v1=("s0",)), stat))
    with pytest.raises(error, match=message):
        bootstrap_run(_sixteen_signals_and_a_decision(), brier, spec)
    assert blocks == []


# --- blocks in forked workers against blocks in this process ------------------


def _samples_with_workers(monkeypatch, workers, data, problem, spec, alpha):
    monkeypatch.setattr(infogain.bootstrap, "usable_cpus", lambda: workers)
    return blocked_samples(data, problem, spec, alpha)


@pytest.mark.parametrize("alpha", [0.0, 0.3])
@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("per_block", [1, 2, 3])
def test_blocks_in_workers_equal_blocks_in_process(monkeypatch, tmp_path, case, alpha, per_block):
    data, problem, stats = CASES[case]()
    monkeypatch.setattr(infogain.bootstrap, "REPLICATE_CELLS", per_block * len(estimate_joint(data).keys))
    spec = BootstrapSpec(replicates=7, seed=5, statistics=stats)
    in_process = _samples_with_workers(monkeypatch, 1, data, problem, spec, alpha)
    # record the process that evaluates each block, to show the pool ran them
    evaluate, ran_in = infogain.bootstrap._block_values, tmp_path / "pids"

    def recording(*args):
        with open(ran_in, "a", encoding="utf-8") as out:
            out.write(f"{os.getpid()}\n")
        return evaluate(*args)

    monkeypatch.setattr(infogain.bootstrap, "_block_values", recording)
    assert _samples_with_workers(monkeypatch, 3, data, problem, spec, alpha) == in_process
    pids = ran_in.read_text(encoding="utf-8").split()
    # three shares of 2, 2 and 3 replicates, each cut into blocks of at most per_block; none in the caller
    assert len(pids) == {1: 7, 2: 4, 3: 3}[per_block] and str(os.getpid()) not in pids


def test_an_error_in_a_worker_reaches_the_caller(monkeypatch, brier):
    # every block's payoffs are refused; with two workers, in the forked
    # workers, which inherit the replaced family_payoffs
    def refused(*args):
        raise EstimationError("no payoffs for this block")

    monkeypatch.setattr(infogain.bootstrap, "family_payoffs", refused)
    monkeypatch.setattr(infogain.bootstrap, "REPLICATE_CELLS", 1)
    spec = BootstrapSpec(replicates=2, statistics=(GainStat(v1=("s1",)), ShapleyStat()))
    messages = []
    for workers in (1, 2):
        monkeypatch.setattr(infogain.bootstrap, "usable_cpus", lambda: workers)
        with pytest.raises(EstimationError) as caught:
            bootstrap_run(small_xor_dataset(8), brier, spec)
        messages.append(str(caught.value))
    assert messages == ["no payoffs for this block"] * 2


def test_workers_fork_with_no_other_thread_running(monkeypatch, brier):
    # Python 3.12+ os.fork warns (DeprecationWarning) when the process it forks
    # runs other threads, and drops that warning even under an "error" filter,
    # so every warning is recorded.  Where the platform lists a process's
    # threads, each fork also checks what 3.12 counts, the threads left in the
    # parent after the fork, so older Pythons run the same check.
    threads = (lambda: len(os.listdir("/proc/self/task"))) if os.path.isdir("/proc/self/task") else (lambda: 1)
    fork, counts = os.fork, []

    def counting_fork():
        pid = fork()
        if pid:
            counts.append(threads())
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    monkeypatch.setattr(infogain.bootstrap, "REPLICATE_CELLS", 1)
    monkeypatch.setattr(infogain.bootstrap, "usable_cpus", lambda: 2)
    spec = BootstrapSpec(replicates=2, statistics=(GainStat(v1=("s1",)), ShapleyStat()))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = bootstrap_run(small_xor_dataset(8), brier, spec)
    assert [str(w.message) for w in caught] == []
    assert counts == [1, 1]  # two workers, each forked from a process running one thread
    assert all(len(stat.samples) == 2 for stat in result.statistics)


# --- the worker protocol: one pipe per forked worker ---------------------------

forked = pytest.mark.skipif(not hasattr(os, "fork") or not hasattr(signal, "setitimer"),
                            reason="workers are forked, and the deadline is a SIGALRM timer")


def _two_workers(monkeypatch, block_values):
    """Run a two-replicate bootstrap as two one-block workers whose ``_block_values`` is ``block_values``."""
    monkeypatch.setattr(infogain.bootstrap, "REPLICATE_CELLS", 1)
    monkeypatch.setattr(infogain.bootstrap, "usable_cpus", lambda: 2)
    monkeypatch.setattr(infogain.bootstrap, "_block_values", block_values)
    spec = BootstrapSpec(replicates=2, statistics=(GainStat(v1=("s1",)), ShapleyStat()))
    return bootstrap_run(small_xor_dataset(8), xor_problem(), spec)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):  # no child at all: none running, none unreaped
        os.waitpid(-1, os.WNOHANG)


@forked
@pytest.mark.parametrize("dying", [0, 1])
@pytest.mark.parametrize("death, how", [
    (lambda: os._exit(3), "exited with status 3"),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), f"was killed by signal {int(signal.SIGKILL)}"),
], ids=["exit 3", "SIGKILL"])
def test_a_worker_that_dies_raises_a_worker_error(monkeypatch, death, how, dying):
    # worker `dying` dies in its block.  When it is worker 0, worker 1 would
    # sleep for a minute, so the caller must raise at once and kill it; when it
    # is worker 1, worker 0 sends its rows first.
    evaluate = infogain.bootstrap._block_values

    def block_values(*args):
        if args[-1].start == dying:
            death()
        if dying == 0:
            time.sleep(60)
        return evaluate(*args)

    with deadline(20):
        with pytest.raises(WorkerError, match=f"^bootstrap worker {dying} {how} before it sent its blocks$"):
            _two_workers(monkeypatch, block_values)
    _assert_no_child_left()


@forked
def test_an_error_in_a_worker_is_raised_from_its_traceback_there(monkeypatch):
    # the caller raises the worker's error, type and message unchanged, from
    # the traceback the worker formatted, which names the function that raised
    def refusing_block(*args):
        raise EstimationError("no payoffs for this block")

    with deadline(20):
        with pytest.raises(EstimationError, match="^no payoffs for this block$") as caught:
            _two_workers(monkeypatch, refusing_block)
    _assert_no_child_left()
    error = caught.value
    text = "".join(traceback.format_exception(type(error), error, error.__traceback__))
    assert ", in refusing_block\n" in text and "raise EstimationError" in text


class _Unpicklable(Exception):
    """Pickles, but cannot be rebuilt from its pickle: ``__init__`` takes two arguments and ``args`` holds one."""

    def __init__(self, message, detail):
        super().__init__(message)
        self.detail = detail


@forked
@pytest.mark.parametrize("kind", ["local class", "cannot be rebuilt"])
def test_an_error_that_cannot_be_pickled_reaches_the_caller(monkeypatch, kind):
    class Local(Exception):
        pass

    def block_values(*args):
        raise Local("no rows here") if kind == "local class" else _Unpicklable("no rows here", 1)

    name = "Local" if kind == "local class" else "_Unpicklable"
    with deadline(20):
        with pytest.raises(WorkerError, match=f"^bootstrap worker 0 raised {name}: no rows here "):
            _two_workers(monkeypatch, block_values)
    _assert_no_child_left()
