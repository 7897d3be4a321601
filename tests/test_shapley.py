import itertools
import math

import numpy as np
import pytest

import infogain.joint
import infogain.shapley
from infogain.errors import SchemaError, ShapleyCeilingError
from infogain.joint import Dataset, JointDistribution, estimate_joint
from infogain.model import BasicSignal, DecisionColumn, SignalSchema, StateSpace, brier_problem
from infogain.rational import clamp_gain, gain_value, information_gain, payoffs, rational_payoff
from infogain.shapley import EXACT_CEILING, coalition_sets, shapley_exact, shapley_sampled
from infogain.synth import (
    SyntheticAgentSpec,
    make_deepfake_dataset,
    with_population_agents,
)
from cases import random_joint, random_matrix_problem


def xor_with_dummy():
    """XOR pair plus an independent uniform bit with provably zero value."""
    schema = SignalSchema(
        signals=(
            BasicSignal("s1", ("0", "1")),
            BasicSignal("s2", ("0", "1")),
            BasicSignal("dummy", ("0", "1")),
        )
    )
    keys = []
    for s1, s2, d in itertools.product((0, 1), repeat=3):
        keys.append((s1 ^ s2, s1, s2, d))
    keys.sort()
    return JointDistribution(
        states=StateSpace.of(("0", "1")),
        schema=schema,
        keys=np.array(keys, dtype=np.int64),
        probs=np.full(8, 0.125),
    )


def test_xor_exact_split(xor_joint, brier):
    report = shapley_exact(xor_joint, brier)
    assert report.values[0] == pytest.approx(0.125, abs=1e-12)
    assert report.values[1] == pytest.approx(0.125, abs=1e-12)
    assert report.total_gain == pytest.approx(0.25, abs=1e-12)


def test_dummy_signal_gets_zero(brier):
    report = shapley_exact(xor_with_dummy(), brier)
    assert abs(report.value_of("dummy")) <= 1e-12
    assert report.value_of("s1") == pytest.approx(0.125, abs=1e-12)


def test_single_state_revealing_signal(brier):
    schema = SignalSchema(signals=(BasicSignal("tell", ("0", "1")),))
    joint = JointDistribution(
        states=StateSpace.of(("0", "1")),
        schema=schema,
        keys=np.array([[0, 0], [1, 1]]),
        probs=np.array([0.5, 0.5]),
    )
    report = shapley_exact(joint, brier)
    assert report.values == (pytest.approx(0.25, abs=1e-12),)


def test_efficiency_on_xor(xor_joint, brier):
    report = shapley_exact(xor_joint, brier)
    full_gain = information_gain(xor_joint, brier, ["s1", "s2"]).value
    assert math.fsum(report.values) == pytest.approx(full_gain, abs=1e-9)


def test_symmetry_for_exchangeable_signals(xor_joint, brier):
    report = shapley_exact(xor_joint, brier)
    assert abs(report.values[0] - report.values[1]) <= 1e-9


def test_sampled_close_to_exact(xor_joint, brier):
    report = shapley_sampled(xor_joint, brier, permutations=10_000, seed=42)
    assert report.values[0] == pytest.approx(0.125, abs=0.01)
    assert report.values[1] == pytest.approx(0.125, abs=0.01)


def test_sampled_single_permutation_telescopes(xor_joint, brier):
    report = shapley_sampled(xor_joint, brier, permutations=1, seed=0)
    assert math.fsum(report.values) == pytest.approx(report.total_gain, abs=1e-12)


def test_sampled_deterministic_per_seed(xor_joint, brier):
    a = shapley_sampled(xor_joint, brier, permutations=500, seed=9)
    b = shapley_sampled(xor_joint, brier, permutations=500, seed=9)
    assert a == b


def test_exact_ceiling_guard(monkeypatch, brier):
    # 16 signals are one past the ceiling: coalition_sets refuses them before any set or payoff
    names = tuple(f"s{i}" for i in range(16))
    schema = SignalSchema(signals=tuple(BasicSignal(name, ("0", "1")) for name in names))
    joint = JointDistribution(StateSpace.of(("0", "1")), schema, np.zeros((1, 17), dtype=np.int64), np.ones(1))
    calls = []
    monkeypatch.setattr(infogain.shapley, "payoffs", lambda *args: calls.append(args))
    assert EXACT_CEILING == 15
    with pytest.raises(ShapleyCeilingError, match="16 signals exceed the exact-method ceiling of 15"):
        shapley_exact(joint, brier)
    assert calls == []
    assert len(coalition_sets(names[:15], ())) == 2**15


def test_players_must_be_signals(brier):
    schema = SignalSchema(
        signals=(BasicSignal("x", ("0", "1")),),
        decisions=(DecisionColumn("d", "human", ("0", "1")),),
    )
    joint = JointDistribution(
        states=StateSpace.of(("0", "1")),
        schema=schema,
        keys=np.array([[0, 0, 0], [1, 1, 1]]),
        probs=np.array([0.5, 0.5]),
    )
    with pytest.raises(SchemaError):
        shapley_exact(joint, brier, signals=["d"])


def informative_joint_with_agent(brier):
    """x1 strongly informative, x2 weaker; agent column reveals x1 exactly."""
    schema = SignalSchema(
        signals=(BasicSignal("x1", ("0", "1")), BasicSignal("x2", ("0", "1")))
    )
    keys, probs = [], []
    for w, x1, x2 in itertools.product((0, 1), repeat=3):
        p = 0.5
        p *= 0.8 if x1 == w else 0.2
        p *= 0.6 if x2 == w else 0.4
        keys.append((w, x1, x2))
        probs.append(p)
    base = JointDistribution(
        states=StateSpace.of(("0", "1")),
        schema=schema,
        keys=np.array(keys, dtype=np.int64),
        probs=np.array(probs),
    )
    agent = SyntheticAgentSpec(name="ai", used_signals=("x1",), noise=0.0, role="ai")
    return with_population_agents(base, brier, [agent])


def test_signal_redundant_given_ai_column(brier):
    joint = informative_joint_with_agent(brier)
    report = shapley_exact(joint, brier, ground=["ai"])
    assert abs(report.value_of("x1")) <= 1e-12
    # sanity: without the ground the signal is clearly valuable
    assert shapley_exact(joint, brier).value_of("x1") > 0.05


def compare_grounds(joint, problem, grounds):
    """One exact report per named ground set."""
    return [shapley_exact(joint, problem, ground=g, label=name) for name, g in grounds]


def test_compare_grounds_matches_single_calls(xor_joint, brier):
    (report,) = compare_grounds(xor_joint, brier, grounds=[("none", ())])
    direct = shapley_exact(xor_joint, brier)
    assert report.values == direct.values
    assert report.label == "none"


def test_compare_grounds_three_reports_each_efficient(brier):
    joint = informative_joint_with_agent(brier)
    reports = compare_grounds(joint, brier, grounds=[("none", ()), ("ai", ("ai",)), ("both", ("ai",))])
    assert len(reports) == 3
    for report in reports:
        full = information_gain(joint, brier, joint.schema.signal_names, report.ground).value
        assert math.fsum(report.values) == pytest.approx(full, abs=1e-9)


def test_axioms_on_random_corpus(rng, brier):
    for _ in range(10):
        joint = random_joint(rng, n_signals=3)
        problem = random_matrix_problem(rng)
        report = shapley_exact(joint, problem)
        full = information_gain(joint, problem, joint.schema.signal_names).value
        assert math.fsum(report.values) == pytest.approx(full, abs=1e-9)
        # the coalition game is monotone, so no player can have negative value
        assert all(v >= -1e-9 for v in report.values)


def test_exact_weights_match_full_permutation_average(rng):
    """Subset-weight formula equals the average marginal contribution over all
    n! orderings, enumerated outright; each coalition's payoff read from one table."""
    for n_signals in (2, 3, 4):
        joint = random_joint(rng, n_signals=n_signals)
        problem = random_matrix_problem(rng)
        report = shapley_exact(joint, problem)
        signals = report.signals
        coalitions = [frozenset(c) for k in range(n_signals + 1) for c in itertools.combinations(signals, k)]
        table = dict(zip(coalitions, payoffs(joint, problem, coalitions)))

        def game(members):
            return gain_value(lambda sets: [table[key] for key in sets], members, ()).value

        totals = [0.0] * len(signals)
        count = 0
        for order in itertools.permutations(range(len(signals))):
            members: set = set()
            prev = game(members)
            for i in order:
                members = members | {signals[i]}
                cur = game(members)
                totals[i] += cur - prev
                prev = cur
            count += 1
        for i, value in enumerate(report.values):
            assert value == pytest.approx(totals[i] / count, abs=1e-12)


def test_sampled_within_three_standard_errors(rng):
    brier11 = brier_problem(grid_count=11)
    for seed in (1, 2, 3):
        joint = random_joint(rng, n_signals=4)
        exact = shapley_exact(joint, brier11)
        sampled = shapley_sampled(joint, brier11, permutations=10_000, seed=seed)
        for ex, est, se in zip(exact.values, sampled.values, sampled.standard_errors):
            assert abs(est - ex) <= 3.0 * max(se, 1e-12)


def test_exact_shapley_groups_the_keys_once_per_ground(monkeypatch):
    # every coalition set of a ground nests in the set of all signals, so the
    # keys are grouped once and the other 2^n - 1 indexes group a parent's
    # groups; an in-sample walk keeps no index, so a second ground, and
    # a repeat of the first, build all of their own again
    data, problem = make_deepfake_dataset(n_rows=600, seed=11)
    joint = estimate_joint(data)
    parents = []
    group_index = infogain.joint.GroupIndex

    def recording(parent, *args):
        parents.append(parent)
        return group_index(parent, *args)

    monkeypatch.setattr(infogain.joint, "GroupIndex", recording)
    n = len(data.schema.signal_names)
    for ground in (("human",), ("ai",), ("human",)):
        parents.clear()
        shapley_exact(joint, problem, ground=ground)
        assert len(parents) == 2**n and parents.count(None) == 1


def permutation_walk_reference(joint, problem, players, ground, permutations, seed):
    """Sampled Shapley by walking each drawn order, each coalition's payoff computed alone.

    Returns the values, standard errors and total gain, as floats.
    """
    base = rational_payoff(joint, problem, ground)

    def v(members):
        return clamp_gain(rational_payoff(joint, problem, set(members) | set(ground)) - base)

    n = len(players)
    rng = np.random.default_rng(seed)
    contrib = np.empty((permutations, n), dtype=np.float64)
    for p in range(permutations):
        members, prev = set(), v(())
        for i in rng.permutation(n):
            members.add(players[i])
            cur = v(members)
            contrib[p, i] = cur - prev
            prev = cur
    values = [math.fsum(contrib[:, i]) / permutations for i in range(n)]
    if permutations > 1:
        errs = [float(np.std(contrib[:, i], ddof=1)) / math.sqrt(permutations) for i in range(n)]
    else:
        errs = [0.0] * n
    return values, errs, v(players)


def seventy_signals():
    """An estimated joint over 70 binary signals and a decision column; the state follows s0 and s1."""
    names = tuple(f"s{i}" for i in range(70))
    schema = SignalSchema(signals=tuple(BasicSignal(name, ("0", "1")) for name in names),
                          decisions=(DecisionColumn("d", "human", ("0", "1")),))
    rows = np.random.default_rng(5).integers(0, 2, size=(60, 72))
    rows[::3, 0] = rows[::3, 1] ^ rows[::3, 2]
    return estimate_joint(Dataset(StateSpace.of(("0", "1")), schema, rows)), names


@pytest.mark.parametrize("n", [0, 1, 3, 70])
@pytest.mark.parametrize("ground", [(), ("d",)])
@pytest.mark.parametrize("permutations", [1, 6])
def test_sampled_equals_the_permutation_walk_bit_for_bit(brier, n, ground, permutations):
    # coalitions are sets of players, so any number of players is one walk;
    # the visited coalitions are one family, which under counts changes no bit
    joint, names = seventy_signals()
    players = names[:n]
    report = shapley_sampled(joint, brier, players, ground, permutations=permutations, seed=17)
    values, errs, total = permutation_walk_reference(joint, brier, players, ground, permutations, 17)
    assert [x.hex() for x in report.values] == [x.hex() for x in values]
    assert [x.hex() for x in report.standard_errors] == [x.hex() for x in errs]
    assert report.total_gain.hex() == total.hex()
    if n == 70:  # the 60 rows are all distinct, so the full set predicts every state
        assert report.total_gain > 0.1
