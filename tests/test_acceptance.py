"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the pass/fail lines.
"""

import itertools
import math
import time

import numpy as np

from infogain.cli import main
from infogain.joint import JointDistribution
from infogain.model import (
    BasicSignal,
    DecisionProblem,
    DecisionSpace,
    PayoffFunction,
    SignalSchema,
    StateSpace,
    brier_problem,
)
from infogain.rational import best_response, gain_value, information_gain, payoffs, rational_payoff
from infogain.shapley import shapley_exact, shapley_sampled
from infogain.synth import (
    SyntheticAgentSpec,
    brute_force_rational,
    make_xor_joint,
    random_joint,
    random_matrix_problem,
    with_population_agents,
    xor_problem,
)

TOL = 1e-12


def _ok(n: int, text: str) -> None:
    print(f"ACCEPTANCE {n} PASS: {text}")


def _subsets(names):
    for r in range(len(names) + 1):
        yield from itertools.combinations(names, r)


def _payoff_table(joint, problem):
    """The payoffs of every subset of the schema's variables, from one ``payoffs`` call, and a lookup of them."""
    subsets = [frozenset(s) for s in _subsets(joint.schema.names)]
    table = dict(zip(subsets, payoffs(joint, problem, subsets)))
    return table, lambda sets: [table[key] for key in sets]


def _corpus(n_joints=200, seed=20240817):
    """Random joints over <= 4 binary variables with random payoff matrices."""
    rng = np.random.default_rng(seed)
    for _ in range(n_joints):
        joint = random_joint(rng, n_signals=int(rng.integers(1, 5)))
        problem = random_matrix_problem(rng)
        yield joint, problem


def test_criterion_1_xor_complementation():
    start = time.perf_counter()
    joint, problem = make_xor_joint(), xor_problem()
    assert abs(information_gain(joint, problem, ["s1"]).value) <= TOL
    assert abs(information_gain(joint, problem, ["s2"]).value) <= TOL
    assert abs(information_gain(joint, problem, ["s1", "s2"]).value - 0.25) <= TOL
    report = shapley_exact(joint, problem)
    assert abs(report.values[0] - 0.125) <= TOL
    assert abs(report.values[1] - 0.125) <= TOL
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _ok(1, f"xor pair: solo gains 0, joint gain 0.25, attribution (0.125, 0.125) in {elapsed:.3f}s")


def test_criterion_2_null_signal_baseline():
    # uniform binary prior under the quadratic score
    assert abs(rational_payoff(make_xor_joint(), xor_problem(), []) - 0.75) <= TOL

    # umbrella problem at 40% rain, checked against a two-term enumeration
    umbrella = DecisionProblem(
        states=StateSpace.of(("no_rain", "rain")),
        decisions=DecisionSpace.categorical(("no_umbrella", "take_umbrella")),
        payoff=PayoffFunction.from_matrix([[0.0, -100.0], [-50.0, 0.0]]),
    )
    schema = SignalSchema(signals=(BasicSignal("cloudy", ("0", "1")),))
    # P(rain) = 0.4, signal irrelevant here
    joint = JointDistribution(
        states=umbrella.states,
        schema=schema,
        keys=np.array([[0, 0], [1, 0]]),
        probs=np.array([0.6, 0.4]),
    )
    expected = max(
        0.6 * 0.0 + 0.4 * -100.0,  # no umbrella
        0.6 * -50.0 + 0.4 * 0.0,  # take umbrella
    )
    r_null = rational_payoff(joint, umbrella, [])
    assert abs(r_null - expected) <= TOL
    assert abs(r_null - -30.0) <= TOL
    assert best_response(np.array([0.6, 0.4]), umbrella) == 1  # take umbrella
    _ok(2, "null-signal baselines: 0.75 under the quadratic score, -30 with the best fixed umbrella action")


def test_criterion_3_oracle_equivalence():
    start = time.perf_counter()
    checked = 0
    for joint, problem in _corpus(200):
        for vars_ in _subsets(joint.schema.names):
            fast = rational_payoff(joint, problem, vars_)
            slow = brute_force_rational(joint, problem, vars_)
            assert abs(fast - slow) <= TOL, (vars_, fast, slow)
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _ok(3, f"production path equals dense-enumeration oracle on {checked} subset evaluations in {elapsed:.1f}s")


def test_criterion_4_rationality_properties():
    pairs = 0
    for joint, problem in _corpus(200):
        values, lookup = _payoff_table(joint, problem)
        for v1, v2 in itertools.product(values, repeat=2):
            if v1 <= v2:
                assert values[v1] <= values[v2] + TOL
            raw = gain_value(lookup, v1, v2).raw
            assert raw >= -TOL
            pairs += 1
    _ok(4, f"monotonicity and pre-clamp non-negativity hold over {pairs} subset pairs")


def _with_dummy_bit(joint: JointDistribution) -> JointDistribution:
    """Append an independent fair bit as an extra signal; halves each cell."""
    schema = SignalSchema(
        signals=joint.schema.signals + (BasicSignal("dummy", ("0", "1")),),
        decisions=joint.schema.decisions,
    )
    n_sig = len(joint.schema.signals)
    keys = []
    for key in joint.keys:
        key = [int(v) for v in key]
        for b in (0, 1):
            keys.append(key[: 1 + n_sig] + [b] + key[1 + n_sig:])
    probs = np.repeat(joint.probs, 2) / 2.0
    order = np.lexsort(np.array(keys, dtype=np.int64).T[::-1])
    return JointDistribution(
        states=joint.states,
        schema=schema,
        keys=np.array(keys, dtype=np.int64)[order],
        probs=probs[order],
    )


def _with_twin_signal(joint: JointDistribution) -> JointDistribution:
    """Append an exact copy of the first signal (exchangeable pair)."""
    first = joint.schema.signals[0]
    schema = SignalSchema(
        signals=joint.schema.signals + (BasicSignal("twin", first.domain),),
        decisions=joint.schema.decisions,
    )
    n_sig = len(joint.schema.signals)
    keys = [
        [int(v) for v in key[: 1 + n_sig]] + [int(key[1])] + [int(v) for v in key[1 + n_sig:]]
        for key in joint.keys
    ]
    order = np.lexsort(np.array(keys, dtype=np.int64).T[::-1])
    return JointDistribution(
        states=joint.states,
        schema=schema,
        keys=np.array(keys, dtype=np.int64)[order],
        probs=joint.probs[order],
    )


def test_criterion_5_shapley_axioms():
    # exact axioms on the xor fixture
    xor, problem = make_xor_joint(), xor_problem()
    report = shapley_exact(xor, problem)
    assert abs(math.fsum(report.values) - report.total_gain) <= 1e-9
    assert abs(report.values[0] - report.values[1]) <= 1e-9

    dummy_report = shapley_exact(_with_dummy_bit(xor), problem)
    assert abs(dummy_report.value_of("dummy")) <= TOL

    # random corpus: efficiency, dummy, symmetry
    rng = np.random.default_rng(5)
    for _ in range(20):
        joint = random_joint(rng, n_signals=int(rng.integers(1, 4)))
        prob = random_matrix_problem(rng)
        base = shapley_exact(joint, prob)
        full = information_gain(joint, prob, joint.schema.signal_names).value
        assert abs(math.fsum(base.values) - full) <= 1e-9
        with_dummy = shapley_exact(_with_dummy_bit(joint), prob)
        assert abs(with_dummy.value_of("dummy")) <= TOL
        twin = shapley_exact(_with_twin_signal(joint), prob)
        assert abs(twin.value_of(joint.schema.signals[0].name) - twin.value_of("twin")) <= 1e-9

    # sampled estimator within 3 standard errors of exact
    sampled = shapley_sampled(xor, problem, permutations=10_000, seed=17)
    for est, ex, se in zip(sampled.values, report.values, sampled.standard_errors):
        assert abs(est - ex) <= 3.0 * max(se, TOL)
    brier11 = brier_problem(grid_count=11)
    for seed in (1, 2, 3):
        joint = random_joint(np.random.default_rng(100 + seed), n_signals=4)
        exact = shapley_exact(joint, brier11)
        approx = shapley_sampled(joint, brier11, permutations=10_000, seed=seed)
        for est, ex, se in zip(approx.values, exact.values, approx.standard_errors):
            assert abs(est - ex) <= 3.0 * max(se, TOL)
    _ok(5, "efficiency, dummy, symmetry hold exactly; sampled estimates within 3 SE of exact")


def test_criterion_6_behavioral_redundancy():
    xor, problem = make_xor_joint(), xor_problem()
    for used in ((), ("s1",), ("s2",), ("s1", "s2")):
        agent = SyntheticAgentSpec(name="dm", used_signals=used, noise=0.0)
        extended = with_population_agents(xor, problem, [agent])
        gain = information_gain(extended, problem, ["dm"], list(used))
        assert abs(gain.raw) <= TOL, used

    gains = []
    for eps in (0.0, 0.5, 1.0):
        agent = SyntheticAgentSpec(name="dm", used_signals=("s1", "s2"), noise=eps)
        extended = with_population_agents(xor, problem, [agent])
        gains.append(information_gain(extended, problem, ["dm"]).value)
    assert gains[0] >= gains[1] - TOL >= gains[2] - 2 * TOL
    _ok(6, f"noiseless agents are redundant given their inputs; gain falls with noise {gains}")


def test_criterion_7_end_to_end_determinism(tmp_path):
    start = time.perf_counter()
    outputs = []
    for run in ("first", "second"):
        base = tmp_path / run
        base.mkdir()
        synth_dir = base / "synth"
        assert main(["synth", "--preset", "deepfake", "--rows", "4000", "--seed", "1",
                     "--out-dir", str(synth_dir)]) == 0
        boot = base / "boot.json"
        assert main(["bootstrap", "--schema", str(synth_dir / "schema.json"),
                     "--data", str(synth_dir / "data.csv"),
                     "--replicates", "200", "--seed", "0", "--out", str(boot)]) == 0
        svg = base / "fig.svg"
        assert main(["report", "--results", str(boot), "--out", str(svg)]) == 0
        outputs.append((
            (synth_dir / "data.csv").read_bytes(),
            (synth_dir / "schema.json").read_bytes(),
            boot.read_bytes(),
            svg.read_bytes(),
        ))
    elapsed = time.perf_counter() - start
    assert outputs[0] == outputs[1]
    assert elapsed < 120.0
    _ok(7, f"synth(4000) + bootstrap(B=200) + report twice: byte-identical outputs in {elapsed:.1f}s")


def test_criterion_8_payoff_scale_bounds():
    rng = np.random.default_rng(99)
    problem = brier_problem()
    checked = 0
    for _ in range(30):
        joint = random_joint(
            rng,
            n_signals=int(rng.integers(1, 4)),
            n_decision_columns=int(rng.integers(0, 2)),
        )
        table, lookup = _payoff_table(joint, problem)
        for v1, ground in itertools.product(table, repeat=2):
            gain = gain_value(lookup, v1, ground)
            assert gain.raw >= -1e-9
            assert 0.0 <= gain.value <= 1.0
            checked += 1
        report = shapley_exact(joint, problem)
        assert all(-1e-9 <= v <= 1.0 for v in report.values)
        assert 0.0 <= report.total_gain <= 1.0
    _ok(8, f"under the quadratic score all {checked} gains lie in [0, 1] and attributions in [-1e-9, 1]")
