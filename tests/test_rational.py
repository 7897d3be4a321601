import itertools
import math

import numpy as np
import pytest

from infogain.errors import SchemaError
from infogain.joint import Dataset, JointDistribution, estimate_joint, state_mass
from infogain.model import (
    BasicSignal,
    DecisionColumn,
    DecisionProblem,
    DecisionSpace,
    PayoffFunction,
    SignalSchema,
    StateSpace,
    brier_problem,
)
from infogain.rational import (
    _group_contributions,
    best_response,
    cross_fit_gain,
    cross_fit_payoff,
    gain_of_decisions_over_signals,
    information_gain,
    rational_payoff,
)
from infogain.synth import (
    SyntheticAgentSpec,
    brute_force_rational,
    generate_dataset,
    make_deepfake_dataset,
    random_joint,
    random_matrix_problem,
    with_population_agents,
)

UMBRELLA = DecisionProblem(
    states=StateSpace.of(("no_rain", "rain")),
    decisions=DecisionSpace.categorical(("no_umbrella", "take_umbrella")),
    payoff=PayoffFunction.from_matrix([[0.0, -100.0], [-50.0, 0.0]]),
)


def test_best_response_brier_uniform(brier):
    assert best_response(np.array([0.5, 0.5]), brier) == 50


def test_best_response_brier_certainty(brier):
    assert best_response(np.array([0.0, 1.0]), brier) == 100


def test_best_response_umbrella_at_40_percent_rain():
    # E[no umbrella] = -40, E[take umbrella] = -30
    assert best_response(np.array([0.6, 0.4]), UMBRELLA) == 1


def test_rational_payoff_null_signal_uniform_prior(xor_joint, brier):
    assert rational_payoff(xor_joint, brier, []) == pytest.approx(0.75, abs=1e-12)


def test_rational_payoff_xor_pair_is_perfect(xor_joint, brier):
    assert rational_payoff(xor_joint, brier, ["s1", "s2"]) == pytest.approx(1.0, abs=1e-12)


def test_rational_payoff_single_xor_bit(xor_joint, brier):
    assert rational_payoff(xor_joint, brier, ["s1"]) == pytest.approx(0.75, abs=1e-12)


def test_gain_of_set_over_itself_is_zero(xor_joint, brier):
    for vars_ in ([], ["s1"], ["s1", "s2"]):
        assert information_gain(xor_joint, brier, vars_, vars_).value == 0.0


def test_gain_single_xor_bit_is_zero(xor_joint, brier):
    assert information_gain(xor_joint, brier, ["s1"]).value == 0.0


def test_gain_xor_pair_is_quarter(xor_joint, brier):
    gain = information_gain(xor_joint, brier, ["s1", "s2"])
    assert gain.value == pytest.approx(0.25, abs=1e-12)


def test_deterministic_agent_adds_nothing_beyond_its_inputs(xor_joint, brier):
    agent = SyntheticAgentSpec(name="dm", used_signals=("s1", "s2"), noise=0.0)
    extended = with_population_agents(xor_joint, brier, [agent])
    gain = gain_of_decisions_over_signals(extended, brier, "dm", ["s1", "s2"])
    assert abs(gain.raw) <= 1e-12


def test_state_copy_decision_column_is_worth_quarter(brier):
    schema = SignalSchema(signals=(), decisions=(DecisionColumn("copy", "human", ("0", "1")),))
    joint = JointDistribution(
        states=StateSpace.of(("0", "1")),
        schema=schema,
        keys=np.array([[0, 0], [1, 1]]),
        probs=np.array([0.5, 0.5]),
    )
    gain = gain_of_decisions_over_signals(joint, brier, "copy", [])
    assert gain.value == pytest.approx(0.25, abs=1e-12)


def test_state_independent_decision_column_is_worthless(brier):
    schema = SignalSchema(signals=(), decisions=(DecisionColumn("coin", "human", ("0", "1")),))
    joint = JointDistribution(
        states=StateSpace.of(("0", "1")),
        schema=schema,
        keys=np.array([[0, 0], [0, 1], [1, 0], [1, 1]]),
        probs=np.full(4, 0.25),
    )
    assert gain_of_decisions_over_signals(joint, brier, "coin", []).value == 0.0


def test_gain_of_decisions_rejects_signals_as_decision_col(xor_joint, brier):
    with pytest.raises(SchemaError):
        gain_of_decisions_over_signals(xor_joint, brier, "s1", [])


def _subsets(names):
    for r in range(len(names) + 1):
        yield from itertools.combinations(names, r)


def test_monotonicity_and_nonnegativity_on_random_joints(rng):
    for _ in range(25):
        joint = random_joint(rng, n_signals=int(rng.integers(1, 4)))
        problem = random_matrix_problem(rng)
        names = joint.schema.names
        values = {frozenset(s): rational_payoff(joint, problem, s) for s in _subsets(names)}
        for v1, v2 in itertools.product(_subsets(names), repeat=2):
            if set(v1) <= set(v2):
                assert values[frozenset(v1)] <= values[frozenset(v2)] + 1e-12
            gain = information_gain(joint, problem, v1, v2)
            assert gain.raw >= -1e-12


def test_brier_closed_form_matches_argmax_enumeration(brier):
    rng = np.random.default_rng(7)
    payoffs = brier.payoff_matrix
    grid = brier.decisions.grid_floats
    for _ in range(1000):
        p1 = float(rng.random())
        post = np.array([1.0 - p1, p1])
        enumerated = int(np.argmax(payoffs @ post))
        nearest = brier.decisions.nearest_index(float(post[1]))
        assert grid[enumerated] == pytest.approx(grid[nearest], abs=1e-9)
        assert enumerated == best_response(post, brier)


def test_brier_payoffs_and_gains_bounded(rng, brier):
    for _ in range(20):
        joint = random_joint(rng, n_signals=2, n_decision_columns=1)
        for vars_ in _subsets(joint.schema.names):
            r = rational_payoff(joint, brier, vars_)
            assert -1e-12 <= r <= 1.0 + 1e-12
            gain = information_gain(joint, brier, vars_)
            assert 0.0 <= gain.value <= 1.0


def test_oracle_equivalence_on_random_joints(rng):
    for _ in range(30):
        joint = random_joint(rng, n_signals=3)
        problem = random_matrix_problem(rng)
        for vars_ in _subsets(joint.schema.names):
            assert rational_payoff(joint, problem, vars_) == pytest.approx(
                brute_force_rational(joint, problem, vars_), abs=1e-12
            )


def test_oracle_equivalence_with_smoothing(rng, brier):
    schema = SignalSchema(
        signals=(BasicSignal("x1", ("0", "1")), BasicSignal("x2", ("a", "b", "c"))),
        decisions=(DecisionColumn("d", "human", ("0", "1")),),
    )
    for trial in range(8):
        rows = np.stack(
            [rng.integers(0, 2, 15), rng.integers(0, 2, 15), rng.integers(0, 3, 15), rng.integers(0, 2, 15)],
            axis=1,
        )
        data = Dataset(StateSpace.of(("0", "1")), schema, rows)
        problem = brier if trial % 2 else random_matrix_problem(rng)
        for alpha in (0.3, 1.5):
            joint = estimate_joint(data, alpha)
            for vars_ in _subsets(joint.schema.names):
                assert rational_payoff(joint, problem, vars_) == pytest.approx(
                    brute_force_rational(joint, problem, vars_), abs=1e-12
                )


def test_gain_clamps_float_noise_to_zero(xor_joint, brier):
    gain = information_gain(xor_joint, brier, ["s1"], ["s2"])
    # one bit given the other is worth exactly a quarter, never negative noise
    assert gain.value == pytest.approx(0.25, abs=1e-12)
    zero = information_gain(xor_joint, brier, [], ["s1"])
    assert zero.value == 0.0 and abs(zero.raw) <= 1e-9


def test_cross_fit_payoff_on_exactly_balanced_data(brier):
    # dataset whose folds both realize the exact xor table
    schema = SignalSchema(signals=(BasicSignal("s1", ("0", "1")), BasicSignal("s2", ("0", "1"))))
    cells = [(s1 ^ s2, s1, s2) for s1, s2 in itertools.product((0, 1), repeat=2)]
    rows = [c for c in cells for _ in range(2)]  # adjacent duplicates: both folds see every cell
    data = Dataset(StateSpace.of(("0", "1")), schema, np.array(rows, dtype=np.int64))
    assert cross_fit_payoff(data, brier, ["s1", "s2"]) == pytest.approx(1.0, abs=1e-12)
    gain = cross_fit_gain(data, brier, ["s1", "s2"], [])
    assert gain.value == pytest.approx(0.25, abs=1e-12)


def test_cross_fit_is_pessimistic_about_overfit_columns(brier):
    # a row-unique decision column memorizes rows in-sample but transfers nothing
    rng = np.random.default_rng(11)
    n = 400
    states = rng.integers(0, 2, size=n)
    unique_col = rng.permutation(n)  # all-distinct values, independent of the state
    schema = SignalSchema(
        signals=(),
        decisions=(DecisionColumn("d", "human", tuple(str(v) for v in range(n))),),
    )
    data = Dataset(StateSpace.of(("0", "1")), schema, np.stack([states, unique_col], axis=1))
    joint = estimate_joint(data)
    in_sample = information_gain(joint, brier, ["d"]).value
    out_sample = cross_fit_gain(data, brier, ["d"]).value
    assert in_sample == pytest.approx(1.0 - rational_payoff(joint, brier, []), abs=1e-12)
    assert out_sample < 0.02  # memorization does not transfer across folds


def test_cross_fit_needs_two_rows(brier):
    schema = SignalSchema(signals=(BasicSignal("x", ("0", "1")),))
    data = Dataset(StateSpace.of(("0", "1")), schema, np.array([[0, 0]]))
    with pytest.raises(ValueError):
        cross_fit_payoff(data, brier, ["x"])


def _reference_cross_fit_payoff(data, problem, variables, smoothing):
    """Row-by-row cross-fit: a dict from realization tuple to its fitted action."""
    cols = tuple(sorted(1 + data.schema.position(name) for name in variables))
    fold = np.arange(data.n_rows) % 2
    payoffs = problem.payoff_matrix
    total = []
    for f in (0, 1):
        train = Dataset(data.states, data.schema, data.rows[fold != f], state_name=data.state_name)
        reals, mass, absent, background_row = state_mass(estimate_joint(train, smoothing), variables)
        rule = {tuple(int(v) for v in real): int(np.argmax(payoffs @ row)) for real, row in zip(reals, mass)}
        unseen_action = int(np.argmax(payoffs @ (background_row if absent else mass.sum(axis=0))))
        for row in data.rows[fold == f]:
            d = rule.get(tuple(int(row[c]) for c in cols), unseen_action)
            total.append(float(payoffs[d, row[0]]))
    return math.fsum(total) / data.n_rows


@pytest.mark.parametrize("smoothing", [0.0, 0.3])
def test_cross_fit_payoff_equals_row_by_row_reference(smoothing):
    # Brier on a 101-point grid has many near-tied actions; the 3-state matrix
    # problem covers a categorical decision space
    deepfake, brier = make_deepfake_dataset(n_rows=3000, seed=7)
    rng = np.random.default_rng(5)
    problem = random_matrix_problem(rng, n_states=3, n_decisions=4)
    joint = random_joint(rng, n_signals=3, n_states=3, domain_size=3, n_decision_columns=1, decision_domain_size=5)
    matrix_data = generate_dataset(joint, problem, n_rows=500, seed=3)
    cases = [
        (deepfake, brier, ()),
        (deepfake, brier, ("flicker",)),
        (deepfake, brier, ("human",)),
        (deepfake, brier, ("human", "ai", "human_ai")),
        (deepfake, brier, deepfake.schema.names),
        (matrix_data, problem, ("x1",)),
        (matrix_data, problem, ("x2", "b1")),
        (matrix_data, problem, matrix_data.schema.names),
    ]
    for data, prob, names in cases:
        expect = _reference_cross_fit_payoff(data, prob, names, smoothing)
        assert cross_fit_payoff(data, prob, names, smoothing) == expect, names


@pytest.mark.parametrize("n_states", [2, 3])
def test_group_contribution_of_a_row_does_not_depend_on_its_batch(n_states):
    rng = np.random.default_rng(n_states)
    problems = [random_matrix_problem(rng, n_states=n_states, n_decisions=5)]
    if n_states == 2:
        problems.append(brier_problem(("0", "1")))
    mass = rng.random((257, n_states)) * rng.choice([1e-6, 1.0, 1e3], size=(257, n_states))
    mass[::7] = 0.0
    for problem in problems:
        batch = _group_contributions(mass, problem)
        alone = [_group_contributions(mass[i : i + 1], problem)[0] for i in range(len(mass))]
        assert [x.hex() for x in batch] == [x.hex() for x in alone]
        subset = rng.permutation(len(mass))[:100]
        assert [x.hex() for x in _group_contributions(mass[subset], problem)] == [x.hex() for x in batch[subset]]


@pytest.mark.parametrize("alpha", [0.0, 0.3])
def test_payoffs_of_probability_rows_equal_those_of_their_joints(alpha):
    rng = np.random.default_rng(8)
    problem = random_matrix_problem(rng, n_states=3, n_decisions=4)
    population = random_joint(rng, n_signals=3, n_states=3, domain_size=3, n_decision_columns=1)
    data = generate_dataset(population, problem, n_rows=80, seed=2)
    joint = estimate_joint(data, alpha)
    n = data.n_rows
    counts = rng.multinomial(n, np.full(len(joint.keys), 1.0 / len(joint.keys)), size=4)
    if alpha == 0.0:
        probs = counts / n
    else:
        probs = (counts + alpha) / (n + alpha * joint.n_cells)
    for variables in [(), ("x1",), ("x2", "b1"), data.schema.names]:
        batched = rational_payoff(joint, problem, variables, probs)
        for row, value in zip(probs, batched):
            own = JointDistribution(joint.states, joint.schema, joint.keys, row, joint.background)
            assert value.hex() == rational_payoff(own, problem, variables).hex()
