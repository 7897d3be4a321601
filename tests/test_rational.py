import collections
import functools
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

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
    family_payoffs,
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
    gain = information_gain(extended, brier, ["dm"], ["s1", "s2"])
    assert abs(gain.raw) <= 1e-12


def test_state_copy_decision_column_is_worth_quarter(brier):
    schema = SignalSchema(signals=(), decisions=(DecisionColumn("copy", "human", ("0", "1")),))
    joint = JointDistribution(
        states=StateSpace.of(("0", "1")),
        schema=schema,
        keys=np.array([[0, 0], [1, 1]]),
        probs=np.array([0.5, 0.5]),
    )
    gain = information_gain(joint, brier, ["copy"])
    assert gain.value == pytest.approx(0.25, abs=1e-12)


def test_state_independent_decision_column_is_worthless(brier):
    schema = SignalSchema(signals=(), decisions=(DecisionColumn("coin", "human", ("0", "1")),))
    joint = JointDistribution(
        states=StateSpace.of(("0", "1")),
        schema=schema,
        keys=np.array([[0, 0], [0, 1], [1, 0], [1, 1]]),
        probs=np.full(4, 0.25),
    )
    assert information_gain(joint, brier, ["coin"]).value == 0.0


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


def _exact_payoffs(problem):
    """The payoff table in exact arithmetic, as integers over one common denominator."""
    if problem.payoff.kind == "brier":
        table = [[1 - (w - d) ** 2 for w in range(problem.states.size)] for d in problem.decisions.points]
    else:
        table = [[Fraction(s) for s in row] for row in problem.payoff_matrix.tolist()]
    den = math.lcm(*(Fraction(x).denominator for row in table for x in row))
    return [[int(x * den) for x in row] for row in table]


def _exact_scores(mass, table):
    """Expected payoff of each decision for a state-weight row, exact and scaled by a positive constant."""
    den = math.lcm(*(Fraction(m).denominator for m in mass))
    mass = [int(Fraction(m) * den) for m in mass]
    return [sum(m * s for m, s in zip(mass, row)) for row in table]


def _reference_cross_fit_payoff(data, problem, variables, smoothing):
    """Row-by-row cross-fit in exact arithmetic: each fitting fold's state
    counts per realization from a Counter, plus alpha for every product cell
    a realization covers, and the exact best action of each realization."""
    cols = sorted(1 + data.schema.position(name) for name in variables)
    sizes = (data.states.size,) + data.schema.domain_sizes()
    covered = math.prod(sizes) // math.prod(sizes[c] for c in cols) // data.states.size
    background = Fraction(smoothing) * covered
    table = _exact_payoffs(problem)

    @functools.lru_cache(maxsize=None)
    def best(mass):  # lowest index on ties
        scores = _exact_scores(mass, table)
        return scores.index(max(scores))

    rows = [(tuple(row[c] for c in cols), row[0]) for row in data.rows.tolist()]
    states = range(data.states.size)
    total = []
    for f in (0, 1):
        counts = collections.Counter(rows[1 - f :: 2])
        seen = {real for real, _ in counts}
        if smoothing and len(seen) < math.prod(sizes[c] for c in cols):
            unseen = best(tuple(background for _ in states))
        else:
            unseen = best(tuple(sum(counts[real, w] for real in seen) for w in states))
        for real, w in rows[f::2]:
            d = best(tuple(counts[real, v] + background for v in states)) if real in seen else unseen
            total.append(float(problem.payoff_matrix[d, w]))
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


def test_cross_fit_payoff_equals_exact_reference_on_deepfake_4k():
    # count masses over a 101-point grid: many realizations put the posterior
    # mean exactly on a midpoint between two grid points
    data, brier = make_deepfake_dataset(n_rows=4000, seed=101)
    signals, decisions = data.schema.signal_names, data.schema.decision_names
    sets = [()] + [(name,) for name in data.schema.names] + [(s, d) for d in decisions for s in signals]
    sets += [decisions[:2], decisions[1:], decisions[::2], decisions, signals, data.schema.names]
    sets += [signals + (d,) for d in decisions]
    assert len(sets) >= 40
    for names in sets:
        assert cross_fit_payoff(data, brier, names) == _reference_cross_fit_payoff(data, brier, names, 0.0), names


def test_cross_fit_payoff_breaks_exact_matrix_ties_toward_the_lowest_index():
    # dyadic payoffs and integer counts: every expected payoff is exact, so
    # equal expectations are exact ties, and there are many of them
    problem = DecisionProblem(
        states=StateSpace.of(("0", "1", "2")),
        decisions=DecisionSpace.categorical(("a", "b", "c", "hedge")),
        payoff=PayoffFunction.from_matrix([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.5, 0.5, 0.25]]),
    )
    joint = random_joint(np.random.default_rng(4), n_signals=3, n_states=3, domain_size=3, n_decision_columns=1)
    data = generate_dataset(joint, problem, n_rows=300, seed=5)
    ties, table = 0, _exact_payoffs(problem)
    for names in _subsets(data.schema.names):
        assert cross_fit_payoff(data, problem, names) == _reference_cross_fit_payoff(data, problem, names, 0.0), names
        for row in state_mass(estimate_joint(data), names)[1].tolist():
            scores = _exact_scores(row, table)
            ties += scores.count(max(scores)) > 1
    assert ties >= 10


def _gain_cases():
    """(data, problem, v1, ground): the deepfake sample and the matrix problem of the row-by-row reference test."""
    deepfake, brier = make_deepfake_dataset(n_rows=3000, seed=7)
    rng = np.random.default_rng(5)
    problem = random_matrix_problem(rng, n_states=3, n_decisions=4)
    joint = random_joint(rng, n_signals=3, n_states=3, domain_size=3, n_decision_columns=1, decision_domain_size=5)
    matrix_data = generate_dataset(joint, problem, n_rows=500, seed=3)
    return [
        (deepfake, brier, ("flicker",), ("human",)),
        (deepfake, brier, deepfake.schema.signal_names, ("human_ai",)),
        (deepfake, brier, ("human",), ("ai",)),
        (matrix_data, problem, ("x1",), ("b1",)),
        (matrix_data, problem, matrix_data.schema.signal_names, ("b1",)),
        (matrix_data, problem, ("x2", "b1"), ()),
    ]


@pytest.mark.parametrize("smoothing", [0.0, 0.3])
def test_cross_fit_gain_equals_the_difference_of_row_by_row_references(smoothing):
    # cross_fit_gain sums the ground set's fold tables from those of V1 | G
    # where V1 adds one column; a wrongly derived table changes the payoffs
    for data, problem, v1, ground in _gain_cases():
        both = _reference_cross_fit_payoff(data, problem, v1 + ground, smoothing)
        alone = _reference_cross_fit_payoff(data, problem, ground, smoothing)
        assert cross_fit_gain(data, problem, v1, ground, smoothing).raw.hex() == (both - alone).hex(), (v1, ground)


@pytest.mark.parametrize("alpha", [0.0, 0.3])
def test_information_gain_of_counts_equals_the_difference_of_single_set_payoffs(alpha):
    # the gain evaluates V1 | G and G as one family; under counts G's derived
    # table is the one grouped from the keys, bit for bit
    for data, problem, v1, ground in _gain_cases():
        joint = estimate_joint(data, alpha)
        raw = rational_payoff(joint, problem, v1 + ground) - rational_payoff(joint, problem, ground)
        assert information_gain(joint, problem, v1, ground).raw.hex() == raw.hex(), (v1, ground)


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
    # count rows: the tuple weights of four resamples of the n rows
    counts = rng.multinomial(data.n_rows, np.full(len(joint.keys), 1.0 / len(joint.keys)), size=4)
    for variables in [(), ("x1",), ("x2", "b1"), data.schema.names]:
        key = frozenset(variables)
        batched = family_payoffs(joint, problem, {key: range(len(counts))}, counts)[key]
        for row, value in zip(counts, batched):
            own = JointDistribution(joint.states, joint.schema, joint.keys, row, joint.background, total=joint.total)
            assert value.hex() == rational_payoff(own, problem, variables).hex()
