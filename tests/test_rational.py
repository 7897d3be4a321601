import collections
import dataclasses
import functools
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

import infogain.rational
import infogain.shapley
from infogain.errors import SchemaError
from infogain.joint import Dataset, GroupIndexes, JointDistribution, background_mass, estimate_joint
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
    _contributions,
    _lattice,
    _times,
    clamp_gain,
    cross_fit_gain,
    cross_fit_payoff,
    exact_row_sums,
    family_payoffs,
    gain_sets,
    information_gain,
    payoffs,
    rational_payoff,
    state_mass,
)
from infogain.synth import (
    SyntheticAgentSpec,
    brute_force_rational,
    generate_dataset,
    make_deepfake_dataset,
    with_population_agents,
)
from cases import best_response, random_joint, random_matrix_problem

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


def _unequal_steps_problem():
    """The quadratic score on the grid 0, 1/10, 1/2, 1, whose unequal steps keep the sorted search."""
    grid = DecisionSpace.numeric([0, Fraction(1, 10), Fraction(1, 2), 1])
    assert grid._step_rule is None
    return DecisionProblem(StateSpace.of(("0", "1")), grid, PayoffFunction.brier())


@pytest.mark.parametrize("alpha", [0.0, 0.3])
def test_family_payoffs_on_a_grid_of_unequal_steps_match_the_oracle(rng, alpha):
    # whole counts (looked up in the count table) and smoothed ones (scored
    # directly), several weight rows, every set of a small schema
    problem = _unequal_steps_problem()
    population = random_joint(rng, n_signals=3, domain_size=3, n_decision_columns=1, decision_domain_size=4)
    joint = estimate_joint(generate_dataset(population, problem, n_rows=300, seed=5), alpha)
    weights = rng.multinomial(300, np.full(len(joint.keys), 1.0 / len(joint.keys)), size=3) * 1.0
    family = {frozenset(names): (0, 1, 2) for names in _subsets(joint.schema.names)}
    payoffs = family_payoffs(joint, problem, family, weights)
    for r, row in enumerate(weights):
        own = dataclasses.replace(joint, probs=row)
        for key in family:
            assert payoffs[key][r] == pytest.approx(brute_force_rational(own, problem, key), abs=1e-12)


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


# --- payoffs: the one in-sample entry point ------------------------------------


def _oracle_cases(rng, xor_joint, brier):
    """The XOR joint and a few random population joints, each with its problem."""
    cases = [(xor_joint, brier)]
    for n_states in (2, 2, 3):
        joint = random_joint(rng, n_signals=2, n_states=n_states, domain_size=3, n_decision_columns=1)
        cases.append((joint, random_matrix_problem(rng, n_states=n_states)))
    return cases


def test_payoffs_equal_the_oracle_in_the_order_given(rng, xor_joint, brier):
    # every subset, largest first, then three of them again in other spellings
    for joint, problem in _oracle_cases(rng, xor_joint, brier):
        names = joint.schema.names
        sets = list(_subsets(names))[::-1] + [(), tuple(reversed(names)), names[:1] * 2]
        values = payoffs(joint, problem, sets)
        assert len(values) == len(sets)
        for variables, value in zip(sets, values):
            assert value == pytest.approx(brute_force_rational(joint, problem, variables), abs=1e-12)
        assert [x.hex() for x in values[-3:]] == [values[i].hex() for i in (-4, 0, -5)]
    assert payoffs(xor_joint, brier, []) == []


@st.composite
def joints_at_the_uint8_edge(draw):
    """A joint whose signal ``a`` has a domain on either side of 127/128 or 255/256 values and every value of it
    in some tuple, with a matrix problem: the set {a, b} has at least |a| groups, so a state times a group count
    passes 255 wherever there are three states or 256 groups, while the keys are uint8 (below 257 values)."""
    n_states = draw(st.sampled_from([2, 3]))
    size_a, size_b = draw(st.sampled_from([127, 128, 129, 255, 256, 257])), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = np.concatenate([np.arange(size_a), rng.integers(0, size_a, draw(st.integers(0, size_a)))])
    keys = np.unique(np.column_stack([rng.integers(0, n_states, len(a)), a, rng.integers(0, size_b, len(a))]), axis=0)
    probs = rng.random(len(keys)) + 0.01
    background = draw(st.sampled_from([0.0, 1e-3]))
    schema = SignalSchema(signals=(BasicSignal("a", tuple(map(str, range(size_a)))),
                                   BasicSignal("b", tuple(map(str, range(size_b))))))
    states = StateSpace.of(tuple(map(str, range(n_states))))
    total = math.fsum(probs) + background * n_states * size_a * size_b
    joint = JointDistribution(states, schema, keys, probs, background=background, total=total)
    return joint, random_matrix_problem(rng, n_states=n_states)


@given(joints_at_the_uint8_edge())
def test_payoffs_and_shapley_totals_on_narrow_keys_equal_the_oracle(case):
    joint, problem = case
    assert joint.keys.dtype == (np.uint8 if max(joint.domain_sizes) <= 256 else np.uint16)
    sets = [(), ("a",), ("b",), ("a", "b")]
    oracle = [brute_force_rational(joint, problem, variables) for variables in sets]
    for value, expected in zip(payoffs(joint, problem, sets), oracle):
        assert value == pytest.approx(expected, abs=1e-12)
    report = infogain.shapley.shapley_exact(joint, problem)
    assert report.total_gain == pytest.approx(clamp_gain(oracle[-1] - oracle[0]), abs=1e-12)
    assert math.fsum(report.values) == pytest.approx(report.total_gain, abs=1e-12)


def test_every_in_sample_entry_point_makes_one_family_payoffs_call(monkeypatch, xor_joint, brier):
    # each call of payoffs is one walk over its distinct sets, whoever calls it
    families = []
    real = infogain.rational.family_payoffs

    def counting(joint, problem, family, *rest):
        families.append(set(family))
        return real(joint, problem, family, *rest)

    monkeypatch.setattr(infogain.rational, "family_payoffs", counting)
    s1, s2 = frozenset({"s1"}), frozenset({"s2"})
    payoffs(xor_joint, brier, [s1, (), ("s1",), s1 | s2, ("s2", "s1")])
    assert families == [{s1, frozenset(), s1 | s2}]
    for call, family in [
        (lambda: rational_payoff(xor_joint, brier, ["s2"]), {s2}),
        (lambda: information_gain(xor_joint, brier, ["s1"], ["s2"]), {s1 | s2, s2}),
        (lambda: infogain.shapley.shapley_exact(xor_joint, brier), {frozenset(), s1, s2, s1 | s2}),
        (lambda: infogain.shapley.shapley_sampled(xor_joint, brier, permutations=3, seed=5),
         set(infogain.shapley.sampled_walk(("s1", "s2"), (), 3, 5).sets)),
    ]:
        families.clear()
        call()
        assert families == [family]


def test_a_joint_keeps_nothing_its_walks_build():
    # a joint is a plain value: a walk over it builds its group indexes for
    # itself, or keeps them in the cache its caller passes, never on the joint
    data, problem = make_deepfake_dataset(n_rows=600, seed=11)
    joint = estimate_joint(data)
    fields = {field.name for field in dataclasses.fields(joint)}
    rows = np.stack([joint.probs, joint.probs[::-1]])
    family = {frozenset({"flicker", "dark"}): (0, 1), frozenset({"flicker"}): (1,)}
    for walk in (lambda: state_mass(joint, ["flicker", "dark"]), lambda: payoffs(joint, problem, [["flicker"], []]),
                 lambda: family_payoffs(joint, problem, family, rows)):
        walk()
        assert set(vars(joint)) == fields
    cached = family_payoffs(joint, problem, family, rows, GroupIndexes(joint))
    assert cached == family_payoffs(joint, problem, family, rows)


def test_a_warm_walk_reads_the_joint_domain_sizes_at_most_once(monkeypatch):
    # the parent search reads the number of key columns once per walk, not once per set
    data, problem = make_deepfake_dataset(n_rows=600, seed=11)
    joint = estimate_joint(data)
    family = dict.fromkeys(infogain.shapley.coalition_sets(data.schema.signal_names, ["human"]), (0,))
    indexes = GroupIndexes(joint)
    cold = family_payoffs(joint, problem, family, indexes=indexes)
    reads = []
    sizes = JointDistribution.domain_sizes
    monkeypatch.setattr(JointDistribution, "domain_sizes", property(lambda self: reads.append(1) or sizes.fget(self)))
    warm = family_payoffs(joint, problem, family, indexes=indexes)
    assert len(family) == 128 and len(reads) <= 1
    assert warm == cold


@pytest.mark.parametrize("alpha", [0.0, 0.01])
def test_a_walk_of_many_sets_builds_the_domain_sizes_as_often_as_one_of_two(monkeypatch, alpha):
    # every set of a walk reads the joint's domain sizes, to group it and for
    # its smoothing weight; the tuple is built with the joint, not per read
    data, problem = make_deepfake_dataset(n_rows=600, seed=11)
    joint = estimate_joint(data, alpha)
    sets = list(infogain.shapley.coalition_sets(data.schema.signal_names, ["human"]))
    builds, domain_sizes = [], SignalSchema.domain_sizes
    monkeypatch.setattr(SignalSchema, "domain_sizes", lambda self: builds.append(1) or domain_sizes(self))

    def count(walk):
        builds.clear()
        walk()
        return len(builds)

    def counts(sets):
        family, indexes = dict.fromkeys(sets, (0,)), GroupIndexes(joint)
        walk = functools.partial(family_payoffs, joint, problem, family, indexes=indexes)
        cross_fit = functools.partial(infogain.rational._cross_fit_payoffs, data, problem, sets, alpha)
        return count(walk), count(walk), count(cross_fit)  # cold, warm, cold

    assert len(sets) == 128
    assert counts(sets) == counts(sets[:2])


@pytest.mark.parametrize("alpha", [0.0, 0.3])
def test_single_set_and_gain_entry_points_give_the_bits_of_payoffs(rng, alpha):
    # the same family gives the same bits; under counts so does any other family,
    # so each set's payoff within all of the schema's subsets is its payoff alone
    population = random_joint(rng, n_signals=3, domain_size=3, n_decision_columns=1)
    problem = random_matrix_problem(rng)
    joint = estimate_joint(generate_dataset(population, problem, n_rows=120, seed=3), alpha)
    sets = list(_subsets(joint.schema.names))
    table = dict(zip(map(frozenset, sets), payoffs(joint, problem, sets)))
    for variables in sets:
        assert rational_payoff(joint, problem, variables).hex() == payoffs(joint, problem, [variables])[0].hex()
        assert rational_payoff(joint, problem, variables).hex() == table[frozenset(variables)].hex()
    for v1, ground in [(("x1",), ()), (("x1", "x2"), ("b1",)), (("b1",), ("x3",)), ((), ("x2",))]:
        both, alone = payoffs(joint, problem, gain_sets(v1, ground))
        gain = information_gain(joint, problem, v1, ground)
        assert gain.raw.hex() == (both - alone).hex()
        assert gain.raw.hex() == (table[frozenset(v1 + ground)] - table[frozenset(ground)]).hex()


@pytest.mark.parametrize("n_states", [2, 3])
def test_group_contribution_of_a_row_does_not_depend_on_its_batch(n_states):
    rng = np.random.default_rng(n_states)
    problems = [random_matrix_problem(rng, n_states=n_states, n_decisions=5)]
    if n_states == 2:
        problems.append(brier_problem(("0", "1")))
    mass = rng.random((257, n_states)) * rng.choice([1e-6, 1.0, 1e3], size=(257, n_states))
    mass[::7] = 0.0
    for problem in problems:
        batch = _contributions(mass.T, problem)
        alone = [_contributions(mass[i : i + 1].T, problem)[0] for i in range(len(mass))]
        assert [x.hex() for x in batch] == [x.hex() for x in alone]
        subset = rng.permutation(len(mass))[:100]
        assert [x.hex() for x in _contributions(mass[subset].T, problem)] == [x.hex() for x in batch[subset]]


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


# --- exact row sums against math.fsum ------------------------------------------


def _spread(low, high):
    """Terms of either sign with 53-bit significands, in [2^(e - 1), 2^e) for an e in [low, high]."""
    significands = st.builds(lambda sign, low_bits: sign * (2**52 + low_bits), st.sampled_from([-1, 1]),
                             st.integers(0, 2**52 - 1))
    return st.builds(math.ldexp, significands, st.integers(low - 53, high - 53))


SPREAD = _spread(-60, 60)
SUBNORMAL = st.floats(-(2.0**-1022), 2.0**-1022)  # zeros, subnormals and the smallest normals
NEAR_THE_LIMIT = _spread(1010, 1023)  # past the extraction's range from 2^(1023 - L) on
ZEROS = st.sampled_from([0.0, -0.0])


def _fsums(rows, extra):
    """Each row's ``math.fsum`` with ``extra``, as hex, or the exception type the first raising row raises."""
    try:
        return [math.fsum(list(row) + extra).hex() for row in rows]
    except (OverflowError, ValueError) as error:
        return type(error)


def _exact_row_sums(rows, n_terms, extra):
    try:
        return [x.hex() for x in exact_row_sums(np.array(rows, dtype=np.float64).reshape(len(rows), n_terms), extra)]
    except (OverflowError, ValueError) as error:
        return type(error)


@pytest.mark.parametrize(
    "terms, max_terms",
    [
        # negative terms, as payoff matrices give, exponents over 2^+-60, subnormals and zeros
        pytest.param(st.one_of(SPREAD, SUBNORMAL, ZEROS), 40, id="spread"),
        # many terms of one sign near the row's largest carry the most bits into each pass's sum
        pytest.param(st.builds(abs, _spread(-2, 2)), 120, id="one scale"),
        # G = 0 and G = 1 are the narrowest extractions, sigma = 2^(e + 1) and 2^(e + 2)
        pytest.param(SPREAD, 3, id="few terms"),
        # the sign of a zero sum is fsum's own, on this interpreter
        pytest.param(ZEROS, 40, id="signed zeros"),
        # rows past the extraction's range are summed by fsum itself, which
        # also keeps its OverflowError for a sum past the float range
        pytest.param(st.one_of(NEAR_THE_LIMIT, SPREAD), 8, id="near the float limit"),
    ],
)
@given(data=st.data())
def test_exact_row_sums_equal_fsum(terms, max_terms, data):
    n_rows, n_terms = data.draw(st.integers(0, 4)), data.draw(st.integers(0, max_terms))
    rows = data.draw(st.lists(st.lists(terms, min_size=n_terms, max_size=n_terms), min_size=n_rows, max_size=n_rows))
    extra = data.draw(st.lists(st.one_of(SPREAD, ZEROS), max_size=3))
    assert _exact_row_sums(rows, n_terms, extra) == _fsums(rows, extra)


@pytest.mark.parametrize(
    "rows, extra",
    [
        ([], []),  # R = 0
        ([[], []], [1.5, -0.25]),  # G = 0
        ([[-0.0]], []),  # G = 1
        ([[-0.0, -0.0], [0.0, -0.0], [-0.0, 0.0]], []),
        ([[-0.0, -0.0]], [-0.0]),
        ([[1.0, 2.0**-1074, -1.0]], [2.0**-1074]),  # a subnormal left over from cancelling terms
        ([[2.0**1023, 2.0**1023]], []),  # past the float range: fsum's OverflowError
        ([[2.0**1023, 2.0**1023, -(2.0**1023)]], []),  # an intermediate overflow in fsum
        ([[math.inf, 1.0]], []),
        ([[math.inf, -math.inf]], []),  # fsum's ValueError
    ],
)
def test_exact_row_sums_of_edge_cases_equal_fsum(rows, extra):
    n_terms = len(rows[0]) if rows else 3
    assert _exact_row_sums(rows, n_terms, extra) == _fsums(rows, extra)


def _fsum_family_payoffs(joint, problem, family, probs):
    """``family_payoffs`` as it summed before error-free extraction: one ``math.fsum`` per weight row."""
    width, payoffs = joint.states.size, {}
    for key, index, counts in _lattice(joint, family, np.asarray(probs, dtype=np.float64)):
        absent, background = background_mass(joint, index.cols, index.size)
        mass = np.moveaxis(counts + background if background else counts, 1, -1)  # (rows, G, |states|)
        terms = _contributions(mass.reshape(-1, width).T, problem).reshape(mass.shape[:-1])
        extra = _times(absent, _contributions(np.full((width, 1), background), problem).item()) if absent else []
        payoffs[key] = [math.fsum(row.tolist() + extra) / joint.total for row in terms]
    return payoffs


@pytest.mark.parametrize("alpha", [0.0, 0.3])
def test_family_payoffs_of_many_rows_equal_one_fsum_per_row(alpha):
    # several weight rows per set, some sets read by some rows only, under a
    # payoff matrix with negative entries and under the quadratic score
    rng = np.random.default_rng(13)
    data, brier = make_deepfake_dataset(n_rows=600, seed=11)
    matrix = random_matrix_problem(rng, n_states=2, n_decisions=4)
    joint = estimate_joint(data, alpha)
    counts = rng.multinomial(data.n_rows, np.full(len(joint.keys), 1.0 / len(joint.keys)), size=5)
    names = data.schema.names
    family = {frozenset(): range(5), frozenset(names): range(5), frozenset(names[:2]): (0, 2, 4),
              frozenset(names[1:4]): (1, 3), frozenset(names[2:3]): (0, 1, 2, 3, 4)}
    for problem in (brier, matrix):
        got = family_payoffs(joint, problem, family, counts)
        want = _fsum_family_payoffs(joint, problem, family, counts)
        assert {k: [x.hex() for x in v] for k, v in got.items()} == {k: [x.hex() for x in v] for k, v in want.items()}


@pytest.mark.parametrize("labels", [("a",), ("a", "b", "c")])
def test_family_payoffs_refuses_a_problem_over_other_states(xor_joint, labels):
    problem = DecisionProblem(StateSpace.of(labels), DecisionSpace.categorical(("x", "y")),
                              PayoffFunction.from_matrix([[float(i == 0) for i in range(len(labels))]] * 2))
    with pytest.raises(SchemaError, match="problem and joint disagree on the number of states"):
        family_payoffs(xor_joint, problem, {frozenset(): ()})
