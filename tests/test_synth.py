import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import infogain.synth
from infogain.errors import OracleError, ProductSpaceError, SchemaError
from infogain.joint import JointDistribution, estimate_joint
from infogain.model import BasicSignal, DecisionColumn, SignalSchema, StateSpace, brier_problem
from infogain.rational import information_gain, payoffs, rational_payoff
from infogain.synth import (
    DEEPFAKE_AI_ACCURACY,
    DEEPFAKE_SIGNALS,
    REPORTING_RULES,
    SyntheticAgentSpec,
    _binarized_accuracy,
    brute_force_rational,
    generate_dataset,
    make_deepfake_agents,
    make_deepfake_dataset,
    make_deepfake_joint,
    make_xor_joint,
    with_population_agents,
    xor_problem,
)
from cases import best_response, random_joint, random_matrix_problem
from marginals import marginal, posterior


def test_xor_state_marginal_uniform(xor_joint):
    assert marginal(xor_joint, ["state"]) == {(0,): 0.5, (1,): 0.5}


def test_xor_one_bit_reveals_nothing(xor_joint):
    assert posterior(xor_joint, {"s1": 1}).tolist() == [0.5, 0.5]


def test_xor_both_bits_determine_state(xor_joint):
    assert posterior(xor_joint, {"s1": 1, "s2": 1}).tolist() == [1.0, 0.0]


def test_noiseless_full_information_agent_reports_state(xor_joint, brier):
    agent = SyntheticAgentSpec(name="dm", used_signals=("s1", "s2"), noise=0.0)
    data = generate_dataset(xor_joint, brier, [agent], n_rows=500, seed=4)
    col = data.rows[:, data.schema.position("dm") + 1]
    states = data.rows[:, 0]
    # degenerate posteriors put the report at the matching grid endpoint
    assert set(np.unique(col)) <= {0, 100}
    assert np.array_equal(col, np.where(states == 1, 100, 0))


def test_pure_noise_agent_is_uninformative(xor_joint, brier):
    agent = SyntheticAgentSpec(name="dm", used_signals=("s1", "s2"), noise=1.0)
    data = generate_dataset(xor_joint, brier, [agent], n_rows=20_000, seed=4)
    joint = estimate_joint(data)
    gain = information_gain(joint, brier, ["dm"])
    # sampling noise only: a 101-value column on 20k rows retains a small spurious gain
    assert gain.value < 0.05
    col = data.rows[:, data.schema.position("dm") + 1]
    assert len(np.unique(col)) > 80  # spread over the grid


def test_identical_agent_specs_share_their_noise_stream(xor_joint, brier):
    spec_a = SyntheticAgentSpec(name="a", used_signals=("s1",), noise=0.5)
    spec_b = SyntheticAgentSpec(name="b", used_signals=("s1",), noise=0.5)
    data = generate_dataset(xor_joint, brier, [spec_a, spec_b], n_rows=1000, seed=5)
    col_a = data.rows[:, data.schema.position("a") + 1]
    col_b = data.rows[:, data.schema.position("b") + 1]
    assert np.array_equal(col_a, col_b)


def test_generate_dataset_deterministic_per_seed(xor_joint, brier):
    agent = SyntheticAgentSpec(name="dm", used_signals=("s1",), noise=0.3)
    a = generate_dataset(xor_joint, brier, [agent], n_rows=300, seed=12)
    b = generate_dataset(xor_joint, brier, [agent], n_rows=300, seed=12)
    c = generate_dataset(xor_joint, brier, [agent], n_rows=300, seed=13)
    assert np.array_equal(a.rows, b.rows)
    assert not np.array_equal(a.rows, c.rows)


def _reference_informed(joint, problem, agent, key):
    """The agent's informed decision for one full key tuple, from ``posterior``."""
    used = sorted(agent.used_signals, key=joint.schema.position)
    post = posterior(joint, {name: int(key[joint.schema.position(name) + 1]) for name in used})
    if agent.rule == "posterior_mean_on_grid":
        return problem.decisions.nearest_index(float(np.arange(joint.states.size) @ post))
    return best_response(post, problem)


def test_noiseless_agents_report_their_posterior_mean_on_every_row():
    joint, brier = make_deepfake_joint(), brier_problem(("genuine", "fake"))
    agents = [SyntheticAgentSpec(name=a.name, used_signals=a.used_signals) for a in make_deepfake_agents(joint, brier)]
    data = generate_dataset(joint, brier, agents, n_rows=2000, seed=9)
    for agent in agents:
        col = data.rows[:, data.schema.position(agent.name) + 1]
        assert col.tolist() == [_reference_informed(joint, brier, agent, row) for row in data.rows]


def _reference_population_agents(joint, problem, agents):
    """Cell-by-cell extension: each cell once per decision, weighted by the agent's noise."""
    n_dec = problem.decisions.size
    cells = [(tuple(int(v) for v in key), float(p)) for key, p in zip(joint.keys, joint.probs)]
    for agent in agents:
        eps = float(agent.noise)
        grown = []
        for key, p in cells:
            informed = _reference_informed(joint, problem, agent, key)
            if eps == 0.0:
                grown.append((key + (informed,), p))
                continue
            for d in range(n_dec):
                grown.append((key + (d,), p * (eps / n_dec + (1.0 - eps if d == informed else 0.0))))
        cells = grown
    return sorted(cells)


def test_population_agents_equal_cell_by_cell_reference(xor_joint, brier):
    rng = np.random.default_rng(3)
    joint = random_joint(rng, n_signals=3, n_states=3, domain_size=3)
    problem = random_matrix_problem(rng, n_states=3, n_decisions=4)
    cases = [
        (xor_joint, brier, [SyntheticAgentSpec("a", ("s1",), 0.0), SyntheticAgentSpec("b", ("s1", "s2"), 0.3)]),
        (xor_joint, brier, [SyntheticAgentSpec("a", (), 0.5)]),
        (joint, problem, [SyntheticAgentSpec("m1", ("x1", "x3"), 0.2, rule="argmax_payoff"),
                          SyntheticAgentSpec("m2", ("x2",), 0.0, rule="argmax_payoff")]),
    ]
    for base, prob, agents in cases:
        extended = with_population_agents(base, prob, agents)
        cells = [(tuple(key), p) for key, p in zip(extended.keys.tolist(), extended.probs.tolist())]
        assert cells == _reference_population_agents(base, prob, agents)


@st.composite
def population_cases(draw):
    """A random joint, a Brier problem on a small grid, and 1-3 agents of either rule and noise 0, 0.3 or 0.5."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    joint = random_joint(rng, n_signals=draw(st.integers(1, 3)), domain_size=draw(st.integers(2, 3)),
                         n_decision_columns=draw(st.integers(0, 1)))
    problem = brier_problem(joint.states.labels, grid_count=draw(st.integers(2, 3)))
    signals = st.lists(st.sampled_from(joint.schema.signal_names), unique=True)
    agents = [
        SyntheticAgentSpec(f"a{i}", draw(signals), draw(st.sampled_from([0.0, 0.3, 0.5])),
                           rule=draw(st.sampled_from(REPORTING_RULES)))
        for i in range(draw(st.integers(1, 3)))
    ]
    return joint, problem, agents


@given(population_cases())
def test_population_agents_over_random_joints_equal_cell_by_cell_reference(case):
    # two noisy agents in a row read the first joint's tuple of each key through two expansions
    joint, problem, agents = case
    extended = with_population_agents(joint, problem, agents)
    cells = [(tuple(key), p) for key, p in zip(extended.keys.tolist(), extended.probs.tolist())]
    assert cells == _reference_population_agents(joint, problem, agents)


def _xor_joint_with_a_third_s2_value(zero_weight_tuple: bool) -> JointDistribution:
    """The XOR joint with the domain of ``s2`` widened to {0, 1, 2}; with the explicit tuple (0, 0, 2) of weight 0."""
    schema = SignalSchema(signals=(BasicSignal("s1", ("0", "1")), BasicSignal("s2", ("0", "1", "2"))))
    keys = [(s1 ^ s2, s1, s2) for s1 in (0, 1) for s2 in (0, 1)] + [(0, 0, 2)] * zero_weight_tuple
    return JointDistribution(states=StateSpace.of(("0", "1")), schema=schema, keys=np.array(keys),
                             probs=np.array([0.25] * 4 + [0.0] * zero_weight_tuple))


@pytest.mark.parametrize("rule", REPORTING_RULES)
@pytest.mark.parametrize("noise", [0.0, 0.3])
def test_a_realization_without_weight_is_decided_under_the_prior(brier, rule, noise):
    # s2 = 2 is held only by a tuple of weight 0: its decision changes no payoff,
    # and it is the prior's, the middle of the grid under the uniform XOR prior
    agent = SyntheticAgentSpec("a", ("s2",), noise, rule=rule)
    plain, padded = (with_population_agents(_xor_joint_with_a_third_s2_value(z), brier, [agent]) for z in (False, True))
    sets = [(), ("a",), ("s1", "a"), ("s1", "s2", "a")]
    assert payoffs(padded, brier, sets) == payoffs(plain, brier, sets)
    if noise == 0.0:
        held = (padded.keys[:, :3] == (0, 0, 2)).all(axis=1)
        assert padded.keys[held, 3].tolist() == [50]


def test_binarized_accuracy_equals_cell_by_cell_reference():
    joint, brier = make_deepfake_joint(), brier_problem(("genuine", "fake"))
    grid = brier.decisions.grid_floats

    def credit(d, w):
        return 0.5 if grid[d] == 0.5 else float((grid[d] > 0.5) == (w == 1))

    for agent in make_deepfake_agents(joint, brier):
        informed = [float(p) * credit(_reference_informed(joint, brier, agent, key), int(key[0]))
                    for key, p in zip(joint.keys, joint.probs)]
        noise = [float(p) * credit(d, int(key[0])) for key, p in zip(joint.keys, joint.probs) for d in range(len(grid))]
        expect = (1.0 - agent.noise) * math.fsum(informed) + agent.noise * (math.fsum(noise) / len(grid))
        assert _binarized_accuracy(joint, brier, agent) == expect


def test_generate_dataset_refuses_a_smoothed_joint():
    data, problem = make_deepfake_dataset(n_rows=200, seed=1)
    smoothed = estimate_joint(data, 0.5)
    with pytest.raises(ValueError, match="unsmoothed joint"):
        generate_dataset(smoothed, problem, n_rows=10)


def test_agent_on_decision_column_rejected(xor_joint, brier):
    agent = SyntheticAgentSpec(name="dm", used_signals=("s1",), noise=0.0)
    extended = with_population_agents(xor_joint, brier, [agent])
    bad = SyntheticAgentSpec(name="dm2", used_signals=("dm",), noise=0.0)
    with pytest.raises(SchemaError):
        with_population_agents(extended, brier, [bad])


def test_posterior_mean_on_a_categorical_grid_is_refused(xor_joint):
    problem = random_matrix_problem(np.random.default_rng(0))
    agent = SyntheticAgentSpec(name="dm", used_signals=("s1",))
    with pytest.raises(SchemaError, match="numeric decision grid"):
        with_population_agents(xor_joint, problem, [agent])


def test_population_agent_is_redundant_given_its_inputs(xor_joint, brier):
    for used in (("s1",), ("s1", "s2")):
        agent = SyntheticAgentSpec(name="dm", used_signals=used, noise=0.0)
        extended = with_population_agents(xor_joint, brier, [agent])
        gain = information_gain(extended, brier, ["dm"], list(used))
        assert abs(gain.raw) <= 1e-12


def test_sampled_agent_redundancy_within_tolerance(xor_joint, brier):
    agent = SyntheticAgentSpec(name="dm", used_signals=("s1", "s2"), noise=0.0)
    data = generate_dataset(xor_joint, brier, [agent], n_rows=20_000, seed=2)
    joint = estimate_joint(data)
    gain = information_gain(joint, brier, ["dm"], ["s1", "s2"])
    assert gain.value <= 0.01


def test_noise_weakly_decreases_information_value(xor_joint, brier):
    gains = []
    for eps in (0.0, 0.5, 1.0):
        agent = SyntheticAgentSpec(name="dm", used_signals=("s1", "s2"), noise=eps)
        extended = with_population_agents(xor_joint, brier, [agent])
        gains.append(information_gain(extended, brier, ["dm"]).value)
    assert gains[0] >= gains[1] - 1e-12
    assert gains[1] >= gains[2] - 1e-12
    assert gains[0] == pytest.approx(0.25, abs=1e-12)
    assert gains[2] == pytest.approx(0.0, abs=1e-12)


def test_empirical_frequencies_converge_to_joint(xor_joint, brier):
    data = generate_dataset(xor_joint, brier, n_rows=100_000, seed=77)
    empirical = estimate_joint(data)
    population = marginal(xor_joint, ["state", "s1", "s2"])
    sample = marginal(empirical, ["state", "s1", "s2"])
    tv = 0.5 * math.fsum(
        abs(sample.get(k, 0.0) - population.get(k, 0.0)) for k in set(population) | set(sample)
    )
    assert tv < 0.02


def test_oracle_xor_values(xor_joint, brier):
    assert brute_force_rational(xor_joint, brier, ["s1", "s2"]) == pytest.approx(1.0, abs=1e-12)
    assert brute_force_rational(xor_joint, brier, []) == pytest.approx(0.75, abs=1e-12)


def test_oracle_matches_production_path(rng):
    for _ in range(10):
        joint = random_joint(rng, n_signals=3)
        problem = random_matrix_problem(rng)
        for r in range(4):
            for vars_ in itertools.combinations(joint.schema.names, r):
                assert brute_force_rational(joint, problem, vars_) == pytest.approx(
                    rational_payoff(joint, problem, vars_), abs=1e-12
                )


def test_oracle_refuses_oversized_spaces(brier):
    schema = SignalSchema(
        signals=(),
        decisions=tuple(
            DecisionColumn(f"d{i}", "other", tuple(str(v) for v in range(101))) for i in range(3)
        ),
    )
    joint = JointDistribution(
        states=StateSpace.of(("0", "1")),
        schema=schema,
        keys=np.array([[0, 0, 0, 0]]),
        probs=np.array([1.0]),
    )
    with pytest.raises(OracleError):
        brute_force_rational(joint, brier, ["d0"])


def test_deepfake_joint_shape():
    joint = make_deepfake_joint()
    assert len(joint.schema.signals) == 7
    assert joint.states.labels == ("genuine", "fake")
    assert len(joint.probs) == 256
    assert math.fsum(joint.probs) == pytest.approx(1.0, abs=1e-12)


def test_deepfake_ai_hits_target_accuracy():
    joint = make_deepfake_joint()
    problem = brier_problem(joint.states.labels)
    agents = make_deepfake_agents(joint, problem)
    ai = next(a for a in agents if a.role == "ai")
    assert _binarized_accuracy(joint, problem, ai) == pytest.approx(DEEPFAKE_AI_ACCURACY, abs=1e-9)


def test_deepfake_dataset_has_three_behavioral_columns():
    data, problem = make_deepfake_dataset(n_rows=200, seed=1)
    assert data.schema.decision_names == ("human", "ai", "human_ai")
    roles = [d.role for d in data.schema.decisions]
    assert roles == ["human", "ai", "human_ai"]
    assert data.n_rows == 200
    assert {name for name, _, _ in DEEPFAKE_SIGNALS} == set(data.schema.signal_names)



def _xor_agents(*agents):
    return lambda: with_population_agents(make_xor_joint(), xor_problem(), agents)


@pytest.mark.parametrize("make, error, message", [
    (lambda: SyntheticAgentSpec("a", ("s1",), noise=-0.1), ValueError, r"noise must lie in \[0, 1\]"),
    (lambda: SyntheticAgentSpec("a", ("s1",), noise=1.5), ValueError, r"noise must lie in \[0, 1\]"),
    (lambda: SyntheticAgentSpec("a", ("s1",), rule="median"), ValueError, "rule must be one of"),
    (_xor_agents(SyntheticAgentSpec("s2", ("s1",))), SchemaError, "agent name 's2' collides with an existing variable"),
    (_xor_agents(SyntheticAgentSpec("a", ("s1",)), SyntheticAgentSpec("a", ("s2",))), SchemaError,
     "agent name 'a' collides"),
    (lambda: with_population_agents(estimate_joint(generate_dataset(make_xor_joint(), xor_problem(), n_rows=8), 0.5),
                                    xor_problem(), ()), ValueError, "population agents require an unsmoothed joint"),
    # the XOR joint's 4 tuples times 101 grid points make 404 cells after one noisy agent, 40 804 after two
    (_xor_agents(SyntheticAgentSpec("a", ("s1",), noise=0.1)), None, None),
    (_xor_agents(SyntheticAgentSpec("a", ("s1",), noise=0.1), SyntheticAgentSpec("b", ("s2",), noise=0.1)),
     ProductSpaceError, "population joint with agents exceeds the cell limit"),
    (lambda: generate_dataset(make_xor_joint(), xor_problem(), n_rows=0), ValueError, "need at least one row"),
])
def test_synth_refuses_what_it_cannot_build(monkeypatch, make, error, message):
    monkeypatch.setattr(infogain.synth, "POPULATION_CELL_LIMIT", 404 * 101 - 1)
    if error is None:  # within the limit
        make()
        return
    with pytest.raises(error, match=message):
        make()
