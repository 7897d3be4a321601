"""Payoffs, gains and attributions on add-alpha smoothed joints.

Under smoothing every realization without an explicit tuple shares one
background state-weight row, and the production path only counts those
realizations.  These tests hold it to the rationality properties, to a dense
enumeration of every realization, and to hand-worked values.
"""

import itertools
import json
import math

import numpy as np
import pytest

from infogain.cli import main
from infogain.joint import Dataset, estimate_joint
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
from infogain.rational import _contributions, cross_fit_payoff, gain_value, information_gain, payoffs, rational_payoff
from infogain.shapley import shapley_exact
from infogain.synth import DEEPFAKE_SIGNALS, generate_dataset, make_xor_joint
from cases import random_joint, random_matrix_problem

ALPHAS = (0.0, 0.5)


def _subsets(names):
    for r in range(len(names) + 1):
        yield from itertools.combinations(names, r)


def dense_reference_payoff(joint, problem, variables):
    """R(V) from the dense state-weight table over every realization of V.

    Each cell is the exact sum of its tuples' counts plus the background
    weight of the product cells it covers; all rows then go through the same
    per-realization contribution, one exact sum and one division by the total.
    """
    cols = joint.columns(variables, allow_state=False)
    sizes = joint.domain_sizes
    shape = tuple(sizes[c] for c in cols)
    n_states = joint.states.size
    rest = math.prod(sizes) // (math.prod(shape) * n_states)
    mass = np.zeros((math.prod(shape), n_states))
    if cols:
        group = np.ravel_multi_index(tuple(joint.keys[:, c] for c in cols), shape)
    else:
        group = np.zeros(len(joint.probs), dtype=np.int64)
    np.add.at(mass, (group, joint.keys[:, 0]), joint.probs)
    mass += joint.background * rest
    return math.fsum(_contributions(mass.T, problem)) / joint.total


def _sampled(joint, problem, n_rows, seed):
    return generate_dataset(joint, problem, n_rows=n_rows, seed=seed)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_monotonicity_and_nonnegativity(alpha):
    rng = np.random.default_rng(31)
    for _ in range(10):
        problem = random_matrix_problem(rng)
        population = random_joint(rng, n_signals=int(rng.integers(1, 4)), domain_size=3)
        joint = estimate_joint(_sampled(population, problem, 40, int(rng.integers(1 << 30))), alpha)
        subsets = [frozenset(s) for s in _subsets(joint.schema.names)]
        table = dict(zip(subsets, payoffs(joint, problem, subsets)))
        for v1, v2 in itertools.product(subsets, repeat=2):
            if v1 <= v2:
                assert table[v1] <= table[v2] + 1e-12
            assert gain_value(lambda sets: [table[key] for key in sets], v1, v2).raw >= -1e-12


@pytest.mark.parametrize("alpha", ALPHAS)
def test_shapley_efficiency(alpha):
    rng = np.random.default_rng(32)
    for _ in range(8):
        problem = random_matrix_problem(rng)
        population = random_joint(rng, n_signals=3, domain_size=3)
        joint = estimate_joint(_sampled(population, problem, 60, int(rng.integers(1 << 30))), alpha)
        report = shapley_exact(joint, problem)
        full = information_gain(joint, problem, joint.schema.signal_names).value
        assert math.fsum(report.values) == pytest.approx(full, abs=1e-9)
        assert all(v >= -1e-9 for v in report.values)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_xor_complementation(alpha, brier):
    # every XOR cell 25 times: smoothing shrinks the pair's value but each bit
    # alone still leaves the state uniform
    xor = make_xor_joint()
    data = Dataset(xor.states, xor.schema, np.repeat(xor.keys, 25, axis=0))
    joint = estimate_joint(data, alpha)
    assert information_gain(joint, brier, ["s1"]).value == 0.0
    assert information_gain(joint, brier, ["s2"]).value == 0.0
    pair = information_gain(joint, brier, ["s1", "s2"]).value
    assert 0.2 < pair <= 0.25
    report = shapley_exact(joint, brier)
    assert report.values[0] == pytest.approx(report.values[1], abs=1e-12)
    assert math.fsum(report.values) == pytest.approx(pair, abs=1e-12)


def _decision_grid_dataset(n_states, n_signals, n_rows, seed):
    """Signals noisily copy the state; two decision columns report noisy guesses on the percent grid."""
    rng = np.random.default_rng(seed)
    grid = DecisionSpace.uniform_grid().points
    schema = SignalSchema(
        signals=tuple(BasicSignal(f"x{i}", ("0", "1")) for i in range(n_signals)),
        decisions=(DecisionColumn("h1", "human", grid), DecisionColumn("h2", "ai", grid)),
    )
    state = rng.integers(0, n_states, n_rows)
    cols = [state]
    for _ in range(n_signals):
        cols.append(np.where(rng.random(n_rows) < 0.7, state % 2, rng.integers(0, 2, n_rows)))
    for spread in (15, 40):
        guess = 100 * state // (n_states - 1) + rng.integers(-spread, spread + 1, n_rows)
        cols.append(np.clip(guess, 0, 100))
    labels = tuple(str(w) for w in range(n_states))
    return Dataset(StateSpace.of(labels), schema, np.stack(cols, axis=1))


@pytest.mark.parametrize("n_states,n_signals", [(2, 6), (3, 5)])
def test_sparse_payoff_equals_dense_enumeration_exactly(n_states, n_signals):
    data = _decision_grid_dataset(n_states, n_signals, n_rows=3000, seed=n_states)
    if n_states == 2:
        problem = brier_problem(("0", "1"))
    else:
        problem = DecisionProblem(
            states=data.states,
            decisions=DecisionSpace.categorical(("a", "b", "c", "abstain")),
            payoff=PayoffFunction.from_matrix(
                [[1.0, -0.5, -0.5], [-0.5, 1.0, -0.5], [-0.5, -0.5, 1.0], [0.1, 0.1, 0.1]]
            ),
        )
    joint = estimate_joint(data, 0.3)
    assert 9e5 < joint.n_cells < 1.4e6
    signals = data.schema.signal_names
    for variables in [(), ("x0",), ("h1",), ("h1", "h2"), ("x0", "x1", "h2"), data.schema.names, signals]:
        assert rational_payoff(joint, problem, variables) == dense_reference_payoff(joint, problem, variables)


def test_all_signals_over_three_decision_columns_at_4k_rows(tmp_path, capsys):
    # 131 878 528 state-mass cells if every realization were listed
    synth = tmp_path / "synth"
    assert main(["synth", "--preset", "deepfake", "--rows", "4000", "--seed", "101", "--out-dir", str(synth)]) == 0
    out = tmp_path / "gain.json"
    signals = ",".join(name for name, _, _ in DEEPFAKE_SIGNALS)
    argv = ["gain", "--schema", str(synth / "schema.json"), "--data", str(synth / "data.csv"),
            "--alpha", "0.01", "--v1", signals, "--ground", "human,ai,human_ai", "--out", str(out)]
    assert main(argv) == 0, capsys.readouterr().err
    value = json.loads(out.read_text(encoding="utf-8"))["value"]
    assert math.isfinite(value) and 0.0 <= value <= 1.0


def test_smoothed_cross_fit_sends_unseen_realizations_to_background_action():
    # identity payoff for guessing the state, plus an abstain action worth 0.55
    problem = DecisionProblem(
        states=StateSpace.of(("0", "1")),
        decisions=DecisionSpace.categorical(("guess0", "guess1", "abstain")),
        payoff=PayoffFunction.from_matrix([[1.0, 0.0], [0.0, 1.0], [0.55, 0.55]]),
    )
    schema = SignalSchema(signals=(BasicSignal("x", ("0", "1", "2")),))
    # rows alternate folds by index; x=2 is only in fold 0 and x=1 only in fold 1
    rows = [(1, 0), (1, 0), (1, 0), (1, 0), (0, 2), (0, 1)]
    data = Dataset(problem.states, schema, np.array(rows, dtype=np.int64))
    # Each training fold has 3 rows over 6 cells, so with alpha 0.5 every cell
    # weight is over 6.  Within it x=0 has state masses (0.5, 2.5)/6, giving
    # guess1.  The unseen value has the background row (0.5, 0.5)/6, giving
    # abstain; the fold's prior (2.5, 3.5)/6 would give guess1 instead.  The
    # four x=0 test rows score 1 each and the two unseen rows (state 0)
    # score 0.55 each.
    assert cross_fit_payoff(data, problem, ["x"], smoothing=0.5) == pytest.approx(5.1 / 6, abs=1e-12)
    # unsmoothed, the unseen rows fall back to the prior action guess1 and score 0
    assert cross_fit_payoff(data, problem, ["x"]) == pytest.approx(4.0 / 6, abs=1e-12)
