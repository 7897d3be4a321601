from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from infogain.model import (
    BasicSignal,
    DecisionColumn,
    DecisionProblem,
    DecisionSpace,
    PayoffFunction,
    SignalSchema,
    StateSpace,
    brier_problem,
    payoff,
    validate_problem,
    validate_schema,
)

UMBRELLA = DecisionProblem(
    states=StateSpace.of(("no_rain", "rain")),
    decisions=DecisionSpace.categorical(("no_umbrella", "take_umbrella")),
    payoff=PayoffFunction.from_matrix([[0.0, -100.0], [-50.0, 0.0]]),
)


def test_brier_payoff_certainty():
    problem = brier_problem()
    assert payoff(problem, 100, 1) == 1.0  # d = 1.00 against state 1


def test_brier_payoff_midpoint():
    problem = brier_problem()
    assert payoff(problem, 50, 0) == 0.75  # d = 0.5 against state 0


def test_umbrella_matrix_entry():
    assert payoff(UMBRELLA, 0, 1) == -100.0


@pytest.mark.parametrize("d,omega", [(-1, 0), (101, 0), (0, -1), (0, 2)])
def test_payoff_index_errors(d, omega):
    with pytest.raises(IndexError):
        payoff(brier_problem(), d, omega)


def test_payoff_is_pure():
    problem = brier_problem()
    values = [payoff(problem, 37, 1) for _ in range(3)]
    assert values[0] == values[1] == values[2]


def test_brier_payoff_within_unit_interval():
    problem = brier_problem()
    for d in range(problem.decisions.size):
        for w in range(2):
            assert 0.0 <= payoff(problem, d, w) <= 1.0


def test_validate_brier_needs_binary_state():
    problem = DecisionProblem(
        states=StateSpace.of(("a", "b", "c")),
        decisions=DecisionSpace.uniform_grid(),
        payoff=PayoffFunction.brier(),
    )
    codes = [d.code for d in validate_problem(problem)]
    assert "brier-requires-binary-state" in codes


def test_validate_wellformed_matrix_is_clean():
    assert validate_problem(UMBRELLA) == []


def test_validate_grid_not_strictly_increasing():
    problem = DecisionProblem(
        states=StateSpace.of(("0", "1")),
        decisions=DecisionSpace.numeric([0, 0, 1]),
        payoff=PayoffFunction.brier(),
    )
    codes = [d.code for d in validate_problem(problem)]
    assert "grid-not-strictly-increasing" in codes


def test_validate_matrix_dimension_mismatch():
    problem = DecisionProblem(
        states=StateSpace.of(("0", "1")),
        decisions=DecisionSpace.categorical(("x", "y")),
        payoff=PayoffFunction.from_matrix([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0]]),
    )
    codes = [d.code for d in validate_problem(problem)]
    assert "matrix-dimension-mismatch" in codes


def test_validate_grid_out_of_unit_range():
    problem = DecisionProblem(
        states=StateSpace.of(("0", "1")),
        decisions=DecisionSpace.numeric([0, Fraction(3, 2)]),
        payoff=PayoffFunction.brier(),
    )
    codes = [d.code for d in validate_problem(problem)]
    assert "grid-out-of-unit-range" in codes


def test_constant_signal_flagged_as_warning():
    schema = SignalSchema(signals=(BasicSignal("fixed", ("only",)), BasicSignal("x", ("0", "1"))))
    diags = validate_schema(schema)
    assert [d.code for d in diags] == ["signal-domain-constant"]
    assert diags[0].severity == "warning"


def test_duplicate_variable_name_is_error():
    schema = SignalSchema(
        signals=(BasicSignal("x", ("0", "1")),),
        decisions=(DecisionColumn("x", "human", ("0", "1")),),
    )
    assert "variable-name-duplicate" in [d.code for d in validate_schema(schema)]


def test_unknown_role_is_error():
    schema = SignalSchema(decisions=(DecisionColumn("d", "robot", ("0", "1")),), signals=())
    assert "decision-role-unknown" in [d.code for d in validate_schema(schema)]


def test_percent_grid_is_exact_hundredths():
    grid = DecisionSpace.uniform_grid()
    assert grid.size == 101
    assert grid.points[37] == Fraction(37, 100)
    assert grid.is_numeric


@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_nearest_index_is_true_nearest(value):
    grid = DecisionSpace.uniform_grid()
    idx = grid.nearest_index(value)
    dists = np.abs(grid.grid_floats - value)
    assert dists[idx] == dists.min()


def test_nearest_index_ties_resolve_low():
    grid = DecisionSpace.numeric([0, Fraction(1, 2), 1])
    assert grid.nearest_index(0.25) == 0
    assert grid.nearest_index(0.75) == 1
    assert grid.nearest_index(np.array([0.25, 0.75, 0.8])).tolist() == [0, 1, 2]
    single = DecisionSpace.numeric([Fraction(1, 2)])
    assert single.nearest_index(0.9) == 0
    assert single.nearest_index(np.array([0.0, 1.0])).tolist() == [0, 0]


@given(
    ends=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=2, unique=True),
    count=st.integers(2, 1001),
    data=st.data(),
)
def test_nearest_index_is_the_sorted_search_on_every_uniform_grid(ends, count, data):
    # the arithmetic rule of an equal-step grid against searchsorted itself:
    # on each midpoint, on the floats beside it, past both ends, and in a table
    start, stop = sorted(ends)
    grid = DecisionSpace.uniform_grid(start, stop, count)
    mids, points = grid._midpoints, grid.grid_floats
    outside = [points[0] - 1.0, np.nextafter(points[0], -np.inf), points[-1] + 1.0, np.nextafter(points[-1], np.inf),
               -np.inf, np.inf]
    values = np.concatenate([mids, np.nextafter(mids, -np.inf), np.nextafter(mids, np.inf), outside])
    assert grid.nearest_index(values).tolist() == np.searchsorted(mids, values, side="left").tolist()
    for value in values[:: max(1, len(values) // 20)]:
        assert grid.nearest_index(float(value)) == int(np.searchsorted(mids, value, side="left"))
    shape = (data.draw(st.integers(1, 4)), data.draw(st.integers(1, 30)))
    table = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).uniform(start - 0.1, stop + 0.1, size=shape)
    table.flat[: len(mids)] = mids[: table.size]
    assert np.array_equal(grid.nearest_index(table), np.searchsorted(mids, table, side="left"))


def test_nearest_index_finds_the_grid_point_by_arithmetic_where_the_steps_are_equal():
    assert DecisionSpace.uniform_grid()._step_rule is not None
    assert DecisionSpace.uniform_grid(Fraction(1, 5), Fraction(4, 5), 7)._step_rule is not None
    assert DecisionSpace.numeric([0, Fraction(1, 10), Fraction(1, 2), 1])._step_rule is None
    assert DecisionSpace.numeric([Fraction(1, 2)])._step_rule is None
    # steps far below the resolution of the floats near the grid: the sorted search
    assert DecisionSpace.uniform_grid(Fraction(3, 10), Fraction(3, 10) + Fraction(1, 10**15), 1001)._step_rule is None


def test_a_step_whose_inverse_passes_the_float_range_takes_the_sorted_search():
    # 1 / 1e-400 is past the float range: the rule has no scale, and the midpoints round to 0.0
    grid = DecisionSpace.numeric([0, Fraction("1e-400"), Fraction("2e-400")])
    assert grid._step_rule is None
    values = np.array([-1.0, -0.0, 0.0, 5e-324, 1e-300, 1.0, np.inf, -np.inf, np.nan])
    expected = np.searchsorted(grid._midpoints, values, side="left")
    assert grid.nearest_index(values).tolist() == expected.tolist()
    assert [grid.nearest_index(float(v)) for v in values] == expected.tolist()


@pytest.mark.parametrize("grid", [DecisionSpace.uniform_grid()] + [DecisionSpace.uniform_grid(0, 1, n) for n in (7, 13, 30)])
def test_nearest_index_sends_every_exact_midpoint_low_and_the_next_float_high(grid):
    mids = [float((a + b) / 2) for a, b in zip(grid.points, grid.points[1:])]
    assert [grid.nearest_index(m) for m in mids] == list(range(grid.size - 1))
    above = np.nextafter(np.array(mids), np.inf)
    assert grid.nearest_index(above).tolist() == list(range(1, grid.size))
