import collections
import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import infogain.rational
from infogain.bootstrap import BootstrapSpec, GainStat, bootstrap_run
from infogain.errors import EstimationError, SchemaError
from infogain.joint import (
    CODE_LIMIT,
    Dataset,
    JointDistribution,
    encode,
    estimate_joint,
)
from infogain.model import BasicSignal, SignalSchema, StateSpace, brier_problem
from infogain.rational import (
    _contributions,
    _lattice,
    cross_fit_gain,
    family_payoffs,
    information_gain,
    rational_payoff,
    state_mass,
)
from infogain.synth import make_deepfake_dataset
from cases import random_joint, random_matrix_problem
from marginals import marginal, posterior, support

BINARY = SignalSchema(signals=(BasicSignal("x", ("0", "1")),))


def _dataset(rows, schema=BINARY, n_states=2):
    return Dataset(StateSpace.of([str(i) for i in range(n_states)]), schema, np.array(rows, dtype=np.int64))


def test_estimate_four_distinct_rows():
    data = _dataset([[0, 0], [0, 1], [1, 0], [1, 1]])
    joint = estimate_joint(data)
    assert np.allclose(joint.probs / joint.total, 0.25)
    assert joint.keys.shape == (4, 2)


def test_estimate_two_identical_rows():
    joint = estimate_joint(_dataset([[1, 0], [1, 0]]))
    assert joint.keys.shape == (1, 2)
    assert joint.probs[0] / joint.total == 1.0


def test_estimate_with_add_one_smoothing():
    joint = estimate_joint(_dataset([[0, 0], [1, 1]]), smoothing=1.0)
    table = marginal(joint, ["state", "x"])
    assert table[(0, 0)] == pytest.approx(2 / 6, abs=1e-15)
    assert table[(1, 1)] == pytest.approx(2 / 6, abs=1e-15)
    assert table[(0, 1)] == pytest.approx(1 / 6, abs=1e-15)
    assert table[(1, 0)] == pytest.approx(1 / 6, abs=1e-15)


def test_estimate_rejects_negative_smoothing():
    with pytest.raises(ValueError):
        estimate_joint(_dataset([[0, 0]]), smoothing=-0.5)


@pytest.mark.parametrize("smoothing", [float("nan"), float("inf"), float("-inf")])
def test_estimate_rejects_non_finite_smoothing(smoothing):
    with pytest.raises(ValueError, match="finite non-negative"):
        estimate_joint(_dataset([[0, 0]]), smoothing=smoothing)


def test_dataset_must_be_nonempty():
    with pytest.raises(ValueError):
        _dataset(np.zeros((0, 2), dtype=np.int64))


@pytest.mark.parametrize("rows, message", [
    ([[0, 0, 0]], "rows must have shape (n, 2)"),
    ([0, 1], "rows must have shape (n, 2)"),
    ([[-1, 0]], "rows hold an index out of domain range"),
], ids=["shape", "one-dimensional", "negative"])
def test_dataset_refuses_a_malformed_row_table(rows, message):
    with pytest.raises(ValueError) as caught:
        _dataset(rows)
    assert str(caught.value) == message


def _joint(keys, probs, background=0.0):
    return JointDistribution(StateSpace.of(("0", "1")), BINARY, np.array(keys), np.array(probs), background)


@pytest.mark.parametrize("keys, probs, background, message", [
    ([[0, 0, 0]], [1.0], 0.0, "keys must have shape (n, 2)"),
    ([[0, 2]], [1.0], 0.0, "keys hold an index out of domain range"),
    ([[-1, 0]], [1.0], 0.0, "keys hold an index out of domain range"),
    ([[0, 0], [1, 1]], [1.0], 0.0, "probs must align with keys"),
    ([[0, 0], [1, 1]], [1.5, -0.5], 0.0, "weights must be non-negative"),
    ([[0, 0]], [1.0], -0.0625, "weights must be non-negative"),
], ids=["shape", "above", "negative", "misaligned", "negative-weight", "negative-background"])
def test_joint_refuses_a_malformed_table(keys, probs, background, message):
    with pytest.raises(ValueError) as caught:
        _joint(keys, probs, background)
    assert str(caught.value) == message


def test_a_valid_table_is_stored_read_only_in_the_narrowest_unsigned_type():
    data = Dataset(StateSpace.of(("0", "1")), BINARY, np.array([[1, 0]], dtype=np.int8))
    joint = _joint([[1, 0]], [1.0])
    for table in (data.rows, joint.keys, joint.probs):
        assert not table.flags.writeable and table.flags.c_contiguous
    assert data.rows.dtype == joint.keys.dtype == np.uint8
    for values, dtype in ((256, np.uint8), (257, np.uint16)):
        wide = SignalSchema(signals=(BasicSignal("x", tuple(map(str, range(values)))),))
        table = np.asfortranarray([[1, values - 1], [0, 0]])
        data = Dataset(StateSpace.of(("0", "1")), wide, table)
        joint = JointDistribution(StateSpace.of(("0", "1")), wide, table, np.array([0.5, 0.5]))
        for stored in (data.rows, joint.keys):
            assert stored.dtype == dtype and stored.tolist() == table.tolist()
            assert not stored.flags.writeable and stored.flags.c_contiguous
    # the range check reads the input's own values: an int8 -1 is refused, not stored as 255
    wide = SignalSchema(signals=(BasicSignal("x", tuple(map(str, range(256)))),))
    with pytest.raises(ValueError, match="rows hold an index out of domain range"):
        Dataset(StateSpace.of(("0", "1")), wide, np.array([[0, -1]], dtype=np.int8))
    with pytest.raises(ValueError, match="keys hold an index out of domain range"):
        JointDistribution(StateSpace.of(("0", "1")), wide, np.array([[0, -1]], dtype=np.int8), np.ones(1))


def test_dataset_rejects_out_of_domain_indices():
    with pytest.raises(ValueError):
        _dataset([[0, 2]])


def test_marginal_over_nothing_is_total_mass(xor_joint):
    assert marginal(xor_joint, []) == {(): 1.0}


def test_marginal_over_one_xor_bit(xor_joint):
    assert marginal(xor_joint, ["s1"]) == {(0,): 0.5, (1,): 0.5}


def test_marginal_over_all_variables_is_the_joint(xor_joint):
    table = marginal(xor_joint, ["state", "s1", "s2"])
    expect = {tuple(int(v) for v in k): float(p) for k, p in zip(xor_joint.keys, xor_joint.probs)}
    assert table == expect


def test_marginal_unknown_variable(xor_joint):
    with pytest.raises(SchemaError):
        marginal(xor_joint, ["nope"])


def test_posterior_one_bit_uninformative(xor_joint):
    assert posterior(xor_joint, {"s1": 0}).tolist() == [0.5, 0.5]


def test_posterior_both_bits_decisive(xor_joint):
    assert posterior(xor_joint, {"s1": 0, "s2": 1}).tolist() == [0.0, 1.0]


def test_posterior_empty_assignment_is_prior(xor_joint):
    assert posterior(xor_joint, {}).tolist() == [0.5, 0.5]


def test_posterior_zero_probability_assignment():
    joint = estimate_joint(_dataset([[0, 0]]))
    # no tuple holds x = 1, and there is no background weight
    assert posterior(joint, {"x": 1}) is None


def test_support_order_and_mass(xor_joint):
    entries = support(xor_joint, ["s1", "s2"])
    assert [real for real, _ in entries] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert all(p == 0.25 for _, p in entries)


def test_support_empty_vars(xor_joint):
    assert support(xor_joint, []) == [((), 1.0)]


def test_support_single_point():
    joint = estimate_joint(_dataset([[1, 0], [1, 0]]))
    assert support(joint, ["state", "x"]) == [((1, 0), 1.0)]


def _huge_decision_schema():
    from infogain.model import DecisionColumn

    return SignalSchema(
        signals=(),
        decisions=tuple(
            DecisionColumn(f"d{i}", "other", tuple(str(v) for v in range(101))) for i in range(10)
        ),
    )


def test_huge_sparse_spaces_group_any_subset():
    # 2 * 101**10 cells: past 2**62, so the full encoding ranks partial codes
    schema = _huge_decision_schema()
    joint = JointDistribution(
        states=StateSpace.of(("0", "1")),
        schema=schema,
        keys=np.zeros((1, 11), dtype=np.int64),
        probs=np.array([1.0]),
    )
    names = [f"d{i}" for i in range(10)]
    assert marginal(joint, ["d0"]) == {(0,): 1.0}
    assert marginal(joint, names) == {(0,) * 10: 1.0}
    # one row over the whole space smoothed with alpha 1: weights are counts
    # plus 1 per cell, and the 101**10 - 1 unseen realizations are only counted
    n_cells = 2 * 101**10
    smoothed = JointDistribution(
        states=joint.states, schema=schema, keys=joint.keys, probs=np.array([1.0]), background=1.0, total=1.0 + n_cells
    )
    reals, mass, absent, background_row = state_mass(smoothed, names)
    assert reals.tolist() == [[0] * 10] and mass.tolist() == [[2.0, 1.0]]
    assert absent == 101**10 - 1 and background_row.tolist() == [1.0, 1.0]
    assert rational_payoff(smoothed, brier_problem(), names) == pytest.approx(0.75, abs=1e-12)


def test_huge_space_rejects_duplicate_keys():
    keys = np.zeros((2, 11), dtype=np.int64)
    keys[:, 10] = 100
    with pytest.raises(ValueError, match="distinct"):
        JointDistribution(
            states=StateSpace.of(("0", "1")),
            schema=_huge_decision_schema(),
            keys=keys,
            probs=np.array([0.5, 0.5]),
        )


def test_mass_invariant_rejects_bad_total():
    with pytest.raises(ValueError):
        JointDistribution(
            states=StateSpace.of(("0", "1")),
            schema=BINARY,
            keys=np.array([[0, 0]]),
            probs=np.array([0.5]),
        )


def test_mass_invariant_of_a_background_past_the_float_range_is_a_value_error():
    # 1 100 binary signals make 2^1101 cells: the background's weight over
    # them overflows a float, and the check names the total and the cell count
    schema = SignalSchema(signals=tuple(BasicSignal(f"s{i}", ("0", "1")) for i in range(1100)))
    with pytest.raises(ValueError, match=r"total weight inf over ~10\^331 cells differs from total 1\.0 "):
        JointDistribution(
            states=StateSpace.of(("0", "1")),
            schema=schema,
            keys=np.zeros((1, 1101), dtype=np.int64),
            probs=np.array([1.0]),
            background=0.1,
        )


def _subsets(names):
    for r in range(len(names) + 1):
        yield from itertools.combinations(names, r)


def _all_var_subsets(joint):
    return _subsets(joint.variables)


@pytest.mark.parametrize("smoothing", [0.0, 0.7])
def test_support_sums_to_one_for_every_subset(smoothing):
    data = _dataset([[0, 0], [0, 1], [1, 1], [1, 1], [0, 0]])
    joint = estimate_joint(data, smoothing)
    for vars_ in _all_var_subsets(joint):
        total = math.fsum(p for _, p in support(joint, vars_))
        assert abs(total - 1.0) <= 1e-12


def test_posterior_over_support_reconstructs_marginal(xor_joint):
    vars_ = ["s1", "s2"]
    rebuilt = {}
    for real, p in support(xor_joint, vars_):
        post = posterior(xor_joint, dict(zip(vars_, real)))
        for w, q in enumerate(post):
            if q > 0:
                rebuilt[(w,) + real] = p * q
    table = {k: v for k, v in marginal(xor_joint, ["state"] + vars_).items() if v > 0}
    assert set(rebuilt) == set(table)
    for key in table:
        assert rebuilt[key] == pytest.approx(table[key], abs=1e-12)


@st.composite
def small_datasets(draw):
    n_signals = draw(st.integers(1, 3))
    sizes = [draw(st.integers(2, 3)) for _ in range(n_signals)]
    schema = SignalSchema(
        signals=tuple(BasicSignal(f"x{i}", tuple(str(v) for v in range(k))) for i, k in enumerate(sizes))
    )
    n_rows = draw(st.integers(1, 30))
    rows = [
        [draw(st.integers(0, 1))] + [draw(st.integers(0, k - 1)) for k in sizes]
        for _ in range(n_rows)
    ]
    return Dataset(StateSpace.of(("0", "1")), schema, np.array(rows, dtype=np.int64))


@given(small_datasets())
def test_plugin_marginal_matches_brute_force_counts(data):
    joint = estimate_joint(data)
    for col, name in enumerate(joint.variables):
        counts = np.bincount(data.rows[:, col], minlength=joint.domain_sizes[col])
        expected = counts / data.n_rows
        table = marginal(joint, [name])
        for v, freq in enumerate(expected):
            assert table.get((v,), 0.0) == pytest.approx(freq, abs=1e-12)


@given(small_datasets(), st.floats(0.0, 2.0))
def test_total_mass_is_one(data, smoothing):
    joint = estimate_joint(data, smoothing)
    mass = math.fsum(joint.probs) + joint.background * joint.n_cells
    assert abs(mass / joint.total - 1.0) <= 1e-12


@st.composite
def code_tables(draw, size=st.one_of(st.integers(1, 4), st.integers(1, 2**40))):
    """Tables with repeated rows; wide domains push the product past CODE_LIMIT."""
    sizes = draw(st.lists(size, min_size=0, max_size=8))
    pool = draw(st.lists(st.tuples(*(st.integers(0, k - 1) for k in sizes)), min_size=1, max_size=6))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=0, max_size=25))
    table = np.array([pool[i] for i in picks], dtype=np.int64).reshape(len(picks), len(sizes))
    return table, sizes


@given(code_tables())
@example((np.zeros((0, 3), dtype=np.int64), [2**40] * 3))  # no rows, and a product past 2**63
def test_encode_orders_like_lexsort_and_separates_distinct_rows(case):
    table, sizes = case
    codes = encode(table, sizes)
    assert codes.dtype == np.int64 and codes.shape == (table.shape[0],)
    order = np.lexsort(table.T[::-1]) if sizes else np.arange(table.shape[0])  # no columns: all rows tie
    assert np.array_equal(np.argsort(codes, kind="stable"), order)
    same_code = codes[:, None] == codes[None, :]
    same_row = (table[:, None, :] == table[None, :, :]).all(axis=2)
    assert np.array_equal(same_code, same_row)
    if math.prod(sizes) <= CODE_LIMIT:
        radix = [math.prod(sizes[j + 1 :]) for j in range(len(sizes))]
        assert codes.tolist() == [sum(int(v) * r for v, r in zip(row, radix)) for row in table]


def test_encode_ranks_past_the_code_limit():
    sizes = [2**40, 2**40, 3]
    table = np.array([[2**40 - 1, 5, 2], [0, 2**40 - 1, 0], [2**40 - 1, 5, 1], [0, 2**40 - 1, 0]])
    # 2**80 passes the limit: the first column becomes its rank (1, 0, 1, 0)
    # before the second folds in; then 2**41 * 3 fits again
    assert encode(table, sizes).tolist() == [
        (2**40 + 5) * 3 + 2, (2**40 - 1) * 3, (2**40 + 5) * 3 + 1, (2**40 - 1) * 3
    ]


# domain sizes around the 8- and 16-bit edges; eight columns of 256 values, or four of 2**16, pass CODE_LIMIT
@given(code_tables(st.sampled_from([1, 2, 3, 127, 128, 129, 255, 256, 257, 2**16, 2**16 + 1])))
@example((np.array([[255] * 8, [0] * 8, [255] * 7 + [1]]), [256] * 8))
def test_encode_gives_the_same_codes_on_every_integer_type_that_holds_the_table(case):
    table, sizes = case
    codes = encode(table, sizes)
    largest = max(sizes, default=1) - 1
    for dtype in (np.int8, np.uint8, np.int16, np.uint16, np.int32, np.uint32, np.uint64):
        if np.iinfo(dtype).max >= largest:
            narrow = encode(table.astype(dtype), sizes)
            assert narrow.dtype == np.int64 and narrow.tolist() == codes.tolist(), dtype


@given(small_datasets(), st.sampled_from([0.0, 0.5]))
def test_estimate_joint_matches_row_unique_reference(data, smoothing):
    keys, counts = np.unique(data.rows, axis=0, return_counts=True)
    joint = estimate_joint(data, smoothing)
    assert np.array_equal(joint.keys, keys)
    assert np.array_equal(joint.probs, counts)
    assert joint.background == smoothing
    assert joint.total == data.n_rows + smoothing * joint.n_cells


@st.composite
def counted_datasets(draw):
    """Datasets with repeated rows, over a few small signals or over the huge decision
    schema, whose 2 * 101**10 cells pass CODE_LIMIT, so that ``encode`` ranks."""
    if draw(st.booleans()):
        schema = _huge_decision_schema()
    else:
        sizes = draw(st.lists(st.integers(2, 3), min_size=1, max_size=3))
        schema = SignalSchema(
            signals=tuple(BasicSignal(f"x{i}", tuple(str(v) for v in range(k))) for i, k in enumerate(sizes))
        )
    sizes = (2,) + schema.domain_sizes()
    pool = draw(st.lists(st.tuples(*(st.integers(0, k - 1) for k in sizes)), min_size=1, max_size=6))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=25))
    return Dataset(StateSpace.of(("0", "1")), schema, np.array([pool[i] for i in picks], dtype=np.int64))


@given(counted_datasets())
@example(Dataset(StateSpace.of(("0", "1")), _huge_decision_schema(), np.array([[1] + [100] * 10])))
@example(Dataset(StateSpace.of(("0", "1")), BINARY, np.array([[1, 0]])))
def test_estimate_joint_counts_each_distinct_row(data):
    counts = collections.Counter(map(tuple, data.rows.tolist()))
    joint = estimate_joint(data)
    assert joint.keys.tolist() == [list(row) for row in sorted(counts)]
    assert joint.probs.tolist() == [counts[row] for row in sorted(counts)]
    assert joint.total == sum(counts.values()) == data.n_rows


def _reference_posterior(joint, assignment):
    """Mask-and-count posterior: the counts of the explicit tuples that match
    the assignment, summed per state, plus the background weight of every
    matching cell."""
    cols = joint.columns(assignment.keys())
    values = np.array([assignment[joint.variables[c]] for c in cols], dtype=np.int64)
    mask = (joint.keys[:, list(cols)] == values).all(axis=1)
    mass = np.zeros(joint.states.size)
    np.add.at(mass, joint.keys[mask, 0], joint.probs[mask])
    rest = math.prod(s for c, s in enumerate(joint.domain_sizes) if c != 0 and c not in cols)
    mass += joint.background * rest
    return mass / mass.sum() if mass.sum() > 0 else None


@pytest.mark.parametrize("smoothing", [0.0, 0.5])
@given(data=small_datasets())
def test_posterior_matches_mask_and_count_reference(smoothing, data):
    joint = estimate_joint(data, smoothing)
    names = joint.schema.names
    for r in range(len(names) + 1):
        for vars_ in itertools.combinations(names, r):
            sizes = [joint.domain_sizes[1 + joint.schema.position(v)] for v in vars_]
            for real in itertools.product(*(range(k) for k in sizes)):
                assignment = dict(zip(vars_, real))
                expect = _reference_posterior(joint, assignment)
                if expect is None:
                    assert posterior(joint, assignment) is None
                else:
                    # an exact count sum plus the background weight: equal in every order
                    assert posterior(joint, assignment).tolist() == expect.tolist()


@st.composite
def count_datasets(draw):
    """Datasets over 2 or 3 states whose row counts make probability sums round."""
    n_states = draw(st.integers(2, 3))
    sizes = [draw(st.integers(2, 3)) for _ in range(draw(st.integers(1, 3)))]
    schema = SignalSchema(
        signals=tuple(BasicSignal(f"x{i}", tuple(str(v) for v in range(k))) for i, k in enumerate(sizes))
    )
    n_rows = draw(st.integers(1, 60))
    rows = [[draw(st.integers(0, n_states - 1))] + [draw(st.integers(0, k - 1)) for k in sizes] for _ in range(n_rows)]
    return Dataset(StateSpace.of([str(w) for w in range(n_states)]), schema, np.array(rows, dtype=np.int64))


def _problem(n_states):
    if n_states == 2:
        return brier_problem(("0", "1"))
    return random_matrix_problem(np.random.default_rng(0), n_states=n_states, n_decisions=4)


def _permuted(joint, order):
    return JointDistribution(joint.states, joint.schema, joint.keys[order], joint.probs[order], joint.background,
                             joint.state_name, joint.total)


@pytest.mark.parametrize("alpha", [0.0, 0.3])
@given(data=count_datasets(), draw=st.data())
def test_permuting_the_tuples_changes_no_mass_and_no_payoff(alpha, data, draw):
    joint = estimate_joint(data, alpha)
    permuted = _permuted(joint, draw.draw(st.permutations(range(len(joint.keys)))))
    problem = _problem(joint.states.size)
    for names in _subsets(joint.schema.names):
        (reals, mass, absent, bg), (p_reals, p_mass, p_absent, p_bg) = state_mass(joint, names), state_mass(permuted, names)
        assert np.array_equal(reals, p_reals) and absent == p_absent
        assert mass.tobytes() == p_mass.tobytes() and bg.tobytes() == p_bg.tobytes()
        assert rational_payoff(joint, problem, names).hex() == rational_payoff(permuted, problem, names).hex()


@pytest.mark.parametrize("alpha", [0.0, 0.3])
def test_permuting_the_deepfake_tuples_changes_no_mass_and_no_payoff(alpha):
    data, problem = make_deepfake_dataset(n_rows=4000, seed=101)
    joint = estimate_joint(data, alpha)
    permuted = _permuted(joint, np.random.default_rng(1).permutation(len(joint.keys)))
    signals = data.schema.signal_names
    sets = [signals[:k] for k in range(len(signals) + 1)] + [(d,) for d in data.schema.decision_names]
    sets += [signals + data.schema.decision_names[:k] for k in range(1, 4)]
    for names in sets:
        assert state_mass(joint, names)[1].tobytes() == state_mass(permuted, names)[1].tobytes(), names
        assert rational_payoff(joint, problem, names).hex() == rational_payoff(permuted, problem, names).hex(), names


@pytest.mark.parametrize("alpha", [0.0, 0.3])
@given(data=count_datasets())
def test_masses_are_exact_count_sums_and_payoffs_one_division(alpha, data):
    joint = estimate_joint(data, alpha)
    problem = _problem(joint.states.size)
    sizes = joint.domain_sizes
    for names in _subsets(joint.schema.names):
        cols = list(joint.columns(names))
        counts = collections.Counter((tuple(row[cols].tolist()), int(row[0])) for row in data.rows)
        seen = sorted({real for real, _ in counts})
        rest = math.prod(sizes[1:]) // math.prod(sizes[c] for c in cols)
        reals, mass, absent, background_row = state_mass(joint, names)
        assert [tuple(r) for r in reals.tolist()] == seen
        assert absent == (math.prod(sizes[c] for c in cols) - len(seen) if alpha else 0)
        expect = [[counts[real, w] + alpha * rest for w in range(sizes[0])] for real in seen]
        assert mass.tolist() == expect and background_row.tolist() == [alpha * rest] * sizes[0]
        terms = _contributions(np.vstack([mass] + [background_row] * absent).T, problem).tolist()
        assert rational_payoff(joint, problem, names) == math.fsum(terms) / joint.total


def _family(draw, names, n_weights):
    """A random family of variable sets, nesting or not, each read by its own list of weight rows."""
    sets = draw.draw(st.lists(st.sampled_from(list(_subsets(names))), min_size=1, unique=True))
    rows = st.lists(st.integers(0, n_weights - 1), min_size=1, max_size=n_weights, unique=True)
    return {frozenset(subset): tuple(draw.draw(rows)) for subset in sets}


def _groups(joint, index):
    """The (G, len(cols)) values of the groups of ``index``, in order, read from their member tuples."""
    return joint.keys[index.member][:, list(index.cols)]


def _keys_table(joint, cols, weights):
    """The distinct values of the key columns ``cols``, in lexicographic order, and each weight row's (G, |states|)
    sums over them, from numpy's row ``unique``: no code shared with ``group_index``."""
    reals, inverse = np.unique(joint.keys[:, list(cols)], axis=0, return_inverse=True)
    width = joint.states.size
    cells = inverse.ravel() * width + joint.keys[:, 0]
    counts = [np.bincount(cells, weights=row, minlength=len(reals) * width) for row in weights]
    return reals, np.reshape(counts, (len(weights), len(reals), width))


@pytest.mark.parametrize("alpha", [0.0, 0.3])
@given(data=count_datasets(), draw=st.data())
def test_lattice_tables_are_the_tables_grouped_from_the_keys(alpha, data, draw):
    # a table derived from a parent's counts sums the same integers as one
    # grouped from the keys, so it is the same table bit for bit
    joint = estimate_joint(data, alpha)
    problem = _problem(joint.states.size)
    n_weights = draw.draw(st.integers(1, 4))
    rng = np.random.default_rng(draw.draw(st.integers(0, 2**32 - 1)))
    weights = rng.multinomial(data.n_rows, np.full(len(joint.keys), 1.0 / len(joint.keys)), size=n_weights) * 1.0
    family = _family(draw, joint.schema.names, n_weights)
    seen = []
    for key, index, counts in _lattice(joint, family, weights):
        keys_reals, keys_counts = _keys_table(joint, index.cols, weights[list(family[key])])
        assert index.cols == joint.columns(key) and np.array_equal(_groups(joint, index), keys_reals)
        assert counts.shape == (len(family[key]), joint.states.size, index.size)
        assert np.ascontiguousarray(counts.transpose(0, 2, 1)).tobytes() == keys_counts.tobytes()
        seen.append(key)
    assert len(seen) == len(family) and set(seen) == set(family)
    payoffs = family_payoffs(joint, problem, family, weights)
    own = [dataclasses.replace(joint, probs=row) for row in weights]  # each row's own joint
    for key, rows in family.items():
        assert [v.hex() for v in payoffs[key]] == [rational_payoff(own[r], problem, key).hex() for r in rows]


@given(draw=st.data())
def test_lattice_tables_of_a_population_joint_agree_within_the_regrouping_tolerance(draw):
    # Float weights: a derived cell sums the same non-negative weights as the
    # keys' cell, in another order.  Each order is within (n - 1) * 2**-53 of
    # the exact sum of its n <= K terms, relatively, so the two cells agree
    # within K * 2**-52 of the keys' cell.  A contribution is a maximum of
    # linear functions of its row, so the payoffs (mass 1 in all) agree within
    # max|S| times that, plus a few roundings of each contribution.
    rng = np.random.default_rng(draw.draw(st.integers(0, 2**32 - 1)))
    n_states = draw.draw(st.integers(2, 3))
    joint = random_joint(rng, n_signals=draw.draw(st.integers(1, 3)), n_states=n_states,
                         domain_size=draw.draw(st.integers(2, 3)), n_decision_columns=draw.draw(st.integers(0, 1)))
    problem = _problem(n_states)
    relative = len(joint.keys) * 2.0**-52
    family = _family(draw, joint.schema.names, 1)
    for key, index, counts in _lattice(joint, family, joint.probs[None]):
        keys_reals, keys_counts = _keys_table(joint, index.cols, joint.probs[None])
        counts = counts.transpose(0, 2, 1)
        assert np.array_equal(_groups(joint, index), keys_reals)
        assert (np.abs(counts - keys_counts) <= relative * keys_counts).all()
    tolerance = np.abs(problem.payoff_matrix).max() * (relative + 16 * 2.0**-52)
    payoffs = family_payoffs(joint, problem, family)
    for key in family:
        assert abs(payoffs[key][0] - rational_payoff(joint, problem, key)) <= tolerance


def test_a_set_under_a_parent_past_the_code_limit_is_grouped_from_its_parent(monkeypatch):
    # 63 binary signals make 2^63 codes, past CODE_LIMIT, so their codes are
    # ranks, not mixed-radix digits; the set of the first 62 is still grouped
    # from their groups, by the member tuples' values
    names = tuple(f"x{i}" for i in range(63))
    rows = np.random.default_rng(1).integers(0, 2, size=(40, 64))
    data = _dataset(rows, SignalSchema(signals=tuple(BasicSignal(name, ("0", "1")) for name in names)))
    joint = estimate_joint(data)
    problem = _problem(joint.states.size)
    weights = np.random.default_rng(2).multinomial(40, np.full(len(joint.keys), 1.0 / len(joint.keys)), size=2) * 1.0
    family = {frozenset(names): (0, 1), frozenset(names[:-1]): (0, 1), frozenset(names[:-2]): (0, 1)}
    parents = {}  # the columns of the index each set is grouped from, None for the keys
    group_index = infogain.rational.group_index

    def recording(joint, cols, parent):
        parents[len(cols)] = None if parent is None else parent.cols
        return group_index(joint, cols, parent)

    monkeypatch.setattr(infogain.rational, "group_index", recording)
    for key, index, counts in _lattice(joint, family, weights):
        keys_reals, keys_counts = _keys_table(joint, index.cols, weights)
        assert np.array_equal(_groups(joint, index), keys_reals)
        assert np.ascontiguousarray(counts.transpose(0, 2, 1)).tobytes() == keys_counts.tobytes()
    assert parents == {63: None, 62: joint.columns(names), 61: joint.columns(names[:-1])}
    payoffs = family_payoffs(joint, problem, family, weights)
    for key in family:
        assert [v.hex() for v in payoffs[key]] == [
            rational_payoff(dataclasses.replace(joint, probs=row), problem, key).hex() for row in weights]


def test_unsmoothed_joint_over_more_cells_than_a_float_counts():
    # 1 100 binary signals make 2^1101 cells: past the float range, yet
    # without smoothing no mass depends on the cell count, so every result
    # equals that on the columns it reads alone
    names = tuple(f"s{i}" for i in range(1100))
    rows = np.random.default_rng(0).integers(0, 2, size=(50, 1 + len(names)))
    wide = _dataset(rows, SignalSchema(signals=tuple(BasicSignal(name, ("0", "1")) for name in names)))
    read = ("s0", "s1", "s2")
    narrow = _dataset(rows[:, :4], SignalSchema(signals=tuple(BasicSignal(name, ("0", "1")) for name in read)))
    problem = brier_problem(wide.states.labels)
    spec = BootstrapSpec(replicates=2, seed=3, statistics=(GainStat(v1=("s0", "s1"), ground=("s2",)),))
    results = [
        (information_gain(estimate_joint(data), problem, ("s0", "s1"), ("s2",)),
         cross_fit_gain(data, problem, ("s0",), ("s1", "s2")),
         bootstrap_run(data, problem, spec).statistics[0].samples)
        for data in (wide, narrow)
    ]
    assert estimate_joint(wide).total == 50.0
    assert results[0] == results[1]
    with pytest.raises(EstimationError, match=r"smoothing alpha=0.5 over ~10\^331 cells overflows"):
        estimate_joint(wide, 0.5)
