import math

import numpy as np
import pytest

from infogain.bootstrap import BootstrapSpec, GainStat, ShapleyStat, bootstrap_run
from infogain.joint import Dataset, estimate_joint
from infogain.model import BasicSignal, SignalSchema, StateSpace
from infogain.rational import information_gain
from infogain.synth import SyntheticAgentSpec, generate_dataset, make_xor_joint, xor_problem


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
