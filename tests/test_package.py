"""``import infogain`` is lazy: each check runs in a fresh interpreter that has only imported the package."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import infogain

PACKAGE_ROOT = str(Path(infogain.__file__).resolve().parents[1])


def _after_bare_import(code: str) -> None:
    env = dict(os.environ, PYTHONPATH=PACKAGE_ROOT)
    run = subprocess.run([sys.executable, "-c", "import sys\nimport infogain\n" + textwrap.dedent(code)], env=env,
                         capture_output=True, text=True, check=False)
    assert run.returncode == 0, run.stderr


def test_every_public_name_resolves_to_its_submodules_object():
    _after_bare_import("""
        assert "numpy" not in sys.modules and "infogain.rational" not in sys.modules
        assert len(set(infogain.__all__)) == len(infogain.__all__)
        for name in infogain.__all__:
            value = getattr(infogain, name)
            if name != "__version__":
                assert value is getattr(sys.modules["infogain." + infogain._EXPORTS[name]], name), name
    """)


def test_dir_lists_every_public_name():
    _after_bare_import("""
        missing = set(infogain.__all__) - set(dir(infogain))
        assert not missing, missing
    """)


def test_submodule_attribute_resolves():
    _after_bare_import("""
        payoffs = infogain.rational.payoffs
        from infogain.rational import payoffs as defined
        assert payoffs is defined
    """)


def test_unknown_name_raises_attribute_error_naming_it():
    _after_bare_import("""
        try:
            infogain.no_such_name
        except AttributeError as exc:
            assert "no_such_name" in str(exc), exc
        else:
            raise AssertionError("infogain.no_such_name resolved")
        assert not hasattr(infogain, "no.such.module")
    """)


def test_the_commands_load_neither_synth_nor_a_process_pool():
    # synth loads only for the synth command; bootstrap workers are forked
    # directly, so two of them load no multiprocessing either
    _after_bare_import("""
        import os
        import infogain.cli
        pool = {"multiprocessing", "concurrent.futures"}
        assert not (pool | {"infogain.synth"}) & set(sys.modules), sorted(sys.modules)
        import numpy as np
        from infogain import bootstrap
        from infogain.joint import Dataset
        from infogain.model import BasicSignal, SignalSchema, StateSpace, brier_problem
        schema = SignalSchema(signals=(BasicSignal("s1", ("0", "1")),))
        data = Dataset(StateSpace.of(("0", "1")), schema, np.array([(0, 0), (1, 1), (1, 0), (0, 1)]))
        bootstrap.usable_cpus, bootstrap.REPLICATE_CELLS = (lambda: 2), 1
        fork, forks = os.fork, []
        os.fork = lambda: forks.append(1) or fork()
        spec = bootstrap.BootstrapSpec(replicates=2, statistics=(bootstrap.GainStat(v1=("s1",)),))
        assert len(bootstrap.bootstrap_run(data, brier_problem(), spec).statistics[0].samples) == 2
        assert len(forks) == 2 and not pool & set(sys.modules), sorted(sys.modules)
    """)


def test_a_bootstrap_run_loads_no_numpy_ma():
    # np.quantile groups its indices with np.unique, which imports numpy.ma; the bootstrap's own
    # quantiles do not (numpy 1.x imports numpy.ma with numpy itself, so there it is loaded anyway)
    _after_bare_import("""
        import numpy as np
        eager = "numpy.ma" in sys.modules
        from infogain import bootstrap
        from infogain.joint import Dataset
        from infogain.model import BasicSignal, SignalSchema, StateSpace, brier_problem
        schema = SignalSchema(signals=(BasicSignal("s1", ("0", "1")),))
        data = Dataset(StateSpace.of(("0", "1")), schema, np.array([(0, 0), (1, 1), (1, 0), (0, 1)]))
        spec = bootstrap.BootstrapSpec(replicates=5, statistics=(bootstrap.GainStat(v1=("s1",)),))
        assert len(bootstrap.bootstrap_run(data, brier_problem(), spec).statistics[0].quantiles) == 5
        assert eager or "numpy.ma" not in sys.modules
    """)
