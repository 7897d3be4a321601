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
