"""The benchmark's tracer wraps functions at the names callers look them up by; each name must still exist."""

import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    if not TRACING.exists():
        pytest.skip("no bench/ directory beside the tests")
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while the class is built
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]


def test_every_traced_site_resolves(tracing):
    # the check Tracer.install makes before it wraps a site
    sites = [site for target in tracing.TARGETS for site in target.sites]
    assert sites
    assert [site for site in sites if tracing._resolve(site) is None] == []
