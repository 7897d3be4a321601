"""Smoke runs of the demo scripts through their command-line entry points."""

import runpy
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _run(monkeypatch, script, *args):
    monkeypatch.setattr(sys, "argv", [script, *args])
    runpy.run_path(str(SCRIPTS / script), run_name="__main__")


def test_xor_demo(monkeypatch, capsys):
    _run(monkeypatch, "xor_demo.py")
    out = capsys.readouterr().out
    assert "gain(s1,s2 ; none) = 0.2500" in out
    assert "phi(s1) = 0.1250" in out and "phi(s2) = 0.1250" in out


def test_deepfake_demo(monkeypatch, capsys, tmp_path):
    _run(monkeypatch, "deepfake_demo.py", "--rows", "300", "--replicates", "3", "--out-dir", str(tmp_path))
    for name in ("data.csv", "schema.json", "bootstrap.json", "gains.svg"):
        assert (tmp_path / name).stat().st_size > 0
    assert "shapley(ground=human)" in capsys.readouterr().out
