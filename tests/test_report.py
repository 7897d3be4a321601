import os
import subprocess
import sys
import textwrap
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import infogain
from infogain.bootstrap import BootstrapResult, BootstrapSpec, ShapleyStat, StatResult, bootstrap_run
from infogain.errors import ReportError
from infogain.io import write_results
from infogain.report import PALETTE, PlotGroup, PlotSpec, build_plot_spec, render_svg, summary_table
from infogain.synth import SyntheticAgentSpec, generate_dataset

QL = ("2.5", "25", "50", "75", "97.5")


def make_stat(signal, ground, role, samples):
    arr = np.array(samples, dtype=float)
    qs = np.quantile(arr, [0.025, 0.25, 0.5, 0.75, 0.975], method="linear")
    return StatResult(
        name=f"shapley(ground={','.join(ground) or 'none'}).{signal}",
        kind="shapley",
        signal=signal,
        v1=None,
        ground=ground,
        ground_role=role,
        samples=tuple(float(x) for x in arr),
        mean=float(arr.mean()),
        sd=float(arr.std(ddof=1)) if len(arr) > 1 else 0.0,
        quantiles={k: float(v) for k, v in zip(QL, qs)},
    )


def make_result(stats, replicates=None):
    return BootstrapResult(
        replicates=replicates or len(stats[0].samples), seed=0, alpha=0.0, statistics=tuple(stats)
    )


def test_all_zero_gains_get_minimum_axis_span():
    result = make_result([make_stat("a", (), "none", [0.0] * 10)])
    spec = build_plot_spec([result])
    assert spec.axis == (0.0, 0.05)


def test_axis_covers_every_sample():
    result = make_result([make_stat("a", (), "none", [0.01, 0.4, 0.62])])
    spec = build_plot_spec([result])
    lo, hi = spec.axis
    assert lo <= 0.01 and hi >= 0.62


def test_requested_axis_expands_but_never_clips():
    result = make_result([make_stat("a", (), "none", [0.1, 0.9])])
    spec = build_plot_spec([result], axis=(0.0, 0.5))
    assert spec.axis[1] >= 0.9


def test_three_grounds_get_three_distinct_role_colors():
    stats = [
        make_stat("a", ("human",), "human", [0.1, 0.2]),
        make_stat("a", ("ai",), "ai", [0.05, 0.1]),
        make_stat("a", ("human_ai",), "human_ai", [0.02, 0.04]),
    ]
    spec = build_plot_spec([make_result(stats)])
    svg = render_svg(spec).decode()
    for role in ("human", "ai", "human_ai"):
        assert PALETTE[role] in svg
    assert len({PALETTE["human"], PALETTE["ai"], PALETTE["human_ai"]}) == 3


def test_signals_ordered_by_descending_human_median():
    stats = [
        make_stat("small", ("human",), "human", [0.01, 0.02, 0.03]),
        make_stat("big", ("human",), "human", [0.5, 0.6, 0.7]),
        make_stat("mid", ("human",), "human", [0.2, 0.25, 0.3]),
        # a non-human ground with a reversed ordering must not win
        make_stat("small", ("ai",), "ai", [0.8, 0.9, 1.0]),
        make_stat("big", ("ai",), "ai", [0.0, 0.0, 0.0]),
        make_stat("mid", ("ai",), "ai", [0.1, 0.1, 0.1]),
    ]
    spec = build_plot_spec([make_result(stats)])
    assert [g.label for g in spec.groups] == ["big", "mid", "small"]


def test_mismatched_signal_sets_rejected():
    r1 = make_result([make_stat("a", (), "none", [0.1])])
    r2 = make_result([make_stat("b", (), "none", [0.1])])
    with pytest.raises(ReportError, match="signal set"):
        build_plot_spec([r1, r2])


STRIP = make_stat("a", (), "none", [0.0, 1.0])


@pytest.mark.parametrize("make, message", [
    (lambda: PlotSpec((PlotGroup("a", (STRIP,)),), (1.0, 1.0)), r"axis range \(1.0, 1.0\) must have lo < hi"),
    (lambda: PlotSpec((PlotGroup("a", (STRIP,)),), (2.0, 1.0)), r"axis range \(2.0, 1.0\) must have lo < hi"),
    (lambda: PlotSpec((PlotGroup("a", (STRIP,)), PlotGroup("b", ())), (0.0, 1.0)),
     "every plot group needs at least one strip"),
    (lambda: PlotSpec((), (0.0, 1.0)), "every plot group needs at least one strip"),
    (lambda: build_plot_spec([]), "no results to plot"),
])
def test_plot_specs_that_cannot_be_drawn_are_refused(make, message):
    with pytest.raises(ReportError, match=message):
        make()


def test_svg_is_wellformed_svg11(xor_joint, brier):
    agent = SyntheticAgentSpec(name="human", used_signals=("s1",), noise=0.1, role="human")
    data = generate_dataset(xor_joint, brier, [agent], n_rows=120, seed=2)
    result = bootstrap_run(data, brier, BootstrapSpec(replicates=12, statistics=(ShapleyStat(ground=("human",)),)))
    spec = build_plot_spec([result])
    svg = render_svg(spec)
    root = ET.fromstring(svg)
    assert root.tag == "{http://www.w3.org/2000/svg}svg"
    assert root.attrib["version"] == "1.1"
    assert "font" not in (root.attrib.get("style") or "")


def test_rendering_is_byte_deterministic():
    stats = [make_stat("a", ("human",), "human", [0.1, 0.15, 0.2, 0.4])]
    spec = build_plot_spec([make_result(stats)])
    assert render_svg(spec) == render_svg(spec)


def test_point_mass_sample_renders_tick_without_density_blob():
    spec = build_plot_spec([make_result([make_stat("a", (), "none", [0.2] * 8)])])
    root = ET.fromstring(render_svg(spec))
    ns = "{http://www.w3.org/2000/svg}"
    assert len(root.findall(f".//{ns}path")) == 0
    # median tick plus axis line and axis ticks are lines; at least one is the tick
    assert len(root.findall(f".//{ns}line")) >= 2


def test_strip_count_matches_signals_times_grounds():
    stats = []
    for sig in ("a", "b", "c"):
        for ground, role in (("human", "human"), ("ai", "ai")):
            stats.append(make_stat(sig, (ground,), role, [0.1, 0.2, 0.3, 0.35]))
    spec = build_plot_spec([make_result(stats)])
    assert len(spec.groups) == 3
    assert all(len(g.strips) == 2 for g in spec.groups)
    root = ET.fromstring(render_svg(spec))
    ns = "{http://www.w3.org/2000/svg}"
    assert len(root.findall(f".//{ns}path")) == 6  # one density blob per strip


def test_single_result_single_strip():
    spec = build_plot_spec([make_result([make_stat("only", (), "none", [0.0, 0.1, 0.2, 0.15])])])
    assert len(spec.groups) == 1 and len(spec.groups[0].strips) == 1


def test_labels_with_xml_specials_are_escaped():
    stats = [make_stat("a&b", ("h<m",), "human", [0.1, 0.2, 0.3])]
    svg = render_svg(build_plot_spec([make_result(stats)]))
    root = ET.fromstring(svg)  # would raise on malformed markup
    texts = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
    assert "a&b" in texts


def test_summary_table_lists_each_statistic():
    stats = [
        make_stat("a", ("human",), "human", [0.1, 0.2, 0.3]),
        make_stat("b", ("human",), "human", [0.0, 0.05, 0.1]),
    ]
    text = summary_table(make_result(stats))
    assert "shapley(ground=human).a" in text
    assert "shapley(ground=human).b" in text
    assert "mean" in text and "q97.5" in text


def test_report_does_not_load_numpy_ma(tmp_path):
    # the report draws the stored quantiles and sd; np.quantile would load numpy.ma (through np.unique).
    # The flag is taken after ``import numpy``, since an older numpy loads numpy.ma at import.
    results = tmp_path / "boot.json"
    write_results(make_result([make_stat("a", ("human",), "human", [0.1, 0.2, 0.4])]), results)
    code = f"""
        import sys
        import numpy
        loaded = "numpy.ma" in sys.modules
        from infogain.cli import main
        assert main(["report", "--results", {str(results)!r}, "--out", {str(tmp_path / "fig.svg")!r}]) == 0
        assert ("numpy.ma" in sys.modules) == loaded, "report loaded numpy.ma"
    """
    env = dict(os.environ, PYTHONPATH=str(Path(infogain.__file__).resolve().parents[1]))
    run = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env, capture_output=True, text=True,
                         check=False)
    assert run.returncode == 0, run.stderr
