"""Deterministic SVG rendering of bootstrap gain distributions, plus plain-text tables.

Each signal gets a row of horizontal density strips, one per decision ground,
colored by the ground's role.  Strips are kernel-smoothed histograms
(Silverman bandwidth) with a median tick; a point-mass sample renders as the
tick alone.  The median tick and the bandwidth come from each statistic's
stored ``quantiles`` and ``sd``, which ``bootstrap`` computed from the same
samples, so the chart agrees with the printed table and the CSV; the samples
feed only the kernel sum.  Rendering is a pure function of the plot spec:
same spec, same bytes.  The mark type is a presentation choice, not a
reproduction of any particular figure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from html import escape
from typing import Sequence

import numpy as np

from .bootstrap import BootstrapResult, StatResult, set_label
from .errors import ReportError

# Fixed palette keyed by ground role, for cross-run comparability.
PALETTE = {
    "human": "#d95f02",
    "ai": "#1b9e77",
    "human_ai": "#7570b3",
    "other": "#666666",
    "none": "#4d4d4d",
}

MIN_AXIS_SPAN = 0.05
DENSITY_POINTS = 121
WIDTH = 900
STRIP_HEIGHT = 16
GROUP_GAP = 10


@dataclass(frozen=True)
class PlotGroup:
    label: str  # signal name (or gain label)
    strips: tuple[StatResult, ...]  # one strip per statistic


@dataclass(frozen=True)
class PlotSpec:
    groups: tuple[PlotGroup, ...]
    axis: tuple[float, float]

    def __post_init__(self):
        if self.axis[0] >= self.axis[1]:
            raise ReportError(f"axis range {self.axis} must have lo < hi")
        if not math.isfinite(self.axis[1] - self.axis[0]):
            raise ReportError(f"axis range {self.axis} is too wide to draw: its span hi - lo overflows")
        if not self.groups or any(not g.strips for g in self.groups):
            raise ReportError("every plot group needs at least one strip")

    @property
    def height(self) -> int:
        rows = sum(len(g.strips) for g in self.groups)
        return 50 + rows * (STRIP_HEIGHT + 4) + len(self.groups) * GROUP_GAP + 30


def _nice_step(span: float) -> float:
    raw = span / 5.0
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if mult * mag >= raw:
            return mult * mag
    return 10.0 * mag


def _nice_axis(lo: float, hi: float) -> tuple[float, float]:
    if hi - lo < MIN_AXIS_SPAN:
        hi = lo + MIN_AXIS_SPAN
        if hi == lo:
            raise ReportError(f"axis range [{lo!r}, {hi!r}] has no span: widening it by {MIN_AXIS_SPAN} "
                              f"rounds away at that magnitude")
    if not math.isfinite(hi - lo):
        return lo, hi  # no step fits; PlotSpec refuses the range
    step = _nice_step(hi - lo)
    nlo = math.floor(lo / step) * step
    nhi = math.ceil(hi / step) * step
    if nhi <= nlo:
        nhi = nlo + step
    return nlo, nhi


def _stat_label(stat: StatResult) -> str:
    return stat.signal if stat.signal is not None else set_label(stat.v1 or ())


def build_plot_spec(results: Sequence[BootstrapResult], axis: tuple[float, float] | None = None) -> PlotSpec:
    """Group bootstrap statistics into per-signal strips across all results.

    Signals are ordered by descending median under the human-role ground (the
    first ground if none is human-role); all results must cover the same
    signal labels.  The axis always expands to contain every sample.
    """
    if not results:
        raise ReportError("no results to plot")
    per_label: dict[str, list[StatResult]] = {}
    label_sets = []
    for res in results:
        labels = set()
        for stat in res.statistics:
            label = _stat_label(stat)
            labels.add(label)
            per_label.setdefault(label, []).append(stat)
        label_sets.append(labels)
    if any(ls != label_sets[0] for ls in label_sets[1:]):
        raise ReportError("results do not share the same signal set")

    def order_median(stats: list[StatResult]) -> float:
        return next((s for s in stats if s.ground_role == "human"), stats[0]).quantiles["50"]

    ordered = sorted(per_label, key=lambda lb: (-order_median(per_label[lb]), lb))
    groups = tuple(PlotGroup(label=lb, strips=tuple(per_label[lb])) for lb in ordered)

    all_samples = [s for g in groups for st in g.strips for s in st.samples]
    lo = min(0.0, min(all_samples))
    hi = max(all_samples)
    if axis is not None:
        lo = min(lo, float(axis[0]))
        hi = max(hi, float(axis[1]))
    return PlotSpec(groups=groups, axis=_nice_axis(lo, hi))


def _density(stat: StatResult, grid: np.ndarray) -> np.ndarray | None:
    """Gaussian-kernel density on the grid; None for a point mass.

    A bandwidth too narrow for the kernel to be evaluated in floats (a tiny
    positive ``sd``, which only a hand-edited document holds) is drawn as a
    point mass too.
    """
    sd = stat.sd
    if sd == 0.0:
        return None
    samples = np.array(stat.samples, dtype=np.float64)
    n = len(samples)
    iqr = stat.quantiles["75"] - stat.quantiles["25"]
    spread = min(sd, iqr / 1.34) if iqr > 0 else sd
    bw = 0.9 * spread * n ** (-1.0 / 5.0)
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            z = (grid[:, None] - samples[None, :]) / bw
            return np.exp(-0.5 * z * z).sum(axis=1) / (n * bw * math.sqrt(2 * math.pi))
    except FloatingPointError:
        return None


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def render_svg(spec: PlotSpec) -> bytes:
    """Render the spec as SVG 1.1 with no external font dependencies."""
    left, right, top = 190, 30, 40
    plot_w = WIDTH - left - right
    lo, hi = spec.axis

    def sx(v: float) -> float:
        return left + (v - lo) / (hi - lo) * plot_w

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{WIDTH}" '
        f'height="{spec.height}" viewBox="0 0 {WIDTH} {spec.height}">'
    )
    out.append(f'<rect x="0" y="0" width="{WIDTH}" height="{spec.height}" fill="#ffffff"/>')
    out.append(
        f'<text x="{left}" y="20" font-family="sans-serif" font-size="13" fill="#222222">'
        f"information gain (payoff units)</text>"
    )

    # legend: one entry per distinct (ground label, role), in first-seen order
    seen = dict.fromkeys((set_label(s.ground), s.ground_role) for g in spec.groups for s in g.strips)
    lx = left
    for ground_label, role in seen:
        color = PALETTE.get(role, PALETTE["other"])
        out.append(f'<rect x="{_fmt(lx)}" y="26" width="10" height="10" fill="{color}"/>')
        out.append(
            f'<text x="{_fmt(lx + 14)}" y="35" font-family="sans-serif" font-size="11" '
            f'fill="#222222">{escape(ground_label, quote=False)}</text>'
        )
        lx += 18 + 7 * len(ground_label) + 14

    y = float(top + 10)
    grid = np.linspace(lo, hi, DENSITY_POINTS)
    for group in spec.groups:
        label_y = y + (len(group.strips) * (STRIP_HEIGHT + 4)) / 2.0 + 4
        out.append(
            f'<text x="{left - 10}" y="{_fmt(label_y)}" text-anchor="end" font-family="sans-serif" '
            f'font-size="12" fill="#222222">{escape(group.label, quote=False)}</text>'
        )
        for stat in group.strips:
            color = PALETTE.get(stat.ground_role, PALETTE["other"])
            base = y + STRIP_HEIGHT
            dens = _density(stat, grid)
            if dens is not None and dens.max() > 0:
                scale = (STRIP_HEIGHT * 0.92) / dens.max()
                pts = [f"{_fmt(sx(lo))},{_fmt(base)}"]
                for gx, gy in zip(grid, dens):
                    pts.append(f"{_fmt(sx(float(gx)))},{_fmt(base - float(gy) * scale)}")
                pts.append(f"{_fmt(sx(hi))},{_fmt(base)}")
                out.append(f'<path d="M {" L ".join(pts)} Z" fill="{color}" fill-opacity="0.55" stroke="none"/>')
            mx = sx(stat.quantiles["50"])
            out.append(
                f'<line x1="{_fmt(mx)}" y1="{_fmt(base - STRIP_HEIGHT)}" x2="{_fmt(mx)}" '
                f'y2="{_fmt(base)}" stroke="{color}" stroke-width="2"/>'
            )
            y += STRIP_HEIGHT + 4
        y += GROUP_GAP

    # x axis with ticks
    axis_y = y + 6
    step = _nice_step(hi - lo)
    out.append(
        f'<line x1="{_fmt(sx(lo))}" y1="{_fmt(axis_y)}" x2="{_fmt(sx(hi))}" y2="{_fmt(axis_y)}" '
        f'stroke="#222222" stroke-width="1"/>'
    )
    k = math.ceil(lo / step - 1e-9)
    while k * step <= hi + 1e-9:
        tick = k * step
        tx = sx(tick)
        out.append(
            f'<line x1="{_fmt(tx)}" y1="{_fmt(axis_y)}" x2="{_fmt(tx)}" y2="{_fmt(axis_y + 5)}" '
            f'stroke="#222222" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_fmt(tx)}" y="{_fmt(axis_y + 18)}" text-anchor="middle" font-family="sans-serif" '
            f'font-size="11" fill="#222222">{tick:g}</text>'
        )
        k += 1
    out.append("</svg>")
    return ("\n".join(out) + "\n").encode("utf-8")


def summary_table(result: BootstrapResult) -> str:
    """Fixed-width text table of bootstrap statistics."""
    width = max([len("statistic")] + [len(s.name) for s in result.statistics])
    header = f'{"statistic":<{width}} {"mean":>10} {"sd":>10} {"q2.5":>10} {"q50":>10} {"q97.5":>10}'
    lines = [header, "-" * len(header)]
    for s in result.statistics:
        lines.append(
            f"{s.name:<{width}} {s.mean:>10.5f} {s.sd:>10.5f} "
            f'{s.quantiles["2.5"]:>10.5f} {s.quantiles["50"]:>10.5f} {s.quantiles["97.5"]:>10.5f}'
        )
    return "\n".join(lines)
