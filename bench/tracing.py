"""Spans around calls into the package's layers, for the traced benchmark run.

Wrappers go on the attributes through which callers look a function up (for
example ``infogain.bootstrap.estimate_joint``, not ``infogain.joint``), so that
the CLI's calls pass through them; nothing under ``src/`` is edited.  Spans are
kept in memory and reduced once the traced commands have finished.

Self time follows one rule for every span: a span's self intervals are its
interval minus the union of its children's intervals, and wall-clock time
covered by k self intervals at once (bootstrap worker threads) is split k ways.
The self times of all spans therefore add up to the traced wall time.
"""

from __future__ import annotations

import importlib
import itertools
import os
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Target:
    """One layer span: its name, every lookup site, and an optional work counter."""

    span: str
    sites: tuple[str, ...]  # "module:attribute" or "module:Class.attribute"
    count: Callable | None = None  # (args, kwargs, result) -> int


TARGETS = (
    Target("io.load_dataset", ("infogain.cli:load_dataset",), lambda a, k, r: r.n_rows),
    Target("io.write_results", ("infogain.cli:write_results",),
           lambda a, k, r: os.path.getsize(a[1] if len(a) > 1 else k["path"])),
    Target("joint.estimate_joint",
           ("infogain.cli:estimate_joint", "infogain.bootstrap:estimate_joint", "infogain.rational:estimate_joint"),
           lambda a, k, r: r.keys.shape[0]),
    Target("joint.state_mass", ("infogain.rational:state_mass",), lambda a, k, r: r[1].shape[0]),
    Target("rational.payoff", ("infogain.rational:rational_payoff",)),
    Target("rational.cache_lookup", ("infogain.rational:RationalCache.payoff",)),
    Target("rational.cross_fit", ("infogain.cli:cross_fit_gain",)),
    Target("shapley.exact", ("infogain.cli:shapley_exact", "infogain.bootstrap:shapley_exact"),
           lambda a, k, r: 2 ** len(r.signals)),
    Target("bootstrap.run", ("infogain.cli:bootstrap_run",)),
    Target("bootstrap.replicate", ("infogain.bootstrap:_replicate_values",)),
    Target("report.build_plot_spec", ("infogain.cli:build_plot_spec",)),
    Target("report.render_svg", ("infogain.cli:render_svg",), lambda a, k, r: len(r)),
)


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    count: int | None


def _resolve(site: str):
    """(owner object, attribute name) for a site, or None when it no longer exists."""
    module_name, _, path = site.partition(":")
    *owners, attr = path.split(".")
    try:
        owner = importlib.import_module(module_name)
        for name in owners:
            owner = getattr(owner, name)
    except (ImportError, AttributeError):
        return None
    # vars() rather than getattr so a method is read as the plain function it is
    return (owner, attr) if attr in vars(owner) else None


class Tracer:
    """Records spans per thread; a worker thread's top span hangs off the main thread's open span."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.missing: list[str] = []  # sites that no longer exist
        self._ids = itertools.count()
        self._main = threading.main_thread().ident
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._installed: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def call(self, name: str, fn, args=(), kwargs=None, count=None):
        kwargs = kwargs or {}
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        returned = False
        try:
            result = fn(*args, **kwargs)
            returned = True
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            n = count(args, kwargs, result) if returned and count is not None else None
            self.spans.append(Span(sid, name, start, end, parent, n))

    def install(self, targets=TARGETS) -> None:
        """Wrap every site of every target whose sites all exist; record the rest as missing."""
        for target in targets:
            resolved = [_resolve(site) for site in target.sites]
            absent = [site for site, r in zip(target.sites, resolved) if r is None]
            if absent:
                self.missing += absent
                continue
            for owner, attr in resolved:
                original = vars(owner)[attr]
                setattr(owner, attr, self._wrapper(target, original))
                self._installed.append((owner, attr, original))

    def _wrapper(self, target: Target, original):
        def traced(*args, **kwargs):
            return self.call(target.span, original, args, kwargs, target.count)

        return traced

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)


def self_times(spans: list[Span]) -> Counter:
    """Wall-clock self time per span name, split evenly where self intervals overlap."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    events = []
    for s in spans:
        cursor = s.start
        for a, b in sorted(children.get(s.sid, ())):
            a, b = max(a, s.start), min(b, s.end)
            if a > cursor:
                events += [(cursor, 1, s.name), (a, -1, s.name)]
            cursor = max(cursor, b)
        if s.end > cursor:
            events += [(cursor, 1, s.name), (s.end, -1, s.name)]
    events.sort(key=lambda e: (e[0], e[1]))
    credit: Counter = Counter()
    active: Counter = Counter()
    n_active, prev = 0, 0.0
    for t, delta, name in events:
        if n_active and t > prev:
            share = (t - prev) / n_active
            for active_name, k in active.items():
                credit[active_name] += k * share
        prev = t
        n_active += delta
        active[name] += delta
        if not active[name]:
            del active[name]
    return credit


# The per-layer metrics of the JSON line.  Seconds appear only for layers that
# every workload runs; a layer that some workload skips is reported as a share
# of the traced wall time, so that it reads 0 there rather than a time that
# never changes.  Self shares of all spans plus cli.self_share sum to 1.
PER_LAYER = (
    "io.load_dataset_s", "io.load_dataset_self_share", "io.load_dataset_calls", "io.rows_loaded",
    "io.write_results_s", "io.write_results_self_share", "io.result_bytes",
    "joint.estimate_joint_s", "joint.estimate_joint_self_share", "joint.estimate_joint_calls",
    "joint.distinct_tuples",
    "joint.state_mass_s", "joint.state_mass_self_share", "joint.state_mass_calls", "joint.groups",
    "rational.payoff_s", "rational.payoff_self_share", "rational.payoff_evals",
    "rational.cache_lookup_self_share", "rational.cache_lookups", "rational.cache_hits", "rational.cache_hit_ratio",
    "rational.cross_fit_share", "rational.cross_fit_self_share",
    "shapley.exact_s", "shapley.exact_self_share", "shapley.exact_calls", "shapley.coalitions",
    "bootstrap.run_share", "bootstrap.self_share", "bootstrap.replicates",
    "report.build_plot_spec_self_share", "report.render_svg_self_share", "report.svg_bytes",
    "cli.self_share", "cli.commands",
    "trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s", "trace.spans", "trace.missing_targets",
)


def layer_metrics(tracer: Tracer, untraced_wall_s: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of the traced run, in seconds and as shares.

    A metric whose span has a missing site is left out, not reported as 0.
    """
    spans = tracer.spans
    missing = {t.span for t in TARGETS if set(t.sites) & set(tracer.missing)}
    busy, calls, work = Counter(), Counter(), Counter()
    for s in spans:
        busy[s.name] += s.end - s.start
        calls[s.name] += 1
        work[s.name] += s.count or 0
    own = self_times(spans)
    own["cli"] = sum(v for k, v in own.items() if k.startswith("cli."))
    own["bootstrap"] = own["bootstrap.run"] + own["bootstrap.replicate"]
    roots = [s for s in spans if s.name.startswith("cli.")]
    wall = sum(s.end - s.start for s in roots)
    by_id = {s.sid: s for s in spans}
    misses = sum(1 for s in spans if s.name == "rational.payoff" and s.parent is not None
                 and by_id[s.parent].name == "rational.cache_lookup")
    lookups = calls["rational.cache_lookup"]
    replicates = calls["bootstrap.replicate"]

    def share(seconds):
        return seconds / wall if wall else 0.0

    out = {}
    for target in TARGETS:
        if target.span in missing:
            continue
        out[f"{target.span}_s"] = (busy[target.span], "s")
        out[f"{target.span}_share"] = (share(busy[target.span]), "share")
        out[f"{target.span}_self_s"] = (own[target.span], "s")
        out[f"{target.span}_self_share"] = (share(own[target.span]), "share")
        out[f"{target.span}_calls"] = (calls[target.span], "count")
    counters = [
        ("io.rows_loaded", work["io.load_dataset"], "count", ("io.load_dataset",)),
        ("io.result_bytes", work["io.write_results"], "bytes", ("io.write_results",)),
        ("joint.distinct_tuples", work["joint.estimate_joint"], "count", ("joint.estimate_joint",)),
        ("joint.groups", work["joint.state_mass"], "count", ("joint.state_mass",)),
        ("rational.payoff_evals", calls["rational.payoff"], "count", ("rational.payoff",)),
        ("rational.cache_lookups", lookups, "count", ("rational.cache_lookup",)),
        ("rational.cache_hits", lookups - misses, "count", ("rational.cache_lookup", "rational.payoff")),
        ("rational.cache_hit_ratio", (lookups - misses) / lookups if lookups else 0.0, "ratio",
         ("rational.cache_lookup", "rational.payoff")),
        ("shapley.coalitions", work["shapley.exact"], "count", ("shapley.exact",)),
        ("bootstrap.self_s", own["bootstrap"], "s", ("bootstrap.run", "bootstrap.replicate")),
        ("bootstrap.self_share", share(own["bootstrap"]), "share", ("bootstrap.run", "bootstrap.replicate")),
        ("bootstrap.replicates", replicates, "count", ("bootstrap.replicate",)),
        ("bootstrap.replicate_mean_s", busy["bootstrap.replicate"] / replicates if replicates else 0.0, "s",
         ("bootstrap.replicate",)),
        ("report.svg_bytes", work["report.render_svg"], "bytes", ("report.render_svg",)),
        ("cli.self_s", own["cli"], "s", ()),
        ("cli.self_share", share(own["cli"]), "share", ()),
        ("cli.commands", len(roots), "count", ()),
        ("trace.wall_s", wall, "s", ()),
        ("trace.untraced_wall_s", untraced_wall_s, "s", ()),
        ("trace.overhead_s", wall - untraced_wall_s, "s", ()),
        ("trace.unaccounted_s", wall - own["cli"] - sum(own[t.span] for t in TARGETS), "s", ()),
        ("trace.spans", len(spans), "count", ()),
        ("trace.missing_targets", len(tracer.missing), "count", ()),
    ]
    out.update((name, (value, unit)) for name, value, unit, needs in counters if not set(needs) & missing)
    return out
