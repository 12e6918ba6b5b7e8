"""Spans around lingobf's public functions, installed from outside the program.

:class:`Tracer` replaces each function in :data:`TARGETS` at every name
where callers look it up (a module attribute, or a property of a class)
with a wrapper that records a span: name, start, end, parent span and
pass id.  Spans are kept in flat arrays in memory.  A layer's self time is
its spans' duration minus the time their direct child spans cover.

A name that a later version of the program no longer has is skipped and
reported as missing; the metrics that depend on it read 0.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import threading
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path

# span name -> places it is looked up: "module:attribute" or "module:Class.property".
TARGETS = {
    "annotations.parse": ("annotations:parse",),
    "annotations.render": ("annotations:render",),
    "annotations.coverage_report": ("annotations:coverage_report",),
    "annotations.unescape": ("annotations:unescape",),
    "rulesets.validate_ruleset": ("rulesets:validate_ruleset", "corpus:validate_ruleset"),
    "rulesets.sample_distinct": ("rulesets:sample_distinct", "corpus:sample_distinct"),
    "rulesets.sample_permutation": ("rulesets:sample_permutation",),
    "rulesets.Ruleset.ident": ("rulesets:Ruleset.ident",),
    "obfuscate.segment": ("obfuscate:segment",),
    "obfuscate.apply": ("obfuscate:apply",),
    "obfuscate.obfuscate_variant": ("obfuscate:obfuscate_variant", "corpus:obfuscate_variant"),
    "corpus.load_corpus": ("corpus:load_corpus",),
    "corpus.build_dataset": ("corpus:build_dataset",),
    "corpus.write_dataset": ("corpus:write_dataset",),
    "corpus.load_dataset": ("corpus:load_dataset",),
    "prompts.build_prompts": ("prompts:build_prompts",),
    "prompts.write_prompts": ("prompts:write_prompts",),
    "prompts.load_prompts": ("prompts:load_prompts",),
    "rng.stream": ("rng:stream", "rulesets:stream", "stats:stream"),
    "runner.run": ("runner:run",),
    "runner.read_records": ("runner:read_records",),
    "metrics.score_run": ("metrics:score_run",),
    "metrics.aggregate": ("metrics:aggregate",),
    "metrics.per_problem_csv": ("metrics:per_problem_csv",),
    "metrics.heatmap_csv": ("metrics:heatmap_csv",),
    "metrics.report_summary": ("metrics:report_summary",),
    "stats.bootstrap": ("stats:bootstrap",),
    "stats.fit_groups": ("stats:fit_groups",),
    "stats.histogram_csv": ("stats:histogram_csv",),
    "cli.main": ("cli:main",),
}


def _maps_kept(result) -> int:
    return len(result)


def _bootstrap_sets(result) -> int:
    return len(result.set_scores)


# Counters read off a wrapped call's result: span name -> (counter, function of the result).
RESULT_COUNTERS = {
    "rulesets.sample_distinct": ("rulesets.maps_kept", _maps_kept),
    "stats.bootstrap": ("stats.bootstrap_sets", _bootstrap_sets),
}

# Per-layer metrics computed from spans: name -> (unit, span names it needs, function).
# The function receives a PassView.
SPAN_METRICS = {
    "annotations.parse_s": ("s", ("annotations.parse",), lambda v: v.total("annotations.parse")),
    "annotations.render_self_s": ("s", ("annotations.render",), lambda v: v.self("annotations.render")),
    "annotations.render_calls": ("count", ("annotations.render",), lambda v: v.calls("annotations.render")),
    "annotations.coverage_self_s": ("s", ("annotations.coverage_report",), lambda v: v.self("annotations.coverage_report")),
    "annotations.coverage_calls": ("count", ("annotations.coverage_report",), lambda v: v.calls("annotations.coverage_report")),
    "annotations.unescape_calls": ("count", ("annotations.unescape",), lambda v: v.calls("annotations.unescape")),
    "rulesets.validate_s": ("s", ("rulesets.validate_ruleset",), lambda v: v.total("rulesets.validate_ruleset")),
    "rulesets.sample_s": ("s", ("rulesets.sample_distinct",), lambda v: v.total("rulesets.sample_distinct")),
    "rulesets.ident_calls": ("count", ("rulesets.Ruleset.ident",), lambda v: v.calls("rulesets.Ruleset.ident")),
    "rulesets.sample_attempts_per_map": (
        "1",
        ("rulesets.sample_permutation", "rulesets.sample_distinct"),
        lambda v: v.ratio(v.calls("rulesets.sample_permutation"), v.counter("rulesets.maps_kept")),
    ),
    "obfuscate.segment_calls": ("count", ("obfuscate.segment",), lambda v: v.calls("obfuscate.segment")),
    "obfuscate.segment_self_s": ("s", ("obfuscate.segment",), lambda v: v.self("obfuscate.segment")),
    "obfuscate.apply_self_s": ("s", ("obfuscate.apply",), lambda v: v.self("obfuscate.apply")),
    "obfuscate.variant_self_s": ("s", ("obfuscate.obfuscate_variant",), lambda v: v.self("obfuscate.obfuscate_variant")),
    "corpus.load_s": ("s", ("corpus.load_corpus",), lambda v: v.total("corpus.load_corpus")),
    "corpus.build_s": ("s", ("corpus.build_dataset",), lambda v: v.total("corpus.build_dataset")),
    "corpus.write_s": ("s", ("corpus.write_dataset",), lambda v: v.total("corpus.write_dataset")),
    "corpus.load_dataset_s": ("s", ("corpus.load_dataset",), lambda v: v.total("corpus.load_dataset")),
    "prompts.build_s": ("s", ("prompts.build_prompts",), lambda v: v.total("prompts.build_prompts")),
    "prompts.write_s": ("s", ("prompts.write_prompts",), lambda v: v.total("prompts.write_prompts")),
    "prompts.load_s": ("s", ("prompts.load_prompts",), lambda v: v.total("prompts.load_prompts")),
    "rng.stream_calls": ("count", ("rng.stream",), lambda v: v.calls("rng.stream")),
    "runner.run_s": ("s", ("runner.run",), lambda v: v.total("runner.run")),
    "runner.read_records_s": ("s", ("runner.read_records",), lambda v: v.total("runner.read_records")),
    "metrics.score_run_s": ("s", ("metrics.score_run",), lambda v: v.total("metrics.score_run")),
    "metrics.aggregate_s": ("s", ("metrics.aggregate",), lambda v: v.total("metrics.aggregate")),
    "metrics.exports_s": (
        "s",
        ("metrics.per_problem_csv", "metrics.heatmap_csv", "metrics.report_summary"),
        lambda v: v.total("metrics.per_problem_csv") + v.total("metrics.heatmap_csv") + v.total("metrics.report_summary"),
    ),
    "stats.bootstrap_s": ("s", ("stats.bootstrap",), lambda v: v.total("stats.bootstrap")),
    "stats.bootstrap_sets_per_s": (
        "1/s",
        ("stats.bootstrap",),
        lambda v: v.ratio(v.counter("stats.bootstrap_sets"), v.total("stats.bootstrap")),
    ),
    "stats.fit_groups_s": ("s", ("stats.fit_groups",), lambda v: v.total("stats.fit_groups")),
    "stats.histogram_s": ("s", ("stats.histogram_csv",), lambda v: v.total("stats.histogram_csv")),
    "cli.self_s": ("s", ("cli.main",), lambda v: v.self("cli.main")),
}


class PassView:
    """Totals, self times, call counts and counters of one traced pass."""

    def __init__(self, totals: dict, selfs: dict, call_counts: dict, counters: dict):
        self.totals, self.selfs, self.call_counts, self.counters = totals, selfs, call_counts, counters

    def total(self, name: str) -> float:
        return self.totals.get(name, 0.0)

    def self(self, name: str) -> float:
        return self.selfs.get(name, 0.0)

    def calls(self, name: str) -> int:
        return self.call_counts.get(name, 0)

    def counter(self, name: str) -> int:
        return self.counters.get(name, 0)

    @staticmethod
    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0


class Tracer:
    def __init__(self):
        self.names: list[str] = list(TARGETS)
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.name_ids = array("H")
        self.pass_ids = array("H")
        self.counters: dict[int, Counter] = defaultdict(Counter)
        self.pass_id = 0
        self.missing: list[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for name_id, name in enumerate(self.names):
            found = False
            for site in TARGETS[name]:
                module_name, _, attr = site.partition(":")
                try:
                    owner = importlib.import_module(f"lingobf.{module_name}")
                    if "." in attr:
                        cls_name, attr = attr.split(".")
                        owner = getattr(owner, cls_name)
                        original = owner.__dict__[attr]
                    else:
                        original = getattr(owner, attr)
                except (ImportError, AttributeError, KeyError):
                    continue
                replacement = self._replacement(name_id, name, original, attr, owner)
                if replacement is None:
                    continue
                self._undo.append((owner, attr, original))
                setattr(owner, attr, replacement)
                found = True
            if not found:
                self.missing.append(name)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _replacement(self, name_id, name, original, attr, owner):
        if isinstance(original, property):
            return property(self._wrap(name_id, name, original.fget), original.fset, original.fdel)
        if isinstance(original, functools.cached_property):
            cached = functools.cached_property(self._wrap(name_id, name, original.func))
            cached.__set_name__(owner, attr)
            return cached
        if callable(original):
            return self._wrap(name_id, name, original)
        return None

    def _wrap(self, name_id: int, name: str, fn):
        tracer = self
        local = self._local
        lock = self._lock
        clock = time.perf_counter
        on_result = RESULT_COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            with lock:
                index = len(tracer.starts)
                tracer.starts.append(0.0)
                tracer.ends.append(0.0)
                tracer.parents.append(stack[-1] if stack else -1)
                tracer.name_ids.append(name_id)
                tracer.pass_ids.append(tracer.pass_id)
            stack.append(index)
            tracer.starts[index] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.ends[index] = clock()
                stack.pop()
            if on_result is not None:
                counter, count = on_result
                tracer.counters[tracer.pass_id][counter] += count(result)
            return result

        return wrapper

    # -- analysis -----------------------------------------------------------

    def view(self, pass_id: int) -> PassView:
        child = defaultdict(float)
        indices = [i for i, p in enumerate(self.pass_ids) if p == pass_id]
        for i in indices:
            if self.parents[i] >= 0:
                child[self.parents[i]] += self.ends[i] - self.starts[i]
        totals, selfs, calls = defaultdict(float), defaultdict(float), Counter()
        for i in indices:
            name = self.names[self.name_ids[i]]
            duration = self.ends[i] - self.starts[i]
            totals[name] += duration
            selfs[name] += duration - child[i]
            calls[name] += 1
        return PassView(dict(totals), dict(selfs), dict(calls), dict(self.counters[pass_id]))

    def layer_metrics(self, pass_ids: list[int]) -> tuple[dict[str, tuple[float, str]], list[str], bool]:
        """(metric -> (median over passes, unit), missing metrics, counts repeat across passes)."""
        views = [self.view(p) for p in pass_ids]
        out = {}
        missing = []
        for metric, (unit, needs, fn) in SPAN_METRICS.items():
            if any(name in self.missing for name in needs):
                missing.append(metric)
            out[metric] = (statistics.median(fn(v) for v in views), unit)
        counts = [(dict(v.call_counts), dict(v.counters)) for v in views]
        return out, missing, all(c == counts[0] for c in counts)

    def write(self, path: Path, pass_id: int) -> int:
        """Write one pass's spans as TSV (id, name, start_s, end_s, parent, pass); returns the count."""
        path.parent.mkdir(parents=True, exist_ok=True)
        written = 0
        with path.open("w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart_s\tend_s\tparent\tpass\n")
            for i, p in enumerate(self.pass_ids):
                if p == pass_id:
                    fh.write(
                        f"{i}\t{self.names[self.name_ids[i]]}\t{self.starts[i]:.7f}\t"
                        f"{self.ends[i]:.7f}\t{self.parents[i]}\t{p}\n"
                    )
                    written += 1
        return written
