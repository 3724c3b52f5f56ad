"""Spans around tagrec's public functions, recorded from the outside.

`Tracer.install` replaces each traced function in every tagrec module
that holds it, because callers look a function up where they imported
it (`adam_step` lives in `tagrec.numeric` but is called through
`tagrec.supervised` and `tagrec.zsl`). Spans stay in memory with their
parent; a span's self time is its duration minus its children's.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


def _adam_steps(epochs: int, examples: int, batch_size: int) -> int:
    return epochs * math.ceil(examples / batch_size)


# (module, function, span name, counts taken from (args, result))
TARGETS = [
    ("tagrec.ingest", "read_raw_jsonl", "ingest.read_raw_jsonl", None),
    (
        "tagrec.ingest",
        "filter_corpus",
        "ingest.filter_corpus",
        lambda a, r: {"records": r.n_input, "kept": len(r.tweets),
                      **{f"drops.{k}": v for k, v in r.drop_counts.items()}},
    ),
    ("tagrec.ingest", "clean_text", "ingest.clean_text", None),
    ("tagrec.embedding", "train_sgns", "embedding.train_sgns", None),
    ("tagrec.embedding", "save_embeddings", "embedding.save_embeddings", None),
    ("tagrec.embedding", "load_embeddings", "embedding.load_embeddings", lambda a, r: {"rows": len(r[0])}),
    ("tagrec.numeric", "adam_step", "numeric.adam_step", None),
    ("tagrec.numeric", "spd_solve", "numeric.spd_solve", None),
    (
        "tagrec.supervised",
        "train_baseline",
        "supervised.train_baseline",
        lambda a, r: {"expected_adam_steps": _adam_steps(a[3].epochs, len(a[0].examples), a[3].batch_size)},
    ),
    ("tagrec.supervised", "extract_features", "supervised.extract_features", None),
    ("tagrec.supervised", "extract_features_batch", "supervised.extract_features_batch", None),
    ("tagrec.zsl", "eszsl_fit", "zsl.eszsl_fit", None),
    (
        "tagrec.zsl",
        "dem_fit",
        "zsl.dem_fit",
        lambda a, r: {"expected_adam_steps": _adam_steps(a[2].epochs, len(a[0]), a[2].batch_size)},
    ),
    ("tagrec.zsl", "conse_rank", "zsl.conse_rank", lambda a, r: {"candidates": len(a[1].labels)}),
    ("tagrec.zsl", "eszsl_rank", "zsl.eszsl_rank", lambda a, r: {"candidates": len(a[2].labels)}),
    ("tagrec.zsl", "dem_rank", "zsl.dem_rank", lambda a, r: {"candidates": len(a[2].labels)}),
    ("tagrec.zsl", "recommend", "zsl.recommend", None),
    ("tagrec.zsl", "load_zsl_bundle", "zsl.load_zsl_bundle", None),
    ("tagrec.zsl", "save_zsl_bundle", "zsl.save_zsl_bundle", None),
    ("tagrec.evaluate", "flat_hit_at_k", "evaluate.flat_hit_at_k", None),
    ("tagrec.evaluate", "run_zsl_experiment", "evaluate.run_zsl_experiment", None),
    ("tagrec.evaluate", "run_supervised_experiment", "evaluate.run_supervised_experiment", None),
]


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    phase: str
    start: float = 0.0
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.phase = "setup"
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, **counts):
        parent = self._stack[-1].id if self._stack else None
        s = Span(id=len(self.spans), name=name, parent=parent, phase=self.phase, counts=counts)
        self.spans.append(s)
        self._stack.append(s)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn, counts):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
            if counts is not None:
                s.counts.update(counts(args, result))
            return result

        return traced

    def install(self) -> None:
        """Wrap every target in every loaded tagrec module that holds it,
        plus `AttributeMatrix.from_labels`."""
        for module_name, _, _, _ in TARGETS:
            importlib.import_module(module_name)
        modules = [m for name, m in sys.modules.items() if name == "tagrec" or name.startswith("tagrec.")]
        for module_name, attr, name, counts in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            traced = self._wrap(name, original, counts)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, value))
                        setattr(module, key, traced)
        cls = sys.modules["tagrec.zsl"].AttributeMatrix
        original = cls.__dict__["from_labels"]
        self._patched.append((cls, "from_labels", original))
        cls.from_labels = classmethod(self._wrap("zsl.attribute_matrix", original.__func__,
                                                 lambda a, r: {"candidates": len(r.labels)}))

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._patched):
            setattr(owner, key, value)
        self._patched.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.id, "name": s.name, "parent": s.parent, "phase": s.phase,
                                     "start": s.start, "end": s.end, "counts": s.counts}) + "\n")


class SpanTable:
    """Per-layer figures from a trace. Layers that did work in the
    timed rounds are summarized over those rounds; layers that worked
    only during set-up report the set-up's figures."""

    def __init__(self, tracer: Tracer):
        child = defaultdict(float)
        for s in tracer.spans:
            if s.parent is not None:
                child[s.parent] += s.duration
        self.by_name: dict[str, dict[str, list[Span]]] = defaultdict(lambda: defaultdict(list))
        self.self_time = {s.id: s.duration - child[s.id] for s in tracer.spans}
        self.rounds = sorted({s.phase for s in tracer.spans if s.phase.startswith("round")})
        for s in tracer.spans:
            self.by_name[s.name][s.phase].append(s)

    def _phases(self, name: str) -> list[list[Span]] | None:
        phases = self.by_name.get(name, {})
        if any(phases.get(r) for r in self.rounds):
            return [phases.get(r, []) for r in self.rounds]
        if phases.get("setup"):
            return [phases["setup"]]
        return None

    def spans(self, name) -> list[Span] | None:
        groups = self._phases(name)
        return None if groups is None else [s for g in groups for s in g]

    def total_s(self, name):
        """Seconds per round (median over rounds)."""
        groups = self._phases(name)
        return None if groups is None else statistics.median(sum(s.duration for s in g) for g in groups)

    def self_s(self, name):
        groups = self._phases(name)
        if groups is None:
            return None
        return statistics.median(sum(self.self_time[s.id] for s in g) for g in groups)

    def calls(self, name):
        """Calls per round (median over rounds)."""
        groups = self._phases(name)
        return None if groups is None else statistics.median(len(g) for g in groups)

    def per_call_us(self, name):
        spans = self.spans(name)
        return None if not spans else 1e6 * statistics.median(s.duration for s in spans)

    def per_call_count(self, name, key):
        spans = self.spans(name)
        values = [s.counts[key] for s in spans or [] if key in s.counts]
        return statistics.median(values) if values else None

    def percentile_ms(self, name, q):
        spans = self.spans(name)
        if not spans or len(spans) < 2:
            return None
        durations = sorted(s.duration for s in spans)
        return 1e3 * statistics.quantiles(durations, n=100, method="inclusive")[q - 1]
