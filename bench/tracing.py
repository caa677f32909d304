"""Per-layer tracing for the benchmark's traced run.

Wrappers are installed at the module attributes the callers look up
(`flowsynth.cli.synthesize`, `flowsynth.cut.shortest_path`, ...), so
nothing under src/ changes.  Each call records a span (id, name, start,
end, parent, operation) in memory; counts are taken from the arguments
and results at the same boundaries.  `Tracer.spans` is written out when
the run ends.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

# (module, attribute, span name).  One layer can be looked up from several
# callers, e.g. validate_corpus from pipeline.synthesize and again from
# graph.build_graph.
WRAPPED = (
    ("flowsynth.cli", "synthesize", "pipeline.synthesize"),
    ("flowsynth.cli", "parse_corpus", "traces.parse_corpus"),
    ("flowsynth.cli", "corpus_digest", "traces.corpus_digest"),
    ("flowsynth.pipeline", "corpus_digest", "traces.corpus_digest"),
    ("flowsynth.cli", "check_corpus", "checker.check_corpus"),
    ("flowsynth.pipeline", "check_corpus", "checker.check_corpus"),
    ("flowsynth.cli", "dump_analysis", "checker.dump_analysis"),
    ("flowsynth.cli", "load_analysis", "checker.load_analysis"),
    ("flowsynth.cli", "lattice_dot", "dot.lattice_dot"),
    ("flowsynth.dot", "hasse_reduce", "graph.hasse_reduce"),
    ("flowsynth.traces", "parse_stack_trace", "traces.parse_stack_trace"),
    ("flowsynth.pipeline", "validate_corpus", "traces.validate_corpus"),
    ("flowsynth.graph", "validate_corpus", "traces.validate_corpus"),
    ("flowsynth.pipeline", "build_graph", "graph.build_graph"),
    ("flowsynth.pipeline", "solve_synthesis_cut", "cut.solve_synthesis_cut"),
    ("flowsynth.cut", "min_hitting_set_exact", "cut.min_hitting_set_exact"),
    ("flowsynth.cut", "min_hitting_set_greedy", "cut.min_hitting_set_greedy"),
    ("flowsynth.cut", "verify_separation", "cut.verify_separation"),
    ("flowsynth.cut", "shortest_path", "graph.shortest_path"),
    ("flowsynth.pipeline", "build_order", "lattice.build_order"),
    ("flowsynth.pipeline", "complete_join_semilattice", "lattice.complete_join_semilattice"),
    ("flowsynth.pipeline", "check_consistency", "lattice.check_consistency"),
    ("flowsynth.pipeline", "make_analysis_spec", "pipeline.make_analysis_spec"),
)

# Per-layer metric -> (span name, what to take).  "s" is busy (inclusive)
# seconds, "self_s" busy seconds minus child spans, "calls" the span count.
SPAN_METRICS = {
    "traces.parse_corpus.s": ("traces.parse_corpus", "s"),
    "traces.corpus_digest.s": ("traces.corpus_digest", "s"),
    "checker.check_corpus.s": ("checker.check_corpus", "s"),
    "traces.validate_corpus.calls": ("traces.validate_corpus", "calls"),
    "traces.validate_corpus.s": ("traces.validate_corpus", "s"),
    "traces.parse_stack_trace.s": ("traces.parse_stack_trace", "s"),
    "graph.build_graph.s": ("graph.build_graph", "s"),
    "graph.shortest_path.calls": ("graph.shortest_path", "calls"),
    "graph.shortest_path.s": ("graph.shortest_path", "s"),
    "cut.solve_synthesis_cut.s": ("cut.solve_synthesis_cut", "s"),
    "cut.min_hitting_set_greedy.calls": ("cut.min_hitting_set_greedy", "calls"),
    "cut.min_hitting_set_greedy.s": ("cut.min_hitting_set_greedy", "s"),
    "cut.verify_separation.calls": ("cut.verify_separation", "calls"),
    "cut.verify_separation.s": ("cut.verify_separation", "s"),
    "cut.min_hitting_set_exact.calls": ("cut.min_hitting_set_exact", "calls"),
    "cut.min_hitting_set_exact.s": ("cut.min_hitting_set_exact", "s"),
    "lattice.build_order.s": ("lattice.build_order", "s"),
    "lattice.complete_join_semilattice.s": ("lattice.complete_join_semilattice", "s"),
    "lattice.check_consistency.s": ("lattice.check_consistency", "s"),
    "pipeline.make_analysis_spec.s": ("pipeline.make_analysis_spec", "s"),
    "pipeline.synthesize.self_s": ("pipeline.synthesize", "self_s"),
    "checker.dump_analysis.s": ("checker.dump_analysis", "s"),
    "checker.load_analysis.s": ("checker.load_analysis", "s"),
    "dot.lattice_dot.s": ("dot.lattice_dot", "s"),
    "graph.hasse_reduce.s": ("graph.hasse_reduce", "s"),
    "cli.self_s": ("cli", "self_s"),
}

# Counts read at the span boundaries.
COUNT_METRICS = (
    "checker.traces_checked",
    "graph.nodes",
    "graph.edges",
    "cut.iterations",
    "cut.constraints",
    "cut.witness_yield",
    "lattice.elements",
    "lattice.synthetic_elements",
    "lattice.relation_pairs",
)


class Tracer:
    """Records spans and counts while its wrappers are installed."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int | None, int]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._open: list[int] = []
        self._operation = 0
        self._originals = []
        for module_name, attr, span_name in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._originals.append((module, attr, original, self._wrap(span_name, original)))

    def _wrap(self, name: str, function):
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            span_id = len(self.spans)
            self.spans.append((span_id, name, 0.0, 0.0, parent, self._operation))
            self._open.append(span_id)
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._open.pop()
                self.spans[span_id] = (span_id, name, start, end, parent, self._operation)
            self._count(name, args, result, parent)
            return result

        return traced

    def _count(self, name: str, args: tuple, result, parent: int | None) -> None:
        counts = self.counts
        if name == "checker.check_corpus":
            counts["checker.traces_checked"] += len(args[1].traces)
        elif name == "graph.build_graph":
            counts["graph.nodes"] += len(result.nodes)
            counts["graph.edges"] += len(result.edges)
        elif name == "cut.solve_synthesis_cut" and hasattr(result, "iterations"):
            counts["cut.iterations"] += result.iterations
            counts["cut.constraints"] += len(result.constraints)
        elif name == "graph.shortest_path" and parent is not None and self.spans[parent][1] == "cut.verify_separation":
            counts["bfs_passes"] += 1
            counts["bfs_witnesses"] += result is not None
        elif name == "lattice.check_consistency":
            lattice = args[0]
            counts["lattice.elements"] += len(lattice.elements)
            counts["lattice.synthetic_elements"] += sum(1 for e in lattice.elements if e.synthetic)
            counts["lattice.relation_pairs"] += len(lattice.relation)

    @contextmanager
    def operation(self, kind: str):
        """Root span for one `synth` or `check` command."""
        self._operation += 1
        span_id = len(self.spans)
        self.spans.append((span_id, kind, 0.0, 0.0, None, self._operation))
        self._open.append(span_id)
        start = time.perf_counter()
        try:
            with self.installed():
                yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[span_id] = (span_id, kind, start, end, None, self._operation)

    @contextmanager
    def installed(self):
        for module, attr, _, wrapper in self._originals:
            setattr(module, attr, wrapper)
        try:
            yield
        finally:
            for module, attr, original, _ in self._originals:
                setattr(module, attr, original)

    def layer_metrics(self, iterations: int) -> dict[str, float]:
        """Per-layer figures per traced (synth, check) iteration."""
        busy: dict[str, float] = defaultdict(float)
        child: dict[int, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for span_id, name, start, end, parent, _ in self.spans:
            busy[name] += end - start
            calls[name] += 1
            if parent is not None:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        for span_id, name, start, end, parent, _ in self.spans:
            key = "cli" if parent is None else name
            self_s[key] += end - start - child[span_id]
        per = max(iterations, 1)
        metrics = {}
        for metric, (name, kind) in SPAN_METRICS.items():
            value = {"s": busy[name], "self_s": self_s[name], "calls": calls[name]}[kind]
            metrics[metric] = value / per
        for metric in COUNT_METRICS:
            metrics[metric] = self.counts[metric] / per
        passes = self.counts["bfs_passes"]
        metrics["cut.witness_yield"] = self.counts["bfs_witnesses"] / passes if passes else 0.0
        return metrics

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for span_id, name, start, end, parent, operation in self.spans:
                out.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end,
                                      "parent": parent, "op": operation}) + "\n")
