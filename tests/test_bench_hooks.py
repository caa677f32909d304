"""The benchmark's traced run wraps module attributes by name; every one
of them must still exist, and the commands must still call it there, so
that a change under src/ that drops or bypasses a hooked attribute fails
here rather than in the traced benchmark."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
FIXTURES = Path(__file__).resolve().parent / "fixtures"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_attribute_resolves():
    tracing = _tracing()
    tracer = tracing.Tracer()  # looks up every (module, attribute) pair
    assert len(tracer._originals) == len(tracing.WRAPPED) > 0


# Wrapped attributes no command calls any more; the next benchmark change
# drops them from WRAPPED.
NEVER_CALLED = {
    ("flowsynth.graph", "validate_corpus"),
    ("flowsynth.cut", "shortest_path"),
    # synthesized orders carry their covering pairs; lattice_dot reduces
    # only an order built by hand
    ("flowsynth.dot", "hasse_reduce"),
}


def test_every_traced_call_site_is_still_called(tmp_path, monkeypatch):
    """Each wrapped (module, attribute) gets its own counter, so that a call
    site that moves away from its wrapped name shows as never called, not
    as a per-layer figure that silently reads 0."""
    tracing = _tracing()
    calls = {}
    for module_name, attr, _ in tracing.WRAPPED:
        module = importlib.import_module(module_name)
        calls[module_name, attr] = 0

        def counted(*args, _key=(module_name, attr), _original=getattr(module, attr), **kwargs):
            calls[_key] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, attr, counted)

    from flowsynth.cli import main

    corpus = str(FIXTURES / "golden" / "corpus.json")
    assert main(["synth", "--corpus", corpus, "--out", str(tmp_path / "exact")]) == 0
    assert main(["synth", "--corpus", corpus, "--solver", "greedy", "--out", str(tmp_path / "greedy")]) == 0
    analysis = str(tmp_path / "exact" / "analysis.json")
    assert main(["check", "--analysis", analysis, "--corpus", corpus, "--out", str(tmp_path / "check")]) == 0
    stacks = str(FIXTURES / "ui_traces")
    assert main(["synth", "--stack-traces", stacks, "--mode", "effect", "--out", str(tmp_path / "ui")]) == 0
    never = {key for key, count in calls.items() if not count}
    assert never <= NEVER_CALLED


def test_traced_counts_survive_the_wrapped_signatures(tmp_path):
    """The tracer reads its counts from the arguments and results of the
    calls it wraps, so a changed signature shows here as a count of 0."""
    tracing = _tracing()
    tracer = tracing.Tracer()
    from flowsynth.cli import main

    corpus = str(FIXTURES / "golden" / "corpus.json")
    with tracer.operation("synth"):
        assert main(["synth", "--corpus", corpus, "--out", str(tmp_path / "golden")]) == 0
    analysis = str(tmp_path / "golden" / "analysis.json")
    with tracer.operation("check"):
        assert main(["check", "--analysis", analysis, "--corpus", corpus, "--out", str(tmp_path / "check")]) == 0
    stacks = str(FIXTURES / "ui_traces")
    with tracer.operation("synth"):
        assert main(["synth", "--stack-traces", stacks, "--mode", "effect", "--out", str(tmp_path / "ui")]) == 0
    metrics = tracer.layer_metrics(1)
    counted = (
        "graph.nodes",
        "cut.iterations",
        "cut.constraints",
        "lattice.elements",
        "lattice.relation_pairs",
        "checker.traces_checked",
    )
    assert {name: metrics[name] for name in counted if not metrics[name] > 0} == {}
