"""The benchmark's traced run wraps module attributes by name; every one
of them must still exist, so that a change under src/ that drops a hooked
attribute fails here rather than in the traced benchmark."""

from __future__ import annotations

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_traced_attribute_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()  # looks up every (module, attribute) pair
    assert len(tracer._originals) == len(tracing.WRAPPED) > 0
