"""Graphviz DOT export of a synthesized order's Hasse diagram."""

from __future__ import annotations

from operator import attrgetter

from .graph import hasse_reduce  # noqa: F401  (bench/tracing.py wraps dot.hasse_reduce)
from .lattice import QualifierOrder, covering_pairs


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def lattice_dot(order: QualifierOrder) -> str:
    """Covering edges only, drawn bottom-up (rank-min at the bottom);
    synthetic elements get dashed borders.  Output is byte-deterministic.
    Each element's name is escaped once, for its node, label and edges."""
    escaped = {element.name: _escape(element.name) for element in order.elements}
    lines = ["digraph lattice {", "  rankdir=BT;", "  node [shape=box];"]
    for element in sorted(order.elements, key=attrgetter("name")):
        name = escaped[element.name]
        label = name
        if element.members:
            label += "\\n{" + ", ".join(_escape(m) for m in sorted(element.members)) + "}"
        dashed = ", style=dashed" if element.synthetic else ""
        lines.append(f'  "{name}" [label="{label}"{dashed}];')
    for a, b in sorted(covering_pairs(order)):
        lines.append(f'  "{escaped[a]}" -> "{escaped[b]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
