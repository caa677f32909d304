"""Graphviz DOT export of a synthesized order's Hasse diagram."""

from __future__ import annotations

from .graph import hasse_reduce  # noqa: F401  (bench/tracing.py wraps dot.hasse_reduce)
from .lattice import QualifierOrder, covering_pairs


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _quote(name: str) -> str:
    return '"' + _escape(name) + '"'


def _label(name: str, members: frozenset[str]) -> str:
    text = _escape(name)
    if members:
        text += "\\n{" + ", ".join(_escape(m) for m in sorted(members)) + "}"
    return '"' + text + '"'


def lattice_dot(order: QualifierOrder) -> str:
    """Covering edges only, drawn bottom-up (rank-min at the bottom);
    synthetic elements get dashed borders.  Output is byte-deterministic."""
    quoted = {element.name: _quote(element.name) for element in order.elements}
    lines = ["digraph lattice {", "  rankdir=BT;", "  node [shape=box];"]
    for element in sorted(order.elements, key=lambda e: e.name):
        attrs = f"label={_label(element.name, element.members)}"
        if element.synthetic:
            attrs += ", style=dashed"
        lines.append(f"  {quoted[element.name]} [{attrs}];")
    for a, b in sorted(covering_pairs(order)):
        lines.append(f"  {quoted[a]} -> {quoted[b]};")
    lines.append("}")
    return "\n".join(lines) + "\n"
