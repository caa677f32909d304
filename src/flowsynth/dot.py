"""Graphviz DOT export of a synthesized order's Hasse diagram."""

from __future__ import annotations

from .graph import hasse_reduce  # noqa: F401  (bench/tracing.py wraps dot.hasse_reduce)
from .lattice import QualifierOrder, _cover_indices

_HEADER = b"digraph lattice {\n  rankdir=BT;\n  node [shape=box];\n"


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def lattice_dot(order: QualifierOrder) -> bytes:
    """The DOT file's UTF-8 bytes: covering edges only, drawn bottom-up
    (rank-min at the bottom); synthetic elements get dashed borders.
    Output is byte-deterministic.

    Nodes come in element order and edges in the ascending order of their
    index pairs, which is name order, since an order's elements are in
    name order.  Each element's name is escaped and encoded once, and each
    edge line joins its lower element's head piece to its upper element's
    tail piece."""
    names = [_escape(name).encode() for name in order.names]
    pieces = [_HEADER]
    for element, name in zip(order.elements, names):
        end = b'", style=dashed];\n' if element.synthetic else b'"];\n'
        if element.members:
            # escaping commutes with joining by ", ", which holds no quote or backslash
            end = ("\\n{" + _escape(", ".join(sorted(element.members))) + "}").encode() + end
        pieces += b'  "', name, b'" [label="', name, end
    heads = [b'  "' + name + b'" -> "' for name in names]
    tails = [name + b'";\n' for name in names]
    pieces += [heads[p] + tails[q] for p, q in _cover_indices(order)]
    pieces.append(b"}\n")
    return b"".join(pieces)
