"""Graphviz DOT export of a synthesized order's Hasse diagram."""

from __future__ import annotations

from json.encoder import encode_basestring as _str

from .graph import hasse_reduce  # noqa: F401  (bench/tracing.py wraps dot.hasse_reduce)
from .lattice import QualifierOrder, _cover_indices

_HEADER = b"digraph lattice {\n  rankdir=BT;\n  node [shape=box];\n"


def lattice_dot(order: QualifierOrder) -> bytes:
    """The DOT file's UTF-8 bytes: covering edges only, drawn bottom-up
    (rank-min at the bottom); synthetic elements get dashed borders.
    Output is byte-deterministic.

    Names and labels are quoted as analysis.json quotes strings
    (`encode_basestring`), so a control character is a visible escape and
    distinct names give distinct ids.  Nodes come in element order and
    edges in the ascending order of their index pairs, which is name
    order; each name is quoted and encoded once."""
    names = [_str(name).encode() for name in order.names]
    pieces = [_HEADER]
    for element, name in zip(order.elements, names):
        label = _str(f"{element.name}\n{{{', '.join(sorted(element.members))}}}").encode() if element.members else name
        pieces += b"  ", name, b" [label=", label, b", style=dashed];\n" if element.synthetic else b"];\n"
    heads = [b"  " + name + b" -> " for name in names]
    tails = [name + b";\n" for name in names]
    pieces += [heads[p] + tails[q] for p, q in _cover_indices(order)]
    pieces.append(b"}\n")
    return b"".join(pieces)
