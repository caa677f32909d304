"""Graphviz DOT export of a synthesized order's Hasse diagram."""

from __future__ import annotations

from json.encoder import encode_basestring as _str

from .graph import hasse_reduce  # noqa: F401  (bench/tracing.py wraps dot.hasse_reduce)
from .lattice import Element, QualifierOrder, _cover_indices, _join_walk

_HEADER = b"digraph lattice {\n  rankdir=BT;\n  node [shape=box];\n"
_JOIN = Element("", frozenset(), True)  # a join is drawn dashed and labelled by its name


def lattice_dot(order: QualifierOrder) -> bytes:
    """The DOT file's UTF-8 bytes, byte-deterministic: covering edges only,
    drawn bottom-up (rank-min at the bottom); synthetic elements dashed.

    Names and labels are quoted as analysis.json quotes strings
    (`encode_basestring`), so a control character is a visible escape and
    distinct names give distinct ids.  Nodes come in element order and
    edges in the ascending order of their index pairs, which is name
    order; each name is quoted and encoded once."""
    uppers = [[] for _ in order.elements]
    for p, q in _cover_indices(order):
        uppers[p].append(q)
    return _draw(order.names, order.elements, uppers)


def completion_dot(order: QualifierOrder, limit: int | None = None) -> bytes | None:
    """`lattice_dot` of the order's join completion, or None past `limit`
    elements, drawn from its walk: no Element per join, up-sets or cover
    sort.  On ui-effects (243 elements) it takes about 1.0 ms in process
    against 1.5 ms to build and draw the semilattice."""
    walk = _join_walk(order, limit)
    if walk is None:
        return None
    generators, masks, names, uppers = walk
    return _draw(names, [generators.get(mask, _JOIN) for mask in masks], uppers)


def drawn_counts(dot: bytes) -> tuple[int, int]:
    """A drawing's node lines, and those dashed: the lines before the first
    edge's, the first to end '";' (names are escaped), less the header's 3."""
    end = dot.find(b'";\n')  # -1 with no edge: all but the closing line's end
    return dot.count(b"\n", 0, end) - 3, dot.count(b", style=dashed];\n", 0, end)


def _draw(names: list[str], elements: list[Element], uppers: list[list[int]]) -> bytes:
    """Nodes in name order, drawn as `elements`, and edges from each node p
    to the nodes uppers[p], one concatenation each: on taint-ladder's 534
    covers that takes 0.17 ms, and one join per head 0.25 ms."""
    quoted = [_str(name).encode() for name in names]
    pieces = [_HEADER]
    for element, name in zip(elements, quoted):
        label = _str(f"{element.name}\n{{{', '.join(sorted(element.members))}}}").encode() if element.members else name
        pieces += b"  ", name, b" [label=", label, b", style=dashed];\n" if element.synthetic else b"];\n"
    heads = [b"  " + name + b" -> " for name in quoted]
    tails = [name + b";\n" for name in quoted]
    pieces += [heads[p] + tails[q] for p, above in enumerate(uppers) for q in above]
    pieces.append(b"}\n")
    return b"".join(pieces)
