"""Qualifier orders and effect semilattices over a cut flow graph.

Elements are the strongly connected components of the retained graph (all
edges minus the cut, a plain edge set); the order is reachability between
components, so a retained edge (u, v) always yields assignment(u) <=
assignment(v) and a separating cut guarantees the rejected flows stay
underivable.

An order holds one up-set bitset per element, in name order, so `leq` is
a bit test (Aït-Kaci et al., "Efficient implementation of lattice
operations", TOPLAS 1989); its relation as name pairs is built on demand.

An effect order's join completion represents each element as the
down-set of component elements at or below it: joins are down-set unions,
a bottom (the pure, empty effect) is always added, and missing unions
become synthetic elements named after their maximal generators ("A∨B").
A down-set is a Python-int bitset over the generators, so a union is a
bitwise OR and a subset test a mask.  No verdict reads a join, so
synthesis does not complete: `complete_join_semilattice` runs on demand,
for `SynthesisResult.semilattice`, lattice.dot draws from its walk, and
both give up past an element limit: k two-element chains have 3**k joins.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import inf

from .errors import UnknownElement
from .graph import FlowGraph, _bits, _covers, _upset_pairs, _upsets, scc_condense
from .traces import Edge

BOTTOM_NAME = "⊥"

EQUAL = "equal"
LESS = "less"
GREATER = "greater"
INCOMPARABLE = "incomparable"


@dataclass(frozen=True)
class Element:
    """A qualifier or effect: a named cluster of nodes.  Synthetic elements
    (joins, bottom, the unknown default) own no nodes."""

    name: str
    members: frozenset[str]
    synthetic: bool = False


@dataclass(frozen=True)
class QualifierOrder:
    """Elements, their partial order, and the node assignment.

    The elements are in strictly ascending name order, or the order is
    refused with ValueError.  up[p] is elements[p]'s up-set: bit q is set
    iff elements[p] leq elements[q].  `relation`, the full
    reflexive transitive relation over names, is a view computed on first
    read.  covers are the order's covering pairs, its Hasse diagram, as
    (p, q) element-index pairs in ascending order, which is also the
    order of their name pairs; `build_order` reads them off the
    up-sets and `complete_join_semilattice` off its walk.  They are None
    for an order built by hand or loaded, whose covers are reduced from
    the up-sets when they are needed; `covering_pairs` gives them as name
    pairs either way.
    """

    elements: tuple[Element, ...]
    up: tuple[int, ...]
    assignment: dict[str, str]
    covers: tuple[tuple[int, int], ...] | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        names = self.names
        for a, b in zip(names, names[1:]):
            if a >= b:
                raise ValueError(f"element names must be strictly ascending: {a!r} comes before {b!r}")

    @cached_property
    def index(self) -> dict[str, int]:
        return {element.name: p for p, element in enumerate(self.elements)}

    def element(self, name: str) -> Element:
        try:
            return self.elements[self.index[name]]
        except KeyError:
            raise UnknownElement(name) from None

    def leq(self, a: str, b: str) -> bool:
        try:
            return self.up[self.index[a]] >> self.index[b] & 1 == 1
        except KeyError as error:
            raise UnknownElement(error.args[0]) from None

    @cached_property
    def names(self) -> tuple[str, ...]:
        return tuple(element.name for element in self.elements)

    @cached_property
    def relation(self) -> frozenset[tuple[str, str]]:
        return _upset_pairs(self.names, self.up)


@dataclass(frozen=True)
class EffectSemilattice(QualifierOrder):
    """A QualifierOrder closed under binary joins, with a bottom element.

    down[p] is elements[p]'s down-set of generators (the non-synthetic
    elements), bit i standing for the i-th generator; a join is a union.
    `downsets` and `by_downset` give them as sets of names, on first read.
    """

    bottom: str = BOTTOM_NAME
    down: tuple[int, ...] = ()

    @cached_property
    def downsets(self) -> dict[str, frozenset[str]]:
        generators = [element.name for element in self.elements if not element.synthetic]
        sets = [frozenset(generators[i] for i in _bits(mask)) for mask in self.down]
        return dict(zip(self.names, sets))

    @cached_property
    def by_downset(self) -> dict[frozenset[str], str]:
        return {downset: name for name, downset in self.downsets.items()}

    @cached_property
    def by_down(self) -> dict[int, int]:
        return {mask: p for p, mask in enumerate(self.down)}


def covering_pairs(order: QualifierOrder) -> frozenset[tuple[str, str]]:
    """The order's covering pairs as name pairs, a view of `_cover_indices`."""
    names = order.names
    return frozenset((names[p], names[q]) for p, q in _cover_indices(order))


def _cover_indices(order: QualifierOrder) -> tuple[tuple[int, int], ...]:
    """The order's covering pairs as ascending index pairs: those it
    carries, else read off its up-sets."""
    return order.covers if order.covers is not None else _covers(order.up)


def build_order(graph: FlowGraph, cut_edges: frozenset[Edge]) -> QualifierOrder:
    """Condense the retained graph (every edge not in `cut_edges`) into
    elements and take the reachability order on the condensation.  Element
    names: "Q_" + smallest member."""
    condensation = scc_condense(graph.nodes, graph.edges - cut_edges)

    # components come ordered by smallest member, so already in name order
    names = ["Q_" + min(component) for component in condensation.components]
    elements = tuple(Element(name, component) for name, component in zip(names, condensation.components))
    assignment = {node: names[index] for node, index in condensation.membership.items()}

    successors: dict[int, list[int]] = {i: [] for i in range(len(names))}
    direct = [0] * len(names)
    for src, dst in condensation.quotient_edges:
        successors[src].append(dst)
        direct[src] |= 1 << dst
    up = _upsets(successors)
    return QualifierOrder(elements, tuple(up), assignment, _covers(up, direct))


# ---------------------------------------------------------------------------
# Consistency against the cut

CUT_EDGE_STILL_RELATED = "cut-edge-still-related"
CUT_EDGE_MERGED = "cut-edge-merged"
NEGATIVE_PAIR_RELATED = "negative-pair-related"


@dataclass(frozen=True)
class Violation:
    kind: str
    subject: Edge
    elements: tuple[str, str]

    def __str__(self) -> str:
        src, dst = self.subject
        a, b = self.elements
        if self.kind == CUT_EDGE_MERGED:
            return f"cut edge ({src}, {dst}): endpoints merged into one cluster {a}"
        what = "cut edge" if self.kind == CUT_EDGE_STILL_RELATED else "negative pair"
        return f"{what} ({src}, {dst}): {a} leq {b} still holds"


def check_consistency(
    order: QualifierOrder, cut_edges: frozenset[Edge], negative_pairs
) -> tuple[Violation, ...]:
    """Violations of the separation the cut was supposed to achieve: cut
    edges whose endpoints ended up related (or merged), and negative pairs
    whose endpoints ended up related.  Empty means consistent, as it always
    is for an irredundant cut that separates every pair."""
    violations = []
    for src, dst in sorted(cut_edges):
        a = order.assignment[src]
        b = order.assignment[dst]
        if a == b:
            violations.append(Violation(CUT_EDGE_MERGED, (src, dst), (a, b)))
        elif order.leq(a, b):
            violations.append(Violation(CUT_EDGE_STILL_RELATED, (src, dst), (a, b)))
    for source, sink in negative_pairs:
        a = order.assignment[source]
        b = order.assignment[sink]
        if order.leq(a, b):
            violations.append(Violation(NEGATIVE_PAIR_RELATED, (source, sink), (a, b)))
    return tuple(violations)


# ---------------------------------------------------------------------------
# Join-semilattice completion

def complete_join_semilattice(order: QualifierOrder, limit: int | None = None) -> EffectSemilattice | None:
    """Close the order under binary joins via generator down-sets; None past
    `limit` elements.  Elements, names and covers are `_join_walk`'s; an
    up-set is the union of its covers', built from the largest masks down
    (a strict subset is a smaller number).  lattice.dot draws the walk."""
    walk = _join_walk(order, limit)
    if walk is None:
        return None
    generators, masks, names, uppers = walk
    up = [1 << p for p in range(len(masks))]
    for p in sorted(range(len(masks)), key=masks.__getitem__, reverse=True):
        for q in uppers[p]:
            up[p] |= up[q]
    return EffectSemilattice(
        elements=tuple(generators.get(mask) or Element(name, frozenset(), True) for mask, name in zip(masks, names)),
        up=tuple(up),
        assignment=dict(order.assignment),
        covers=tuple((p, q) for p, above in enumerate(uppers) for q in above),
        bottom=names[masks.index(0)],
        down=tuple(masks),
    )


def _join_walk(order: QualifierOrder, limit: int | None):
    """The join completion, or None past `limit` elements: the generators
    by down-set mask, the down-set masks in name order, their names, and
    the positions of each one's upper covers, ascending with no sort.

    Element x maps to the bitset of generators at or below it, so x leq y
    iff downset(x) is a subset of downset(y); the unions are the
    generator order's down-sets (Birkhoff), which `_downsets` walks.  A
    new one is named after its maximal generators, "A∨B", the empty one
    "⊥", with "'" added while the name is taken."""
    at = [p for p, element in enumerate(order.elements) if not element.synthetic]
    names = [order.elements[p].name for p in at]
    down = [sum(1 << i for i, q in enumerate(at) if order.up[q] >> p & 1) for p in at]
    levels, top, below = _downsets(down, limit)
    if limit is not None and len(top) > limit:
        return None

    # names go in the order of size, then of sorted generator lists:
    # within one size, reversed binary strings, descending.  A join is its
    # lowest maximal generator's name and the rest's join, named before.
    taken = set(names)
    name_for = dict(zip(down, names))
    joined = {1 << i: name for i, name in enumerate(names)}
    for level in levels:
        for mask in sorted(level, key=lambda mask: bin(mask)[:1:-1], reverse=True):
            if mask in name_for:
                continue
            low = (maximal := top[mask]) & -maximal
            name = joined[maximal] = f"{joined[low]}∨{joined[maximal ^ low]}" if mask else BOTTOM_NAME
            while name in taken:
                name += "'"
            taken.add(name)
            name_for[mask] = name
    masks = sorted(name_for, key=name_for.__getitem__)
    position = {mask: p for p, mask in enumerate(masks)}
    uppers = [[] for _ in masks]
    for q, mask in enumerate(masks):
        for lower in below[mask]:
            uppers[position[lower]].append(q)
    return {mask: order.elements[p] for mask, p in zip(down, at)}, masks, [name_for[mask] for mask in masks], uppers


def _downsets(down: list[int], limit: int | None):
    """The down-sets of the generator order whose principal down-sets are
    `down`, walked up from the empty set one size at a time: a down-set
    grows by each generator outside it whose strict down-set it holds, and
    each such growth is a cover, whose generator is maximal in the larger
    set.  Returns the levels (lists of down-sets by size) and, per
    down-set, its maximal generators and the down-sets it covers.  The
    walk stops as soon as it holds more than `limit` down-sets."""
    steps = [(1 << i, mask & ~(1 << i)) for i, mask in enumerate(down)]
    bound = inf if limit is None else limit
    levels = [[0]]
    top = {0: 0}
    below: dict[int, list[int]] = {0: []}
    while levels[-1] and len(top) <= bound:
        level = []
        levels.append(level)
        for mask in levels[-2]:
            for bit, strict in steps:
                if not mask & bit and strict & mask == strict:
                    grown = mask | bit
                    if grown in top:
                        top[grown] |= bit
                        below[grown].append(mask)
                        continue
                    top[grown] = bit
                    below[grown] = [mask]
                    level.append(grown)
                    if len(top) > bound:
                        return levels, top, below
    return levels, top, below


def order_query(lattice: QualifierOrder, a: str, b: str) -> str:
    """Classify two elements as equal, less, greater, or incomparable."""
    forward = lattice.leq(a, b)
    backward = lattice.leq(b, a)
    if forward and backward:
        return EQUAL
    if forward:
        return LESS
    if backward:
        return GREATER
    return INCOMPARABLE


def join(lattice: EffectSemilattice, a: str, b: str) -> Element:
    """Least upper bound in the completed semilattice."""
    index = lattice.index
    try:
        union = lattice.down[index[a]] | lattice.down[index[b]]
    except KeyError as error:
        raise UnknownElement(error.args[0]) from None
    return lattice.elements[lattice.by_down[union]]
