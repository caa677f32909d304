"""Qualifier orders and effect semilattices over a cut flow graph.

Elements are the strongly connected components of the retained graph (all
edges minus the cut, a plain edge set); the order is reachability between
components, so a retained edge (u, v) always yields assignment(u) <=
assignment(v) and a separating cut guarantees the rejected flows stay
underivable.

An order holds one up-set bitset per element, in name order, so `leq` is
a bit test (Aït-Kaci et al., "Efficient implementation of lattice
operations", TOPLAS 1989); its relation as name pairs is built on demand.

Effect mode completes the order to a join semilattice by representing each
element as the down-set of component elements at or below it: joins are
down-set unions, a bottom (the pure, empty effect) is always added, and
missing unions become synthetic elements named after their maximal
generators ("A∨B").  A down-set is a Python-int bitset over the
generators, so a union is a bitwise OR and a subset test a mask.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce
from operator import and_

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

    up[p] is elements[p]'s up-set: bit q is set iff elements[p] leq
    elements[q].  `relation`, the full reflexive transitive relation over
    names, is a view computed on first read.  covers are the order's
    covering pairs, its Hasse diagram, as `build_order` and
    `complete_join_semilattice` read them off the up-sets; None for an
    order built by hand or loaded, whose covers `covering_pairs` reduces
    when they are needed.
    """

    elements: tuple[Element, ...]
    up: tuple[int, ...]
    assignment: dict[str, str]
    covers: frozenset[tuple[str, str]] | None = field(default=None, compare=False)

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
    """The order's covering pairs: those it carries, else read off its up-sets."""
    return order.covers if order.covers is not None else _covers(order.names, order.up)


def build_order(graph: FlowGraph, cut_edges: frozenset[Edge]) -> QualifierOrder:
    """Condense the retained graph (every edge not in `cut_edges`) into
    elements and take the reachability order on the condensation.  Element
    names: "Q_" + smallest member."""
    retained = [edge for edge in graph.edge_keys() if edge not in cut_edges]
    condensation = scc_condense(graph.nodes, retained)

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
    return QualifierOrder(elements, tuple(up), assignment, _covers(names, up, direct))


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

def complete_join_semilattice(order: QualifierOrder) -> EffectSemilattice:
    """Close the order under binary joins via generator down-sets.

    Every original element maps to the bitset of generators at or below it,
    bit i standing for the i-th generator by name.  A worklist ORs each new
    down-set with each generator's, and the empty set is bottom.  Original
    elements embed order-faithfully: x leq y iff downset(x) is a subset of
    downset(y).
    """
    generators = sorted((e for e in order.elements if not e.synthetic), key=lambda e: e.name)
    names = [g.name for g in generators]
    at = [order.index[name] for name in names]
    down = [sum(1 << i for i, q in enumerate(at) if order.up[q] >> p & 1) for p in at]

    closed = {0, *down}
    work = list(closed)
    while work:
        mask = work.pop()
        for generated in down:
            union = mask | generated
            if union not in closed:
                closed.add(union)
                work.append(union)

    taken = set(names)
    name_for = dict(zip(down, names))
    for mask in sorted(closed, key=_naming_key(len(names))):
        if mask in name_for:
            continue
        if not mask:
            name = BOTTOM_NAME
        else:
            # a member strictly below another member is not maximal
            below = 0
            for i in _bits(mask):
                below |= down[i] & ~(1 << i)
            name = "∨".join(names[i] for i in _bits(mask & ~below))
        while name in taken:
            name += "'"
        taken.add(name)
        name_for[mask] = name

    members_of = {mask: g.members for mask, g in zip(down, generators)}
    ordered = sorted(name_for, key=name_for.__getitem__)
    elements = tuple(
        Element(name_for[mask], members_of.get(mask, frozenset()), mask not in members_of) for mask in ordered
    )
    # Up-sets and cover candidates as bitsets, bit p standing for the p-th
    # element by name.  An element is below every element that holds all
    # of its generators, and it is covered by some of its joins with one
    # more generator's down-set.
    bit = {mask: 1 << p for p, mask in enumerate(ordered)}
    holding = [sum(bit[mask] for mask in ordered if mask >> i & 1) for i in range(len(names))]
    up = [reduce(and_, [holding[i] for i in _bits(mask)], (1 << len(ordered)) - 1) for mask in ordered]
    joins = [sum({bit[mask | generated] for generated in down if generated & ~mask}) for mask in ordered]
    return EffectSemilattice(
        elements=elements,
        up=tuple(up),
        assignment=dict(order.assignment),
        covers=_covers([element.name for element in elements], up, joins),
        bottom=name_for[0],
        down=tuple(ordered),
    )


def _naming_key(width: int):
    """Completion names new down-sets of `width` generators by size, then
    as the ascending lists of their generators compare; for sets of one
    size, that is the bit-reversed mask, descending."""
    return lambda mask: (mask.bit_count(), -int(f"{mask:0{width}b}"[::-1], 2))


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
