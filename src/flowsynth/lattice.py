"""Qualifier orders and effect semilattices over a cut flow graph.

Elements are the strongly connected components of the retained graph (all
edges minus the cut, a plain edge set); the order is reachability between
components, so a retained edge (u, v) always yields assignment(u) <=
assignment(v) and a separating cut guarantees the rejected flows stay
underivable.

Effect mode completes the order to a join semilattice by representing each
element as the down-set of component elements at or below it: joins are
down-set unions, a bottom (the pure, empty effect) is always added, and
missing unions become synthetic elements named after their maximal
generators ("A∨B").  While completing, a down-set is a Python-int bitset
over the generators, so a union is a bitwise OR and a subset test a mask.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

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
    """Elements, their partial order (stored as the full reflexive
    transitive relation over names), and the node assignment.

    covers are the order's covering pairs, its Hasse diagram, as
    `build_order` and `complete_join_semilattice` read them off the up-set
    bitsets they build; None for an order built by hand, whose covers are
    then reduced from the relation where they are needed.
    """

    elements: tuple[Element, ...]
    relation: frozenset[tuple[str, str]]
    assignment: dict[str, str]
    covers: frozenset[tuple[str, str]] | None = field(default=None, compare=False)

    @cached_property
    def by_name(self) -> dict[str, Element]:
        return {element.name: element for element in self.elements}

    def element(self, name: str) -> Element:
        try:
            return self.by_name[name]
        except KeyError:
            raise UnknownElement(name) from None

    def leq(self, a: str, b: str) -> bool:
        self.element(a)
        self.element(b)
        return (a, b) in self.relation

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(element.name for element in self.elements)


@dataclass(frozen=True)
class EffectSemilattice(QualifierOrder):
    """A QualifierOrder closed under binary joins, with a bottom element.

    downsets maps each element name to the set of non-synthetic generator
    names at or below it; joins are unions of these sets.
    """

    bottom: str = BOTTOM_NAME
    downsets: dict[str, frozenset[str]] = field(default_factory=dict)

    @cached_property
    def by_downset(self) -> dict[frozenset[str], str]:
        return {downset: name for name, downset in self.downsets.items()}


def build_order(graph: FlowGraph, cut_edges: frozenset[Edge]) -> QualifierOrder:
    """Condense the retained graph (every edge not in `cut_edges`) into
    elements and take the reachability order on the condensation.  Element
    names: "Q_" + smallest member."""
    retained = [edge for edge in graph.edge_keys() if edge not in cut_edges]
    condensation = scc_condense(graph.nodes, retained)

    names = ["Q_" + min(component) for component in condensation.components]
    elements = tuple(
        sorted(
            (Element(names[i], component) for i, component in enumerate(condensation.components)),
            key=lambda element: element.name,
        )
    )
    assignment = {node: names[index] for node, index in condensation.membership.items()}

    successors: dict[str, list[str]] = {name: [] for name in names}
    direct = [0] * len(names)
    for src, dst in condensation.quotient_edges:
        successors[names[src]].append(names[dst])
        direct[src] |= 1 << dst
    up = _upsets(successors)
    return QualifierOrder(elements, _upset_pairs(names, up), assignment, _covers(names, up, direct))


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
    generators = [e for e in sorted(order.elements, key=lambda e: e.name) if not e.synthetic]
    names = [g.name for g in generators]
    index = {name: i for i, name in enumerate(names)}
    down = [0] * len(names)
    for a, b in order.relation:
        if a in index and b in index:
            down[index[b]] |= 1 << index[a]

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
    for mask in sorted(closed, key=lambda mask: (mask.bit_count(), list(_bits(mask)))):
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

    mask_of = {name: mask for mask, name in name_for.items()}
    members_of = {g.name: g.members for g in generators}
    elements = tuple(
        sorted(
            (
                Element(name, members_of.get(name, frozenset()), name not in members_of)
                for name in name_for.values()
            ),
            key=lambda element: element.name,
        )
    )
    # Up-sets and cover candidates as bitsets, bit p standing for the p-th
    # element by name.  An element is below every element that holds all
    # of its generators, and it is covered by some of its joins with one
    # more generator's down-set.
    ordered = [element.name for element in elements]
    masks = [mask_of[name] for name in ordered]
    bit = {mask: 1 << p for p, mask in enumerate(masks)}
    holding = [0] * len(names)
    for mask in masks:
        for i in _bits(mask):
            holding[i] |= bit[mask]
    up = {}
    joins = []
    for name, mask in zip(ordered, masks):
        above = (1 << len(masks)) - 1
        for i in _bits(mask):
            above &= holding[i]
        up[name] = above
        joins.append(sum({bit[mask | generated] for generated in down if generated & ~mask}))
    downsets = {name: frozenset(names[i] for i in _bits(mask)) for mask, name in name_for.items()}
    return EffectSemilattice(
        elements=elements,
        relation=_upset_pairs(ordered, up),
        assignment=dict(order.assignment),
        covers=_covers(ordered, up, joins),
        bottom=name_for[0],
        downsets=downsets,
    )


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
    lattice.element(a)
    lattice.element(b)
    union = lattice.downsets[a] | lattice.downsets[b]
    return lattice.element(lattice.by_downset[union])
