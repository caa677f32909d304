"""Minimum-cut synthesis over negative flows.

The flow graph is the problem: each negative path contributes a
hitting-set constraint over its edges that `FlowGraph.cuttable_edges`
allows: those neither protected nor a self-loop.
Under the default separation semantics the returned cut must leave every
negative trace's sink unreachable from its source, not merely break the
observed paths, so constraints are generated lazily: solve the hitting
set over the current constraints, look for a still-connected negative
pair, add its witness path as a new constraint, and re-solve.  Ties
between minimum cuts are always broken toward the lexicographically
smallest sorted edge list, so identical inputs produce identical cuts.

Both hitting-set solvers work on one representation, a `_Family`: the
edges numbered in sorted order, each constraint kept as its edge numbers
and as a Python-int bitmask over them, and an edge-to-constraints index.
The refinement loop numbers every cuttable edge of the graph once and
appends each refined constraint to the same family, so no round
renumbers or rebuilds; since index order is edge order in any numbering,
the answers are those of a family built afresh.

The family also keeps its components: groups of constraints linked by
shared edges, found by a union-find over the edge numbers as constraints
arrive.  A greedy pick lowers the counts of its own component only, and
the reverse-delete pass that ends greedy tests an edge only against the
sets that hold it, so greedy over the whole family is the union of
greedy over each component.  Each component keeps its cover until a new
constraint touches it; a round re-solves only those, and a family built
afresh has every component to solve.  The exact solver is an iterative
branch and bound whose first bound is the greedy cover's size; it
branches on edges in sorted order, so the first cover it meets of a
given size is the lexicographically smallest one and tied optima need no
enumeration.

Separation is checked with one backward breadth-first search per distinct
sink, serving every negative pair that ends there; each witness is the
walk `shortest_path` takes for its pair alone.  A cut only ever removes
edges from the search, so a sink whose search reached none of its
sources stays separated for as long as every cut edge into what that
search reached stays cut; the refinement loop passes a memo of those
edges and such sinks are not searched again.
"""

from __future__ import annotations

import heapq
import logging
from dataclasses import dataclass
from operator import itemgetter
from typing import Sequence

from .errors import InfeasibleSet, RefinementLimitError
from .graph import FlowGraph, _bits, _distances_to, _nearest_walk
from .graph import shortest_path  # noqa: F401  (bench/tracing.py wraps cut.shortest_path)
from .traces import Edge

log = logging.getLogger(__name__)

PATH = "path"
SEPARATION = "separation"
SEMANTICS = (PATH, SEPARATION)

EXACT = "exact"
GREEDY = "greedy"
AUTO = "auto"


@dataclass(frozen=True)
class SolverConfig:
    solver: str = AUTO
    max_exact_candidates: int = 24
    max_iterations: int = 10_000


@dataclass(frozen=True)
class PathConstraint:
    """One negative path to hit: its id, node path, and cuttable edges."""

    id: str
    nodes: tuple[str, ...]
    cuttable: frozenset[Edge]


@dataclass(frozen=True)
class CutSet:
    """The synthesized prohibited edges plus the constraint system that
    justified them."""

    edges: frozenset[Edge]
    iterations: int
    optimal: bool
    constraints: tuple[PathConstraint, ...] = ()


@dataclass(frozen=True)
class Conflict:
    """A negative pair that cannot be separated: the witness path consists
    entirely of protected or self-loop edges."""

    pair: Edge
    witness: tuple[str, ...]
    negative_ids: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# Hitting set

def min_hitting_set_exact(
    sets: Sequence[frozenset[Edge]], forbidden: frozenset[Edge] = frozenset()
) -> frozenset[Edge]:
    """Minimum-cardinality set hitting every input set, disjoint from
    `forbidden`; among minima, the lexicographically smallest sorted edge
    list.  Iterative branch and bound over the bitmasks, bounded from the
    start by the greedy cover's size: see `_exact_cover`."""
    family = _family_of(sets, forbidden)
    limit = _greedy_cover(family).bit_count()
    return family.edge_set(_exact_cover(family.masks, limit))


def min_hitting_set_greedy(
    sets: Sequence[frozenset[Edge]], forbidden: frozenset[Edge] = frozenset()
) -> frozenset[Edge]:
    """Greedy cover: repeatedly pick the allowed edge hitting the most
    uncovered sets (ties lexicographic), then drop the picks a later pick
    made redundant.  Irredundant, not necessarily minimum."""
    family = _family_of(sets, forbidden)
    return family.edge_set(_greedy_cover(family))


class _Family:
    """A hitting-set family that grows in place: what both solvers read of
    its sets.

    The edges are numbered once, in sorted order, so index order is edge
    order.  Each set is kept as its edge indices and as a bitmask in which
    bit i stands for the i-th edge, and `containing[i]` lists the sets that
    hold edge i.  `append` extends all three, so a family that gains a set
    per refinement round is never renumbered or rebuilt.

    The components live in a union-find over the edge numbers: `sets`
    maps each component's root to its set numbers and `covers` to its
    greedy cover, and `dirty` holds the roots whose cover is missing.
    `named` counts the edges some set holds.  `last` is the last cover
    mask that `edge_set` turned into edges, with those edges.  Every set
    holds at least one edge.
    """

    def __init__(self, edges):
        self.edges = sorted(edges)
        self.number = {edge: index for index, edge in enumerate(self.edges)}
        self.indices: list[list[int]] = []
        self.masks: list[int] = []
        self.containing: list[list[int]] = [[] for _ in self.edges]
        self.named = 0
        self.parent = list(range(len(self.edges)))
        self.sets: dict[int, list[int]] = {}
        self.covers: dict[int, int] = {}
        self.dirty: set[int] = set()
        self.last: tuple[int, frozenset[Edge]] = (0, frozenset())

    def append(self, constraint) -> None:
        """Add a set and merge every component it touches into the one with
        the most sets, which then needs solving again."""
        set_number = len(self.masks)
        indices = [self.number[edge] for edge in constraint]
        mask = 0
        for index in indices:
            mask |= 1 << index
            holders = self.containing[index]
            if not holders:
                self.named += 1
            holders.append(set_number)
        self.indices.append(indices)
        self.masks.append(mask)
        parent, sets = self.parent, self.sets
        roots = set()
        for index in indices:
            while parent[index] != index:  # path halving
                parent[index] = index = parent[parent[index]]
            roots.add(index)
        top = max(roots, key=lambda root: len(sets.get(root, ())))
        roots.discard(top)
        merged = sets.setdefault(top, [])
        for root in roots:
            parent[root] = top
            merged.extend(sets.pop(root, ()))
            self.covers.pop(root, None)
            self.dirty.discard(root)
        merged.append(set_number)
        self.dirty.add(top)

    def edge_set(self, mask: int) -> frozenset[Edge]:
        """The edges of `mask`: the last call's, with the edges of the bits
        that differ taken out or put in.  A round's cover differs from the
        last one only in the components that were solved again."""
        last, edges = self.last
        changed = mask ^ last
        if changed:
            edges = edges.difference([self.edges[index] for index in _bits(changed & last)])
            edges = edges.union([self.edges[index] for index in _bits(changed & mask)])
            self.last = (mask, edges)
        return edges


def _family_of(sets: Sequence[frozenset[Edge]], forbidden: frozenset[Edge]) -> _Family:
    """`sets` itself when the refinement loop passes its family, else a new
    family of their allowed edges.  Raises InfeasibleSet for the first set
    that has no allowed edge, before any family is built."""
    if isinstance(sets, _Family):
        return sets
    allowed = [frozenset(constraint) - forbidden for constraint in sets]
    if not all(allowed):
        raise InfeasibleSet(allowed.index(frozenset()))
    family = _Family(frozenset().union(*allowed))
    for constraint in allowed:
        family.append(constraint)
    return family


def _greedy_cover(family: _Family) -> int:
    """The greedy cover of the whole family: each component that gained a
    set since its last solve is solved again by `_component_cover`, and the
    covers of the others are reused.  A pick changes counts only in its
    own component and the reverse-delete test of an edge reads only sets
    that hold it, so this is greedy over all the sets at once, ties
    included."""
    covers, sets = family.covers, family.sets
    for root in family.dirty:
        covers[root] = _component_cover(family, sets[root])
    family.dirty.clear()
    chosen = 0
    for cover in covers.values():
        chosen |= cover
    return chosen


def _component_cover(family: _Family, numbers: list[int]) -> int:
    """Greedy over the sets `numbers`, a component of the family: each pick
    is the edge in the most uncovered sets, ties to the smallest index.
    Counts only fall, so a lazy-deletion heap keyed (-count, index) yields
    the picks: an entry whose count is stale goes back in with the current
    one.  Later picks can cover every set an earlier one was taken for, so
    then each pick, largest index first, goes if every set holding it
    holds another."""
    containing, indices, masks = family.containing, family.indices, family.masks
    count = {index: len(containing[index]) for number in numbers for index in indices[number]}
    heap = [(-n, index) for index, n in count.items()]
    heapq.heapify(heap)
    covered: set[int] = set()
    uncovered = len(numbers)
    chosen = 0
    while uncovered:
        negated, index = heapq.heappop(heap)
        if -negated != count[index]:
            if count[index]:
                heapq.heappush(heap, (-count[index], index))
            continue
        chosen |= 1 << index
        for number in containing[index]:
            if number not in covered:
                covered.add(number)
                uncovered -= 1
                for other in indices[number]:
                    count[other] -= 1
    # a pick that is the only one in some set stays; only the rest are tried
    essential = 0
    for number in numbers:
        hit = masks[number] & chosen
        if not hit & (hit - 1):
            essential |= hit
    for index in sorted(_bits(chosen & ~essential), reverse=True):
        others = chosen ^ (1 << index)
        if all(masks[number] & others for number in containing[index]):
            chosen = others
    return chosen


def _exact_cover(masks: list[int], limit: int) -> int:
    """The lexicographically smallest minimum cover, given that one of at
    most `limit` edges exists.

    Depth-first with an explicit stack.  Each node fixes a set of chosen
    edges and a set of banned ones, and branches on the smallest edge that
    still hits an uncovered set: first take it, then ban it.  Every edge
    below that one is already decided, so the search meets covers in
    lexicographic order of their sorted edge lists, and the first cover it
    meets of any size is the smallest one of that size.  So a branch is cut
    as soon as it cannot beat the best cover so far, ties included.  The
    bound is a packing of pairwise disjoint uncovered sets, each needing an
    edge of its own.  A set left with one allowed edge forces that edge;
    every cover below the node contains it, so forcing changes no answer.
    No set is ever left with none: after forcing, every uncovered set holds
    at least two allowed edges, and a ban removes only one.
    """
    best, best_size = 0, limit + 1
    # sets in (size, mask) order give the packing bound its best start
    stack = [(0, 0, sorted(set(masks), key=lambda mask: (mask.bit_count(), mask)))]
    while stack:
        chosen, banned, sets = stack.pop()
        uncovered = []
        forced = 0
        for mask in sets:
            if not mask & chosen:
                allowed = mask & ~banned
                if not allowed & (allowed - 1):
                    forced |= allowed
                uncovered.append(allowed)
        if forced:
            chosen |= forced
            uncovered = [mask for mask in uncovered if not mask & forced]
        size = chosen.bit_count()
        if not uncovered:
            if size < best_size:
                best, best_size = chosen, size
            continue
        if size + _packing_bound(uncovered) >= best_size:
            continue
        union = 0
        for mask in uncovered:
            union |= mask
        edge = union & -union
        stack.append((chosen, banned | edge, uncovered))
        stack.append((chosen | edge, banned, uncovered))
    assert best_size <= limit  # a cover of `limit` edges exists
    return best


def _packing_bound(sets: list[int]) -> int:
    """How many of the sets, smallest first, are pairwise disjoint."""
    count = used = 0
    for mask in sorted(sets, key=int.bit_count):
        if not mask & used:
            count += 1
            used |= mask
    return count


# ---------------------------------------------------------------------------
# Separation checking and the refinement loop

def verify_separation(
    graph: FlowGraph, cut: frozenset[Edge], *, separated: dict | None = None
) -> tuple[tuple[Edge, tuple[str, ...]], ...]:
    """For every pair of `graph.negative_pairs` still connected after the
    cut, one witness path (breadth-first shortest, lexicographic), in
    pair order.  Empty means separated.

    The pairs are grouped by sink, each sink with its sources and the
    positions of its pairs (`graph.negative_sinks`, cached on the graph
    like its adjacency), so a round of the refinement loop costs what it
    searches.  One backward search runs from each sink until all of that
    sink's sources are labelled; its distances are exact, so each witness
    is the one `shortest_path` gives for its pair.  The leftover is read
    off the searched sinks only.

    `separated` is a memo the caller keeps across calls on one graph, at
    first empty.  A search that reaches none of its sink's sources leaves
    there the sources and the cut edges into what it reached.  Cutting
    more can only shrink what reaches the sink, so while all of those
    edges are still in `cut` the sink is not searched again.  The answer
    is the same with or without the memo."""
    pairs = graph.negative_pairs
    reverse = graph.reverse_adjacency
    memo = {} if separated is None else separated
    found = []
    for sink, (starts, positions) in graph.negative_sinks.items():
        known = memo.get(sink)
        if known is not None and known[0] == starts and known[1] <= cut:
            continue
        dist = _distances_to(graph, sink, starts, cut)
        if starts.isdisjoint(dist):
            # the search ran dry, so it labelled all that reaches the sink,
            # and every edge into that from outside is cut
            boundary = frozenset((pred, node) for node in dist for pred in reverse[node] if pred not in dist)
            memo[sink] = (starts, boundary)
            continue
        memo.pop(sink, None)
        for position in positions:
            source = pairs[position][0]
            if source in dist:
                found.append((position, source, sink, dist))
    found.sort(key=itemgetter(0))
    return tuple(
        ((source, sink), _nearest_walk(graph, source, dist, cut)) for _, source, sink, dist in found
    )


def solve_synthesis_cut(
    graph: FlowGraph, semantics: str = SEPARATION, config: SolverConfig = SolverConfig()
):
    """The minimum cut over the graph's cuttable edges, or a Conflict.

    Path semantics hits the negative paths once.  Separation semantics
    (default) runs the lazy refinement loop until every negative pair is
    separated; `iterations` counts hitting-set solves.  `optimal` is True
    iff the exact solver produced the final solve.  Both solvers are handed
    one family that gains each refined constraint in place, and
    `verify_separation` one memo of the sinks already separated.  Each
    separation round logs one DEBUG line.  An unknown semantics or solver
    raises ValueError before any work.
    """
    if semantics not in SEMANTICS:
        raise ValueError(f"unknown semantics {semantics!r}")
    if config.solver not in (AUTO, EXACT, GREEDY):
        raise ValueError(f"unknown solver {config.solver!r}")
    allowed = graph.cuttable_edges()

    def cuttable_on(nodes):  # the cuttable edges along a path of the graph
        return allowed.intersection(zip(nodes, nodes[1:]))

    family = _Family(allowed)
    constraints = []
    for trace_id, nodes in graph.negative_paths:
        cuttable = cuttable_on(nodes)
        if not cuttable:
            return _conflict(graph, (nodes[0], nodes[-1]), nodes)
        constraints.append(PathConstraint(trace_id, nodes, cuttable))
        family.append(cuttable)
    separated: dict = {}
    sinks = len({sink for _, sink in graph.negative_pairs})

    iterations = 0
    refined = 0
    warned_greedy = False
    while True:
        iterations += 1
        if iterations > config.max_iterations:
            raise RefinementLimitError(
                f"refinement did not terminate within {config.max_iterations} iterations"
            )
        # auto's candidates: the edges some constraint names
        use_exact = config.solver == EXACT or (
            config.solver == AUTO and family.named <= config.max_exact_candidates
        )
        if config.solver == AUTO and not use_exact and not warned_greedy:
            warned_greedy = True
            log.warning(
                "%d candidate edges exceed max_exact_candidates=%d; "
                "falling back to the greedy solver (cut may not be minimum)",
                family.named,
                config.max_exact_candidates,
            )
        solve = min_hitting_set_exact if use_exact else min_hitting_set_greedy
        resolved = len(family.dirty)
        cut = solve(family) if family.masks else frozenset()

        if semantics == PATH:
            return CutSet(cut, iterations, use_exact, tuple(constraints))

        # a memo entry the call leaves as it was is a sink it did not search
        kept = dict(separated) if log.isEnabledFor(logging.DEBUG) else None
        leftover = verify_separation(graph, cut, separated=separated)
        if kept is not None:
            log.debug(
                "round %d: %d constraints, %d of %d components re-solved, %s solver, "
                "cut %d edges, %d pairs unseparated, %d of %d sinks searched",
                iterations,
                len(family.masks),
                resolved,
                len(family.sets),
                EXACT if use_exact else GREEDY,
                len(cut),
                len(leftover),
                sinks - sum(separated.get(sink) is entry for sink, entry in kept.items()),
                sinks,
            )
        if not leftover:
            return CutSet(cut, iterations, use_exact, tuple(constraints))
        for pair, witness in leftover:
            cuttable = cuttable_on(witness)
            if not cuttable:
                return _conflict(graph, pair, witness)
            refined += 1
            constraints.append(PathConstraint(f"refined-{refined}", witness, cuttable))
            family.append(cuttable)


def _conflict(graph: FlowGraph, pair: Edge, witness: tuple[str, ...]) -> Conflict:
    negative_ids = tuple(
        trace_id
        for trace_id, nodes in graph.negative_paths
        if (nodes[0], nodes[-1]) == pair
    )
    return Conflict(pair, witness, negative_ids)
