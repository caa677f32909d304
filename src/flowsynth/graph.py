"""Union flow graph over a corpus, plus the reachability and bitset
primitives that the solver, the order layer and the analysis loader share."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .errors import CycleError, UnknownNode
from .traces import POSITIVE, Corpus, Edge
from .traces import validate_corpus  # noqa: F401  (bench/tracing.py wraps graph.validate_corpus)


@dataclass(frozen=True)
class FlowGraph:
    """The union of all trace edges and required edges.  Protected edges
    and self-loops are never cut; negative_pairs are the (source, sink)
    endpoints of the negative traces, deduplicated in corpus order;
    negative_paths keeps each negative trace's full node path for
    constraint generation and conflict witnesses.
    """

    nodes: frozenset[str]
    edges: frozenset[Edge]
    protected: frozenset[Edge]
    negative_pairs: tuple[Edge, ...]
    negative_paths: tuple[tuple[str, tuple[str, ...]], ...]

    @cached_property
    def negative_sinks(self) -> dict[str, tuple[frozenset[str], tuple[int, ...]]]:
        """Each sink of `negative_pairs` with its sources and the positions
        of its pairs there, sinks in order of first appearance.  Raises
        UnknownNode for the first node, source before sink, not in `nodes`."""
        groups: dict[str, tuple[set[str], list[int]]] = {}
        for position, (source, sink) in enumerate(self.negative_pairs):
            if source not in self.nodes:
                raise UnknownNode(source)
            if sink not in self.nodes:
                raise UnknownNode(sink)
            sources, positions = groups.setdefault(sink, (set(), []))
            sources.add(source)
            positions.append(position)
        return {sink: (frozenset(sources), tuple(positions)) for sink, (sources, positions) in groups.items()}

    @cached_property
    def adjacency(self) -> dict[str, tuple[str, ...]]:
        out: dict[str, list[str]] = {node: [] for node in self.nodes}
        for src, dst in self.edges:
            out[src].append(dst)
        return {node: tuple(sorted(dsts)) for node, dsts in out.items()}

    @cached_property
    def reverse_adjacency(self) -> dict[str, tuple[str, ...]]:
        """Each node's predecessors, unsorted: no backward search reads their order."""
        inc: dict[str, list[str]] = {node: [] for node in self.nodes}
        for src, dst in self.edges:
            inc[dst].append(src)
        return {node: tuple(srcs) for node, srcs in inc.items()}

    def cuttable_edges(self) -> frozenset[Edge]:
        return frozenset(edge for edge in self.edges - self.protected if edge[0] != edge[1])


def build_graph(corpus: Corpus) -> FlowGraph:
    """Union the corpus into a FlowGraph.  A pure union: the corpus is not
    validated here; `pipeline.synthesize`, the entry point, validates it
    first.  An edge is protected when it is required or when at least
    min_positive_support distinct positive traces hold it: each positive
    trace counts the set of its edges, so an edge it repeats counts once."""
    edges: set[Edge] = set(corpus.required_edges)
    nodes: set[str] = set().union(*corpus.required_edges)
    support: dict[Edge, int] = {}
    for _, polarity, path, _ in corpus.traces:
        nodes.update(path)
        if polarity != POSITIVE:
            edges.update(zip(path, path[1:]))
            continue
        for edge in set(zip(path, path[1:])):
            support[edge] = support.get(edge, 0) + 1
    edges.update(support)
    # a counted edge has support >= 1, so "and at least one" needs no test
    least = corpus.min_positive_support
    protected = corpus.required_edges.union(edge for edge, count in support.items() if count >= least)

    negatives = corpus.negatives
    pairs = tuple(dict.fromkeys(trace.endpoints for trace in negatives))
    paths = tuple((trace.id, trace.nodes) for trace in negatives)
    return FlowGraph(frozenset(nodes), frozenset(edges), protected, pairs, paths)


def shortest_path(
    graph: FlowGraph, start: str, goal: str, excluded: frozenset[Edge] = frozenset()
) -> tuple[str, ...] | None:
    """Lexicographically smallest breadth-first shortest path start..goal
    avoiding `excluded`, or None when goal is unreachable: the one-start
    case of `_distances_to` and `_nearest_walk`."""
    if start not in graph.nodes:
        raise UnknownNode(start)
    if goal not in graph.nodes:
        raise UnknownNode(goal)
    dist = _distances_to(graph, goal, (start,), excluded)
    return _nearest_walk(graph, start, dist, excluded) if start in dist else None


def _distances_to(
    graph: FlowGraph, goal: str, starts: Iterable[str], excluded: frozenset[Edge]
) -> dict[str, int]:
    """Distances to goal over edges not in `excluded`, from one
    breadth-first search run backward from goal until every node of
    `starts` is labelled or nothing is left to label.  A node is labelled
    when found, with its exact distance; when the last start is labelled,
    every node nearer to goal than it has been labelled too."""
    dist = {goal: 0}
    waiting = set(starts)
    waiting.discard(goal)
    queue = deque([goal])
    reverse = graph.reverse_adjacency
    while waiting and queue:
        node = queue.popleft()
        step = dist[node] + 1
        for pred in reverse[node]:
            if pred not in dist and (pred, node) not in excluded:
                dist[pred] = step
                queue.append(pred)
                waiting.discard(pred)
    return dist


def _nearest_walk(
    graph: FlowGraph, start: str, dist: dict[str, int], excluded: frozenset[Edge]
) -> tuple[str, ...]:
    """The walk from a labelled start that always takes the smallest
    successor one step nearer to the goal of `dist`."""
    path = [start]
    node = start
    adjacency = graph.adjacency
    step = dist[start]
    while step:
        step -= 1
        for succ in adjacency[node]:  # sorted, so the first found is the smallest
            if dist.get(succ) == step and (node, succ) not in excluded:
                break
        node = succ
        path.append(node)
    return tuple(path)


# ---------------------------------------------------------------------------
# Condensation and transitive reduction

@dataclass(frozen=True)
class Condensation:
    """Partition into strongly connected components plus the acyclic
    quotient edges; components are ordered by smallest member."""

    components: tuple[frozenset[str], ...]
    membership: dict[str, int]
    quotient_edges: frozenset[tuple[int, int]]


def scc_condense(nodes: Iterable[str], edges: Iterable[Edge]) -> Condensation:
    """Strongly connected components and the quotient edge set between
    them, by Kosaraju's two passes: a depth-first search lists the nodes as
    they finish, then a walk of the reversed edges from each node not yet
    placed, the last to finish first, collects exactly its component."""
    edge_set = set(edges)
    node_set = set(nodes).union(*edge_set)
    successors: dict[str, list[str]] = {node: [] for node in node_set}
    predecessors: dict[str, list[str]] = {node: [] for node in node_set}
    for src, dst in edge_set:
        successors[src].append(dst)
        predecessors[dst].append(src)

    finished: list[str] = []
    seen: set[str] = set()
    for root in successors:
        if root in seen:
            continue
        seen.add(root)
        path = [root]
        pending = [iter(successors[root])]
        while pending:
            succ = next(pending[-1], None)
            if succ is None:
                pending.pop()
                finished.append(path.pop())
            elif succ not in seen:
                seen.add(succ)
                path.append(succ)
                pending.append(iter(successors[succ]))

    components: list[frozenset[str]] = []
    placed: set[str] = set()
    for root in reversed(finished):
        if root in placed:
            continue
        placed.add(root)
        component = [root]
        for node in component:  # the list grows while it is walked
            for pred in predecessors[node]:
                if pred not in placed:
                    placed.add(pred)
                    component.append(pred)
        components.append(frozenset(component))

    components.sort(key=min)
    membership = {node: i for i, comp in enumerate(components) for node in comp}
    quotient = frozenset(
        (membership[src], membership[dst])
        for src, dst in edge_set
        if membership[src] != membership[dst]
    )
    return Condensation(tuple(components), membership, quotient)


def _upsets(successors: dict) -> list[int]:
    """Each node's up-set (itself plus everything it reaches) as an int
    bitset, listed and numbered as the keys of `successors` (bit i stands
    for the i-th key): Kahn's topological sort, then one
    reverse-topological pass that ORs each node's successors' up-sets into
    its own.  Raises CycleError on a cycle, self-loops included."""
    indegree = dict.fromkeys(successors, 0)
    for dsts in successors.values():
        for dst in dsts:
            indegree[dst] += 1
    topo = [node for node, degree in indegree.items() if degree == 0]
    for node in topo:  # the list grows while it is walked: a FIFO queue
        for succ in successors[node]:
            indegree[succ] -= 1
            if indegree[succ] == 0:
                topo.append(succ)
    if len(topo) != len(successors):
        raise CycleError("input relation contains a cycle")
    bit = {node: 1 << i for i, node in enumerate(successors)}
    up: dict = {}
    for node in reversed(topo):
        mask = bit[node]
        for succ in successors[node]:
            mask |= up[succ]
        up[node] = mask
    return [up[node] for node in successors]


def _bits(mask: int):
    """The indices of a bitmask's set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _upset_pairs(nodes: list, up: list) -> frozenset[tuple]:
    """The order as pairs: (a, b) for every b in a's up-set, up[i] being
    the up-set of nodes[i] and bit i standing for nodes[i]."""
    return frozenset((a, nodes[index]) for a, mask in zip(nodes, up) for index in _bits(mask))


def _covers(up: list, candidates: list | None = None) -> tuple[tuple[int, int], ...]:
    """The covering pairs (i, j), ascending, of the order whose up-sets
    are `up` (bit j of up[i] set iff node i is at or below node j, each
    node in its own up-set).  candidates[i] is a bitset that holds every
    node covering node i and only nodes above it, by default everything
    above it: j covers i when j is a candidate of i and above no other
    candidate of i."""
    strict = [mask & ~(1 << i) for i, mask in enumerate(up)]
    covers = []
    for i, above in enumerate(strict if candidates is None else candidates):
        implied = 0
        for j in _bits(above):
            implied |= strict[j]
        covers.extend([(i, j) for j in _bits(above & ~implied)])
    return tuple(covers)


def hasse_reduce(edges: Iterable[tuple]) -> frozenset[tuple]:
    """Transitive reduction of an acyclic relation: the minimal edge set
    with the same reachability.  Raises CycleError on cyclic input."""
    edge_set = set(edges)
    successors: dict = {node: [] for node in sorted({n for edge in edge_set for n in edge})}
    for src, dst in edge_set:
        successors[src].append(dst)
    nodes = list(successors)
    index = {node: i for i, node in enumerate(nodes)}
    direct = [sum(1 << index[dst] for dst in dsts) for dsts in successors.values()]
    return frozenset((nodes[i], nodes[j]) for i, j in _covers(_upsets(successors), direct))
