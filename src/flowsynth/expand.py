"""Candidate negative paths from a static callgraph.

When observed examples are scarce, developer-chosen endpoints are expanded
into all simple directed source-to-sink paths (bounded in length and
count) and emitted as negative traces marked origin="static-expansion",
so downstream reports can tell hypothesized flows from observed ones.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import UnknownNode, ValidationError
from .traces import NEGATIVE, Edge, Trace, is_string_list, is_string_pair, is_valid_node_id, load_json

STATIC_EXPANSION_ORIGIN = "static-expansion"


@dataclass(frozen=True)
class StaticGraph:
    nodes: frozenset[str]
    edges: frozenset[Edge]

    def __post_init__(self):
        for node in self.nodes:
            if not is_valid_node_id(node):
                raise ValidationError(f"invalid node id {node!r}")
        for src, dst in self.edges:
            if src not in self.nodes or dst not in self.nodes:
                raise ValidationError(f"edge ({src}, {dst}) references unknown node")


@dataclass(frozen=True)
class EndpointSpec:
    """A source/sink pair to expand; max_path_len bounds the number of
    nodes on a path."""

    source: str
    sink: str
    max_path_len: int = 12
    max_paths: int = 1000

    def __post_init__(self):
        if self.source == self.sink:
            raise ValidationError("source and sink must differ")
        if self.max_path_len < 2:
            raise ValidationError("max_path_len must be >= 2")
        if self.max_paths < 1:
            raise ValidationError("max_paths must be >= 1")


@dataclass(frozen=True)
class ExpansionResult:
    traces: tuple[Trace, ...]
    truncated: bool


def parse_static_graph(text: str) -> StaticGraph:
    doc = load_json(text)
    if not isinstance(doc, dict) or not {"nodes", "edges"} <= set(doc):
        raise ValidationError("static graph document needs 'nodes' and 'edges'")
    nodes = doc["nodes"]
    edges = doc["edges"]
    if not is_string_list(nodes):
        raise ValidationError("'nodes' must be an array of strings")
    if not isinstance(edges, list) or not all(map(is_string_pair, edges)):
        raise ValidationError("'edges' must be an array of [src, dst] pairs")
    return StaticGraph(frozenset(nodes), frozenset((e[0], e[1]) for e in edges))


def enumerate_candidate_paths(graph: StaticGraph, spec: EndpointSpec) -> ExpansionResult:
    """All simple directed source-to-sink paths with at most max_path_len
    nodes, in depth-first lexicographic order, truncated at max_paths.
    The truncated flag is set iff more paths exist than were returned.
    The walk enters a node only if the sink is reachable from it within
    the hops the bound leaves, through nodes not on the path: it prunes
    exactly the branches that hold no path.  Fewest hops to the sink,
    from one backward breadth-first search, rule out most nodes at once
    and keep each `_reaches` search to the nodes that can still reach the
    sink in time."""
    if spec.source not in graph.nodes:
        raise UnknownNode(spec.source)
    if spec.sink not in graph.nodes:
        raise UnknownNode(spec.sink)

    successors: dict[str, list[str]] = {}
    predecessors: dict[str, list[str]] = {}
    for src, dst in graph.edges:
        successors.setdefault(src, []).append(dst)
        predecessors.setdefault(dst, []).append(src)
    adjacency = {node: sorted(dsts) for node, dsts in successors.items()}
    hops = {spec.sink: 0}
    frontier = [spec.sink]
    for node in frontier:  # the list grows while it is walked: a FIFO queue
        for pred in predecessors.get(node, ()):
            if pred not in hops:
                hops[pred] = hops[node] + 1
                frontier.append(pred)

    # Depth-first with an explicit stack of successor iterators, one per
    # node on the current path; a path never continues past the sink.
    paths: list[tuple[str, ...]] = []
    truncated = False
    path = [spec.source]
    on_path = {spec.source}
    pending = [iter(adjacency.get(spec.source, ()))]
    while pending:
        succ = next(pending[-1], None)
        if succ is None:
            pending.pop()
            on_path.discard(path.pop())
        elif succ == spec.sink:
            if len(paths) >= spec.max_paths:
                truncated = True  # one path more than the budget exists
                break
            paths.append((*path, succ))
        elif succ not in on_path:
            left = spec.max_path_len - len(path) - 1  # edges from succ to the sink
            if hops.get(succ, left + 1) <= left and _reaches(adjacency, hops, succ, spec.sink, on_path, left):
                path.append(succ)
                on_path.add(succ)
                pending.append(iter(adjacency.get(succ, ())))

    traces = tuple(
        Trace(
            f"cand-{spec.source}-{spec.sink}-{k}",
            NEGATIVE,
            nodes,
            origin=STATIC_EXPANSION_ORIGIN,
        )
        for k, nodes in enumerate(paths)
    )
    return ExpansionResult(traces, truncated)


def _reaches(
    adjacency: dict[str, list[str]], hops: dict[str, int], start: str, sink: str, avoid: set[str], budget: int
) -> bool:
    """Whether `sink` is at most `budget` edges from `start` along a path
    whose other nodes are not in `avoid`: a breadth-first search, one
    level per edge, that queues only nodes whose fewest hops to the sink
    fit in what is left of the budget."""
    seen = {start, *avoid}
    frontier = [start]
    for level in range(1, budget + 1):
        left = budget - level
        reached = []
        for node in frontier:
            for succ in adjacency.get(node, ()):
                if succ == sink:
                    return True
                if succ not in seen and hops.get(succ, left + 1) <= left:
                    seen.add(succ)
                    reached.append(succ)
        frontier = reached
    return False
