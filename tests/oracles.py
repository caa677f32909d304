"""Brute-force oracles the solver and expander are checked against.

Everything here enumerates: subsets by increasing size for hitting sets and
separation cuts, recursive walks for simple paths, pairwise closure for
reachability, every intermediate element for transitive reduction,
every pair and every candidate bound for the semilattice laws, every
(negative, positive) pair for corpus conflicts.  Earlier
versions of some layers are kept as references: the hitting-set solvers as
first written (a greedy that recounts every round, a recursive branch and
bound that enumerates tied optima), a reverse-delete pass that makes a
cover irredundant, the two-way breadth-first witness search, the
refinement loop that rebuilds its hitting-set family every round and
checks separation with one search per negative pair, the
pairwise-fixpoint join completion over frozensets and the mask completion
that followed it, and the writers and
checks as first written (the corpus, report and analysis documents through
`json.dumps` with `indent`, the node-id predicate as a per-character scan,
the string-list predicate as a generator over the items, the trace check
as a walk over the `trace_edges` tuple that looks each edge up in the
closure of the spec's pairs, the corpus check that counts in a second walk
over the traces, the corpus parser that checks the traces array one entry
at a time, the DOT writer that escapes each name twice), the graph builder
that keeps a set of witness ids and one of positive ids per edge, the
corpus validation that walks every edge of every trace, the nearest walk
that takes each step from a generator expression, the spec builder that
read the completed semilattice in effect mode (which also builds an
effect spec from the generator order alone), the condensation by
iterative Tarjan, the stack-trace parser that kept one object per
section, the corpus writer that rendered one `%` row per trace, and the
corpus check that paired each trace with a generator walk's verdict.
None of it shares code
with the implementations under test; the references only build the
package's own data types (the corpus parser also reads the document
with the package's JSON decoder and predicates, the spec builder takes
its digest with `corpus_digest`, the mask completion reads bits with
`_bits`, the row-by-row corpus writer hands its rows to `dump_json`,
the walk reads the spec's node index and up-sets, and the graph builder
and validation take their edges from `trace_edges`, which are not what
their oracle tests).  Covers are
reduced by `reference_covers`, the name-pair reduction as it was before
orders carried their covers as index pairs.
"""

from __future__ import annotations

import json
import re
import sys
from bisect import bisect_left
from collections import deque
from functools import reduce
from itertools import combinations
from json.encoder import encode_basestring
from operator import and_
from typing import NamedTuple

from flowsynth import __version__
from flowsynth.checker import QUALIFIER_DEFAULT, AnalysisSpec, CheckReport, Verdict
from flowsynth.cut import AUTO, EXACT, GREEDY, PATH, Conflict, CutSet, PathConstraint, SolverConfig
from flowsynth.errors import InfeasibleSet, ParseError, RefinementLimitError, UnknownNode, ValidationError
from flowsynth.graph import Condensation, FlowGraph, _bits
from flowsynth.lattice import BOTTOM_NAME, EffectSemilattice, Element, QualifierOrder
from flowsynth.traces import (
    EFFECT,
    ERROR,
    NEGATIVE,
    POSITIVE,
    QUALIFIER,
    WARNING,
    Corpus,
    Diagnostic,
    Edge,
    Trace,
    corpus_digest,
    dump_json,
    is_string_list,
    is_string_pair,
    is_valid_node_id,
    load_json,
    trace_edges,
)


def brute_min_hitting_set(sets, forbidden=frozenset()):
    """Smallest (then lexicographically smallest) set hitting every input
    set while avoiding `forbidden`; None when some set cannot be hit."""
    reduced = [frozenset(s) - frozenset(forbidden) for s in sets]
    if any(not s for s in reduced):
        return None
    candidates = sorted({e for s in reduced for e in s})
    for size in range(len(candidates) + 1):
        for combo in combinations(candidates, size):
            chosen = set(combo)
            if all(s & chosen for s in reduced):
                return frozenset(chosen)
    return None  # pragma: no cover - the full candidate set always hits


def _allowed_sets(sets, forbidden):
    reduced = [frozenset(s) - frozenset(forbidden) for s in sets]
    return None if any(not s for s in reduced) else reduced


def reference_greedy_hitting_set(sets, forbidden=frozenset()):
    """The greedy cover as first written: recount every uncovered set each
    round, pick the edge hitting the most (ties lexicographic).  None when
    some set cannot be hit."""
    uncovered = _allowed_sets(sets, forbidden)
    if uncovered is None:
        return None
    chosen = set()
    while uncovered:
        counts = {}
        for constraint in uncovered:
            for edge in constraint:
                counts[edge] = counts.get(edge, 0) + 1
        pick = min(counts, key=lambda e: (-counts[e], e))
        chosen.add(pick)
        uncovered = [s for s in uncovered if pick not in s]
    return frozenset(chosen)


def reference_irredundant(cover, sets):
    """The cover less its redundant edges, largest edge first: an edge goes
    when every set holding it holds another edge still kept."""
    kept = set(cover)
    for edge in sorted(cover, reverse=True):
        if all(s & (kept - {edge}) for s in sets if edge in s):
            kept.discard(edge)
    return frozenset(kept)


def _reference_irredundant_greedy(sets, forbidden):
    cover = reference_greedy_hitting_set(sets, forbidden)
    return None if cover is None else reference_irredundant(cover, sets)


def reference_exact_hitting_set(sets, forbidden=frozenset()):
    """The branch and bound as first written: recursive, no incumbent at the
    start, branch on the smallest uncovered set, enumerate every tied
    optimum and keep the lexicographically smallest.  None when some set
    cannot be hit."""
    reduced = _allowed_sets(sets, forbidden)
    if reduced is None:
        return None
    best = [None]

    def packing_bound(uncovered):
        count = 0
        used = set()
        for candidate in sorted(uncovered, key=lambda s: (len(s), sorted(s))):
            if not candidate & used:
                count += 1
                used.update(candidate)
        return count

    def search(chosen, banned, remaining):
        uncovered = [s for s in remaining if not s & chosen]
        if not uncovered:
            candidate = tuple(sorted(chosen))
            incumbent = best[0]
            if incumbent is None or (len(candidate), candidate) < (len(incumbent), incumbent):
                best[0] = candidate
            return
        effective = []
        for constraint in uncovered:
            allowed = constraint - banned
            if not allowed:
                return
            effective.append(allowed)
        incumbent = best[0]
        if incumbent is not None and len(chosen) + packing_bound(effective) > len(incumbent):
            return
        branch_set = min(effective, key=lambda s: (len(s), sorted(s)))
        tried = set()
        for edge in sorted(branch_set):
            search(chosen | {edge}, banned | frozenset(tried), uncovered)
            tried.add(edge)

    search(set(), frozenset(), reduced)
    return frozenset(best[0])


def reachable_nodes(edges, start, removed=frozenset()):
    """Plain worklist reachability over an edge list."""
    adjacency = {}
    for src, dst in edges:
        if (src, dst) not in removed:
            adjacency.setdefault(src, set()).add(dst)
    seen = {start}
    frontier = [start]
    while frontier:
        node = frontier.pop()
        for succ in adjacency.get(node, ()):
            if succ not in seen:
                seen.add(succ)
                frontier.append(succ)
    return seen


def separates(edges, cut, pairs):
    return all(sink not in reachable_nodes(edges, source, cut) for source, sink in pairs)


def brute_min_separation_cut(edges, cuttable, pairs):
    """Smallest (then lexicographically smallest) subset of `cuttable`
    whose removal separates every (source, sink) pair over `edges`;
    None when even cutting everything cuttable fails."""
    candidates = sorted(cuttable)
    if not separates(edges, frozenset(candidates), pairs):
        return None
    for size in range(len(candidates) + 1):
        for combo in combinations(candidates, size):
            if separates(edges, frozenset(combo), pairs):
                return frozenset(combo)
    return None  # pragma: no cover - full cut checked above


def brute_simple_paths(edges, source, sink, max_nodes):
    """Every simple source->sink path with at most max_nodes nodes, in
    lexicographic order."""
    adjacency = {}
    for src, dst in edges:
        adjacency.setdefault(src, set()).add(dst)
    paths = []

    def walk(node, path):
        if node == sink:
            paths.append(tuple(path))
            return
        if len(path) >= max_nodes:
            return
        for succ in sorted(adjacency.get(node, ())):
            if succ not in path:
                path.append(succ)
                walk(succ, path)
                path.pop()

    walk(source, [source])
    return sorted(paths)


def reachability_closure(nodes, edges):
    """The full reachability relation (including reflexive pairs)."""
    return {(a, b) for a in nodes for b in reachable_nodes(edges, a) | {a}}


def transitive_reduction(relation):
    """The covering pairs of an order given as its full relation: (a, b)
    with a != b related and no third element strictly between them."""
    strict = {(a, b) for a, b in relation if a != b}
    elements = {n for pair in strict for n in pair}
    return {
        (a, b)
        for a, b in strict
        if not any((a, c) in strict and (c, b) in strict for c in elements)
    }


def order_law_error(names, pairs, mode, version=1):
    """The message the analysis loader must reject an order with, or None.

    Antisymmetry is reported as the lexicographically smallest pair of
    distinct mutually related elements; effect mode then needs a bottom
    and, in a version 1 document, a unique least upper bound for every
    pair, the first failing pair taken in sorted order.
    """
    relation = reachability_closure(names, pairs)
    equivalent = sorted((a, b) for a, b in relation if a != b and (b, a) in relation)
    if equivalent:
        a, b = equivalent[0]
        return f"order is not antisymmetric: {a} and {b} are equivalent"
    if mode == "effect":
        return semilattice_error(sorted(names), relation, joins=version == 1)
    return None


def semilattice_error(names, relation, joins=True):
    """Bottom and (with `joins`) least-upper-bound existence by enumerating
    every pair and every candidate bound: O(n^3) probes of the full
    relation."""
    bottoms = [n for n in names if all((n, other) in relation for other in names)]
    if len(bottoms) != 1:
        return f"effect semilattice needs exactly one bottom element, found {len(bottoms)}"
    if not joins:
        return None
    for a in names:
        for b in names:
            uppers = [z for z in names if (a, z) in relation and (b, z) in relation]
            least = [z for z in uppers if all((z, w) in relation for w in uppers)]
            if len(least) != 1:
                return f"elements {a} and {b} lack a unique least upper bound"
    return None


def prefix_conflicts(corpus):
    """(negative id, positive id) for every negative trace that equals a
    prefix of a positive one: negatives in corpus order, each compared with
    every positive in corpus order."""
    found = []
    for trace in corpus.traces:
        if trace.polarity != "negative":
            continue
        for positive in corpus.traces:
            if positive.polarity == "positive" and positive.nodes[: len(trace.nodes)] == trace.nodes:
                found.append((trace.id, positive.id))
    return found


def reference_shortest_path(graph, start, goal, excluded=frozenset()):
    """The witness search as first written: a forward and a backward
    breadth-first search, then a walk that takes the smallest successor one
    step further from start and one step nearer to goal."""
    if start not in graph.nodes:
        raise UnknownNode(start)
    if goal not in graph.nodes:
        raise UnknownNode(goal)
    dist_from = _bfs_distances(graph.adjacency, start, excluded, forward=True)
    if goal not in dist_from:
        return None
    dist_to = _bfs_distances(graph.reverse_adjacency, goal, excluded, forward=False)
    path = [start]
    node = start
    while node != goal:
        for succ in graph.adjacency[node]:
            if (node, succ) in excluded:
                continue
            if dist_from.get(succ) == dist_from[node] + 1 and succ in dist_to and (
                dist_to[succ] == dist_to[node] - 1
            ):
                path.append(succ)
                node = succ
                break
        else:  # pragma: no cover - dist invariants guarantee a successor
            return None
    return tuple(path)


def _bfs_distances(adjacency, start, excluded, forward):
    dist = {start: 0}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        for other in adjacency[node]:
            edge = (node, other) if forward else (other, node)
            if other not in dist and edge not in excluded:
                dist[other] = dist[node] + 1
                queue.append(other)
    return dist


def reference_verify_separation(graph, cut, negative_pairs):
    """Separation checking as first written: one witness search per
    negative pair, here the two-way reference search."""
    leftover = []
    for source, sink in negative_pairs:
        witness = reference_shortest_path(graph, source, sink, excluded=cut)
        if witness is not None:
            leftover.append(((source, sink), witness))
    return tuple(leftover)


def reference_solve_synthesis_cut(graph, semantics, config):
    """The refinement loop as first written, less its greedy-fallback
    warning: every round rebuilds the family of cuttable-edge sets and its
    candidate edges, solves it from scratch with the reference solvers (the
    greedy cover then made irredundant), and checks separation pair by
    pair.  Every edge that is protected or a self-loop is forbidden."""
    forbidden = frozenset(key for key in graph.edges if key in graph.protected or key[0] == key[1])
    constraints = [
        PathConstraint(
            trace_id,
            nodes,
            frozenset(edge for edge in zip(nodes, nodes[1:]) if edge not in forbidden),
        )
        for trace_id, nodes in graph.negative_paths
    ]
    for constraint in constraints:
        if not constraint.cuttable:
            return _reference_conflict(graph, (constraint.nodes[0], constraint.nodes[-1]), constraint.nodes)

    iterations = 0
    refined = 0
    while True:
        iterations += 1
        if iterations > config.max_iterations:
            raise RefinementLimitError(
                f"refinement did not terminate within {config.max_iterations} iterations"
            )
        sets = [c.cuttable for c in constraints]
        candidates = {edge for s in sets for edge in s}
        if config.solver == EXACT:
            use_exact = True
        elif config.solver == GREEDY:
            use_exact = False
        elif config.solver == AUTO:
            use_exact = len(candidates) <= config.max_exact_candidates
        else:
            raise ValueError(f"unknown solver {config.solver!r}")
        solve = reference_exact_hitting_set if use_exact else _reference_irredundant_greedy
        cut = _reference_hitting_set(solve, sets, forbidden) if sets else frozenset()

        if semantics == PATH:
            return CutSet(cut, iterations, use_exact, tuple(constraints))

        leftover = reference_verify_separation(graph, cut, graph.negative_pairs)
        if not leftover:
            return CutSet(cut, iterations, use_exact, tuple(constraints))
        for pair, witness in leftover:
            cuttable = frozenset(
                edge
                for edge in zip(witness, witness[1:])
                if edge in graph.edges and edge not in forbidden
            )
            if not cuttable:
                return _reference_conflict(graph, pair, witness)
            refined += 1
            constraints.append(PathConstraint(f"refined-{refined}", witness, cuttable))


def _reference_hitting_set(solve, sets, forbidden):
    cut = solve(sets, forbidden)
    if cut is None:
        raise InfeasibleSet(next(i for i, s in enumerate(sets) if not frozenset(s) - forbidden))
    return cut


def _reference_conflict(graph, pair, witness):
    negative_ids = tuple(
        trace_id
        for trace_id, nodes in graph.negative_paths
        if (nodes[0], nodes[-1]) == pair
    )
    return Conflict(pair, witness, negative_ids)


class ReferenceSemilattice(NamedTuple):
    elements: tuple
    relation: frozenset
    assignment: dict
    bottom: str
    downsets: dict


def reference_complete_join_semilattice(elements, relation, assignment):
    """The join completion as first written, of the order `relation` (the
    full reflexive transitive relation as name pairs) on `elements`:
    generator down-sets as frozensets of names, closed by rescanning every
    pair until no union is new, maximal generators found by an all-pairs
    scan."""
    generators = [element for element in elements if not element.synthetic]
    downset_of = {
        g.name: frozenset(h.name for h in generators if (h.name, g.name) in relation)
        for g in generators
    }

    closed = {frozenset()} | set(downset_of.values())
    changed = True
    while changed:
        changed = False
        for a, b in combinations(sorted(closed, key=sorted), 2):
            union = a | b
            if union not in closed:
                closed.add(union)
                changed = True

    taken = {g.name for g in generators}
    name_for = {downset: name for name, downset in downset_of.items()}
    members_of = {g.name: g.members for g in generators}
    for downset in sorted(closed, key=lambda s: (len(s), sorted(s))):
        if downset in name_for:
            continue
        if not downset:
            name = BOTTOM_NAME
        else:
            maximal = sorted(
                g for g in downset
                if not any(h != g and g in downset_of[h] for h in downset)
            )
            name = "∨".join(maximal)
        while name in taken:
            name += "'"
        taken.add(name)
        name_for[downset] = name

    elements = tuple(
        sorted(
            (
                Element(name, members_of.get(name, frozenset()), name not in members_of)
                for name in name_for.values()
            ),
            key=lambda element: element.name,
        )
    )
    relation = frozenset(
        (name_for[a], name_for[b]) for a in closed for b in closed if a <= b
    )
    downsets = {name: downset for downset, name in name_for.items()}
    return ReferenceSemilattice(elements, relation, dict(assignment), name_for[frozenset()], downsets)


def reference_covers(nodes: list, up: list, candidates: list | None = None) -> frozenset[tuple]:
    """The covering pairs as name pairs, reduced as they were before orders
    carried them by index: up[i] is the up-set of nodes[i], bit i standing
    for nodes[i]; candidates[i] holds every node covering nodes[i] and only
    nodes above it, by default everything above it."""
    strict = [mask & ~(1 << i) for i, mask in enumerate(up)]
    covers = []
    for i, above in enumerate(strict if candidates is None else candidates):
        implied = 0
        for j in _bits(above):
            implied |= strict[j]
        covers.extend((nodes[i], nodes[j]) for j in _bits(above & ~implied))
    return frozenset(covers)


def index_pairs(names: list, pairs) -> tuple[tuple[int, int], ...]:
    """Name pairs as the ascending (p, q) index pairs over `names`."""
    index = {name: p for p, name in enumerate(names)}
    return tuple(sorted((index[a], index[b]) for a, b in pairs))


def reference_cover_indices(names: list, up: list, candidates: list | None = None) -> tuple[tuple[int, int], ...]:
    """`reference_covers` as ascending index pairs, the form an order carries."""
    return index_pairs(names, reference_covers(names, up, candidates))


def reference_covering_pairs(order: QualifierOrder) -> frozenset[tuple[str, str]]:
    """An order's covering pairs as name pairs: those it carries, mapped
    through its element names, else reduced from its up-sets."""
    names = [element.name for element in order.elements]
    if order.covers is None:
        return reference_covers(names, order.up)
    return frozenset((names[p], names[q]) for p, q in order.covers)


def reference_mask_completion(order: QualifierOrder) -> EffectSemilattice:
    """The join completion as it was before it read covers off the
    generators: a worklist that ORs each new down-set with every
    generator's, names sorted by a reversed-bit key formatted per mask,
    up-sets as the AND of the generators' holder masks, and covers reduced
    by `reference_covers` from the joins with one more generator.

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
    for mask in sorted(closed, key=naming_key(len(names))):
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
        covers=reference_cover_indices([element.name for element in elements], up, joins),
        bottom=name_for[0],
        down=tuple(ordered),
    )


def naming_key(width: int):
    """Completion names new down-sets of `width` generators by size, then
    as the ascending lists of their generators compare; for sets of one
    size, that is the bit-reversed mask, descending."""
    return lambda mask: (mask.bit_count(), -int(f"{mask:0{width}b}"[::-1], 2))



def reference_is_valid_node_id(name: object) -> bool:
    """A node id is a non-empty token with no whitespace or newlines."""
    return isinstance(name, str) and bool(name) and not any(ch.isspace() for ch in name)


def reference_is_string_list(value: object) -> bool:
    return isinstance(value, list) and all(isinstance(item, str) for item in value)


def reference_serialize_corpus(corpus) -> str:
    """Canonical corpus serialization: key-sorted JSON, sorted edge list,
    defaults written out, trailing newline.  parse_corpus inverts it."""
    traces = []
    for trace in corpus.traces:
        entry: dict = {"id": trace.id, "polarity": trace.polarity, "nodes": list(trace.nodes)}
        if trace.origin is not None:
            entry["origin"] = trace.origin
        traces.append(entry)
    doc: dict = {
        "mode": corpus.mode,
        "traces": traces,
        "required_edges": [list(pair) for pair in sorted(corpus.required_edges)],
        "options": {"min_positive_support": corpus.min_positive_support},
    }
    if corpus.metadata:
        doc["metadata"] = corpus.metadata
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


# the corpus rows as they were rendered one `%` format per row, with no
# escape call per id when the joined trace ids and the joined node ids are
# printable and hold no quote or backslash
_TRACE_ROW = '    {\n      "id": %s,\n      "nodes": [\n        %s\n      ],%s\n      "polarity": %s\n    }'
_ORIGIN_LINE = '\n      "origin": %s,'
_NODE_SEP = ",\n        "
_PLAIN_ROW = '    {\n      "id": "%s",\n      "nodes": [\n        "%s"\n      ],%s\n      "polarity": "%s"\n    }'
_PLAIN_NODE_SEP = '",\n        "'


def _printable_plain(text: str) -> bool:
    return text.isprintable() and '"' not in text and "\\" not in text


def reference_row_serialize_corpus(corpus) -> str:
    """serialize_corpus as it rendered the traces array row by row from a
    template, and the rest through `dump_json`."""
    doc: dict = {
        "mode": corpus.mode,
        "required_edges": [list(pair) for pair in sorted(corpus.required_edges)],
        "options": {"min_positive_support": corpus.min_positive_support},
        "traces": [],
    }
    if corpus.metadata:
        doc["metadata"] = corpus.metadata
    traces = corpus.traces
    if _printable_plain("".join(t.id for t in traces)) and _printable_plain("".join("".join(t.nodes) for t in traces)):
        rows = [
            _PLAIN_ROW
            % (
                trace_id,
                _PLAIN_NODE_SEP.join(nodes),
                "" if origin is None else _ORIGIN_LINE % encode_basestring(origin),
                polarity,
            )
            for trace_id, polarity, nodes, origin in traces
        ]
    else:
        rows = [
            _TRACE_ROW
            % (
                encode_basestring(trace_id),
                _NODE_SEP.join(map(encode_basestring, nodes)),
                "" if origin is None else _ORIGIN_LINE % encode_basestring(origin),
                encode_basestring(polarity),
            )
            for trace_id, polarity, nodes, origin in traces
        ]
    return dump_json(doc, {"traces": rows})


# make_analysis_spec as it was when it read the completed semilattice in
# effect mode: it keeps the generators and the bottom of the completion.
def reference_make_analysis_spec(
    corpus: Corpus,
    cut: CutSet,
    lattice: QualifierOrder,
    config: SolverConfig,
    semantics: str,
) -> AnalysisSpec:
    """Bundle the synthesized lattice and cut into a serializable spec.

    Unknown nodes default to a fresh maximal element in qualifier mode
    (conservative: related only to itself) and to bottom in effect mode.
    An effect spec keeps only the elements a check can reach, the
    generators and the bottom, and the order among them: a node maps to a
    generator or to the default, so no verdict reads a synthetic join.
    Either way the spec's elements stay in name order, so its up-sets
    are the lattice's, renumbered.  Handed an effect order that is not
    completed, it builds that spec from the order alone: the generators,
    related as `leq` says, and a bottom below them all.
    """
    if isinstance(lattice, EffectSemilattice):
        default = lattice.bottom
        kept = [p for p, e in enumerate(lattice.elements) if not e.synthetic or e.name == default]
        elements = [lattice.elements[p] for p in kept]
        # each kept element's up-set among the kept ones
        up = [sum(1 << k for k, q in enumerate(kept) if lattice.up[p] >> q & 1) for p in kept]
        covers = reference_cover_indices([e.name for e in elements], up)
    elif corpus.mode == EFFECT:
        # the generators and a bottom below them all, from the order alone
        default = BOTTOM_NAME
        while default in lattice.index:
            default += "'"
        bottom = Element(default, frozenset(), synthetic=True)
        elements = sorted([*lattice.elements, bottom], key=lambda element: element.name)
        names = [element.name for element in elements]
        up = [
            sum(1 << q for q, b in enumerate(names) if a == default or (b != default and lattice.leq(a, b)))
            for a in names
        ]
        covers = reference_cover_indices(names, up)
    else:
        default = QUALIFIER_DEFAULT
        names = lattice.names
        while default in lattice.index:
            default += "'"
        # the default goes in at its name position k, related only to itself
        k = bisect_left(names, default)
        below = (1 << k) - 1
        up = [(mask & below) | (mask >> k << (k + 1)) for mask in lattice.up]
        up.insert(k, 1 << k)
        elements = list(lattice.elements)
        elements.insert(k, Element(default, frozenset(), synthetic=True))
        # the lattice's covers, numbered among the spec's elements
        covers = lattice.covers and index_pairs([e.name for e in elements], reference_covering_pairs(lattice))

    origins: dict[Edge, list[str]] = {edge: [] for edge in sorted(cut.edges)}
    for constraint in cut.constraints:
        for edge in constraint.cuttable & cut.edges:
            origins[edge].append(constraint.id)
    metadata = {
        "corpus_sha256": corpus_digest(corpus),
        "optimal": cut.optimal,
        "semantics": semantics,
        "tool_version": __version__,
        "solver": config.solver,
        "max_exact_candidates": config.max_exact_candidates,
        "iterations": cut.iterations,
        "constraints": [
            {"id": c.id, "nodes": list(c.nodes)} for c in cut.constraints
        ],
        "cut_origins": [[list(edge), sorted(ids)] for edge, ids in origins.items()],
    }
    return AnalysisSpec(
        mode=corpus.mode,
        elements=tuple(elements),
        up=tuple(up),
        assignment=dict(lattice.assignment),
        cut=frozenset(cut.edges),
        default_element=default,
        metadata=metadata,
        covers=covers,
    )


def spec_of(mode, elements, pairs, assignment, default_element, cut=frozenset(), metadata=None):
    """An AnalysisSpec whose order is the reachability closure of the name
    pairs `pairs`: its elements in name order, and each up-set read off the
    closure one pair at a time."""
    elements = tuple(sorted(elements, key=lambda e: e.name))
    names = [element.name for element in elements]
    closure = reachability_closure(names, pairs)
    up = tuple(sum(1 << q for q, b in enumerate(names) if (a, b) in closure) for a in names)
    return AnalysisSpec(
        elements, up, dict(assignment),
        mode=mode, cut=frozenset(cut), default_element=default_element, metadata=metadata or {},
    )


def _reference_order(spec):
    """The spec's order as name pairs: the brute-force closure of its
    covering pairs, or of its relation when it carries none."""
    names = [element.name for element in spec.elements]
    return reachability_closure(names, spec.relation if spec.covers is None else reference_covering_pairs(spec))


def _reference_verdict(order, spec, trace):
    for index, (src, dst) in enumerate(trace_edges(trace)):
        a = spec.assignment.get(src, spec.default_element)
        b = spec.assignment.get(dst, spec.default_element)
        if (a, b) not in order:
            return Verdict(trace.id, False, index, (src, dst), a, b)
    return Verdict(trace.id, True)


def reference_check_trace(spec, trace):
    """Accept iff every consecutive edge relates source element to target
    element; reject at the first violating edge in path order.  Unknown
    nodes map to the spec's default element.  The order is looked up in
    `_reference_order`, never through `spec.leq`."""
    return _reference_verdict(_reference_order(spec), spec, trace)


def reference_check_corpus(spec, corpus):
    """Verdicts first, then the four counts from a second walk that pairs
    each trace with its verdict; traces are checked by the reference."""
    order = _reference_order(spec)
    verdicts = tuple(_reference_verdict(order, spec, trace) for trace in corpus.traces)
    neg_rej = neg_acc = pos_acc = pos_rej = 0
    for trace, verdict in zip(corpus.traces, verdicts):
        if trace.is_negative:
            if verdict.accepted:
                neg_acc += 1
            else:
                neg_rej += 1
        else:
            if verdict.accepted:
                pos_acc += 1
            else:
                pos_rej += 1
    return CheckReport(verdicts, neg_rej, neg_acc, pos_acc, pos_rej)


def _reference_violations(spec, paths):
    """For each path, in order: None when it is accepted, else (i, a, b),
    its first edge i whose source element a is not below its target
    element b, as names.  Element indices a, b relate iff up[a] >> b & 1."""
    element = spec.node_index.get
    default = spec.index[spec.default_element]
    for nodes in paths:
        a = element(nodes[0], default)
        i = 0
        for node in nodes[1:]:
            b = element(node, default)
            if not spec.up[a] >> b & 1:
                yield i, spec.names[a], spec.names[b]
                break
            a = b
            i += 1
        else:
            yield None


def reference_walk_check_corpus(spec, corpus):
    """check_corpus as it paired each trace with the verdict of a generator
    walk, one verdict per trace as it came."""
    verdicts = []
    rejected = {NEGATIVE: 0, POSITIVE: 0}
    for trace, violation in zip(corpus.traces, _reference_violations(spec, (t.nodes for t in corpus.traces))):
        if violation is None:
            verdicts.append(Verdict(trace.id, True))
        else:
            i, a, b = violation
            verdicts.append(Verdict(trace.id, False, i, (trace.nodes[i], trace.nodes[i + 1]), a, b))
            rejected[trace.polarity] += 1
    negatives = sum(trace.is_negative for trace in corpus.traces)
    positives = len(corpus.traces) - negatives
    return CheckReport(
        tuple(verdicts),
        rejected[NEGATIVE],
        negatives - rejected[NEGATIVE],
        positives - rejected[POSITIVE],
        rejected[POSITIVE],
    )


def reference_report_json(report, digest, spec) -> str:
    """report.json as `cli` first wrote it."""
    verdicts = []
    for verdict in report.verdicts:
        entry: dict = {"trace_id": verdict.trace_id, "accepted": verdict.accepted}
        if not verdict.accepted:
            entry["violation"] = {
                "index": verdict.violation_index,
                "edge": list(verdict.violating_edge),
                "source_element": verdict.source_element,
                "target_element": verdict.target_element,
            }
        verdicts.append(entry)
    doc = {
        "summary": {
            "traces": len(report.verdicts),
            "negatives_rejected": report.negatives_rejected,
            "negatives_accepted": report.negatives_accepted,
            "positives_accepted": report.positives_accepted,
            "positives_rejected": report.positives_rejected,
        },
        "verdicts": verdicts,
        "corpus_sha256": digest,
        "analysis_corpus_sha256": spec.metadata.get("corpus_sha256"),
    }
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def reference_dump_analysis(spec) -> str:
    """analysis.json in format version 2 through one `json.dumps` with
    `indent`, its `leq` the brute-force transitive reduction."""
    doc = {
        "format_version": 2,
        "mode": spec.mode,
        "elements": [
            {
                "name": element.name,
                "members": sorted(element.members),
                "synthetic": element.synthetic,
            }
            for element in sorted(spec.elements, key=lambda e: e.name)
        ],
        "leq": [list(pair) for pair in sorted(transitive_reduction(spec.relation))],
        "assignment": dict(sorted(spec.assignment.items())),
        "cut": [list(edge) for edge in sorted(spec.cut)],
        "default_element": spec.default_element,
        "metadata": spec.metadata,
    }
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


_CORPUS_KEYS = {"mode", "traces", "required_edges", "options", "metadata"}
_TRACE_KEYS = {"id", "polarity", "nodes", "origin"}
_TRACE_REQUIRED = {"id", "polarity", "nodes"}
_OPTION_KEYS = {"min_positive_support"}


def reference_parse_corpus(text: str) -> Corpus:
    """The corpus parser as first written: every trace entry checked on
    its own, in order, and built by the validating `Trace` constructor."""
    doc = load_json(text)
    if not isinstance(doc, dict):
        raise ValidationError("corpus document must be a JSON object")
    unknown = sorted(set(doc) - _CORPUS_KEYS)
    if unknown:
        raise ValidationError(f"unknown corpus field(s): {', '.join(unknown)}")
    if "traces" not in doc:
        raise ValidationError("corpus document is missing 'traces'")

    raw_traces = doc["traces"]
    if not isinstance(raw_traces, list):
        raise ValidationError("'traces' must be an array")
    traces = []
    for i, entry in enumerate(raw_traces):
        if not isinstance(entry, dict):
            raise ValidationError(f"trace entry {i} must be an object")
        if not entry.keys() <= _TRACE_KEYS:
            bad = sorted(set(entry) - _TRACE_KEYS)
            raise ValidationError(f"trace entry {i}: unknown field(s): {', '.join(bad)}")
        if not entry.keys() >= _TRACE_REQUIRED:
            missing = sorted(_TRACE_REQUIRED - set(entry))
            raise ValidationError(f"trace entry {i}: missing field(s): {', '.join(missing)}")
        nodes = entry["nodes"]
        if not is_string_list(nodes):
            raise ValidationError(f"trace entry {i}: 'nodes' must be an array of strings")
        origin = entry.get("origin")
        if origin is not None and not isinstance(origin, str):
            raise ValidationError(f"trace entry {i}: 'origin' must be a string")
        traces.append(Trace(entry["id"], entry["polarity"], tuple(nodes), origin))

    required = doc.get("required_edges", [])
    if not isinstance(required, list):
        raise ValidationError("'required_edges' must be an array")
    required_edges = []
    for i, pair in enumerate(required):
        if not is_string_pair(pair):
            raise ValidationError(f"required edge {i} must be a pair of strings")
        required_edges.append((pair[0], pair[1]))

    options = doc.get("options", {})
    if not isinstance(options, dict):
        raise ValidationError("'options' must be an object")
    bad = sorted(set(options) - _OPTION_KEYS)
    if bad:
        raise ValidationError(f"unknown option(s): {', '.join(bad)}")
    min_support = options.get("min_positive_support", 1)

    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ValidationError("'metadata' must be an object")

    return Corpus(
        mode=doc.get("mode", QUALIFIER),
        traces=tuple(traces),
        required_edges=frozenset(required_edges),
        min_positive_support=min_support,
        metadata=metadata,
    )


def reference_build_graph(corpus: Corpus) -> FlowGraph:
    """The graph builder as first written: each trace's distinct edges,
    with a set of witness ids and a set of positive ids per edge."""
    witnesses: dict[Edge, set[str]] = {}
    positive_ids: dict[Edge, set[str]] = {}
    nodes: set[str] = set()
    for trace in corpus.traces:
        nodes.update(trace.nodes)
        for edge in set(trace_edges(trace)):
            witnesses.setdefault(edge, set()).add(trace.id)
            if trace.is_positive:
                positive_ids.setdefault(edge, set()).add(trace.id)
    for edge in corpus.required_edges:
        nodes.update(edge)
        witnesses.setdefault(edge, set())

    protected = set()
    for key in sorted(witnesses):
        support = len(positive_ids.get(key, ()))
        if (support >= corpus.min_positive_support and support >= 1) or key in corpus.required_edges:
            protected.add(key)

    negatives = corpus.negatives
    pairs = tuple(dict.fromkeys(trace.endpoints for trace in negatives))
    paths = tuple((trace.id, trace.nodes) for trace in negatives)
    return FlowGraph(frozenset(nodes), frozenset(witnesses), frozenset(protected), pairs, paths)


def reference_validate_corpus(corpus: Corpus) -> tuple[Diagnostic, ...]:
    """Corpus validation as first written: every edge of every trace
    walked in Python."""
    diagnostics: list[Diagnostic] = []
    for trace in corpus.traces:
        if trace.is_negative and trace.nodes[0] == trace.nodes[-1]:
            diagnostics.append(
                Diagnostic(
                    ERROR,
                    "negative-endpoints-equal",
                    f"negative endpoints equal: {trace.nodes[0]}",
                    (trace.id,),
                )
            )
        warned: set[Edge] = set()
        for src, dst in trace_edges(trace):
            if src == dst and (src, dst) not in warned:
                warned.add((src, dst))
                diagnostics.append(
                    Diagnostic(
                        WARNING,
                        "self-loop",
                        f"self-loop edge ({src}, {dst}) imposes no constraint",
                        (trace.id,),
                    )
                )
    for src, dst in sorted(corpus.required_edges):
        if src == dst:
            diagnostics.append(
                Diagnostic(
                    WARNING,
                    "self-loop",
                    f"self-loop edge ({src}, {dst}) imposes no constraint",
                )
            )
    trace_nodes = {node for trace in corpus.traces for node in trace.nodes}
    required_only = sorted(
        {node for pair in corpus.required_edges for node in pair} - trace_nodes
    )
    for node in required_only:
        diagnostics.append(
            Diagnostic(
                WARNING,
                "required-edge-only-node",
                f"node {node} appears only in required_edges",
            )
        )
    return tuple(diagnostics)


def reference_nearest_walk(graph, start, dist, excluded):
    """The nearest walk as first written: a generator expression per step
    picks the smallest successor one step nearer to the goal."""
    path = [start]
    node = start
    adjacency = graph.adjacency
    while dist[node]:
        step = dist[node] - 1
        node = next(s for s in adjacency[node] if dist.get(s) == step and (node, s) not in excluded)
        path.append(node)
    return tuple(path)


def _escape(text: str) -> str:
    """`text` as a JSON string holds it, without the quotes."""
    return json.dumps(text, ensure_ascii=False)[1:-1]


def _quote(name: str) -> str:
    return '"' + _escape(name) + '"'


def _label(name: str, members: frozenset[str]) -> str:
    text = _escape(name)
    if members:
        text += "\\n{" + ", ".join(_escape(m) for m in sorted(members)) + "}"
    return '"' + text + '"'


def reference_lattice_dot(order: QualifierOrder) -> str:
    """The DOT writer as first written, with names escaped as JSON strings:
    each name escaped once quoted and once more in its label."""
    quoted = {element.name: _quote(element.name) for element in order.elements}
    lines = ["digraph lattice {", "  rankdir=BT;", "  node [shape=box];"]
    for element in sorted(order.elements, key=lambda e: e.name):
        attrs = f"label={_label(element.name, element.members)}"
        if element.synthetic:
            attrs += ", style=dashed"
        lines.append(f"  {quoted[element.name]} [{attrs}];")
    for a, b in sorted(reference_covering_pairs(order)):
        lines.append(f"  {quoted[a]} -> {quoted[b]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def reference_scc_condense(nodes, edges) -> Condensation:
    """The condensation as first written: iterative Tarjan in sorted
    traversal order, with low links and an on-stack set."""
    edge_list = sorted(set(edges))
    node_list = sorted(set(nodes) | {n for edge in edge_list for n in edge})
    adjacency: dict[str, list[str]] = {node: [] for node in node_list}
    for src, dst in edge_list:
        adjacency[src].append(dst)

    index_of: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    components: list[frozenset[str]] = []
    counter = 0

    for root in node_list:
        if root in index_of:
            continue
        work: list[tuple[str, int]] = [(root, 0)]
        while work:
            node, child_index = work[-1]
            if child_index == 0:
                index_of[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            descended = False
            children = adjacency[node]
            while child_index < len(children):
                child = children[child_index]
                child_index += 1
                if child not in index_of:
                    work[-1] = (node, child_index)
                    work.append((child, 0))
                    descended = True
                    break
                if child in on_stack:
                    low[node] = min(low[node], index_of[child])
            if descended:
                continue
            work.pop()
            if low[node] == index_of[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                components.append(frozenset(component))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])

    components.sort(key=min)
    membership = {node: i for i, comp in enumerate(components) for node in comp}
    quotient = frozenset(
        (membership[src], membership[dst])
        for src, dst in edge_list
        if membership[src] != membership[dst]
    )
    return Condensation(tuple(components), membership, quotient)


_FRAME_RE = re.compile(r"^\s*at (?P<fqn>[^(]+)\(.*\)\s*$")
_ELISION_RE = re.compile(r"^\s*\.\.\. (?P<count>\d+) more\s*$")


class _Section:
    def __init__(self) -> None:
        self.frames: list[str] = []
        self.elision: int | None = None
        self.saw_header = False


def reference_parse_stack_trace(text: str, polarity: str, trace_id: str) -> Trace:
    """The stack-trace parser as first written: one object per section,
    each with its own header flag, and the expansion of every section kept."""
    sections = [_Section()]
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.startswith("Caused by:"):
            sections.append(_Section())
            continue
        section = sections[-1]
        elision = _ELISION_RE.match(line)
        if elision:
            if not section.frames:
                raise ParseError("elision line before any stack frame", line=lineno)
            if section.elision is not None:
                raise ParseError("multiple elision lines in one section", line=lineno)
            try:
                section.elision = int(elision.group("count"))
            except ValueError:  # int()'s limit on digits
                raise ParseError(
                    f"elision count longer than {sys.get_int_max_str_digits()} digits", line=lineno
                ) from None
            continue
        if line.lstrip().startswith("at "):
            frame = _FRAME_RE.match(line)
            if not frame:
                raise ParseError(f"malformed frame line: {line.strip()!r}", line=lineno)
            fqn = frame.group("fqn").strip()
            if not is_valid_node_id(fqn):
                raise ParseError(f"invalid frame name {fqn!r}", line=lineno)
            if section.elision is not None:
                raise ParseError("frame line after elision line", line=lineno)
            if len(sections) == 1 and not section.saw_header:
                raise ParseError("missing header line before first frame", line=lineno)
            section.frames.append(fqn)
            continue
        section.saw_header = True

    if not sections[-1].frames:
        raise ParseError("no stack frames found")

    expanded: list[list[str]] = []
    for i, section in enumerate(sections):
        if not section.frames:
            raise ParseError(f"section {i} has no stack frames")
        frames = list(section.frames)
        if section.elision is not None:
            enclosing = expanded[i - 1] if i > 0 else []
            n = section.elision
            if n > len(enclosing):
                raise ParseError(
                    f"'... {n} more' references more frames than the enclosing section supplies"
                )
            if n:
                frames.extend(enclosing[-n:])
        expanded.append(frames)

    return Trace(trace_id, polarity, tuple(expanded[-1]))
