"""Flow-graph construction, shortest paths, condensation, Hasse reduction."""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import Phase, example, find, given, settings
from hypothesis import strategies as st

from flowsynth import (
    Corpus,
    CycleError,
    FlowGraph,
    Trace,
    build_graph,
    hasse_reduce,
    scc_condense,
)
from flowsynth.graph import _distances_to, _nearest_walk, shortest_path

from corpusgen import front_end_corpora
from oracles import (
    brute_simple_paths,
    reachability_closure,
    reference_build_graph,
    reference_nearest_walk,
    reference_scc_condense,
    reference_shortest_path,
)


def corpus_of(*traces, required=(), min_support=1):
    return Corpus(
        traces=tuple(traces),
        required_edges=frozenset(required),
        min_positive_support=min_support,
    )


def test_build_graph_union_and_protection():
    graph = build_graph(
        corpus_of(
            Trace("pos", "positive", ("a", "b")),
            Trace("neg", "negative", ("a", "b", "c")),
        )
    )
    assert graph.nodes == {"a", "b", "c"}
    assert graph.edges == {("a", "b"), ("b", "c")}
    assert graph.protected == {("a", "b")}
    assert graph.cuttable_edges() == {("b", "c")}
    assert graph.negative_pairs == (("a", "c"),)


def test_negative_pairs_are_distinct_in_first_seen_order():
    graph = build_graph(
        corpus_of(
            Trace("n1", "negative", ("z", "y")),
            Trace("n2", "negative", ("a", "m", "b")),
            Trace("p", "positive", ("q", "r")),
            Trace("n3", "negative", ("z", "x", "y")),
            Trace("n4", "negative", ("c", "a")),
            Trace("n5", "negative", ("a", "b")),
            Trace("n6", "negative", ("z", "y")),
        )
    )
    assert graph.negative_pairs == (("z", "y"), ("a", "b"), ("c", "a"))
    assert [trace_id for trace_id, _ in graph.negative_paths] == ["n1", "n2", "n3", "n4", "n5", "n6"]


def test_build_graph_support_threshold():
    traces = (Trace("p1", "positive", ("a", "b")), Trace("p2", "positive", ("x", "a", "b", "a", "b")))
    # two positives hold a -> b, the second one twice
    assert ("a", "b") in build_graph(corpus_of(*traces, min_support=2)).protected
    assert ("a", "b") not in build_graph(corpus_of(*traces, min_support=3)).protected

    one = corpus_of(Trace("p1", "positive", ("a", "b")), min_support=2)
    assert ("a", "b") in build_graph(one).edges
    assert not build_graph(one).protected


def test_build_graph_required_edges_add_nodes():
    graph = build_graph(corpus_of(Trace("t", "positive", ("a", "b")), required=[("m", "n")]))
    assert {"m", "n"} <= graph.nodes
    assert ("m", "n") in graph.edges and ("m", "n") in graph.protected


def test_build_graph_order_independent():
    t1 = Trace("p", "positive", ("a", "b"))
    t2 = Trace("n", "negative", ("b", "c"))
    g1 = build_graph(corpus_of(t1, t2))
    g2 = build_graph(corpus_of(t2, t1))
    assert g1.nodes == g2.nodes
    assert g1.edges == g2.edges
    assert g1.protected == g2.protected


def test_build_graph_self_loops_not_cuttable():
    graph = build_graph(corpus_of(Trace("p", "positive", ("a", "a", "b")), min_support=2))
    assert ("a", "a") in graph.edges and ("a", "a") not in graph.protected
    assert graph.cuttable_edges() == {("a", "b")}


def _has_edge(corpus, test):
    return any(test(trace.nodes) for trace in corpus.traces)


def _positive_support(corpus):
    """How many positive traces hold each edge."""
    support = {}
    for trace in corpus.positives:
        for edge in set(zip(trace.nodes, trace.nodes[1:])):
            support[edge] = support.get(edge, 0) + 1
    return support


# what the front-end corpora must reach, for the graph builder here and for
# corpus validation in test_traces.py
FRONT_END_REACHED = {
    "self-loop-at-start": lambda c: _has_edge(c, lambda nodes: nodes[0] == nodes[1]),
    "self-loop-at-end": lambda c: _has_edge(c, lambda nodes: nodes[-2] == nodes[-1]),
    "edge-repeated-in-a-trace": lambda c: _has_edge(c, lambda nodes: len(set(zip(nodes, nodes[1:]))) < len(nodes) - 1),
    "closed-negative": lambda c: any(t.is_negative and t.nodes[0] == t.nodes[-1] for t in c.traces),
    # a path starts where the one before ends, and neither has a self-loop
    "straddle": lambda c: any(
        a.nodes[-1] == b.nodes[0] and all(x != y for t in (a, b) for x, y in zip(t.nodes, t.nodes[1:]))
        for a, b in zip(c.traces, c.traces[1:])
    ),
    # an edge with positive support under the threshold, so not protected
    "support-above-one": lambda c: any(0 < n < c.min_positive_support for n in _positive_support(c).values()),
    "negative-shares-a-positive-edge": lambda c: not _positive_support(c).keys().isdisjoint(
        edge for t in c.negatives for edge in zip(t.nodes, t.nodes[1:])
    ),
    "required-only-node": lambda c: bool(
        {n for pair in c.required_edges for n in pair} - {n for t in c.traces for n in t.nodes}
    ),
    "required-self-loop": lambda c: any(src == dst for src, dst in c.required_edges),
}


@pytest.mark.parametrize("shape", sorted(FRONT_END_REACHED))
def test_front_end_strategy_reaches(shape):
    find(
        front_end_corpora(),
        FRONT_END_REACHED[shape],
        settings=settings(max_examples=2000, database=None, phases=[Phase.generate], derandomize=True),
    )


@settings(max_examples=300, deadline=None)
@given(front_end_corpora())
@example(corpus_of(Trace("p", "positive", ("a", "b", "a", "b")), Trace("q", "positive", ("b", "a")), min_support=2))
@example(corpus_of(Trace("n", "negative", ("a", "a", "b", "b")), required=[("x", "a"), ("y", "y")]))
@example(
    corpus_of(
        Trace("p", "positive", ("a", "b", "c")),
        Trace("q", "positive", ("b", "c", "b", "c")),
        Trace("n", "negative", ("a", "b", "c", "d")),
        required=[("c", "c"), ("d", "a")],
        min_support=2,
    )
)
def test_build_graph_matches_the_reference(corpus):
    assert build_graph(corpus) == reference_build_graph(corpus)


@settings(max_examples=300, deadline=None)
@given(front_end_corpora(), st.data())
def test_nearest_walk_matches_the_reference(corpus, data):
    """From every node a search labels, the walk is the reference's."""
    graph = build_graph(corpus)
    nodes = sorted(graph.nodes)
    if not nodes:
        return
    keys = sorted(graph.edges)
    goal = data.draw(st.sampled_from(nodes))
    starts = data.draw(st.sets(st.sampled_from(nodes), max_size=3))
    cut = frozenset(data.draw(st.sets(st.sampled_from(keys)))) if keys else frozenset()
    dist = _distances_to(graph, goal, starts, cut)
    for node in sorted(dist):
        assert _nearest_walk(graph, node, dist, cut) == reference_nearest_walk(graph, node, dist, cut)


_edges = st.lists(
    st.tuples(st.sampled_from("abcdef"), st.sampled_from("abcdef")),
    max_size=18,
).map(lambda pairs: [p for p in pairs if p[0] != p[1]])


def _graph_from_edges(edges):
    ids = iter(range(10_000))
    traces = tuple(Trace(f"e{next(ids)}", "positive", pair) for pair in dict.fromkeys(edges))
    nodes = {n for pair in edges for n in pair} or {"a"}
    if not traces:
        traces = (Trace("seed", "positive", ("a", "b")),)
        nodes |= {"a", "b"}
    return build_graph(Corpus(traces=traces))


def test_shortest_path_is_lexicographic_bfs():
    graph = _graph_from_edges([("a", "b"), ("a", "c"), ("b", "d"), ("c", "d"), ("a", "d")])
    assert shortest_path(graph, "a", "d") == ("a", "d")
    assert shortest_path(graph, "a", "d", frozenset({("a", "d")})) == ("a", "b", "d")
    assert shortest_path(graph, "d", "a") is None


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from("abcdef"), st.sampled_from("abcdef")), max_size=20),
    st.data(),
)
def test_shortest_path_matches_reference_and_brute_force(pairs, data):
    # built directly, so that self-loops and a lone node can occur
    nodes = sorted({n for pair in pairs for n in pair} | {"a"})
    edges = sorted(set(pairs))
    graph = FlowGraph(frozenset(nodes), frozenset(edges), frozenset(), (), ())
    excluded = frozenset(data.draw(st.sets(st.sampled_from(edges))) if edges else ())
    kept = [edge for edge in edges if edge not in excluded]
    for start in nodes:
        for goal in nodes:
            found = shortest_path(graph, start, goal, excluded)
            assert found == reference_shortest_path(graph, start, goal, excluded)
            paths = brute_simple_paths(kept, start, goal, len(nodes))
            assert found == min(paths, key=lambda path: (len(path), path), default=None)


# ---------------------------------------------------------------------------
# condensation

def test_scc_condense_merges_mutual_reachability():
    cond = scc_condense({"a", "b", "c"}, [("a", "b"), ("b", "a"), ("b", "c")])
    assert cond.components == (frozenset({"a", "b"}), frozenset({"c"}))
    assert cond.quotient_edges == {(0, 1)}


def test_scc_condense_discrete():
    cond = scc_condense({"a", "b"}, [])
    assert cond.components == (frozenset({"a"}), frozenset({"b"}))
    assert cond.quotient_edges == frozenset()


def test_scc_condense_cycle_is_one_component():
    cond = scc_condense({"a", "b", "c"}, [("a", "b"), ("b", "c"), ("c", "a")])
    assert cond.components == (frozenset({"a", "b", "c"}),)


@settings(max_examples=80, deadline=None)
@given(_edges)
def test_scc_quotient_is_acyclic(edges):
    nodes = {n for pair in edges for n in pair}
    cond = scc_condense(nodes, edges)
    # Kahn's algorithm must consume every component
    indegree = {i: 0 for i in range(len(cond.components))}
    for _, dst in cond.quotient_edges:
        indegree[dst] += 1
    queue = [i for i, d in indegree.items() if d == 0]
    seen = 0
    while queue:
        node = queue.pop()
        seen += 1
        for src, dst in cond.quotient_edges:
            if src == node:
                indegree[dst] -= 1
                if indegree[dst] == 0:
                    queue.append(dst)
    assert seen == len(cond.components)


@settings(max_examples=80, deadline=None)
@given(_edges)
def test_scc_components_partition_nodes(edges):
    nodes = {n for pair in edges for n in pair}
    cond = scc_condense(nodes, edges)
    flattened = [n for comp in cond.components for n in comp]
    assert sorted(flattened) == sorted(nodes)
    assert all(cond.membership[n] == i for i, comp in enumerate(cond.components) for n in comp)


def test_scc_mutual_reachability_oracle():
    rng = random.Random(7)
    for _ in range(40):
        edges = {
            (rng.choice("abcde"), rng.choice("abcde"))
            for _ in range(rng.randint(0, 12))
        }
        nodes = {n for pair in edges for n in pair} | {"a"}
        closure = reachability_closure(nodes, edges)
        cond = scc_condense(nodes, edges)
        for x in nodes:
            for y in nodes:
                same = cond.membership[x] == cond.membership[y]
                mutual = (x, y) in closure and (y, x) in closure
                assert same == mutual


_digraphs = st.tuples(
    st.sets(st.sampled_from("abcdefgh"), max_size=4),
    st.lists(st.tuples(st.sampled_from("abcdefgh"), st.sampled_from("abcdefgh")), max_size=24),
)


@settings(max_examples=300, deadline=None)
@given(_digraphs)
@example((set(), []))
@example(({"h"}, [("a", "a"), ("a", "b"), ("b", "a"), ("c", "c")]))
def test_scc_condense_matches_tarjan(graph):
    """Random digraphs with self-loops and isolated nodes: the two-pass
    condensation equals iterative Tarjan's, components, membership and
    quotient edges."""
    nodes, edges = graph
    assert scc_condense(nodes, edges) == reference_scc_condense(nodes, edges)


def test_scc_condense_of_a_deep_path_and_a_deep_cycle():
    names = [f"n{i:06d}" for i in range(100_000)]
    path = list(zip(names, names[1:]))
    condensation = scc_condense(names, path)
    assert len(condensation.components) == 100_000
    assert len(condensation.quotient_edges) == 99_999
    cycle = scc_condense(names, [*path, (names[-1], names[0])])
    assert cycle.components == (frozenset(names),)
    assert cycle.quotient_edges == frozenset()


# ---------------------------------------------------------------------------
# transitive reduction

def test_hasse_reduce_textbook_chain():
    assert hasse_reduce({("x", "y"), ("y", "z"), ("x", "z")}) == {("x", "y"), ("y", "z")}


def test_hasse_reduce_antichain():
    assert hasse_reduce(set()) == frozenset()


def test_hasse_reduce_diamond():
    diamond = {("x", "y"), ("x", "w"), ("y", "z"), ("w", "z"), ("x", "z")}
    reduced = hasse_reduce(diamond)
    assert reduced == {("x", "y"), ("x", "w"), ("y", "z"), ("w", "z")}


def test_hasse_reduce_rejects_cycles():
    with pytest.raises(CycleError):
        hasse_reduce({("a", "b"), ("b", "a")})


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=15))
def test_hasse_reduce_preserves_reachability(pairs):
    # force acyclicity by orienting edges upward
    edges = {(a, b) for a, b in pairs if a < b}
    nodes = {n for pair in edges for n in pair}
    reduced = hasse_reduce(edges)
    assert reduced <= edges
    assert reachability_closure(nodes, edges) == reachability_closure(nodes, reduced)
    # minimality: no kept edge is implied by the other kept edges
    for edge in reduced:
        assert edge not in reachability_closure(nodes, reduced - {edge})


# ---------------------------------------------------------------------------
# the conflict message reads the corpus, not a second graph

def test_a_conflicting_synth_builds_the_graph_once(tmp_path, capsys, monkeypatch):
    import flowsynth
    from flowsynth import cli, graph, pipeline

    calls, original = [], graph.build_graph

    def spy(corpus):
        calls.append(corpus)
        return original(corpus)

    for module in (flowsynth, cli, graph, pipeline):
        if getattr(module, "build_graph", None) is original:
            monkeypatch.setattr(module, "build_graph", spy)
    doc = {
        "traces": [
            {"id": "p1", "polarity": "positive", "nodes": ["a", "b", "c"]},
            {"id": "p2", "polarity": "positive", "nodes": ["x", "a", "b", "a", "b"]},
            {"id": "p3", "polarity": "positive", "nodes": ["c", "d"]},
            {"id": "n", "polarity": "negative", "nodes": ["a", "b", "c", "d"]},
        ],
        "required_edges": [["c", "d"], ["b", "c"]],
        "options": {"min_positive_support": 2},
    }
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["synth", "--corpus", str(corpus), "--out", str(tmp_path / "out")]) == 1
    assert len(calls) == 1
    assert capsys.readouterr().err == (
        "conflict: cannot separate a -> d\n"
        "  negative trace(s): n\n"
        "  protected witness path: a -> b -> c -> d\n"
        "  protected by positive trace(s): p1, p2\n"
        "  required edge(s): b -> c, c -> d\n"
    )
