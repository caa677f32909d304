"""Candidate-path enumeration against brute-force simple-path search."""

from __future__ import annotations

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowsynth import (
    EndpointSpec,
    StaticGraph,
    UnknownNode,
    ValidationError,
    enumerate_candidate_paths,
    parse_static_graph,
)

from oracles import brute_simple_paths

DIAMOND = StaticGraph(
    nodes=frozenset({"a", "b", "c", "d"}),
    edges=frozenset({("a", "b"), ("b", "d"), ("a", "c"), ("c", "d")}),
)


def test_diamond_paths_in_lex_order():
    result = enumerate_candidate_paths(DIAMOND, EndpointSpec("a", "d"))
    assert [t.nodes for t in result.traces] == [("a", "b", "d"), ("a", "c", "d")]
    assert [t.id for t in result.traces] == ["cand-a-d-0", "cand-a-d-1"]
    assert all(t.polarity == "negative" for t in result.traces)
    assert all(t.origin == "static-expansion" for t in result.traces)
    assert not result.truncated


def test_no_path_yields_empty_sequence():
    graph = StaticGraph(frozenset({"a", "d"}), frozenset())
    result = enumerate_candidate_paths(graph, EndpointSpec("a", "d"))
    assert result.traces == ()
    assert not result.truncated


def test_cycles_do_not_repeat_nodes():
    graph = StaticGraph(frozenset({"a", "b"}), frozenset({("a", "b"), ("b", "a")}))
    result = enumerate_candidate_paths(graph, EndpointSpec("a", "b", max_path_len=5))
    assert [t.nodes for t in result.traces] == [("a", "b")]


def test_truncation_flag_boundary():
    exact = enumerate_candidate_paths(DIAMOND, EndpointSpec("a", "d", max_paths=2))
    assert len(exact.traces) == 2 and not exact.truncated
    truncated = enumerate_candidate_paths(DIAMOND, EndpointSpec("a", "d", max_paths=1))
    assert len(truncated.traces) == 1 and truncated.truncated
    assert truncated.traces[0].nodes == ("a", "b", "d")


def test_max_path_len_bounds_nodes():
    graph = StaticGraph(
        frozenset({"a", "b", "c"}), frozenset({("a", "b"), ("b", "c"), ("a", "c")})
    )
    short = enumerate_candidate_paths(graph, EndpointSpec("a", "c", max_path_len=2))
    assert [t.nodes for t in short.traces] == [("a", "c")]


def test_endpoint_validation():
    with pytest.raises(UnknownNode):
        enumerate_candidate_paths(DIAMOND, EndpointSpec("zz", "d"))
    with pytest.raises(ValidationError):
        EndpointSpec("a", "a")
    with pytest.raises(ValidationError):
        EndpointSpec("a", "d", max_path_len=1)


def test_parse_static_graph():
    graph = parse_static_graph('{"nodes": ["a", "b"], "edges": [["a", "b"]]}')
    assert graph.nodes == {"a", "b"}
    assert graph.edges == {("a", "b")}
    with pytest.raises(ValidationError):
        parse_static_graph('{"nodes": ["a"], "edges": [["a", "b"]]}')


def test_matches_oracle_on_random_digraphs():
    rng = random.Random(41)
    for _ in range(120):
        size = rng.randint(2, 6)
        names = [chr(97 + i) for i in range(size)]
        edges = {
            (rng.choice(names), rng.choice(names))
            for _ in range(rng.randint(0, size * 2))
        }
        edges = {(s, d) for s, d in edges if s != d}
        graph = StaticGraph(frozenset(names), frozenset(edges))
        source, sink = rng.sample(names, 2)
        max_len = rng.randint(2, 6)
        result = enumerate_candidate_paths(
            graph, EndpointSpec(source, sink, max_path_len=max_len)
        )
        expected = brute_simple_paths(edges, source, sink, max_len)
        assert [t.nodes for t in result.traces] == expected
        assert not result.truncated


def test_truncation_keeps_the_first_paths_in_oracle_order():
    rng = random.Random(43)
    for _ in range(120):
        size = rng.randint(2, 6)
        names = [chr(97 + i) for i in range(size)]
        edges = {(rng.choice(names), rng.choice(names)) for _ in range(size * 3)}
        edges = {(s, d) for s, d in edges if s != d}
        source, sink = rng.sample(names, 2)
        max_len, max_paths = rng.randint(2, 6), rng.randint(1, 4)
        result = enumerate_candidate_paths(
            StaticGraph(frozenset(names), frozenset(edges)),
            EndpointSpec(source, sink, max_path_len=max_len, max_paths=max_paths),
        )
        expected = brute_simple_paths(edges, source, sink, max_len)
        assert [t.nodes for t in result.traces] == expected[:max_paths]
        assert result.truncated == (len(expected) > max_paths)


def test_a_dense_part_the_sink_is_reachable_from_only_through_the_path_is_not_walked():
    # a 14-node clique hangs off the one path; from every clique node but
    # v0, the sink is reachable only through v0, which is on the path
    clique = [f"v{i}" for i in range(14)]
    edges = {(a, b) for a in clique for b in clique if a != b} | {("src", "v0"), ("v0", "snk")}
    graph = StaticGraph(frozenset([*clique, "src", "snk"]), frozenset(edges))
    spec = EndpointSpec("src", "snk")
    assert spec.max_path_len == 12
    start = time.perf_counter()
    result = enumerate_candidate_paths(graph, spec)
    assert time.perf_counter() - start < 1.0
    assert [t.nodes for t in result.traces] == [("src", "v0", "snk")]
    assert not result.truncated


@st.composite
def expansions(draw: st.DrawFn):
    # small graphs up to complete ones, larger ones sparse
    names = [chr(97 + i) for i in range(draw(st.integers(min_value=2, max_value=12)))]
    pairs = st.tuples(st.sampled_from(names), st.sampled_from(names)).filter(lambda e: e[0] != e[1])
    edges = draw(st.sets(pairs, max_size=min(len(names) ** 2, 40)))
    source, sink = draw(st.permutations(names))[:2]
    max_len = draw(st.integers(min_value=2, max_value=10))
    max_paths = draw(st.integers(min_value=1, max_value=30))
    return edges, EndpointSpec(source, sink, max_path_len=max_len, max_paths=max_paths)


@settings(max_examples=300, deadline=None)
@given(expansions())
def test_paths_and_truncation_match_the_brute_force_reference(expansion):
    edges, spec = expansion
    nodes = {node for edge in edges for node in edge} | {spec.source, spec.sink}
    result = enumerate_candidate_paths(StaticGraph(frozenset(nodes), frozenset(edges)), spec)
    expected = brute_simple_paths(edges, spec.source, spec.sink, spec.max_path_len)
    assert [t.nodes for t in result.traces] == expected[: spec.max_paths]
    assert result.truncated == (len(expected) > spec.max_paths)
