"""Candidate-path enumeration against brute-force simple-path search."""

from __future__ import annotations

import random

import pytest

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
