"""Hitting sets, separation verification, and the lazy refinement loop."""

from __future__ import annotations

import logging
import random
from dataclasses import replace
from itertools import product
from unittest import mock

import pytest
from hypothesis import Phase, example, find, given, settings
from hypothesis import strategies as st

from flowsynth import (
    Conflict,
    Corpus,
    CutSet,
    FlowGraph,
    FlowSynthError,
    InfeasibleSet,
    UnknownNode,
    SolverConfig,
    Trace,
    ValidationError,
    build_graph,
    min_hitting_set_exact,
    min_hitting_set_greedy,
    solve_synthesis_cut,
    synthesize,
    verify_separation,
)
from flowsynth import cut as cut_module
from flowsynth.cut import _Family, _greedy_cover
from flowsynth.graph import _bits, _distances_to, shortest_path

from corpusgen import random_corpus
from oracles import (
    brute_min_hitting_set,
    brute_min_separation_cut,
    prefix_conflicts,
    reachable_nodes,
    reference_exact_hitting_set,
    reference_greedy_hitting_set,
    reference_irredundant,
    reference_solve_synthesis_cut,
    reference_verify_separation,
)

E1, E2, E3 = ("a", "b"), ("b", "c"), ("c", "d")


def solve_corpus(corpus, semantics="separation", solver="exact"):
    graph = build_graph(corpus)
    return graph, solve_synthesis_cut(graph, semantics, SolverConfig(solver=solver))


# ---------------------------------------------------------------------------
# hitting sets

def test_exact_singletons_force_both():
    sets = [frozenset({E1}), frozenset({E2})]
    assert min_hitting_set_exact(sets) == {E1, E2}
    assert min_hitting_set_exact(sets) == brute_min_hitting_set(sets)


def test_exact_shared_edge_wins():
    sets = [frozenset({E1, E2}), frozenset({E2, E3})]
    assert min_hitting_set_exact(sets) == {E2}
    assert min_hitting_set_exact(sets) == brute_min_hitting_set(sets)


def test_exact_respects_forbidden():
    sets = [frozenset({E1, E2}), frozenset({E2, E3})]
    forbidden = frozenset({E2})
    assert min_hitting_set_exact(sets, forbidden) == {E1, E3}
    assert min_hitting_set_exact(sets, forbidden) == brute_min_hitting_set(sets, forbidden)


def test_exact_infeasible_set_index():
    with pytest.raises(InfeasibleSet) as excinfo:
        min_hitting_set_exact([frozenset({E1}), frozenset({E2})], forbidden=frozenset({E2}))
    assert excinfo.value.index == 1


def test_greedy_examples():
    assert min_hitting_set_greedy([frozenset({E1}), frozenset({E2})]) == {E1, E2}
    assert min_hitting_set_greedy([frozenset({E1, E2}), frozenset({E2, E3})]) == {E2}
    triangle = [frozenset({E1, E2}), frozenset({E1, E3}), frozenset({E2, E3})]
    assert min_hitting_set_greedy(triangle) == {E1, E2}
    assert len(brute_min_hitting_set(triangle)) == 2


# E1 is picked first (two sets), then E2 and E3 for their singletons,
# which hit both of E1's sets
REDUNDANT_FIRST_PICK = [frozenset({E1, E2}), frozenset({E1, E3}), frozenset({E2}), frozenset({E3})]


def test_greedy_drops_a_pick_that_later_picks_made_redundant():
    assert reference_greedy_hitting_set(REDUNDANT_FIRST_PICK) == {E1, E2, E3}
    assert min_hitting_set_greedy(REDUNDANT_FIRST_PICK) == {E2, E3}


def test_exact_matches_oracle_on_random_families():
    rng = random.Random(11)
    universe = [(chr(97 + i), chr(97 + j)) for i in range(4) for j in range(4) if i != j]
    for _ in range(120):
        n_sets = rng.randint(1, 5)
        sets = [
            frozenset(rng.sample(universe, rng.randint(1, 4)))
            for _ in range(n_sets)
        ]
        forbidden = frozenset(rng.sample(universe, rng.randint(0, 2)))
        expected = brute_min_hitting_set(sets, forbidden)
        if expected is None:
            with pytest.raises(InfeasibleSet):
                min_hitting_set_exact(sets, forbidden)
            continue
        actual = min_hitting_set_exact(sets, forbidden)
        assert actual == expected  # size and lexicographic tie-break
        greedy = min_hitting_set_greedy(sets, forbidden)
        assert all(s & greedy for s in sets)
        assert len(greedy) >= len(actual)


def edge_number(i):
    # number order is not edge order, so a solver that skips the sort shows
    return (f"v{(i * 7) % 20:02d}", f"w{i:02d}")


def families(max_edges, max_sets, max_size):
    """(sets, forbidden) over at most `max_edges` distinct edges."""
    return st.integers(1, max_edges).flatmap(
        lambda n: st.tuples(
            st.lists(
                st.frozensets(st.integers(0, n - 1), min_size=1, max_size=max_size),
                min_size=1,
                max_size=max_sets,
            ),
            st.frozensets(st.integers(0, n - 1), max_size=2),
        )
    ).map(
        lambda family: (
            [frozenset(map(edge_number, s)) for s in family[0]],
            frozenset(map(edge_number, family[1])),
        )
    )


def first_unhittable(sets, forbidden):
    return next(i for i, s in enumerate(sets) if s <= forbidden)


@settings(max_examples=200, deadline=None)
@given(families(max_edges=8, max_sets=24, max_size=3))
@example((REDUNDANT_FIRST_PICK, frozenset()))
def test_greedy_matches_reference_on_tie_heavy_families(family):
    sets, forbidden = family
    expected = reference_greedy_hitting_set(sets, forbidden)
    if expected is None:
        with pytest.raises(InfeasibleSet) as excinfo:
            min_hitting_set_greedy(sets, forbidden)
        assert excinfo.value.index == first_unhittable(sets, forbidden)
        return
    assert min_hitting_set_greedy(sets, forbidden) == reference_irredundant(expected, sets)


def is_irredundant(cover, sets):
    """Every edge of the cover is the only cover edge in some set."""
    return all(any(s & cover == {edge} for s in sets) for edge in cover)


@settings(max_examples=200, deadline=None)
@given(families(max_edges=12, max_sets=24, max_size=4))
@example((REDUNDANT_FIRST_PICK, frozenset()))
def test_greedy_cover_is_irredundant(family):
    sets, forbidden = family
    try:
        cover = min_hitting_set_greedy(sets, forbidden)
    except InfeasibleSet:
        return
    assert all(s & cover for s in sets)
    assert is_irredundant(cover, [s - forbidden for s in sets])


@settings(max_examples=200, deadline=None)
@given(families(max_edges=8, max_sets=12, max_size=4))
def test_exact_matches_brute_force(family):
    sets, forbidden = family
    expected = brute_min_hitting_set(sets, forbidden)
    if expected is None:
        with pytest.raises(InfeasibleSet) as excinfo:
            min_hitting_set_exact(sets, forbidden)
        assert excinfo.value.index == first_unhittable(sets, forbidden)
        return
    assert min_hitting_set_exact(sets, forbidden) == expected


@settings(max_examples=100, deadline=None)
@given(families(max_edges=20, max_sets=24, max_size=5))
def test_exact_matches_reference(family):
    sets, forbidden = family
    expected = reference_exact_hitting_set(sets, forbidden)
    if expected is None:
        with pytest.raises(InfeasibleSet):
            min_hitting_set_exact(sets, forbidden)
        return
    assert min_hitting_set_exact(sets, forbidden) == expected


def test_exact_ring_window_cover_beats_the_packing_bound():
    # cuttable u_i -> v_i joined in a ring by protected v_i -> u_{i+1};
    # negative i walks 5 consecutive cuttable edges.  At most 2 windows are
    # disjoint, but 12 edges in windows of 5 need 3 cuts.
    n, window = 12, 5
    u = [f"r{i:02d}u" for i in range(n)]
    v = [f"r{i:02d}v" for i in range(n)]
    traces = [Trace(f"pos{i:02d}", "positive", (v[i], u[(i + 1) % n])) for i in range(n)]
    for i in range(n):
        walk = []
        for k in range(window):
            walk += [u[(i + k) % n], v[(i + k) % n]]
        traces.append(Trace(f"neg{i:02d}", "negative", tuple(walk)))
    graph, cut = solve_corpus(Corpus(traces=tuple(traces)))
    assert isinstance(cut, CutSet) and cut.optimal
    assert len(cut.edges) == 3
    assert cut.edges == brute_min_separation_cut(
        set(graph.edges), graph.cuttable_edges(), graph.negative_pairs
    )
    sets = [c.cuttable for c in cut.constraints]
    assert min_hitting_set_exact(sets) == brute_min_hitting_set(sets) == cut.edges


def test_exact_takes_every_disjoint_singleton_without_recursion():
    sets = [frozenset({(f"s{i:04d}", f"t{i:04d}")}) for i in range(1500)]
    assert min_hitting_set_exact(sets) == frozenset().union(*sets)


# ---------------------------------------------------------------------------
# separation verification

def test_verify_separation_examples():
    graph = build_graph(Corpus(traces=(Trace("n", "negative", ("a", "b", "c")),)))
    assert verify_separation(graph, frozenset({("b", "c")})) == ()

    graph2 = build_graph(
        Corpus(
            traces=(
                Trace("n", "negative", ("a", "b", "c")),
                Trace("m", "negative", ("a", "c")),
            )
        )
    )
    leftover = verify_separation(graph2, frozenset({("a", "b")}))
    assert leftover == ((("a", "c"), ("a", "c")),)

    # vacuous separation: no path at all
    graph3 = build_graph(
        Corpus(
            traces=(
                Trace("n", "negative", ("a", "b")),
                Trace("m", "positive", ("c", "d")),
            )
        )
    )
    assert verify_separation(replace(graph3, negative_pairs=(("a", "d"),)), frozenset()) == ()


# ---------------------------------------------------------------------------
# the solver

def test_protected_edge_forces_the_cut():
    corpus = Corpus(
        traces=(
            Trace("pos", "positive", ("a", "b")),
            Trace("neg", "negative", ("a", "b", "c")),
        )
    )
    _, cut = solve_corpus(corpus)
    assert isinstance(cut, CutSet)
    assert cut.edges == {("b", "c")}
    assert cut.iterations == 1
    assert cut.optimal


def test_lazy_refinement_three_node_instance():
    # edges a->b, b->c (negative path) and a->c (unprotected shortcut)
    corpus = Corpus(
        traces=(
            Trace("observed", "negative", ("a", "b", "c")),
            Trace("shortcut", "positive", ("a", "c")),
        ),
        min_positive_support=2,
    )
    graph, cut = solve_corpus(corpus)
    assert isinstance(cut, CutSet)
    assert cut.iterations == 2
    assert cut.edges == {("a", "b"), ("a", "c")}
    assert [c.id for c in cut.constraints] == ["observed", "refined-1"]

    oracle = brute_min_separation_cut(
        set(graph.edges), graph.cuttable_edges(), graph.negative_pairs
    )
    assert oracle == cut.edges


def test_fully_protected_path_is_a_conflict():
    corpus = Corpus(
        traces=(
            Trace("ok", "positive", ("a", "b")),
            Trace("bad", "negative", ("a", "c", "b")),
        )
    )
    _, outcome = solve_corpus(corpus)
    assert isinstance(outcome, Conflict)
    assert outcome.pair == ("a", "b")
    assert outcome.witness == ("a", "b")
    assert outcome.negative_ids == ("bad",)


def test_conflict_on_directly_protected_negative_path():
    # constructed problem, bypassing corpus validation: the negative path
    # itself is fully protected
    corpus = Corpus(
        traces=(
            Trace("ok", "positive", ("a", "b")),
            Trace("bad", "negative", ("x", "a", "b")),
        ),
        required_edges=frozenset({("x", "a")}),
    )
    _, outcome = solve_corpus(corpus)
    assert isinstance(outcome, Conflict)
    assert outcome.pair == ("x", "b")
    assert outcome.witness == ("x", "a", "b")


# ---------------------------------------------------------------------------
# synthesis: the cut solver alone decides that a negative cannot be broken

EXACT = SolverConfig(solver="exact")


def test_negative_duplicating_a_positive_is_a_conflict():
    corpus = Corpus(
        traces=(
            Trace("pos", "positive", ("a", "b")),
            Trace("neg", "negative", ("a", "b")),
        )
    )
    assert synthesize(corpus) == Conflict(("a", "b"), ("a", "b"), ("neg",))


def test_negative_prefix_of_a_positive_is_a_conflict():
    corpus = Corpus(
        traces=(
            Trace("pos", "positive", ("a", "b", "c")),
            Trace("neg", "negative", ("a", "b")),
        )
    )
    assert synthesize(corpus) == Conflict(("a", "b"), ("a", "b"), ("neg",))


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(("positive", "negative")),
            st.lists(st.sampled_from("abc"), min_size=2, max_size=5),
        ),
        max_size=12,
    )
)
def test_every_prefix_conflict_is_a_conflict(raw):
    """At support 1 a negative that equals a prefix of a positive has every
    edge protected; the conflict names the first negative in corpus order
    whose edges are all protected or self-loops, with every negative of its
    pair."""
    corpus = Corpus(
        traces=tuple(Trace(f"t{i}", polarity, nodes) for i, (polarity, nodes) in enumerate(raw))
    )
    if any(trace.nodes[0] == trace.nodes[-1] for trace in corpus.negatives):
        with pytest.raises(ValidationError, match="negative endpoints equal"):
            synthesize(corpus, config=EXACT)
        return
    result = synthesize(corpus, config=EXACT)
    kept = {edge for trace in corpus.positives for edge in zip(trace.nodes, trace.nodes[1:])}
    blocked = [
        trace
        for trace in corpus.negatives
        if all(edge in kept or edge[0] == edge[1] for edge in zip(trace.nodes, trace.nodes[1:]))
    ]
    if prefix_conflicts(corpus):
        assert isinstance(result, Conflict)
    if blocked:
        first = blocked[0]
        ids = tuple(trace.id for trace in corpus.negatives if trace.endpoints == first.endpoints)
        assert result == Conflict(first.endpoints, first.nodes, ids)


@st.composite
def noisy_corpora(draw):
    """At most 5 nodes and 6 traces, min_positive_support 1-3, and at most
    one required edge.  About half the negatives are slices of positives,
    so negatives that repeat part of a positive are common; a negative with
    equal endpoints is left out, since validation rejects it first."""
    node = st.sampled_from("abcde")
    positives = draw(st.lists(st.lists(node, min_size=2, max_size=5), max_size=4))
    traces = [Trace(f"p{i}", "positive", tuple(nodes)) for i, nodes in enumerate(positives)]
    for number in range(draw(st.integers(1, 6 - len(traces)))):
        if positives and draw(st.booleans()):
            nodes = draw(st.sampled_from(positives))
            start = draw(st.integers(0, len(nodes) - 2))
            path = nodes[start : draw(st.integers(start + 2, len(nodes)))]
        else:
            path = draw(st.lists(node, min_size=2, max_size=5))
        if path[0] != path[-1]:
            traces.append(Trace(f"n{number}", "negative", tuple(path)))
    return Corpus(
        traces=tuple(traces),
        required_edges=frozenset(draw(st.sets(st.tuples(node, node), max_size=1))),
        min_positive_support=draw(st.integers(1, 3)),
    )


def _independent_oracle(corpus):
    """The brute-force minimum cut, with protection read off the corpus
    alone: an edge is protected when at least min_positive_support distinct
    positives hold it, or when it is required; self-loops are never cut."""
    def edges_of(trace):
        return set(zip(trace.nodes, trace.nodes[1:]))

    support: dict = {}
    for trace in corpus.positives:
        for edge in edges_of(trace):
            support[edge] = support.get(edge, 0) + 1
    edges = set(corpus.required_edges).union(*(edges_of(trace) for trace in corpus.traces))
    cuttable = {
        edge
        for edge in edges
        if edge[0] != edge[1]
        and support.get(edge, 0) < corpus.min_positive_support
        and edge not in corpus.required_edges
    }
    pairs = {(trace.nodes[0], trace.nodes[-1]) for trace in corpus.negatives}
    return brute_min_separation_cut(edges, cuttable, pairs)


@settings(max_examples=300, deadline=None)
@given(noisy_corpora())
@example(
    Corpus(
        traces=(Trace("p", "positive", ("a", "b", "c")), Trace("n", "negative", ("a", "b"))),
        min_positive_support=2,
    )
)
def test_synthesis_matches_the_oracle_under_positive_support(corpus):
    oracle = _independent_oracle(corpus)
    result = synthesize(corpus, config=EXACT)
    if oracle is None:
        assert isinstance(result, Conflict)
    else:
        assert not isinstance(result, Conflict)
        assert result.cut.edges == oracle


# three negatives through (x, y), which a kept x -> z -> y bypasses: greedy
# takes (x, y) first, and the refined constraints then need every (s{i}, x)
FUNNEL = Corpus(
    traces=(
        Trace("keep", "positive", ("x", "z", "y")),
        *(Trace(f"n{i}", "negative", (f"s{i}", "x", "y", f"t{i}")) for i in range(3)),
    )
)


@settings(max_examples=150, deadline=None)
@given(noisy_corpora(), st.sampled_from([SolverConfig("greedy"), SolverConfig("auto", 0), SolverConfig()]))
@example(FUNNEL, SolverConfig("greedy"))
def test_separation_syntheses_have_no_violations(corpus, config):
    """Any irredundant separating cut leaves no cut edge related: the one
    constraint path only that edge hits would reconnect its pair."""
    result = synthesize(corpus, config=config)
    if isinstance(result, Conflict):
        return
    assert result.violations == ()
    assert is_irredundant(result.cut.edges, [c.cuttable for c in result.cut.constraints])


def test_diamond_cut_lex_tie_break():
    corpus = Corpus(
        traces=(
            Trace("left", "negative", ("a", "b", "d")),
            Trace("right", "negative", ("a", "c", "d")),
        )
    )
    graph, cut = solve_corpus(corpus)
    assert cut.edges == {("a", "b"), ("a", "c")}
    oracle = brute_min_separation_cut(
        set(graph.edges), graph.cuttable_edges(), graph.negative_pairs
    )
    assert len(oracle) == 2 and oracle == cut.edges


def test_path_semantics_hits_observed_paths_only():
    corpus = Corpus(
        traces=(
            Trace("observed", "negative", ("a", "b", "c")),
            Trace("shortcut", "positive", ("a", "c")),
        ),
        min_positive_support=2,
    )
    graph = build_graph(corpus)
    cut = solve_synthesis_cut(graph, "path", SolverConfig(solver="exact"))
    assert cut.edges == {("a", "b")}
    assert cut.iterations == 1
    # the a->c shortcut is untouched, so the endpoints are not separated
    assert verify_separation(graph, cut.edges) != ()


def test_solver_determinism():
    rng = random.Random(23)
    for _ in range(20):
        corpus = random_corpus(rng)
        graph = build_graph(corpus)
        first = solve_synthesis_cut(graph, config=SolverConfig(solver="exact"))
        second = solve_synthesis_cut(graph, config=SolverConfig(solver="exact"))
        assert first == second


def test_separation_postcondition_and_greedy_feasibility():
    rng = random.Random(31)
    for _ in range(60):
        corpus = random_corpus(rng)
        graph = build_graph(corpus)
        exact = solve_synthesis_cut(graph, config=SolverConfig(solver="exact"))
        greedy = solve_synthesis_cut(graph, config=SolverConfig(solver="greedy"))
        if isinstance(exact, Conflict):
            assert isinstance(greedy, Conflict)
            continue
        assert verify_separation(graph, exact.edges) == ()
        assert isinstance(greedy, CutSet)
        assert verify_separation(graph, greedy.edges) == ()
        assert len(greedy.edges) >= len(exact.edges)
        assert not greedy.optimal or greedy.edges == exact.edges


def test_refinement_ceiling_fails_loudly():
    from flowsynth import RefinementLimitError

    corpus = Corpus(
        traces=(
            Trace("observed", "negative", ("a", "b", "c")),
            Trace("shortcut", "positive", ("a", "c")),
        ),
        min_positive_support=2,
    )
    graph = build_graph(corpus)
    with pytest.raises(RefinementLimitError):
        solve_synthesis_cut(graph, config=SolverConfig(solver="exact", max_iterations=1))
    # the default ceiling is far above what this instance needs
    assert solve_synthesis_cut(graph, config=SolverConfig(solver="exact")).iterations == 2


def test_unknown_semantics_or_solver_raises_before_any_work():
    # the negative is fully protected, so the loop would return a Conflict at once
    corpus = Corpus(traces=(Trace("p", "positive", ("a", "b")), Trace("n", "negative", ("a", "b"))))
    graph = build_graph(corpus)
    with pytest.raises(ValueError, match="unknown semantics 'paths'"):
        solve_synthesis_cut(graph, "paths")
    with pytest.raises(ValueError, match="unknown solver 'fast'"):
        solve_synthesis_cut(graph, config=SolverConfig("fast"))
    assert isinstance(solve_synthesis_cut(graph), Conflict)


def test_auto_policy_uses_exact_within_budget():
    corpus = Corpus(traces=(Trace("n", "negative", ("a", "b", "c")),))
    graph = build_graph(corpus)
    auto = solve_synthesis_cut(graph, config=SolverConfig(solver="auto", max_exact_candidates=24))
    assert auto.optimal
    forced_greedy = solve_synthesis_cut(
        graph, config=SolverConfig(solver="auto", max_exact_candidates=1)
    )
    assert not forced_greedy.optimal


# ---------------------------------------------------------------------------
# the incremental loop and the per-sink search against the references

@st.composite
def flow_graphs(draw):
    """Small graphs with self-loops and protected edges.  The negative
    paths are walks along the edges (a walk may return to its start, so a
    pair can have source == sink); extra negative pairs may be unreachable
    and often share a sink with others."""
    nodes = "abcdef"[: draw(st.integers(2, 6))]
    node = st.sampled_from(nodes)
    keys = sorted(draw(st.sets(st.tuples(node, node), min_size=1, max_size=14)))
    protected = draw(st.sets(st.sampled_from(keys), max_size=3))
    paths = []
    for number in range(draw(st.integers(1, 5))):
        walk = [draw(node)]
        for _ in range(draw(st.integers(1, 4))):
            successors = [dst for src, dst in keys if src == walk[-1]]
            if not successors:
                break
            walk.append(draw(st.sampled_from(successors)))
        paths.append((f"n{number}", tuple(walk)))
    pairs = [(walk[0], walk[-1]) for _, walk in paths]
    pairs += draw(st.lists(st.tuples(node, node), max_size=3))
    return FlowGraph(frozenset(nodes), frozenset(keys), frozenset(protected), tuple(dict.fromkeys(pairs)), tuple(paths))


def outcome(solve, *args):
    """The result, or the type and message of the flowsynth error raised."""
    try:
        return solve(*args)
    except FlowSynthError as exc:
        return type(exc), str(exc)


# auto's threshold around the candidate counts these graphs have, and
# ceilings that cut the loop short
configs = st.builds(
    SolverConfig,
    st.sampled_from(["auto", "exact", "greedy"]),
    st.integers(0, 8),
    st.sampled_from([1, 2, 10_000]),
)


@settings(max_examples=300, deadline=None)
@given(flow_graphs(), st.sampled_from(["separation", "path"]), configs)
def test_refinement_loop_matches_reference(graph, semantics, config):
    expected = outcome(reference_solve_synthesis_cut, graph, semantics, config)
    assert outcome(solve_synthesis_cut, graph, semantics, config) == expected


def _solved(graph):
    return solve_synthesis_cut(graph, config=SolverConfig("exact"))


def _connected_sinks(graph):
    return [sink for (_, sink), _ in verify_separation(graph, frozenset())]


def components(sets):
    """The numbers of the sets, grouped by shared edges: sorted groups in
    sorted order."""
    groups = []
    for number, constraint in enumerate(sets):
        edges, numbers = set(constraint), [number]
        for group in [group for group in groups if group[0] & edges]:
            groups.remove(group)
            edges |= group[0]
            numbers += group[1]
        groups.append((edges, numbers))
    return sorted(sorted(numbers) for _, numbers in groups)


def _merges_components(graph):
    """Some refined constraint links two or more groups of the constraints
    before it."""
    cut = _solved(graph)
    if not isinstance(cut, CutSet):
        return False
    sets = [c.cuttable for c in cut.constraints]
    return any(
        len(components(sets[: n + 1])) < len(components(sets[:n])) for n in range(len(graph.negative_paths), len(sets))
    )


def round_cuts(graph, config):
    """The loop's result and the cut each of its rounds verified."""
    cuts = []

    def spy(graph, cut, **kwargs):
        cuts.append(cut)
        return verify_separation(graph, cut, **kwargs)

    with mock.patch.object(cut_module, "verify_separation", spy):
        return solve_synthesis_cut(graph, config=config), cuts


def sink_searches(graph, cuts, stopped=None):
    """For each cut in turn, the sinks that need a search and those among
    them that a search had separated: a sink is skipped while every edge
    into what its last search reached, from outside that, is still cut.
    `stopped` maps each separated sink to those edges; a caller may pass
    one in, which the model then carries on from and updates."""
    sources = {}
    for source, sink in graph.negative_pairs:
        sources.setdefault(sink, set()).add(source)
    backward = [(dst, src) for src, dst in graph.edges]
    stopped = {} if stopped is None else stopped
    rounds = []
    for cut in cuts:
        searched, reopened = set(), set()
        for sink, starts in sources.items():
            if sink in stopped:
                if stopped[sink] <= cut:
                    continue
                reopened.add(sink)
            searched.add(sink)
            reach = reachable_nodes(backward, sink, {(dst, src) for src, dst in cut})
            if starts & reach:
                stopped.pop(sink, None)
            else:
                stopped[sink] = {(src, dst) for src, dst in graph.edges if dst in reach and src not in reach}
        rounds.append((searched, reopened))
    return rounds


def _reopens_a_sink(graph):
    return any(
        reopened
        for solver in ("exact", "greedy")
        for _, reopened in sink_searches(graph, round_cuts(graph, SolverConfig(solver))[1])
    )


def _auto_switches_to_greedy(graph):
    """auto, with the first round's candidate count as its limit, starts
    exact and ends greedy."""
    on_paths = {edge for _, nodes in graph.negative_paths for edge in zip(nodes, nodes[1:])}
    first = len(graph.cuttable_edges() & on_paths)
    cut = solve_synthesis_cut(graph, config=SolverConfig("auto", first))
    return first <= 8 and isinstance(cut, CutSet) and not cut.optimal


REACHED = {
    "refined": lambda graph: isinstance(cut := _solved(graph), CutSet) and cut.iterations >= 2,
    "refined-conflict": lambda graph: isinstance(c := _solved(graph), Conflict) and len(c.witness) > 2,
    "source-is-sink-conflict": lambda graph: isinstance(c := _solved(graph), Conflict) and c.pair[0] == c.pair[1],
    "shared-sink": lambda graph: len(set(sinks := _connected_sinks(graph))) < len(sinks),
    "refined-merges-components": _merges_components,
    "separated-sink-reopened": _reopens_a_sink,
    "auto-exact-then-greedy": _auto_switches_to_greedy,
}


@pytest.mark.parametrize("shape", sorted(REACHED))
def test_graph_strategy_reaches(shape):
    """The generator makes every case the tests around it are for."""
    find(
        flow_graphs(),
        REACHED[shape],
        settings=settings(max_examples=2000, database=None, phases=[Phase.generate], derandomize=True),
    )


@settings(max_examples=200, deadline=None)
@given(flow_graphs(), st.data())
def test_verify_separation_matches_per_pair_search(graph, data):
    keys = sorted(graph.edges)
    cut = frozenset(data.draw(st.sets(st.sampled_from(keys), max_size=len(keys))))
    pairs = list(graph.negative_pairs)
    pairs += data.draw(st.lists(st.sampled_from(pairs), max_size=3))  # repeated pairs
    leftover = verify_separation(replace(graph, negative_pairs=tuple(pairs)), cut)
    assert leftover == reference_verify_separation(graph, cut, pairs)
    per_pair = [(pair, shortest_path(graph, *pair, cut)) for pair in pairs]
    assert leftover == tuple((pair, witness) for pair, witness in per_pair if witness is not None)


def test_verify_separation_names_the_first_unknown_node():
    """A graph built by hand can name nodes it lacks in its pairs: the
    first such node, source before sink, is the error."""
    for pairs, missing in [((("a", "b"), ("x", "b")), "x"), ((("a", "y"), ("z", "b")), "y")]:
        graph = FlowGraph(frozenset({"a", "b"}), frozenset({("a", "b")}), frozenset(), pairs, ())
        with pytest.raises(UnknownNode) as excinfo:
            verify_separation(graph, frozenset())
        assert str(excinfo.value) == missing


def test_verify_separation_names_an_unknown_node_of_the_graph_pairs():
    graph = FlowGraph(frozenset({"a", "b"}), frozenset({("a", "b")}), frozenset(), (("a", "b"), ("a", "q")), ())
    for pairs in (graph.negative_pairs, list(graph.negative_pairs)):
        with pytest.raises(UnknownNode) as excinfo:
            verify_separation(replace(graph, negative_pairs=pairs), frozenset())
        assert str(excinfo.value) == "q"


# ---------------------------------------------------------------------------
# the components of a growing family and the memo of separated sinks

E4 = ("d", "e")
MERGES_THREE = ([frozenset({E1}), frozenset({E2}), frozenset({E3}), frozenset({E1, E2, E3})], frozenset())
# {E1, E2} alone is covered by E1; merged into the larger {E3, E4}, {E4}
# by {E2, E3}, it is covered by E2
DROPS_A_MERGED_COVER = ([frozenset({E1, E2}), frozenset({E3, E4}), frozenset({E4}), frozenset({E2, E3})], frozenset())
DUPLICATES = ([frozenset({E1, E2}), frozenset({E3}), frozenset({E1, E2}), frozenset({E2, E3})], frozenset())
FORBIDDEN = ([frozenset({E1, E2}), frozenset({E3}), frozenset({E2, E3}), frozenset({E2})], frozenset({E2}))


def whole_family_greedy(sets, forbidden):
    return reference_irredundant(reference_greedy_hitting_set(sets, forbidden), sets)


@settings(max_examples=200, deadline=None)
@given(families(max_edges=10, max_sets=20, max_size=3), st.lists(st.booleans(), min_size=20, max_size=20))
@example(MERGES_THREE, [False] * 20)
@example(MERGES_THREE, [True] * 20)
@example(DROPS_A_MERGED_COVER, [True] * 20)
@example(DUPLICATES, [True] * 20)
@example(FORBIDDEN, [False, True] * 10)
def test_growing_family_covers_match_the_whole_family_greedy(family, solve_after):
    """One family is solved after every append, as a round would; a second
    gets the same appends but is solved only now and then, so that one
    solve meets several merges.  Both give greedy over all sets so far,
    and the exact solver, whose first bound reads the same covers, gives
    the exact answer."""
    sets, forbidden = family
    sets = [constraint for constraint in sets if constraint - forbidden]
    edges = frozenset().union(*sets) - forbidden
    every, batched = _Family(edges), _Family(edges)
    for count, (constraint, solve) in enumerate(zip(sets, solve_after), 1):
        every.append(constraint - forbidden)
        batched.append(constraint - forbidden)
        expected = whole_family_greedy(sets[:count], forbidden)
        assert every.edge_set(_greedy_cover(every)) == expected
        assert sorted(map(sorted, every.sets.values())) == components([c - forbidden for c in sets[:count]])
        if solve:
            assert min_hitting_set_greedy(batched) == expected
    if sets:
        assert min_hitting_set_exact(batched) == reference_exact_hitting_set(sets, forbidden)
        assert min_hitting_set_greedy(batched) == whole_family_greedy(sets, forbidden)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 40), st.data())
def test_edge_set_matches_a_fresh_set_over_a_sequence_of_covers(width, data):
    """Each cover flips a few bits of the last, or is drawn afresh, as the
    exact solver's covers can be."""
    edges = [(f"u{i:02d}", f"v{i:02d}") for i in range(width)]
    family = _Family(edges)
    full = (1 << width) - 1
    mask = 0
    for fresh in data.draw(st.lists(st.booleans(), min_size=1, max_size=8)):
        if fresh:
            mask = data.draw(st.integers(0, full))
        else:
            for index in data.draw(st.lists(st.integers(0, max(width - 1, 0)), max_size=3) if width else st.just([])):
                mask ^= 1 << index
        assert family.edge_set(mask) == frozenset(family.edges[i] for i in _bits(mask))


@settings(max_examples=200, deadline=None)
@given(flow_graphs(), st.data())
def test_verify_separation_with_a_memo_matches_the_reference_on_every_cut(graph, data):
    """Each cut adds and drops a few edges of the last, as greedy's cuts
    do from round to round."""
    keys = sorted(graph.edges)
    toggles = st.frozensets(st.sampled_from(keys), max_size=3)
    memo = {}
    cut = frozenset()
    for toggled in data.draw(st.lists(toggles, min_size=1, max_size=6)):
        cut ^= toggled
        expected = reference_verify_separation(graph, cut, graph.negative_pairs)
        assert verify_separation(graph, cut, separated=memo) == expected


@settings(max_examples=200, deadline=None)
@given(flow_graphs(), st.data())
def test_the_memo_holds_each_dry_sink_with_the_cut_edges_into_what_reaches_it(graph, data):
    """Over cuts that add and drop edges, one memo matches the model after
    every call: each sink a search left separated, with its sources and
    every edge into what reaches it from outside that."""
    keys = sorted(graph.edges)
    toggles = st.frozensets(st.sampled_from(keys), max_size=4)
    sources = {}
    for source, sink in graph.negative_pairs:
        sources.setdefault(sink, set()).add(source)
    memo, model = {}, {}
    cut = frozenset()
    for toggled in data.draw(st.lists(toggles, min_size=1, max_size=8)):
        cut ^= toggled
        expected = reference_verify_separation(graph, cut, graph.negative_pairs)
        assert verify_separation(graph, cut, separated=memo) == expected
        sink_searches(graph, [cut], model)
        assert {sink: edges for sink, (_, edges) in memo.items()} == model
        assert all(starts == sources[sink] for sink, (starts, _) in memo.items())


def with_predecessors(graph, order):
    """A copy of `graph` whose predecessor lists are its own, each put in
    `order`."""
    copy = replace(graph)
    copy.__dict__["reverse_adjacency"] = {
        node: tuple(order(preds)) for node, preds in graph.reverse_adjacency.items()
    }
    return copy


def settled(dist, starts):
    """What a search promises: every node when it ran dry, else the
    starts and every node nearer the goal than the farthest of them."""
    if not set(starts) <= dist.keys():
        return dist
    farthest = max((dist[start] for start in starts), default=0)
    return {node: step for node, step in dist.items() if step < farthest or node in starts}


@settings(max_examples=200, deadline=None)
@given(flow_graphs(), st.data())
def test_no_search_reads_the_order_of_the_predecessor_lists(graph, data):
    """The graph's own predecessor lists and the same lists reversed give
    what sorted lists give: leftovers and memo over a sequence of cuts,
    then each shortest path and each search's distances."""
    reference = with_predecessors(graph, sorted)
    graphs = [graph, with_predecessors(graph, reversed)]
    keys = sorted(graph.edges)
    memos = [{} for _ in graphs]
    reference_memo = {}
    cut = frozenset()
    for toggled in data.draw(st.lists(st.frozensets(st.sampled_from(keys), max_size=4), min_size=1, max_size=6)):
        cut ^= toggled
        expected = verify_separation(reference, cut, separated=reference_memo)
        for variant, memo in zip(graphs, memos):
            assert verify_separation(variant, cut, separated=memo) == expected
            assert memo == reference_memo
    nodes = sorted(graph.nodes)
    for start, goal in product(nodes, repeat=2):
        path = shortest_path(reference, start, goal, cut)
        assert [shortest_path(variant, start, goal, cut) for variant in graphs] == [path, path]
    for goal in nodes:
        starts = data.draw(st.sets(st.sampled_from(nodes), max_size=3))
        dist = settled(_distances_to(reference, goal, starts, cut), starts)
        for variant in graphs:
            assert settled(_distances_to(variant, goal, starts, cut), starts) == dist


def test_a_sink_is_searched_again_once_an_edge_its_search_stopped_at_leaves_the_cut():
    # s -> a -> t and s -> b -> t; the first cut stops the search from t at
    # both edges into t, the second lets a -> t through again
    graph = build_graph(
        Corpus(traces=(Trace("n1", "negative", ("s", "a", "t")), Trace("n2", "negative", ("s", "b", "t"))))
    )
    memo = {}
    both = frozenset({("a", "t"), ("b", "t")})
    assert verify_separation(graph, both, separated=memo) == ()
    assert verify_separation(graph, both | {("s", "a")}, separated=memo) == ()
    assert verify_separation(graph, frozenset({("b", "t"), ("s", "a")}), separated=memo) == ()
    reopened = frozenset({("s", "a"), ("s", "b")})
    assert verify_separation(graph, reopened, separated=memo) == ()
    assert verify_separation(graph, frozenset({("s", "b")}), separated=memo) == (
        (("s", "t"), ("s", "a", "t")),
    )


def gadget_ladder(gadgets, depth):
    """The benchmark's refinement gadgets, without its random names, hub or
    filler: the negative s -> t of a gadget takes depth + 1 rounds to
    separate, one rung per round, and each rung is a component of its
    own."""
    traces = []
    for g in range(gadgets):
        source, sink = f"g{g}.src", f"g{g}.snk"
        spine = (source, *(f"g{g}.up{j:02d}" for j in range(1, depth + 1)))
        traces += [Trace(f"g{g}.spine", "positive", spine), Trace(f"g{g}.n", "negative", (source, sink))]
        for j in range(1, depth + 1):
            rung, drop, side = f"g{g}.rg{j:02d}", f"g{g}.dr{j:02d}", f"g{g}.sd{j:02d}"
            traces += [
                Trace(f"g{g}.a{j:02d}", "negative", (spine[j], rung, drop)),
                Trace(f"g{g}.b{j:02d}", "negative", (side, rung, drop)),
                Trace(f"g{g}.r{j:02d}", "positive", (rung, sink)),
            ]
    return Corpus(traces=tuple(traces))


def test_a_round_re_solves_the_touched_components_and_searches_the_open_sinks(monkeypatch):
    graph = build_graph(gadget_ladder(3, 4))
    rounds = []  # per round: component solves, sinks searched, leftover

    def solve_component(family, numbers, _original=cut_module._component_cover):
        rounds[-1]["solves"] += 1
        return _original(family, numbers)

    def search(graph, goal, *args, _original=cut_module._distances_to):
        rounds[-1]["searched"].append(goal)
        return _original(graph, goal, *args)

    def greedy(sets, forbidden=frozenset(), _original=cut_module.min_hitting_set_greedy):
        rounds.append({"solves": 0, "searched": []})
        return _original(sets, forbidden)

    def verify(graph, cut, *, separated=None, _original=cut_module.verify_separation):
        rounds[-1]["leftover"] = leftover = _original(graph, cut, separated=separated)
        rounds[-1]["cut"] = cut
        return leftover

    for name, spy in [("_component_cover", solve_component), ("_distances_to", search),
                      ("min_hitting_set_greedy", greedy), ("verify_separation", verify)]:
        monkeypatch.setattr(cut_module, name, spy)
    cut = solve_synthesis_cut(graph, config=SolverConfig("greedy"))
    assert isinstance(cut, CutSet) and cut.iterations == 5 == len(rounds)
    assert cut == reference_solve_synthesis_cut(graph, "separation", SolverConfig("greedy"))

    sets = [constraint.cuttable for constraint in cut.constraints]
    sinks = {sink for _, sink in graph.negative_pairs}
    models = sink_searches(graph, [r["cut"] for r in rounds])
    solved = len(graph.negative_paths)
    assert rounds[0]["solves"] == len(components(sets[:solved])) == 15
    assert sorted(rounds[0]["searched"]) == sorted(sinks)
    for before, now, (_, reopened) in zip(rounds, rounds[1:], models[1:]):
        added = solved + len(before["leftover"])
        touched = [group for group in components(sets[:added]) if group[-1] >= solved]
        assert now["solves"] == len(touched) == 3
        unseparated = {sink for (_, sink), _ in before["leftover"]}
        assert set(now["searched"]) <= unseparated | reopened
        assert len(now["searched"]) <= len(unseparated) + len(reopened)
        solved = added
    assert sum(len(r["searched"]) for r in rounds) < len(rounds) * len(sinks)


def test_each_separation_round_logs_one_debug_line(caplog):
    graph = build_graph(gadget_ladder(2, 3))
    with caplog.at_level(logging.DEBUG, logger="flowsynth.cut"):
        cut = solve_synthesis_cut(graph, config=SolverConfig("greedy"))
    assert isinstance(cut, CutSet)
    lines = [record.getMessage() for record in caplog.records]
    assert {record.levelno for record in caplog.records} == {logging.DEBUG}
    assert lines == [
        "round 1: 14 constraints, 8 of 8 components re-solved, greedy solver, "
        "cut 8 edges, 2 pairs unseparated, 8 of 8 sinks searched",
        "round 2: 16 constraints, 2 of 8 components re-solved, greedy solver, "
        "cut 10 edges, 2 pairs unseparated, 2 of 8 sinks searched",
        "round 3: 18 constraints, 2 of 8 components re-solved, greedy solver, "
        "cut 12 edges, 2 pairs unseparated, 2 of 8 sinks searched",
        "round 4: 20 constraints, 2 of 8 components re-solved, greedy solver, "
        "cut 14 edges, 0 pairs unseparated, 2 of 8 sinks searched",
    ]
    assert len(lines) == cut.iterations
