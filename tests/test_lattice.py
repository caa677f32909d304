"""Order construction, consistency checking, and semilattice completion."""

from __future__ import annotations

import dataclasses
import importlib
import pkgutil
import random
from itertools import combinations_with_replacement, product
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from flowsynth import (
    Conflict,
    Corpus,
    CutSet,
    Element,
    QualifierOrder,
    SolverConfig,
    Trace,
    UnknownElement,
    build_graph,
    build_order,
    check_consistency,
    complete_join_semilattice,
    dump_analysis,
    join,
    lattice_dot,
    make_analysis_spec,
    order_query,
    solve_synthesis_cut,
    stack_traces_from_dir,
    synthesize,
    trace_edges,
)
import flowsynth
from flowsynth import lattice as lattice_module
from flowsynth.dot import completion_dot, drawn_counts
from flowsynth.graph import _bits
from flowsynth.lattice import EQUAL, GREATER, INCOMPARABLE, LESS, covering_pairs
from flowsynth.traces import EFFECT, QUALIFIER

from corpusgen import random_corpus
from oracles import (
    naming_key,
    reachability_closure,
    reference_complete_join_semilattice,
    reference_cover_indices,
    reference_covers,
    reference_lattice_dot,
    reference_mask_completion,
)


def order_from(corpus, cut_edges):
    graph = build_graph(corpus)
    return graph, build_order(graph, frozenset(cut_edges))


def hand_built(elements, relation, assignment):
    """A QualifierOrder over `elements`, put in name order as every order's
    elements are, whose up-sets hold what the full relation `relation`
    (name pairs) relates."""
    elements = sorted(elements, key=lambda element: element.name)
    names = [element.name for element in elements]
    up = tuple(sum(1 << q for q, b in enumerate(names) if (a, b) in relation) for a in names)
    return QualifierOrder(tuple(elements), up, assignment)


def test_taint_direction_matches_subtyping():
    # retained untainted->tainted, cut tainted->untainted: untainted data may
    # be treated as tainted but not the other direction
    corpus = Corpus(
        traces=(
            Trace("trusted", "positive", ("untainted", "tainted")),
            Trace("leak", "negative", ("tainted", "untainted")),
        )
    )
    graph, order = order_from(corpus, [("tainted", "untainted")])
    assert order_query(order, "Q_untainted", "Q_tainted") == "less"
    assert order_query(order, "Q_tainted", "Q_untainted") == "greater"
    assert not order.leq("Q_tainted", "Q_untainted")


def test_build_order_merges_cycles():
    corpus = Corpus(
        traces=(
            Trace("cycle", "positive", ("a", "b", "a")),
            Trace("out", "positive", ("b", "c")),
        )
    )
    _, order = order_from(corpus, [])
    assert {e.name: e.members for e in order.elements} == {
        "Q_a": {"a", "b"},
        "Q_c": {"c"},
    }
    assert order.assignment == {"a": "Q_a", "b": "Q_a", "c": "Q_c"}
    assert order.leq("Q_a", "Q_c")
    assert not order.leq("Q_c", "Q_a")


def test_build_order_discrete_when_everything_cut():
    corpus = Corpus(
        traces=(
            Trace("n1", "negative", ("a", "b")),
        )
    )
    _, order = order_from(corpus, [("a", "b")])
    assert order_query(order, "Q_a", "Q_b") == "incomparable"
    assert order.leq("Q_a", "Q_a")


def test_order_query_unknown_element():
    corpus = Corpus(traces=(Trace("t", "positive", ("a", "b")),))
    _, order = order_from(corpus, [])
    with pytest.raises(UnknownElement):
        order_query(order, "Q_a", "Q_zzz")


def test_an_order_out_of_name_order_is_refused():
    """Every writer and make_analysis_spec read an order's elements as
    being in name order, so an order built with Q_b below Q_a, in that
    element order, is refused; so is a repeated name."""
    q_a, q_b = Element("Q_a", frozenset({"a"}), False), Element("Q_b", frozenset({"b"}), False)
    assignment = {"a": "Q_a", "b": "Q_b"}
    with pytest.raises(ValueError, match="'Q_b' comes before 'Q_a'"):
        QualifierOrder((q_b, q_a), (0b11, 0b10), assignment)
    with pytest.raises(ValueError, match="'Q_a' comes before 'Q_a'"):
        QualifierOrder((q_a, q_a), (0b11, 0b11), {"a": "Q_a"})
    order = QualifierOrder((q_a, q_b), (0b01, 0b11), assignment)
    assert order.leq("Q_b", "Q_a") and not order.leq("Q_a", "Q_b")


# ---------------------------------------------------------------------------
# consistency

def test_consistency_empty_after_separation_solve():
    corpus = Corpus(
        traces=(
            Trace("pos", "positive", ("a", "b")),
            Trace("neg", "negative", ("a", "b", "c")),
        )
    )
    graph = build_graph(corpus)
    cut = solve_synthesis_cut(graph, config=SolverConfig(solver="exact"))
    order = build_order(graph, cut.edges)
    assert check_consistency(order, cut.edges, graph.negative_pairs) == ()


def test_consistency_flags_alternate_retained_path():
    # path-semantics cut {(a,b)} leaves the retained route a->c->b
    corpus = Corpus(
        traces=(
            Trace("n", "negative", ("a", "b")),
            Trace("p", "positive", ("a", "c", "b")),
        )
    )
    graph, order = order_from(corpus, [("a", "b")])
    violations = check_consistency(order, frozenset({("a", "b")}), [])
    assert [v.kind for v in violations] == ["cut-edge-still-related"]
    assert violations[0].subject == ("a", "b")


def test_consistency_flags_cut_inside_cycle():
    corpus = Corpus(
        traces=(
            Trace("cycle", "positive", ("u", "v", "u")),
        )
    )
    graph, order = order_from(corpus, [])
    violations = check_consistency(order, frozenset({("u", "v")}), [])
    assert [v.kind for v in violations] == ["cut-edge-merged"]


def test_consistency_flags_related_negative_pair():
    corpus = Corpus(
        traces=(
            Trace("p", "positive", ("s", "m", "t")),
        )
    )
    graph, order = order_from(corpus, [])
    violations = check_consistency(order, frozenset(), [("s", "t")])
    assert [v.kind for v in violations] == ["negative-pair-related"]


# ---------------------------------------------------------------------------
# completion

def chain_order():
    corpus = Corpus(
        traces=(Trace("p", "positive", ("a", "b", "c")),),
    )
    _, order = order_from(corpus, [])
    return order


def antichain_order():
    corpus = Corpus(
        traces=(
            Trace("n1", "negative", ("x", "y")),
        )
    )
    _, order = order_from(corpus, [("x", "y")])
    return order


def test_completion_of_chain_adds_only_bottom():
    lattice = complete_join_semilattice(chain_order())
    assert [e.name for e in lattice.elements] == ["Q_a", "Q_b", "Q_c", "⊥"]
    assert lattice.bottom == "⊥"
    assert join(lattice, "Q_a", "Q_c").name == "Q_c"
    assert join(lattice, "Q_a", "⊥").name == "Q_a"


def test_completion_of_antichain_adds_join():
    lattice = complete_join_semilattice(antichain_order())
    assert [e.name for e in lattice.elements] == ["Q_x", "Q_x∨Q_y", "Q_y", "⊥"]
    top = join(lattice, "Q_x", "Q_y")
    assert top.name == "Q_x∨Q_y"
    assert top.synthetic and top.members == frozenset()
    assert order_query(lattice, "Q_x", "Q_y") == "incomparable"
    assert lattice.leq("Q_x", "Q_x∨Q_y") and lattice.leq("Q_y", "Q_x∨Q_y")


def test_completion_diamond_join_stays_below_existing_top():
    # b below l and r, l and r below t: join(l, r) must be a fresh element
    # strictly below t, because t's down-set also contains t itself
    corpus = Corpus(
        traces=(
            Trace("p1", "positive", ("b", "l", "t")),
            Trace("p2", "positive", ("b", "r", "t")),
        )
    )
    _, order = order_from(corpus, [])
    lattice = complete_join_semilattice(order)
    joined = join(lattice, "Q_l", "Q_r")
    assert joined.name == "Q_l∨Q_r"
    assert lattice.leq(joined.name, "Q_t")
    assert joined.name != "Q_t"
    down_join = lattice.downsets[joined.name]
    down_top = lattice.downsets["Q_t"]
    assert down_join < down_top


def test_join_examples():
    lattice = complete_join_semilattice(antichain_order())
    assert join(lattice, "Q_x", "Q_x").name == "Q_x"
    assert join(lattice, "Q_x", "⊥").name == "Q_x"
    with pytest.raises(UnknownElement):
        join(lattice, "Q_x", "nope")


# generator names that collide with the names completion gives bottom and
# joins, and joins of different generators that get the same name
_generator_names = st.lists(
    st.builds(
        lambda parts, primes: "∨".join(parts) + "'" * primes,
        st.lists(st.sampled_from(["Q_a", "Q_b", "Q_c", "⊥"]), min_size=1, max_size=2),
        st.integers(0, 1),
    ),
    min_size=1,
    max_size=6,
    unique=True,
)


@settings(max_examples=150, deadline=None)
@given(_generator_names, st.data())
def test_completion_matches_reference(names, data):
    # every drawn pair is oriented up a random ranking, so the order is acyclic
    rank = {name: i for i, name in enumerate(data.draw(st.permutations(names)))}
    pairs = data.draw(st.lists(st.tuples(st.sampled_from(names), st.sampled_from(names)), max_size=10))
    edges = {(a, b) if rank[a] < rank[b] else (b, a) for a, b in pairs if a != b}
    elements = [Element(name, frozenset({f"m{i}"})) for i, name in enumerate(sorted(names))]
    if data.draw(st.booleans()):
        elements.append(Element("Q_z∨Q_y", frozenset(), synthetic=True))
    relation = frozenset(reachability_closure(names, edges))
    order = hand_built(
        sorted(elements, key=lambda element: element.name),
        relation,
        {f"m{i}": name for i, name in enumerate(sorted(names))},
    )
    lattice = complete_join_semilattice(order)
    reference = reference_complete_join_semilattice(order.elements, relation, order.assignment)
    assert lattice.elements == reference.elements
    assert lattice.relation == reference.relation
    assert lattice.downsets == reference.downsets
    assert lattice.bottom == reference.bottom
    assert lattice.assignment == reference.assignment


def test_completion_names_colliding_joins_in_reference_order():
    # {Q_a, Q_b∨Q_b} and {Q_a∨Q_b, Q_b} both join to "Q_a∨Q_b∨Q_b"; the
    # prime goes to the later one in (size, sorted names) order
    names = ["Q_a", "Q_a∨Q_b", "Q_b", "Q_b∨Q_b"]
    relation = frozenset((name, name) for name in names)
    order = hand_built([Element(name, frozenset({name})) for name in names], relation, {})
    lattice = complete_join_semilattice(order)
    assert lattice.downsets["Q_a∨Q_b∨Q_b"] == {"Q_a", "Q_b∨Q_b"}
    assert lattice.downsets["Q_a∨Q_b∨Q_b'"] == {"Q_a∨Q_b", "Q_b"}
    assert lattice.downsets == reference_complete_join_semilattice(order.elements, relation, {}).downsets


@st.composite
def effect_orders(draw, names=None):
    """A generator order of up to 8 elements, each owning one or two nodes:
    a chain, an antichain, disjoint diamonds, or random pairs oriented up a
    random ranking.  Names are drawn apart from the ranks, so name order is
    not the order's: "Q_g0", "Q_g1", ..., or distinct ones from `names`."""
    shape = draw(st.sampled_from(["chain", "antichain", "diamonds", "random"]))
    if shape == "diamonds":
        size = 4 * draw(st.integers(1, 2))
        edges = {(d + a, d + b) for d in range(0, size, 4) for a, b in ((0, 1), (0, 2), (1, 3), (2, 3))}
    else:
        size = draw(st.integers(0, 8))
        if shape == "chain":
            edges = {(i, i + 1) for i in range(size - 1)}
        elif shape == "antichain":
            edges = set()
        else:
            pairs = draw(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=14))
            edges = {(min(a, b), max(a, b)) for a, b in pairs if a != b and max(a, b) < size}
    if names is None:
        names = draw(st.permutations([f"Q_g{i}" for i in range(size)]))
    else:
        names = draw(st.lists(names, min_size=size, max_size=size, unique=True))
    relation = frozenset(reachability_closure(names, {(names[a], names[b]) for a, b in edges}))
    members = {name: frozenset({f"m{i}", f"m{i}b"} if i % 3 else {f"m{i}"}) for i, name in enumerate(names)}
    elements = [Element(name, members[name]) for name in sorted(names)]
    assignment = {node: name for name in names for node in members[name]}
    return hand_built(elements, relation, assignment)


@settings(max_examples=300, deadline=None)
@given(effect_orders())
def test_completion_matches_the_mask_completion(order):
    lattice = complete_join_semilattice(order)
    reference = reference_mask_completion(order)
    assert lattice.elements == reference.elements
    assert lattice.up == reference.up
    assert lattice.covers == reference.covers
    assert lattice.bottom == reference.bottom
    assert lattice.down == reference.down
    assert complete_join_semilattice(order, len(reference.elements)) == lattice
    assert complete_join_semilattice(order, len(reference.elements) - 1) is None


# generator names that are the bottom's, or that a join's name or a prime can equal
_generator_names = st.one_of(st.sampled_from(["⊥", "⊥'"]), st.text(st.sampled_from("ab∨'⊥\x01\n"), min_size=1, max_size=3))


@settings(max_examples=300, deadline=None)
@given(effect_orders(_generator_names), st.sampled_from([-1, 0, 1, None]))
# "a∨b" is a join's name too, the joins of a and b∨b and of a∨b and b are
# both "a∨b∨b", one primed by name order, and the bottom is "⊥'"
@example(
    hand_built(
        [Element(name, frozenset({f"m{i}"})) for i, name in enumerate(["a", "a∨b", "b", "b∨b", "⊥"])],
        {(name, name) for name in ["a", "a∨b", "b", "b∨b", "⊥"]},
        {},
    ),
    0,
)
def test_the_completion_drawn_from_its_walk_is_the_completion_drawn(order, offset):
    """`completion_dot` draws what `lattice_dot` draws of the completion,
    and what the reference draws of the reference completion, for limits
    just below, at and above the completion's size, and no limit; below
    it, it is None, as the completion is."""
    reference = reference_mask_completion(order)
    limit = None if offset is None else len(reference.elements) + offset
    drawn = completion_dot(order, limit)
    completion = complete_join_semilattice(order, limit)
    if offset == -1:
        assert drawn is None and completion is None
    else:
        assert drawn == lattice_dot(completion) == reference_lattice_dot(reference).encode("utf-8")


_dot_names = st.text(st.sampled_from('ab"\\{} ∨⊥é日\x01\n\t\x7f'), min_size=1, max_size=4)


@st.composite
def drawn_orders(draw):
    """A random order whose element and member names hold quotes,
    backslashes, braces, control characters, `∨`, `⊥` and other non-ASCII
    characters; some elements are synthetic, and some orders carry covers
    while the rest have them reduced from the up-sets."""
    names = draw(st.lists(_dot_names, max_size=6, unique=True))
    pairs = draw(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=10))
    edges = {(names[min(a, b)], names[max(a, b)]) for a, b in pairs if a != b and max(a, b) < len(names)}
    relation = frozenset(reachability_closure(names, edges))
    elements = [
        Element(name, draw(st.frozensets(_dot_names, max_size=3)), draw(st.booleans())) for name in names
    ]
    order = hand_built(elements, relation, {})
    if draw(st.booleans()):
        order = dataclasses.replace(order, covers=reference_cover_indices(list(order.names), order.up))
    return order


@settings(max_examples=300, deadline=None)
@given(drawn_orders())
@example(
    hand_built(
        [Element('a"\\', frozenset({'"', "\\"})), Element("b", frozenset(), True)],
        {('a"\\', 'a"\\'), ("b", "b"), ('a"\\', "b")},
        {},
    )
)
def test_lattice_dot_matches_the_reference(order):
    assert lattice_dot(order) == reference_lattice_dot(order).encode("utf-8")
    # a control character is written as its escape, so only line ends are below 0x20
    assert set(lattice_dot(order)) & set(range(0x20)) <= {0x0A}
    # the summary line's counts, read off the drawing, with or without edges
    assert drawn_counts(lattice_dot(order)) == (len(order.elements), sum(e.synthetic for e in order.elements))


def test_lattice_dot_tells_a_control_character_from_the_text_of_its_escape():
    """Names that differ only by U+0001 against the six characters
    `\\u0001` are two nodes: the first is written `\\u0001`, the second with
    its backslash doubled."""
    names = ["a\x01", "a\\u0001"]
    order = hand_built([Element(name, frozenset()) for name in names], {(name, name) for name in names}, {})
    lines = lattice_dot(order).decode("utf-8").splitlines()
    ids = [line.split(" [", 1)[0].strip() for line in lines if " [label=" in line]
    assert ids == ['"a\\u0001"', '"a\\\\u0001"']


def test_no_lattice_dot_fixture_holds_a_control_byte_but_line_ends():
    fixtures = sorted((Path(__file__).parent / "fixtures").glob("*/lattice.dot"))
    assert len(fixtures) == 4
    for path in fixtures:
        assert set(path.read_bytes()) & set(range(0x20)) <= {0x0A}, path


def assert_carried_covers(order):
    """The covers an order carries are ascending and in range, and map
    through its names to the reference reduction of its up-sets."""
    covers = order.covers
    assert covers is not None
    assert list(covers) == sorted(set(covers))
    assert all(0 <= p < len(order.up) and 0 <= q < len(order.up) for p, q in covers)
    names = order.names
    reference = reference_covers(list(names), order.up)
    assert {(names[p], names[q]) for p, q in covers} == reference
    assert covering_pairs(order) == reference


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([QUALIFIER, EFFECT]))
def test_synthesis_carries_ascending_covers(seed, mode):
    """build_order, make_analysis_spec and the completion carry their
    covering pairs as ascending index pairs."""
    result = synthesize(random_corpus(random.Random(seed), mode))
    if isinstance(result, Conflict):
        return
    assert_carried_covers(result.order)
    assert_carried_covers(result.spec)
    if mode == EFFECT:
        assert_carried_covers(result.semilattice)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([QUALIFIER, EFFECT]),
    st.sampled_from(["start", "middle", "end"]),
    st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=10),
    st.integers(2, 6),
)
# three minimal elements, a0, a2 and an isolated 日3, around a default at 2
@example(EFFECT, "middle", [(0, 2), (1, 2)], 4)
def test_spec_shifts_carried_covers_past_its_default(mode, where, pairs, size):
    """The default element goes in at its name position, at the start, in
    the middle or at the end of the order's names; the carried covers
    past it move up one place, and in effect mode the bottom is covered
    by the minimal elements."""
    default = "⊥" if mode == EFFECT else "Q_unknown"
    low, high = ("a", "日") if mode == EFFECT else ("A", "Z")
    prefixes = {"start": [high] * size, "middle": [low, high] * size, "end": [low] * size}[where]
    names = sorted(prefix + str(i) for i, prefix in enumerate(prefixes[:size]))
    edges = {(names[min(a, b)], names[max(a, b)]) for a, b in pairs if a != b and max(a, b) < size}
    relation = frozenset(reachability_closure(names, edges))
    order = hand_built([Element(name, frozenset({f"m{name}"})) for name in names], relation, {})
    order = dataclasses.replace(order, covers=reference_cover_indices(names, order.up))
    corpus = Corpus(mode=mode)
    spec = make_analysis_spec(corpus, CutSet(frozenset(), 1, True), order, SolverConfig(), "separation")
    k = spec.names.index(default)
    assert k == {"start": 0, "middle": (size + 1) // 2, "end": size}[where]
    assert_carried_covers(spec)


@settings(max_examples=300, deadline=None)
@given(effect_orders(), st.data())
def test_consistency_on_the_order_matches_the_completion(order, data):
    """Cut edges and negative pairs join nodes, which map to generators,
    and generators embed order-faithfully: the order gives the violations
    its completion gives."""
    nodes = sorted(order.assignment)
    assume(nodes)
    pairs = st.lists(st.tuples(st.sampled_from(nodes), st.sampled_from(nodes)), max_size=12)
    cut = frozenset(data.draw(pairs))
    negative_pairs = data.draw(pairs)
    completed = complete_join_semilattice(order)
    assert check_consistency(order, cut, negative_pairs) == check_consistency(completed, cut, negative_pairs)


def test_the_completion_walk_stops_one_past_the_limit(monkeypatch):
    # 6 independent two-element chains: 3**6 = 729 down-sets
    names = [f"Q_{side}{i}" for i in range(6) for side in "ab"]
    relation = {(name, name) for name in names} | {(f"Q_a{i}", f"Q_b{i}") for i in range(6)}
    order = hand_built([Element(name, frozenset({name})) for name in sorted(names)], relation, {})
    walked = []
    walk = lattice_module._downsets

    def counted(down, limit):
        levels, top, upper = walk(down, limit)
        walked.append(sum(map(len, levels)))
        return levels, top, upper

    monkeypatch.setattr(lattice_module, "_downsets", counted)
    assert len(complete_join_semilattice(order).elements) == 729
    assert complete_join_semilattice(order, 729) is not None
    for limit in (0, 1, 100, 728):
        assert complete_join_semilattice(order, limit) is None
    assert walked == [729, 729, 1, 2, 101, 729]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 70), st.data())
def test_naming_key_orders_masks_as_their_sorted_bit_lists(width, data):
    masks = data.draw(st.lists(st.integers(0, (1 << width) - 1), unique=True, max_size=40))
    old = sorted(masks, key=lambda mask: (mask.bit_count(), list(_bits(mask))))
    assert sorted(masks, key=naming_key(width)) == old


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=12), st.booleans())
def test_mask_order_matches_the_references(pairs, complete):
    # every edge points up the node numbering, so the order is acyclic
    edges = {(f"n{min(a, b)}", f"n{max(a, b)}") for a, b in pairs if a != b}
    assume(edges)
    corpus = Corpus(traces=tuple(Trace(f"p{i}", "positive", edge) for i, edge in enumerate(sorted(edges))))
    _, order = order_from(corpus, [])
    nodes = sorted({node for edge in edges for node in edge})
    relation = {("Q_" + a, "Q_" + b) for a, b in reachability_closure(nodes, edges)}
    lattice = order
    if complete:
        lattice = complete_join_semilattice(order)
        reference = reference_complete_join_semilattice(order.elements, frozenset(relation), order.assignment)
        relation = reference.relation
        by_downset = {downset: name for name, downset in reference.downsets.items()}
        assert lattice.elements == reference.elements
        assert lattice.bottom == reference.bottom
        assert lattice.downsets == reference.downsets
        assert lattice.by_downset == by_downset
        for a, b in product(lattice.names, repeat=2):
            union = reference.downsets[a] | reference.downsets[b]
            assert join(lattice, a, b).name == by_downset[union]
        with pytest.raises(UnknownElement):
            join(lattice, lattice.bottom, "nope")
    assert lattice.relation == relation
    kinds = {(True, True): EQUAL, (True, False): LESS, (False, True): GREATER, (False, False): INCOMPARABLE}
    for a, b in product(lattice.names, repeat=2):
        assert lattice.leq(a, b) == ((a, b) in relation)
        assert order_query(lattice, a, b) == kinds[(a, b) in relation, (b, a) in relation]
    for a, b in (("nope", lattice.names[0]), (lattice.names[0], "nope"), ("nope", "nope")):
        with pytest.raises(UnknownElement):
            lattice.leq(a, b)
        with pytest.raises(UnknownElement):
            order_query(lattice, a, b)


def test_effect_synthesis_expands_no_pairs(monkeypatch):
    """Completion and the spec read masks: nothing is expanded into pairs,
    and the semilattice's relation and down-set views and the spec's
    relation stay unbuilt through synthesis, the DOT file and the dump."""
    sizes = []
    expand = lattice_module._upset_pairs

    def counted(nodes, up):
        sizes.append(len(nodes))
        return expand(nodes, up)

    modules = [importlib.import_module(f"flowsynth.{info.name}") for info in pkgutil.iter_modules(flowsynth.__path__)]
    holders = [module for module in modules if hasattr(module, "_upset_pairs")]
    assert lattice_module in holders
    for module in holders:
        monkeypatch.setattr(module, "_upset_pairs", counted)
    traces = stack_traces_from_dir(Path(__file__).parent / "fixtures" / "ui_chains" / "traces")
    result = synthesize(Corpus(mode="effect", traces=traces))
    lattice_dot(result.lattice)
    dump_analysis(result.spec)
    assert len(result.semilattice.elements) == 36
    assert len(result.spec.elements) == 8
    assert sizes == []
    assert not {"relation", "downsets", "by_downset"} & set(result.semilattice.__dict__)
    assert "relation" not in result.order.__dict__
    assert "relation" not in result.spec.__dict__


def assert_order_laws(order):
    names = order.names
    for a in names:
        assert order.leq(a, a)
    for a, b in product(names, repeat=2):
        if a != b and order.leq(a, b) and order.leq(b, a):
            raise AssertionError(f"antisymmetry violated: {a}, {b}")
    for a, b, c in product(names, repeat=3):
        if order.leq(a, b) and order.leq(b, c):
            assert order.leq(a, c), f"transitivity violated: {a}, {b}, {c}"


def assert_join_laws(lattice):
    names = lattice.names
    for a in names:
        assert join(lattice, a, a).name == a
        assert join(lattice, a, lattice.bottom).name == a
    for a, b in combinations_with_replacement(names, 2):
        ab = join(lattice, a, b).name
        assert join(lattice, b, a).name == ab
        assert lattice.leq(a, ab) and lattice.leq(b, ab)
        for z in names:
            if lattice.leq(a, z) and lattice.leq(b, z):
                assert lattice.leq(ab, z), f"lub violated: {a} v {b} vs {z}"
    for a, b, c in product(names, repeat=3):
        left = join(lattice, join(lattice, a, b).name, c).name
        right = join(lattice, a, join(lattice, b, c).name).name
        assert left == right


def test_laws_on_fixture_lattices():
    for order in (chain_order(), antichain_order()):
        assert_order_laws(order)
        lattice = complete_join_semilattice(order)
        assert_order_laws(lattice)
        assert_join_laws(lattice)


def test_soundness_and_separation_on_random_syntheses():
    rng = random.Random(5)
    done = 0
    while done < 40:
        corpus = random_corpus(rng)
        result = synthesize(corpus, config=SolverConfig(solver="exact"))
        if isinstance(result, Conflict):
            continue
        done += 1
        lattice = result.lattice
        retained = set(result.graph.edges) - result.cut.edges
        for u, v in retained:
            assert lattice.leq(lattice.assignment[u], lattice.assignment[v])
        for u, v in result.cut.edges:
            assert not lattice.leq(lattice.assignment[u], lattice.assignment[v])
        for s, t in result.graph.negative_pairs:
            assert not lattice.leq(lattice.assignment[s], lattice.assignment[t])
        # every positive trace type-checks
        for trace in corpus.positives:
            for u, v in trace_edges(trace):
                assert lattice.leq(lattice.assignment[u], lattice.assignment[v])


def test_completion_minimality_every_element_is_a_generator_union():
    rng = random.Random(13)
    done = 0
    while done < 25:
        corpus = random_corpus(rng, mode="effect")
        result = synthesize(corpus, config=SolverConfig(solver="exact"))
        if isinstance(result, Conflict):
            continue
        done += 1
        lattice = result.semilattice
        generator_downsets = {
            name: downset
            for name, downset in lattice.downsets.items()
            if not lattice.element(name).synthetic
        }
        for name, downset in lattice.downsets.items():
            union = frozenset().union(
                *(generator_downsets[g] for g in downset)
            ) if downset else frozenset()
            assert union == downset


def test_rename_invariance():
    # single-edge negative paths force a unique minimum cut, so the order
    # must be isomorphic under any injective rename despite lexicographic
    # tie-breaking elsewhere
    corpus = Corpus(
        traces=(
            Trace("p", "positive", ("a", "b", "c")),
            Trace("n1", "negative", ("c", "d")),
            Trace("n2", "negative", ("d", "a")),
        )
    )
    mapping = {"a": "n3", "b": "n1", "c": "n0", "d": "n2"}
    renamed = Corpus(
        traces=tuple(
            Trace(t.id, t.polarity, tuple(mapping[n] for n in t.nodes))
            for t in corpus.traces
        )
    )
    original = synthesize(corpus, config=SolverConfig(solver="exact"))
    transported = synthesize(renamed, config=SolverConfig(solver="exact"))
    assert not isinstance(original, Conflict)
    assert not isinstance(transported, Conflict)

    def element_name_map(result, rename):
        out = {}
        for node, element in result.order.assignment.items():
            out.setdefault(element, "Q_" + min(rename[m] for m in result.order.element(element).members))
        return out

    name_map = element_name_map(original, mapping)
    original_relation = {
        (name_map[a], name_map[b])
        for a, b in original.order.relation
    }
    assert original_relation == set(transported.order.relation)
    assert {
        (mapping[u], mapping[v]) for u, v in original.cut.edges
    } == set(transported.cut.edges)
