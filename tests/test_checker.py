"""Verdicts, reports, explanations, and analysis serialization."""

from __future__ import annotations

import dataclasses
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import flowsynth
from flowsynth import (
    AnalysisSpec,
    Element,
    Conflict,
    Corpus,
    InvalidAnalysisError,
    NotRejected,
    ParseError,
    QualifierOrder,
    SolverConfig,
    Trace,
    UnknownElement,
    Verdict,
    check_corpus,
    check_trace,
    dump_analysis,
    explain_rejection,
    lattice_dot,
    load_analysis,
    make_analysis_spec,
    order_query,
    synthesize,
)
from flowsynth.cut import PATH, SEPARATION
from flowsynth.lattice import INCOMPARABLE, LESS

from corpusgen import ALPHABET, escaped_strings, plain_strings, random_corpus, random_walk
from oracles import (
    order_law_error,
    reachability_closure,
    reference_check_corpus,
    reference_check_trace,
    reference_dump_analysis,
    reference_make_analysis_spec,
    reference_walk_check_corpus,
    spec_of,
    transitive_reduction,
)

TAINT_CORPUS = Corpus(
    traces=(
        Trace("trusted", "positive", ("untainted", "tainted")),
        Trace("leak", "negative", ("tainted", "untainted")),
    )
)


@pytest.fixture(scope="module")
def taint_spec():
    result = synthesize(TAINT_CORPUS, config=SolverConfig(solver="exact"))
    assert not isinstance(result, Conflict)
    return result.spec


def test_untainted_flows_into_tainted(taint_spec):
    verdict = check_trace(taint_spec, Trace("probe", "positive", ("untainted", "tainted")))
    assert verdict.accepted


def test_tainted_must_not_flow_into_untainted(taint_spec):
    verdict = check_trace(taint_spec, Trace("probe", "negative", ("tainted", "untainted")))
    assert not verdict.accepted
    assert verdict.violation_index == 0
    assert verdict.violating_edge == ("tainted", "untainted")


def test_ui_effect_scenario_rejects_worker_thread():
    corpus = Corpus(
        mode="effect",
        traces=(
            Trace(
                "ui_trusted",
                "positive",
                ("android.view.View.requestLayout", "android.os.UiThread.loop"),
            ),
            Trace(
                "ui_violation",
                "negative",
                ("android.view.View.requestLayout", "com.app.Worker.run"),
            ),
        ),
    )
    result = synthesize(corpus, config=SolverConfig(solver="exact"))
    assert not isinstance(result, Conflict)
    spec = result.spec
    bad = check_trace(
        spec,
        Trace("probe", "negative", ("android.view.View.requestLayout", "com.app.Worker.run")),
    )
    assert not bad.accepted
    good = check_trace(
        spec,
        Trace("probe2", "positive", ("android.view.View.requestLayout", "android.os.UiThread.loop")),
    )
    assert good.accepted


def test_check_corpus_round_trip(taint_spec):
    report = check_corpus(taint_spec, TAINT_CORPUS)
    assert report.negatives_rejected == 1
    assert report.positives_accepted == 1
    assert report.misses == 0 and report.false_alarms == 0
    assert report.clean


def test_check_corpus_empty(taint_spec):
    report = check_corpus(taint_spec, Corpus())
    assert report.verdicts == ()
    assert (
        report.negatives_rejected
        == report.negatives_accepted
        == report.positives_accepted
        == report.positives_rejected
        == 0
    )


def test_unknown_nodes_use_default_element(taint_spec):
    verdict = check_trace(taint_spec, Trace("probe", "positive", ("mystery1", "mystery2")))
    assert verdict.accepted  # default leq default by reflexivity
    # qualifier default is maximal-and-isolated: flows out of it are rejected
    outbound = check_trace(taint_spec, Trace("probe2", "positive", ("mystery1", "tainted")))
    assert not outbound.accepted


def test_counts_sum_to_totals_on_random_corpora():
    rng = random.Random(17)
    done = 0
    while done < 25:
        corpus = random_corpus(rng)
        result = synthesize(corpus, config=SolverConfig(solver="exact"))
        if isinstance(result, Conflict):
            continue
        done += 1
        report = result.report
        assert report.negatives_rejected + report.negatives_accepted == len(corpus.negatives)
        assert report.positives_accepted + report.positives_rejected == len(corpus.positives)


# ---------------------------------------------------------------------------
# the spec as an order

# node names whose elements sort on either side of the qualifier default
# Q_unknown, and two whose elements take its name and its primed name
_NODE_NAMES = ["a", "b", "unknown", "unknown'", "zeta", "ab", "z", "B"]


def _renamed(corpus, names) -> Corpus:
    rename = dict(zip(ALPHABET, names)).__getitem__
    traces = tuple(Trace(t.id, t.polarity, tuple(map(rename, t.nodes))) for t in corpus.traces)
    required = frozenset((rename(a), rename(b)) for a, b in corpus.required_edges)
    return Corpus(mode=corpus.mode, traces=traces, required_edges=required)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(["qualifier", "effect"]),
    st.sampled_from([SEPARATION, PATH]),
    st.permutations(_NODE_NAMES),
)
def test_spec_matches_the_reference_built_from_the_completion(seed, mode, semantics, names):
    """The spec built from the synthesized order is the one the earlier
    builder read off the completed semilattice (in effect mode) or the
    order (in qualifier mode), covers included."""
    corpus = _renamed(random_corpus(random.Random(seed), mode), names)
    config = SolverConfig()
    result = synthesize(corpus, semantics, config)
    if isinstance(result, Conflict):
        return
    reference = reference_make_analysis_spec(corpus, result.cut, result.lattice, config, semantics)
    assert result.spec == reference
    assert result.spec.covers == reference.covers


def test_make_analysis_spec_refuses_a_completed_semilattice():
    """A completion holds synthetic joins and its own bottom; built from
    it, the spec would gain a second bottom."""
    corpus = Corpus(mode="effect", traces=TAINT_CORPUS.traces)
    result = synthesize(corpus)
    assert not isinstance(result, Conflict)
    config = SolverConfig()
    with pytest.raises(ValueError, match="synthetic"):
        make_analysis_spec(corpus, result.cut, result.semilattice, config, SEPARATION)
    assert make_analysis_spec(corpus, result.cut, result.order, config, SEPARATION) == result.spec


def test_a_spec_is_an_order(taint_spec):
    assert isinstance(taint_spec, QualifierOrder)
    assert order_query(taint_spec, "Q_untainted", "Q_tainted") == LESS
    assert order_query(taint_spec, "Q_unknown", "Q_tainted") == INCOMPARABLE
    for a, b in (("nope", "Q_tainted"), ("Q_tainted", "nope")):
        with pytest.raises(UnknownElement):
            taint_spec.leq(a, b)
        with pytest.raises(UnknownElement):
            order_query(taint_spec, a, b)


def test_lattice_dot_draws_a_loaded_spec():
    """The golden analysis loads without covers; its drawing is the golden
    lattice.dot plus the default element."""
    folder = Path(__file__).parent / "fixtures" / "golden"
    spec = load_analysis((folder / "analysis.json").read_text(encoding="utf-8"))
    assert spec.covers is None
    default = '  "Q_unknown" [label="Q_unknown", style=dashed];\n'
    drawn = lattice_dot(spec).decode("utf-8")
    assert default in drawn
    assert drawn.replace(default, "") == (folder / "lattice.dot").read_text(encoding="utf-8")


def test_spec_fields_by_keyword_and_replace(taint_spec):
    """The order's fields come first and may be positional; the spec's own
    fields are keyword-only."""
    rebuilt = AnalysisSpec(
        elements=taint_spec.elements,
        up=taint_spec.up,
        assignment=taint_spec.assignment,
        mode=taint_spec.mode,
        cut=taint_spec.cut,
        default_element=taint_spec.default_element,
        metadata=taint_spec.metadata,
    )
    assert rebuilt == taint_spec
    assert rebuilt.covers is None
    with pytest.raises(TypeError):
        AnalysisSpec(taint_spec.elements, taint_spec.up, {}, "qualifier", frozenset(), "Q_unknown")
    # every element related to every other: the leak is accepted
    related = dataclasses.replace(taint_spec, up=(7, 7, 7), covers=None)
    assert type(related) is AnalysisSpec and related.mode == taint_spec.mode
    assert related.leq("Q_tainted", "Q_untainted")
    assert check_trace(related, Trace("leak", "negative", ("tainted", "untainted"))).accepted
    assert not check_trace(taint_spec, Trace("leak", "negative", ("tainted", "untainted"))).accepted


# ---------------------------------------------------------------------------
# explanations

def test_explain_taint_rejection(taint_spec):
    explanation = explain_rejection(
        taint_spec, Trace("probe", "negative", ("tainted", "untainted"))
    )
    assert explanation.source_element == "Q_tainted"
    assert explanation.target_element == "Q_untainted"
    assert explanation.non_relation == "Q_tainted not leq Q_untainted"
    assert explanation.separating_cut_edges == (("tainted", "untainted"),)
    assert [origin for origin, _ in explanation.origins] == ["leak"]


def test_explain_accepted_trace_raises(taint_spec):
    with pytest.raises(NotRejected):
        explain_rejection(taint_spec, Trace("probe", "positive", ("untainted", "tainted")))


def test_explain_cites_refined_witness():
    corpus = Corpus(
        traces=(
            Trace("observed", "negative", ("a", "b", "c")),
            Trace("shortcut", "positive", ("a", "c")),
        ),
        min_positive_support=2,
    )
    result = synthesize(corpus, config=SolverConfig(solver="exact"))
    assert not isinstance(result, Conflict)
    explanation = explain_rejection(result.spec, Trace("probe", "negative", ("a", "c")))
    assert explanation.violating_edge == ("a", "c")
    origin_ids = [origin for origin, _ in explanation.origins]
    assert "refined-1" in origin_ids
    witness = dict(explanation.origins)["refined-1"]
    assert witness == ("a", "c")


# ---------------------------------------------------------------------------
# serialization

def test_dump_load_round_trip_preserves_verdicts(taint_spec):
    reloaded = load_analysis(dump_analysis(taint_spec))
    assert reloaded.relation == taint_spec.relation
    assert reloaded.assignment == taint_spec.assignment
    assert reloaded.cut == taint_spec.cut
    assert reloaded.default_element == taint_spec.default_element
    probes = [
        Trace("p1", "positive", ("untainted", "tainted")),
        Trace("p2", "negative", ("tainted", "untainted")),
        Trace("p3", "positive", ("mystery", "tainted")),
    ]
    for probe in probes:
        assert check_trace(reloaded, probe) == check_trace(taint_spec, probe)
    assert dump_analysis(reloaded) == dump_analysis(taint_spec)


def test_load_round_trip_on_random_syntheses():
    rng = random.Random(29)
    done = 0
    while done < 20:
        corpus = random_corpus(rng)
        result = synthesize(corpus, config=SolverConfig(solver="exact"))
        if isinstance(result, Conflict):
            continue
        done += 1
        reloaded = load_analysis(dump_analysis(result.spec))
        for trace in corpus.traces:
            assert check_trace(reloaded, trace) == check_trace(result.spec, trace)


def test_load_rejects_bad_json():
    with pytest.raises(ParseError):
        load_analysis("{oops")


def test_load_rejects_missing_fields():
    with pytest.raises(InvalidAnalysisError, match="missing field"):
        load_analysis("{}")


def _taint_doc(taint_spec) -> dict:
    return json.loads(dump_analysis(taint_spec))


def test_load_rejects_antisymmetry_violation(taint_spec):
    doc = _taint_doc(taint_spec)
    doc["leq"].append(["Q_tainted", "Q_untainted"])
    with pytest.raises(InvalidAnalysisError, match="antisymmetric"):
        load_analysis(json.dumps(doc))


def test_load_rejects_unknown_assignment_target(taint_spec):
    doc = _taint_doc(taint_spec)
    doc["assignment"]["tainted"] = "Q_ghost"
    with pytest.raises(InvalidAnalysisError, match="unknown element"):
        load_analysis(json.dumps(doc))


def test_load_rejects_unknown_default(taint_spec):
    doc = _taint_doc(taint_spec)
    doc["default_element"] = "Q_ghost"
    with pytest.raises(InvalidAnalysisError, match="default element"):
        load_analysis(json.dumps(doc))


def test_load_rejects_effect_spec_without_lubs():
    doc = {
        "mode": "effect",
        "elements": [
            {"name": "bot", "members": ["b"], "synthetic": False},
            {"name": "x", "members": ["x"], "synthetic": False},
            {"name": "y", "members": ["y"], "synthetic": False},
        ],
        "leq": [["bot", "x"], ["bot", "y"]],
        "assignment": {"b": "bot", "x": "x", "y": "y"},
        "cut": [],
        "default_element": "bot",
        "metadata": {},
    }
    with pytest.raises(InvalidAnalysisError, match="least upper bound"):
        load_analysis(json.dumps(doc))


def _lubless_effect_doc(**version) -> dict:
    """Two elements above a bottom and no join of them."""
    return {
        **version,
        "mode": "effect",
        "elements": [
            {"name": "bot", "members": ["b"], "synthetic": False},
            {"name": "x", "members": ["x"], "synthetic": False},
            {"name": "y", "members": ["y"], "synthetic": False},
        ],
        "leq": [["bot", "x"], ["bot", "y"]],
        "assignment": {"b": "bot", "x": "x", "y": "y"},
        "cut": [],
        "default_element": "bot",
        "metadata": {},
    }


def test_load_rejects_a_lubless_effect_spec_of_version_1():
    with pytest.raises(InvalidAnalysisError, match="least upper bound"):
        load_analysis(json.dumps(_lubless_effect_doc(format_version=1)))


def test_load_accepts_a_lubless_effect_spec_of_version_2():
    # a version 2 effect file lists generators and bottom; their joins are
    # implicit, so none is looked for
    spec = load_analysis(json.dumps(_lubless_effect_doc(format_version=2)))
    assert spec.relation == {("bot", "bot"), ("x", "x"), ("y", "y"), ("bot", "x"), ("bot", "y")}
    assert check_trace(spec, Trace("t", "positive", ("b", "x"))).accepted
    assert not check_trace(spec, Trace("t", "negative", ("x", "y"))).accepted


def test_load_accepts_transitively_reduced_leq(taint_spec):
    # the stored relation implies its transitive closure
    doc = {
        "mode": "qualifier",
        "elements": [
            {"name": "A", "members": ["a"], "synthetic": False},
            {"name": "B", "members": ["b"], "synthetic": False},
            {"name": "C", "members": ["c"], "synthetic": False},
        ],
        "leq": [["A", "B"], ["B", "C"]],
        "assignment": {"a": "A", "b": "B", "c": "C"},
        "cut": [],
        "default_element": "A",
        "metadata": {},
    }
    spec = load_analysis(json.dumps(doc))
    assert spec.leq("A", "C")
    assert check_trace(spec, Trace("t", "positive", ("a", "c"))).accepted


def _order_doc(mode: str, names, pairs) -> dict:
    """An analysis whose elements each own one node, ordered by `pairs`."""
    return {
        "mode": mode,
        "elements": [{"name": n, "members": [n.lower()], "synthetic": False} for n in names],
        "leq": [list(pair) for pair in pairs],
        "assignment": {n.lower(): n for n in names},
        "cut": [],
        "default_element": names[0],
        "metadata": {},
    }


@st.composite
def small_orders(draw):
    """Up to 8 elements and up to 16 leq pairs (self-loops allowed).  Half
    the draws are oriented along a random ranking, so acyclic; half of
    those put the lowest-ranked element below everything, so effect mode
    gets past the bottom check and exercises least upper bounds."""
    names = draw(st.lists(st.sampled_from("ABCDEFGH"), min_size=1, max_size=8, unique=True))
    element = st.sampled_from(names)
    pairs = draw(st.lists(st.tuples(element, element), max_size=16))
    if draw(st.booleans()):
        rank = {name: i for i, name in enumerate(names)}
        pairs = [(a, b) if rank[a] <= rank[b] else (b, a) for a, b in pairs]
        if draw(st.booleans()):
            pairs += [(names[0], name) for name in names[1:]]
    return names, pairs


@settings(max_examples=300, deadline=None)
@given(small_orders())
def test_load_agrees_with_brute_force_order_laws(order):
    names, pairs = order
    for mode in ("qualifier", "effect"):
        expected = order_law_error(names, pairs, mode)
        text = json.dumps(_order_doc(mode, names, pairs))
        if expected is None:
            assert load_analysis(text).relation == reachability_closure(names, pairs)
        else:
            with pytest.raises(InvalidAnalysisError) as info:
                load_analysis(text)
            assert str(info.value) == expected


@settings(max_examples=300, deadline=None)
@given(small_orders())
def test_load_agrees_with_brute_force_order_laws_of_version_2(order):
    names, pairs = order
    for mode in ("qualifier", "effect"):
        expected = order_law_error(names, pairs, mode, version=2)
        text = json.dumps({**_order_doc(mode, names, pairs), "format_version": 2})
        if expected is None:
            assert load_analysis(text).relation == reachability_closure(names, pairs)
        else:
            with pytest.raises(InvalidAnalysisError) as info:
                load_analysis(text)
            assert str(info.value) == expected


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["qualifier", "effect"]))
def test_written_analysis_stores_covering_pairs_and_reloads_the_order(seed, mode):
    """On synthesized analyses: the written leq is the brute-force
    transitive reduction, the bytes are the reference writer's, the loaded
    relation is the spec's, and loaded, in-memory and (in effect mode)
    full-semilattice specs give every verdict alike, on the corpus and on
    random walks that also cross an unseen node."""
    rng = random.Random(seed)
    corpus = random_corpus(rng, mode)
    result = synthesize(corpus, config=SolverConfig(solver="exact"))
    if isinstance(result, Conflict):
        return
    spec = result.spec
    text = dump_analysis(spec)
    assert text == reference_dump_analysis(spec)
    assert {tuple(pair) for pair in json.loads(text)["leq"]} == transitive_reduction(spec.relation)
    loaded = load_analysis(text)
    assert loaded.relation == spec.relation
    specs = [spec, loaded]
    if mode == "effect":
        # the spec as a version 1 file held it: every join, the full order
        full = result.semilattice
        specs.append(dataclasses.replace(spec, elements=full.elements, up=full.up, covers=None))
    alphabet = sorted({node for trace in corpus.traces for node in trace.nodes}) + ["unseen"]
    walks = [Trace(f"w{i}", "positive", random_walk(rng, alphabet, rng.randint(2, 6))) for i in range(20)]
    for trace in (*corpus.traces, *walks):
        assert len({check_trace(each, trace) for each in specs}) == 1


def test_antisymmetry_error_names_smallest_equivalent_pair(tmp_path):
    # the pair reported must not depend on string hashing
    cycle = _order_doc("qualifier", "ABCD", [("A", "B"), ("B", "C"), ("C", "D"), ("D", "A")])
    path = tmp_path / "analysis.json"
    path.write_text(json.dumps(cycle), encoding="utf-8")
    script = (
        "import sys\n"
        "from flowsynth import InvalidAnalysisError, load_analysis\n"
        "try:\n"
        "    load_analysis(open(sys.argv[1], encoding='utf-8').read())\n"
        "except InvalidAnalysisError as exc:\n"
        "    print(exc)\n"
    )
    src = str(Path(flowsynth.__file__).resolve().parents[1])
    for seed in range(1, 6):
        env = {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": src}
        run = subprocess.run(
            [sys.executable, "-c", script, str(path)],
            env=env, capture_output=True, text=True, check=True,
        )
        assert run.stdout == "order is not antisymmetric: A and B are equivalent\n"


def _set_element(doc, index, key, value):
    doc["elements"][index][key] = value


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d.update(elements={"name": "Q_tainted"}), "'elements' must be an array"),
        (lambda d: d.update(leq="Q_untainted"), "'leq' must be an array"),
        (lambda d: d.update(cut={"tainted": "untainted"}), "'cut' must be an array"),
        (lambda d: _set_element(d, 0, "name", ["Q_tainted"]), "element name must be a string"),
        (lambda d: _set_element(d, 0, "members", "tainted"), "must be an array of strings"),
        (lambda d: _set_element(d, 0, "members", [["tainted"]]), "must be an array of strings"),
        (lambda d: _set_element(d, 0, "synthetic", "false"), "synthetic flag of element"),
        (lambda d: _set_element(d, 0, "synthetic", 0), "synthetic flag of element"),
        (lambda d: d["leq"].append([["Q_untainted"], "Q_tainted"]), "leq entries must be pairs"),
        (lambda d: d["leq"].append(["Q_untainted", 7]), "leq entries must be pairs"),
        (lambda d: d["cut"].append([["a"], "b"]), "cut entries must be pairs"),
        (
            lambda d: d["assignment"].update(tainted="Q_untainted"),
            "assignment of tainted targets Q_untainted, but tainted is a member of Q_tainted",
        ),
        (lambda d: d["assignment"].update(tainted=["Q_tainted"]), "targets unknown element"),
        (lambda d: d.update(default_element=["Q_unknown"]), "default element"),
    ],
    ids=[
        "elements-not-array",
        "leq-not-array",
        "cut-not-array",
        "element-name-not-string",
        "members-string",
        "members-not-strings",
        "synthetic-string",
        "synthetic-number",
        "leq-entry-not-string",
        "leq-entry-number",
        "cut-entry-not-string",
        "assignment-contradicts-members",
        "assignment-target-not-string",
        "default-not-string",
    ],
)
def test_load_rejects_malformed_schema(taint_spec, mutate, message):
    doc = _taint_doc(taint_spec)
    mutate(doc)
    with pytest.raises(InvalidAnalysisError, match=message):
        load_analysis(json.dumps(doc))


_NODES = st.sampled_from(["a", "b", "c", "d", "e", "f", "g"])


@st.composite
def checked_specs(draw):
    """Up to six elements with names among which the default can sort
    anywhere, in a random order: drawn pairs pointed along a random
    ranking, so acyclic, and closed.  The assignment leaves nodes out, so
    that they fall to the default element."""
    names = st.sampled_from(["A", "B", "Q_unknown", "a", "m", "⊥", "Z"])
    names = draw(st.lists(names, min_size=1, max_size=6, unique=True))
    ranking = draw(st.permutations(names))
    element = st.sampled_from(names)
    pairs = draw(st.lists(st.tuples(element, element), max_size=12))
    return spec_of(
        draw(st.sampled_from(["qualifier", "effect"])),
        [Element(name, frozenset(), True) for name in names],
        [tuple(sorted(pair, key=ranking.index)) for pair in pairs],
        draw(st.dictionaries(_NODES, element, max_size=5)),
        draw(element),
    )


# paths with repeated nodes, so that self-loops occur
_PATHS = st.tuples(st.sampled_from(["positive", "negative"]), st.lists(_NODES, min_size=2, max_size=8))


def _spec(pairs, assignment, default, names="ABCD") -> AnalysisSpec:
    elements = [Element(name, frozenset(), True) for name in names]
    return spec_of("qualifier", elements, pairs, assignment, default)


def _corpus(*paths) -> Corpus:
    return Corpus(traces=tuple(Trace(f"t{i}", polarity, nodes) for i, (polarity, nodes) in enumerate(paths)))


# A below B, and a, b assigned to them
_AB = _spec([("A", "B")], {"a": "A", "b": "B"}, "A")


@settings(max_examples=300, deadline=None)
@given(checked_specs(), _PATHS)
# the violation on a path's first edge, and on its last after self-loops
@example(_AB, ("negative", ["b", "a", "b", "b"]))
@example(_AB, ("positive", ["a", "a", "b", "b", "a"]))
# two-node paths, rejected and accepted
@example(_AB, ("negative", ["b", "a"]))
@example(_AB, ("positive", ["a", "b"]))
# unknown nodes map to the default, B here: rejected where one meets a
@example(_spec([("A", "B")], {"a": "A"}, "B"), ("positive", ["a", "x", "y", "a"]))
# closed paths: accepted through the default, rejected on the way back
@example(_AB, ("positive", ["a", "x", "a", "a"]))
@example(_AB, ("positive", ["a", "b", "a"]))
def test_check_trace_matches_reference(spec, path):
    """check_trace gives the reference's verdict, and the one check_corpus
    gives the trace in a corpus of its own."""
    trace = Trace("t", *path)
    verdict = check_trace(spec, trace)
    assert verdict == reference_check_trace(spec, trace)
    assert (verdict,) == check_corpus(spec, Corpus(traces=(trace,))).verdicts


@settings(max_examples=300, deadline=None)
@given(checked_specs(), st.lists(_PATHS, max_size=12).map(lambda paths: _corpus(*paths)))
# an empty corpus
@example(_spec([("A", "A")], {}, "A"), Corpus())
# an antichain rejects every edge between two elements, of either polarity
@example(_spec([], {"a": "A"}, "B"), _corpus(("negative", ("a", "b")), ("positive", ("b", "a", "c"))))
# nodes no assignment names map to the default: accepted within it, and
# rejected on the one edge that leaves it
@example(
    _spec([("A", "A"), ("B", "A")], {"a": "B"}, "A"),
    _corpus(("positive", ("x", "y")), ("negative", ("a", "x", "y")), ("negative", ("x", "a"))),
)
# the default sorts between the other elements, and unknown nodes reach it
@example(
    _spec([("A", "M"), ("M", "Z")], {"a": "A", "z": "Z"}, "M", names="AMZ"),
    _corpus(("positive", ("a", "x", "z")), ("negative", ("z", "x")), ("negative", ("x", "a"))),
)
# the violation at a path's last edge, after self-loops, which every
# element allows
@example(
    _spec([("A", "B")], {"a": "A", "b": "B"}, "C"),
    _corpus(("positive", ("a", "a", "b", "b", "a")), ("negative", ("c", "c")), ("positive", ("b", "b", "a"))),
)
# violations on a first edge, a last edge and a two-node path's one edge,
# around a closed positive path with repeated self-loops that is accepted
# through unknown nodes, and a closed one rejected on the way back
@example(
    _AB,
    _corpus(
        ("negative", ("b", "a", "b", "b")),
        ("positive", ("a", "x", "x", "a", "a")),
        ("positive", ("a", "b", "b", "b", "a")),
        ("negative", ("b", "a")),
        ("positive", ("a", "b")),
        ("positive", ("b", "b", "a", "b")),
    ),
)
# B -> A is unrelated, but it only runs from one path's end to the next
# path's start, so every path is accepted
@example(_spec([("A", "B")], {"a": "A", "b": "B"}, "A"), _corpus(("positive", ("a", "b")), ("positive", ("a", "b"))))
def test_check_corpus_matches_reference(spec, corpus):
    """check_corpus gives the reference's report, and each trace the
    verdict check_trace gives it alone."""
    report = check_corpus(spec, corpus)
    assert report == reference_check_corpus(spec, corpus)
    assert report.verdicts == tuple(check_trace(spec, trace) for trace in corpus.traces)


@settings(max_examples=200, deadline=None)
@given(checked_specs(), st.lists(_PATHS, max_size=40).map(lambda paths: _corpus(*paths)))
def test_check_corpus_matches_the_generator_walk(spec, corpus):
    """check_corpus, which puts each rejection in place among verdicts made
    accepted in one pass, gives the report of the walk that made one
    verdict per trace as it came, and each trace check_trace's verdict."""
    report = check_corpus(spec, corpus)
    assert report == reference_walk_check_corpus(spec, corpus)
    assert report.verdicts == tuple(check_trace(spec, trace) for trace in corpus.traces)


# a, b assigned to A below B; c to C, unrelated to both; the default is A
_ABC = _spec([("A", "B")], {"a": "A", "b": "B", "c": "C"}, "A", names="ABC")
_ACCEPTED = ("positive", ("a", "b", "b"))
_REJECTED = ("negative", ("b", "a"))


@pytest.mark.parametrize(
    "paths, rejections",
    [
        ((), {}),
        ((_ACCEPTED,) * 3, {}),
        ((_REJECTED,) * 3, {0: (0, "B", "A"), 1: (0, "B", "A"), 2: (0, "B", "A")}),
        ((_REJECTED, _ACCEPTED, _ACCEPTED, _REJECTED), {0: (0, "B", "A"), 3: (0, "B", "A")}),
        # the violation on a path's last edge, after self-loops
        ((_ACCEPTED, ("positive", ("a", "a", "b", "b", "c")), _ACCEPTED), {1: (3, "B", "C")}),
        # unknown nodes map to A: accepted into b, rejected out of b
        ((("positive", ("x", "b")), ("negative", ("b", "y", "a")), ("positive", ("x", "a", "y"))), {1: (0, "B", "A")}),
    ],
    ids=["no-traces", "all-accepted", "all-rejected", "first-and-last", "last-edge", "unknown-nodes"],
)
def test_rejections_are_put_in_place(paths, rejections):
    corpus = _corpus(*paths)
    report = check_corpus(_ABC, corpus)
    expected = []
    for k, trace in enumerate(corpus.traces):
        if k in rejections:
            i, a, b = rejections[k]
            expected.append(Verdict(trace.id, False, i, (trace.nodes[i], trace.nodes[i + 1]), a, b))
        else:
            expected.append(Verdict(trace.id, True))
    assert report.verdicts == tuple(expected)
    negatives = [k for k, (polarity, _) in enumerate(paths) if polarity == "negative"]
    assert report.negatives_rejected == len(rejections.keys() & set(negatives))
    assert report.positives_rejected == len(rejections.keys() - set(negatives))
    assert report.negatives_accepted + report.negatives_rejected == len(negatives)
    assert report.positives_accepted + report.positives_rejected == len(paths) - len(negatives)


# names that need escaping, line separators, non-ASCII text and the bottom
_tricky = st.characters(exclude_categories=("Cs",)) | st.sampled_from(
    ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "\u2028", "\u2029", "é", "⊥", "猫", "\U0001f600"]
)
_name = st.text(_tricky, max_size=5)
_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | _name,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_name, inner, max_size=3),
    max_leaves=8,
)


_constraint = st.fixed_dictionaries({"id": _name, "nodes": st.lists(_name, max_size=3)})
_cut_origin = st.tuples(st.lists(_name, min_size=2, max_size=2), st.lists(_name, max_size=3)).map(list)
# the two metadata arrays synthesis records, in its shape or off it by an
# entry of another shape or one extra key
_recorded = st.fixed_dictionaries(
    {},
    optional={
        "constraints": st.lists(
            _constraint | _constraint.map(lambda c: {**c, "x": 1}) | _values, max_size=3
        ),
        "cut_origins": st.lists(_cut_origin | _values, max_size=3),
    },
)


@st.composite
def analysis_specs(draw):
    """Any element, node and edge names, empty values included.  The
    order is a partial order, the only kind the loader admits: the drawn
    pairs point forward in the drawn name order, and are closed."""
    names = draw(st.lists(_name, unique=True, min_size=1, max_size=5))
    elements = [
        Element(name, frozenset(draw(st.sets(_name, max_size=3))), draw(st.booleans())) for name in names
    ]
    element = st.sampled_from(names)
    index = st.integers(0, len(names) - 1)
    pairs = [(names[min(i, j)], names[max(i, j)]) for i, j in draw(st.lists(st.tuples(index, index), max_size=6))]
    return spec_of(
        draw(st.sampled_from(["qualifier", "effect"])),
        elements,
        pairs,
        draw(st.dictionaries(_name, element, max_size=4)),
        draw(element),
        draw(st.sets(st.tuples(_name, _name), max_size=3)),
        {**draw(st.dictionaries(_name, _values, max_size=3)), **draw(_recorded)},
    )


@settings(max_examples=150, deadline=None)
@given(analysis_specs())
def test_dump_analysis_matches_reference(spec):
    assert dump_analysis(spec) == reference_dump_analysis(spec)


_PLACES = ("element name", "member", "assignment key", "cut node", "constraint id", "constraint node", "cut-origin id")


@st.composite
def large_plain_specs(draw):
    """Specs with 20-200 plain strings as element names and nodes, in the
    shape synthesis writes, and zero or one string that needs escaping at
    a random place: an element name, a member, an assignment key, a cut
    node, a constraint id or node, or a cut-origin id."""
    strings = draw(st.lists(plain_strings, unique=True, min_size=20, max_size=200))
    count = draw(st.integers(1, len(strings) // 4))
    names, nodes = strings[:count], strings[count:]
    name = st.sampled_from(names)
    node = st.sampled_from(nodes)
    assignment = {n: draw(name) for n in nodes}
    members = {n: {m for m, owner in assignment.items() if owner == n} for n in names}
    cut = draw(st.lists(st.tuples(node, node), max_size=20))
    paths = draw(st.lists(st.lists(node, min_size=2, max_size=6), max_size=20))
    constraints = [{"id": f"c{k}", "nodes": path} for k, path in enumerate(paths)]
    ids = st.lists(st.sampled_from([c["id"] for c in constraints] or ["c"]), min_size=1, max_size=3)
    origins = [[list(edge), draw(ids)] for edge in cut]
    place = draw(st.sampled_from((None, *_PLACES)))
    tricky = draw(escaped_strings)
    if place == "element name":
        names.append(tricky)
        members[tricky] = set()
    elif place == "member":
        members[draw(name)].add(tricky)
    elif place == "assignment key":
        assignment[tricky] = draw(name)
    elif place == "cut node":
        cut.append(draw(st.sampled_from([(tricky, nodes[0]), (nodes[0], tricky)])))
        origins.append([list(cut[-1]), draw(ids)])
    elif place in ("constraint id", "constraint node"):
        if not constraints:
            constraints.append({"id": "c", "nodes": [nodes[0], nodes[1]]})
        entry = draw(st.sampled_from(constraints))
        if place == "constraint id":
            entry["id"] = tricky
        else:
            entry["nodes"].insert(draw(st.integers(0, len(entry["nodes"]))), tricky)
    elif place == "cut-origin id":
        if not origins:
            origins.append([[nodes[0], nodes[1]], []])
        causes = draw(st.sampled_from(origins))[1]
        causes.insert(draw(st.integers(0, len(causes))), tricky)
    order = sorted(names)
    index = st.integers(0, len(order) - 1)
    pairs = [(order[min(i, j)], order[max(i, j)]) for i, j in draw(st.lists(st.tuples(index, index), max_size=30))]
    elements = [Element(n, frozenset(members[n]), draw(st.booleans())) for n in names]
    metadata = {"constraints": constraints, "cut_origins": origins, "iterations": 2}
    return spec_of("qualifier", elements, pairs, assignment, names[0], cut, metadata)


@settings(max_examples=100, deadline=None)
@given(large_plain_specs())
def test_dump_analysis_of_large_plain_specs_matches_reference(spec):
    assert dump_analysis(spec) == reference_dump_analysis(spec)


def test_dump_analysis_of_empty_values_matches_reference():
    bottom = Element("⊥", frozenset(), True)
    spec = AnalysisSpec((bottom,), (1,), {}, mode="qualifier", cut=frozenset(), default_element="⊥", metadata={})
    assert dump_analysis(spec) == reference_dump_analysis(spec)
