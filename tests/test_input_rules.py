"""Every input rule through the CLI: a malformed corpus, analysis, static
graph or stack trace ends in its exit code and its message, never in a
traceback; plus reachable behaviours no other test runs."""

from __future__ import annotations

import json
import logging
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowsynth import Element, QualifierOrder, check_consistency, order_query
from flowsynth.cli import main
from flowsynth.lattice import EQUAL

TAINT_CORPUS = {
    "mode": "qualifier",
    "traces": [
        {"id": "trusted", "polarity": "positive", "nodes": ["untainted", "tainted"]},
        {"id": "leak", "polarity": "negative", "nodes": ["tainted", "untainted"]},
    ],
}

DIAMOND_GRAPH = {
    "nodes": ["a", "b", "c", "d"],
    "edges": [["a", "b"], ["b", "d"], ["a", "c"], ["c", "d"]],
}


def _trace(**fields) -> dict:
    return {"traces": [{"id": "t", "polarity": "negative", "nodes": ["a", "b"], **fields}]}


def _with(**fields) -> dict:
    return {**TAINT_CORPUS, **fields}


CORPUS_CASES = {
    # parse_corpus: the document
    "not-an-object": ([], "corpus document must be a JSON object"),
    "traces-missing": ({"mode": "qualifier"}, "corpus document is missing 'traces'"),
    "traces-not-array": ({"traces": {}}, "'traces' must be an array"),
    # parse_corpus: trace entries
    "entry-not-object": ({"traces": [["a", "b"]]}, "trace entry 0 must be an object"),
    "entry-unknown-field": (_trace(weight=1), "trace entry 0: unknown field(s): weight"),
    "entry-missing-field": (
        {"traces": [{"id": "t", "nodes": ["a", "b"]}]},
        "trace entry 0: missing field(s): polarity",
    ),
    "nodes-not-array": (_trace(nodes="a b"), "trace entry 0: 'nodes' must be an array of strings"),
    "nodes-not-strings": (_trace(nodes=["a", 1]), "trace entry 0: 'nodes' must be an array of strings"),
    "origin-not-string": (_trace(origin=5), "trace entry 0: 'origin' must be a string"),
    # parse_corpus: the other fields
    "required-not-array": (_with(required_edges={"a": "b"}), "'required_edges' must be an array"),
    "required-short-pair": (_with(required_edges=[["a"]]), "required edge 0 must be a pair of strings"),
    "required-number-pair": (
        _with(required_edges=[["a", "b"], ["a", 1]]),
        "required edge 1 must be a pair of strings",
    ),
    "options-not-object": (_with(options=[]), "'options' must be an object"),
    "options-unknown": (_with(options={"max_cut": 3}), "unknown option(s): max_cut"),
    "metadata-not-object": (_with(metadata=[]), "'metadata' must be an object"),
    # Trace and Corpus
    "empty-trace-id": (_trace(id=""), "trace id must be a non-empty string"),
    "required-invalid-node": (
        _with(required_edges=[["a b", "c"]]),
        "required edge has invalid node id: ('a b', 'c')",
    ),
    "support-not-integer": (
        _with(options={"min_positive_support": 1.5}),
        "min_positive_support must be an integer",
    ),
    "support-boolean": (
        _with(options={"min_positive_support": True}),
        "min_positive_support must be an integer",
    ),
}


@pytest.mark.parametrize("doc, message", CORPUS_CASES.values(), ids=CORPUS_CASES.keys())
def test_malformed_corpus_exits_2(tmp_path, capsys, doc, message):
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["synth", "--corpus", str(corpus), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"


def _element(doc: dict, name: str) -> dict:
    return next(element for element in doc["elements"] if element["name"] == name)


def _duplicate_name(doc: dict) -> None:
    doc["elements"].append({"name": "Q_tainted", "members": ["x"], "synthetic": False})


def _share_member(doc: dict) -> None:
    _element(doc, "Q_untainted")["members"].append("tainted")


ANALYSIS_CASES = {
    # load_analysis: the document
    "not-an-object": (lambda d: [d], "analysis document must be a JSON object"),
    "unknown-mode": (lambda d: d.update(mode="typestate"), "unknown mode 'typestate'"),
    # load_analysis: format_version, absent or 1 (version 1) or 2, integers only
    "format-version-3": (lambda d: d.update(format_version=3), "format_version must be 1 or 2, got 3"),
    "format-version-string": (lambda d: d.update(format_version="2"), 'format_version must be 1 or 2, got "2"'),
    "format-version-true": (lambda d: d.update(format_version=True), "format_version must be 1 or 2, got true"),
    "format-version-null": (lambda d: d.update(format_version=None), "format_version must be 1 or 2, got null"),
    "format-version-float": (lambda d: d.update(format_version=2.5), "format_version must be 1 or 2, got 2.5"),
    "format-version-array": (lambda d: d.update(format_version=[2]), "format_version must be 1 or 2, got an array"),
    # load_analysis: elements
    "element-missing-keys": (
        lambda d: d["elements"].append({"name": "Q_x", "members": []}),
        "element entries need name, members, synthetic",
    ),
    "duplicate-element": (_duplicate_name, "duplicate element name Q_tainted"),
    "members-not-strings": (
        lambda d: _element(d, "Q_tainted").update(members=["tainted", 1]),
        "members of element Q_tainted must be an array of strings",
    ),
    "no-members": (
        lambda d: _element(d, "Q_tainted").update(members=[]),
        "non-synthetic element Q_tainted has no members",
    ),
    "shared-member": (
        _share_member,
        "element Q_untainted shares members with another element: ['tainted']",
    ),
    # load_analysis: the other fields
    "leq-unknown-element": (
        lambda d: d["leq"].append(["Q_tainted", "Q_ghost"]),
        "leq pair references unknown element: ['Q_tainted', 'Q_ghost']",
    ),
    "assignment-not-object": (lambda d: d.update(assignment=[]), "'assignment' must be an object"),
    # a member checked as the default element would raise false alarms
    "member-unassigned": (
        lambda d: d["assignment"].__delitem__("tainted"),
        "tainted is a member of Q_tainted, but has no assignment",
    ),
    "metadata-not-object": (lambda d: d.update(metadata=[]), "'metadata' must be an object"),
}


def _synth_taint(tmp_path: Path) -> tuple[Path, Path]:
    """The taint corpus file and the analysis synthesized from it."""
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps(TAINT_CORPUS), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["synth", "--corpus", str(corpus), "--out", str(out)]) == 0
    return corpus, out / "analysis.json"


@pytest.mark.parametrize("mutate, message", ANALYSIS_CASES.values(), ids=ANALYSIS_CASES.keys())
def test_malformed_analysis_exits_3(tmp_path, capsys, mutate, message):
    corpus, analysis = _synth_taint(tmp_path)
    doc = json.loads(analysis.read_text(encoding="utf-8"))
    doc = mutate(doc) or doc
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    argv = ["check", "--analysis", str(bad), "--corpus", str(corpus), "--out", str(tmp_path / "checked")]
    assert main(argv) == 3
    assert capsys.readouterr().err == f"invalid analysis: {message}\n"


EXPAND_CASES = {
    "invalid-node-id": (
        {"nodes": ["a", "b c", "d"], "edges": [["a", "d"]]},
        [],
        "invalid node id 'b c'",
    ),
    "max-paths-zero": (DIAMOND_GRAPH, ["--max-paths", "0"], "max_paths must be >= 1"),
    "no-edges": ({"nodes": ["a", "d"]}, [], "static graph document needs 'nodes' and 'edges'"),
    "nodes-not-strings": ({"nodes": ["a", 4], "edges": []}, [], "'nodes' must be an array of strings"),
    "bad-edge-pair": (
        {"nodes": ["a", "d"], "edges": [["a", "d", "a"]]},
        [],
        "'edges' must be an array of [src, dst] pairs",
    ),
    "unknown-source": (DIAMOND_GRAPH, ["--source", "zz"], "--source zz is not a node of the static graph"),
    "unknown-sink": (DIAMOND_GRAPH, ["--sink", "zz"], "--sink zz is not a node of the static graph"),
}


@pytest.mark.parametrize("doc, extra, message", EXPAND_CASES.values(), ids=EXPAND_CASES.keys())
def test_malformed_expand_input_exits_2(tmp_path, capsys, doc, extra, message):
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps(doc), encoding="utf-8")
    argv = ["expand", "--static-graph", str(graph), "--source", "a", "--sink", "d"]
    assert main([*argv, *extra, "--out", str(tmp_path / "expanded.json")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


_FRAME = "\tat a.B.c(B.java:1)\n"

STACK_CASES = {
    "elision-before-frame": ("boom\n\t... 2 more\n", "elision line before any stack frame (line 2)"),
    "two-elisions": (
        f"boom\n{_FRAME}\t... 1 more\n\t... 1 more\n",
        "multiple elision lines in one section (line 4)",
    ),
    "invalid-frame-name": ("boom\n\tat a b.c(B.java:1)\n", "invalid frame name 'a b.c' (line 2)"),
    "frame-after-elision": (f"boom\n{_FRAME}\t... 0 more\n{_FRAME}", "frame line after elision line (line 4)"),
    "section-without-frames": (
        f"boom\n{_FRAME}Caused by: x\nCaused by: y\n{_FRAME}",
        "section 1 has no stack frames",
    ),
    "elision-count-over-digit-limit": (
        f"boom\n{_FRAME}\t... {'1' * 5000} more\n",
        f"elision count longer than {sys.get_int_max_str_digits()} digits (line 3)",
    ),
}


@pytest.mark.parametrize("text, message", STACK_CASES.values(), ids=STACK_CASES.keys())
def test_malformed_stack_trace_exits_2_and_names_the_file(tmp_path, capsys, text, message):
    stacks = tmp_path / "stacks"
    stacks.mkdir()
    (stacks / "bad.neg.txt").write_text(text, encoding="utf-8")
    assert main(["synth", "--stack-traces", str(stacks), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {message} (file {stacks / 'bad.neg.txt'})\n"


# ---------------------------------------------------------------------------
# Conflicts: the report names what protects each witness edge in the graph


def _entry(trace_id: str, polarity: str, *nodes: str) -> dict:
    return {"id": trace_id, "polarity": polarity, "nodes": list(nodes)}


CONFLICT_CASES = {
    "positive-support": (
        {"traces": [_entry("p", "positive", "a", "b"), _entry("n", "negative", "a", "b")]},
        "  protected by positive trace(s): p\n",
    ),
    "required-only-below-support": (
        {
            "traces": [_entry("p", "positive", "a", "b"), _entry("n", "negative", "a", "b")],
            "required_edges": [["a", "b"]],
            "options": {"min_positive_support": 2},
        },
        "  required edge(s): a -> b\n",
    ),
    "support-and-required": (
        {
            "traces": [_entry("p", "positive", "a", "b"), _entry("n", "negative", "a", "b", "c")],
            "required_edges": [["b", "c"]],
        },
        "  protected by positive trace(s): p\n  required edge(s): b -> c\n",
    ),
}


@pytest.mark.parametrize("doc, protection", CONFLICT_CASES.values(), ids=CONFLICT_CASES.keys())
def test_conflict_names_what_protects_the_witness(tmp_path, capsys, doc, protection):
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["synth", "--corpus", str(corpus), "--out", str(tmp_path / "out")]) == 1
    negative = doc["traces"][1]
    source, sink = negative["nodes"][0], negative["nodes"][-1]
    assert capsys.readouterr().err == (
        f"conflict: cannot separate {source} -> {sink}\n"
        "  negative trace(s): n\n"
        f"  protected witness path: {' -> '.join(negative['nodes'])}\n"
        + protection
    )


# ---------------------------------------------------------------------------
# Inputs that once ended in a traceback

EXPLAIN_METADATA_CASES = {
    "cut-origins-number": ("cut_origins", 5, "[edge, constraint ids] pairs"),
    "cut-origins-triple": ("cut_origins", [[1, 2, 3]], "[edge, constraint ids] pairs"),
    "cut-origins-edge-number": ("cut_origins", [[5, []]], "[edge, constraint ids] pairs"),
    "constraints-number": ("constraints", 5, "{id, nodes} objects"),
    "constraint-nodes-number": ("constraints", [{"id": "leak", "nodes": 5}], "{id, nodes} objects"),
    "constraint-nodes-not-strings": ("constraints", [{"id": "leak", "nodes": ["tainted", 1]}], "{id, nodes} objects"),
    "cut-origins-ids-not-strings": ("cut_origins", [[["tainted", "untainted"], [None]]], "[edge, constraint ids] pairs"),
}


@pytest.mark.parametrize("key, value, shape", EXPLAIN_METADATA_CASES.values(), ids=EXPLAIN_METADATA_CASES.keys())
def test_explain_malformed_metadata_exits_3(tmp_path, capsys, key, value, shape):
    corpus, analysis = _synth_taint(tmp_path)
    doc = json.loads(analysis.read_text(encoding="utf-8"))
    doc["metadata"][key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert main(["explain", "--analysis", str(bad), "--trace-id", "leak", "--corpus", str(corpus)]) == 3
    assert capsys.readouterr() == ("", f"invalid analysis: metadata '{key}' must be an array of {shape}\n")


def test_explain_without_recorded_constraints_names_no_origin(tmp_path, capsys):
    corpus, analysis = _synth_taint(tmp_path)
    doc = json.loads(analysis.read_text(encoding="utf-8"))
    del doc["metadata"]["constraints"], doc["metadata"]["cut_origins"]
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert main(["explain", "--analysis", str(bare), "--trace-id", "leak", "--corpus", str(corpus)]) == 0
    assert capsys.readouterr().out == (
        "trace leak rejected at edge 0: tainted -> untainted\n"
        "  Q_tainted not leq Q_untainted\n"
        "  separated by cut edge: tainted -> untainted\n"
    )


_LONG = "1" * 5000


@pytest.mark.parametrize("reader", ["synth --corpus", "check --analysis", "expand --static-graph"])
def test_integer_over_the_digit_limit_exits_2_and_names_the_file(tmp_path, capsys, reader):
    corpus, analysis = _synth_taint(tmp_path)
    bad = tmp_path / "bad.json"
    if reader == "synth --corpus":
        text = json.dumps(TAINT_CORPUS)[:-1] + f', "metadata": {{"n": {_LONG}}}}}'
    elif reader == "check --analysis":
        text = analysis.read_text(encoding="utf-8").replace('"metadata": {', f'"metadata": {{"n": {_LONG},', 1)
    else:
        text = f'{{"nodes": ["a", "d"], "edges": [], "n": {_LONG}}}'
    bad.write_text(text, encoding="utf-8")
    out = str(tmp_path / "again")
    argv = {
        "synth --corpus": ["synth", "--corpus", str(bad), "--out", out],
        "check --analysis": ["check", "--analysis", str(bad), "--corpus", str(corpus), "--out", out],
        "expand --static-graph": ["expand", "--static-graph", str(bad), "--source", "a", "--sink", "d", "--out", out],
    }[reader]
    capsys.readouterr()
    assert main(argv) == 2
    limit = sys.get_int_max_str_digits()
    assert capsys.readouterr().err == f"error: invalid JSON: integer longer than {limit} digits (file {bad})\n"


_HEADERS = ("java.lang.IllegalStateException: boom", "boom")
_FRAMES = (
    _FRAME.rstrip("\n"),
    "\tat a.B.d(B.java:2)",
    "\tat ui.View.draw(Native Method)",
    "\tat ü.Ansicht.zeichne(Ä.java:3)",
    "\tat 画面.描画(画面.java:4)",
)
_STACK_LINES = (
    *_HEADERS,
    "Caused by: java.io.IOException: disk",
    "Caused by:",
    *_FRAMES,
    "\tat a b.c(B.java:1)",
    "\tat broken",
    "\tat (B.java:1)",
    "\t... 0 more",
    "\t... 1 more",
    "\t... 2 more",
    "\t... 7 more",
    f"\t... {_LONG} more",
    "",
)

# a file is a header, some valid frames, then any lines at all
_STACK_TEXT = st.tuples(
    st.sampled_from(_HEADERS),
    st.lists(st.sampled_from(_FRAMES), min_size=2, max_size=4),
    st.lists(st.sampled_from(_STACK_LINES), max_size=3),
).map(lambda parts: [parts[0], *parts[1], *parts[2]])
_STACK_FILES = st.lists(
    st.tuples(st.sampled_from(["t0", "t1", "t2"]), st.sampled_from([".neg.txt", ".pos.txt"]), _STACK_TEXT),
    max_size=4,
)


@settings(max_examples=40, deadline=None)
@given(_STACK_FILES, st.sampled_from(["qualifier", "effect"]))
@example([("t0", ".neg.txt", ["boom", _FRAMES[0], f"\t... {_LONG} more"])], "qualifier")
def test_stack_trace_files_end_in_an_exit_code(files, mode):
    """Headers, "Caused by:" lines, valid, malformed and non-ASCII frames,
    elisions and blank lines, in any order and any number of files: synth
    ends in one of its exit codes and never raises."""
    with tempfile.TemporaryDirectory() as scratch:
        stacks = Path(scratch) / "stacks"
        stacks.mkdir()
        for stem, suffix, lines in files:
            (stacks / f"{stem}{suffix}").write_text("\n".join(lines), encoding="utf-8")
        out = str(Path(scratch) / "out")
        assert main(["synth", "--stack-traces", str(stacks), "--mode", mode, "--out", out]) in range(5)


GOLDEN = Path(__file__).parent / "fixtures" / "golden"
_GOLDEN_ANALYSIS = json.loads((GOLDEN / "analysis.json").read_text(encoding="utf-8"))


def _containers(value) -> list:
    """Every object and array in a JSON value, the value itself included."""
    found, stack = [], [value]
    while stack:
        item = stack.pop()
        if isinstance(item, (dict, list)):
            found.append(item)
            stack.extend(item.values() if isinstance(item, dict) else item)
    return found


def _words(doc) -> list[str]:
    """The keys and strings of a document, so that mutations also draw
    plausible names: element names, node ids, field names."""
    words = set()
    for item in _containers(doc):
        for part in (item.items() if isinstance(item, dict) else enumerate(item)):
            words.update(value for value in part if isinstance(value, str))
    return sorted(words)


def mutated(documents, words: list[str]):
    """Documents drawn from `documents`, each with one to four objects or
    arrays anywhere in it changed: an entry dropped, added or given a value
    of any type, names among them drawn from `words`."""
    keys = st.sampled_from(words) | st.text(max_size=4)
    values = st.recursive(
        st.none() | st.booleans() | st.integers(-2, 3) | st.sampled_from(words) | st.text(max_size=4),
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(keys, inner, max_size=2),
        max_leaves=6,
    )

    @st.composite
    def mutate(draw) -> dict:
        doc = json.loads(json.dumps(draw(documents)))
        for _ in range(draw(st.integers(1, 4))):
            target = draw(st.sampled_from(_containers(doc)))
            indices = sorted(target) if isinstance(target, dict) else list(range(len(target)))
            kind = draw(st.sampled_from(["drop", "add", "retype"]))
            if kind == "add" or not indices:
                if isinstance(target, dict):
                    target[draw(keys)] = draw(values)
                else:
                    target.insert(draw(st.integers(0, len(target))), draw(values))
            elif kind == "drop":
                del target[draw(st.sampled_from(indices))]
            else:
                target[draw(st.sampled_from(indices))] = draw(values)
        return doc

    return mutate()


@settings(max_examples=150, deadline=None)
@given(
    mutated(st.just(_GOLDEN_ANALYSIS), _words(_GOLDEN_ANALYSIS)),
    st.sampled_from(["entrée-sûre", "fuite→journal", "rendu", "trusted"]),
)
def test_mutated_analysis_documents_end_in_an_exit_code(doc, trace_id):
    """check and explain on a mutated golden analysis.json end in one of
    their exit codes and never raise."""
    with tempfile.TemporaryDirectory() as scratch:
        analysis = Path(scratch) / "analysis.json"
        analysis.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
        corpus = str(GOLDEN / "corpus.json")
        out = str(Path(scratch) / "out")
        assert main(["check", "--analysis", str(analysis), "--corpus", corpus, "--out", out]) in range(5)
        assert main(["explain", "--analysis", str(analysis), "--trace-id", trace_id, "--corpus", corpus]) in range(5)


_GRAPH_NODES = "abcd"
_STATIC_GRAPHS = st.lists(st.sampled_from(_GRAPH_NODES), min_size=1, max_size=4, unique=True).flatmap(
    lambda nodes: st.fixed_dictionaries(
        {
            "nodes": st.just(nodes),
            "edges": st.lists(st.lists(st.sampled_from(nodes), min_size=2, max_size=2), max_size=6),
        }
    )
)


@settings(max_examples=100, deadline=None)
@given(
    _STATIC_GRAPHS | mutated(_STATIC_GRAPHS, [*_GRAPH_NODES, "edges", "nodes"]),
    st.sampled_from(_GRAPH_NODES),
    st.sampled_from(_GRAPH_NODES),
    st.integers(0, 5),
    st.integers(0, 4),
)
def test_static_graph_documents_end_in_an_exit_code(doc, source, sink, max_len, max_paths):
    """expand on a drawn, possibly mutated, static graph ends in one of its
    exit codes and never raises."""
    with tempfile.TemporaryDirectory() as scratch:
        graph = Path(scratch) / "graph.json"
        graph.write_text(json.dumps(doc), encoding="utf-8")
        argv = ["expand", "--static-graph", str(graph), "--source", source, "--sink", sink]
        limits = ["--max-path-len", str(max_len), "--max-paths", str(max_paths)]
        assert main([*argv, *limits, "--out", str(Path(scratch) / "expanded.json")]) in range(5)


# ---------------------------------------------------------------------------
# Reachable behaviours


def test_node_named_unknown_primes_the_default(tmp_path):
    corpus = tmp_path / "corpus.json"
    doc = {"traces": [{"id": "leak", "polarity": "negative", "nodes": ["unknown", "sink"]}]}
    corpus.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["synth", "--corpus", str(corpus), "--out", str(out)]) == 0
    analysis = json.loads((out / "analysis.json").read_text(encoding="utf-8"))
    assert analysis["default_element"] == "Q_unknown'"
    names = [element["name"] for element in analysis["elements"]]
    assert names == ["Q_sink", "Q_unknown", "Q_unknown'"]


def test_order_query_equal():
    order = QualifierOrder((Element("Q_a", frozenset({"a"})),), (1,), {"a": "Q_a"})
    assert order_query(order, "Q_a", "Q_a") == EQUAL


def test_cut_edge_merged_message():
    order = QualifierOrder((Element("Q_a", frozenset({"a", "b"})),), (1,), {"a": "Q_a", "b": "Q_a"})
    (violation,) = check_consistency(order, frozenset({("a", "b")}), ())
    assert str(violation) == "cut edge (a, b): endpoints merged into one cluster Q_a"


def test_synth_logs_a_self_loop_warning(tmp_path, caplog):
    corpus = tmp_path / "corpus.json"
    doc = _with(traces=[*TAINT_CORPUS["traces"], {"id": "loop", "polarity": "positive", "nodes": ["a", "a"]}])
    corpus.write_text(json.dumps(doc), encoding="utf-8")
    with caplog.at_level(logging.WARNING, logger="flowsynth"):
        assert main(["synth", "--corpus", str(corpus), "--out", str(tmp_path / "out")]) == 0
    assert [r.getMessage() for r in caplog.records] == ["self-loop edge (a, a) imposes no constraint"]


def test_mode_flag_overrides_the_corpus_mode(tmp_path):
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps(TAINT_CORPUS), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["synth", "--corpus", str(corpus), "--mode", "effect", "--out", str(out)]) == 0
    analysis = json.loads((out / "analysis.json").read_text(encoding="utf-8"))
    assert analysis["mode"] == "effect"
    assert analysis["default_element"] == "⊥"
