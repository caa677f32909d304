"""Corpus parsing, stack-trace parsing, and corpus validation."""

from __future__ import annotations

import hashlib
import json
import re
import string
import sys
from json.encoder import encode_basestring
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowsynth import (
    Corpus,
    ParseError,
    Trace,
    ValidationError,
    corpus_digest,
    parse_corpus,
    parse_stack_trace,
    serialize_corpus,
    stack_traces_from_dir,
    trace_edges,
    validate_corpus,
)

from flowsynth.traces import _bulk_traces, _plain, is_string_list, is_valid_node_id, load_json

from corpusgen import front_end_corpora
from oracles import (
    reference_is_string_list,
    reference_is_valid_node_id,
    reference_parse_corpus,
    reference_parse_stack_trace,
    reference_row_serialize_corpus,
    reference_serialize_corpus,
    reference_validate_corpus,
)
from test_input_rules import _FRAMES, _STACK_LINES, _STACK_TEXT


def test_parse_minimal_negative_trace():
    corpus = parse_corpus('{"traces": [{"id": "t", "polarity": "negative", "nodes": ["a", "b"]}]}')
    assert corpus.mode == "qualifier"
    assert corpus.min_positive_support == 1
    assert corpus.required_edges == frozenset()
    assert len(corpus.traces) == 1
    assert corpus.traces[0].nodes == ("a", "b")


def test_parse_rejects_unknown_polarity():
    with pytest.raises(ValidationError, match="t1"):
        parse_corpus('{"traces": [{"id": "t1", "polarity": "maybe", "nodes": ["a", "b"]}]}')


def test_parse_rejects_duplicate_ids():
    doc = (
        '{"traces": ['
        '{"id": "t1", "polarity": "negative", "nodes": ["a", "b"]},'
        '{"id": "t1", "polarity": "positive", "nodes": ["b", "c"]}]}'
    )
    with pytest.raises(ValidationError, match="duplicate trace id t1"):
        parse_corpus(doc)


def test_parse_rejects_short_trace():
    with pytest.raises(ValidationError, match="at least 2 nodes"):
        parse_corpus('{"traces": [{"id": "t", "polarity": "negative", "nodes": ["a"]}]}')


def test_parse_rejects_bad_mode_and_unknown_fields():
    with pytest.raises(ValidationError, match="mode"):
        parse_corpus('{"mode": "nope", "traces": []}')
    with pytest.raises(ValidationError, match="unknown corpus field"):
        parse_corpus('{"traces": [], "extra": 1}')


def test_parse_error_reports_position():
    with pytest.raises(ParseError, match="line 1"):
        parse_corpus("{not json")


@pytest.mark.parametrize(
    "text",
    [
        '["\\ud800"]',
        '{"a": {"\\udc00": 1}}',
        '[1, [true, {"k": ["x\\udbffy"]}]]',
        '["\\ude00\\ud83d"]',  # low before high: two lone halves
    ],
)
def test_load_json_rejects_lone_surrogates(text):
    with pytest.raises(ParseError, match="lone surrogate"):
        load_json(text)


def test_load_json_keeps_escaped_pairs_and_plain_text():
    assert load_json('["\\ud83d\\ude00", "\\u00e9", "\\\\ud800"]') == ["\U0001f600", "é", "\\ud800"]


def test_options_parsing():
    corpus = parse_corpus('{"traces": [], "options": {"min_positive_support": 3}}')
    assert corpus.min_positive_support == 3
    with pytest.raises(ValidationError, match=">= 1"):
        parse_corpus('{"traces": [], "options": {"min_positive_support": 0}}')


def test_node_id_rules():
    with pytest.raises(ValidationError, match="invalid node id"):
        Trace("t", "negative", ("a b", "c"))
    with pytest.raises(ValidationError):
        Trace("t", "negative", ("", "c"))


# ---------------------------------------------------------------------------
# round trip

_node = st.text(alphabet=string.ascii_lowercase + string.digits + "._$", min_size=1, max_size=6)
_path = st.lists(_node, min_size=2, max_size=5)


@st.composite
def corpora(draw: st.DrawFn) -> Corpus:
    n = draw(st.integers(min_value=0, max_value=5))
    traces = []
    for i in range(n):
        traces.append(
            Trace(
                f"t{i}",
                draw(st.sampled_from(["positive", "negative"])),
                tuple(draw(_path)),
                origin=draw(st.sampled_from([None, "static-expansion"])),
            )
        )
    required = draw(st.sets(st.tuples(_node, _node), max_size=3))
    return Corpus(
        mode=draw(st.sampled_from(["qualifier", "effect"])),
        traces=tuple(traces),
        required_edges=frozenset(required),
        min_positive_support=draw(st.integers(min_value=1, max_value=3)),
    )


@settings(max_examples=80, deadline=None)
@given(corpora())
def test_serialize_parse_round_trip(corpus: Corpus):
    text = serialize_corpus(corpus)
    reparsed = parse_corpus(text)
    assert reparsed == corpus
    assert serialize_corpus(reparsed) == text
    assert corpus_digest(reparsed) == corpus_digest(corpus)


@settings(max_examples=80, deadline=None)
@given(st.lists(_node, min_size=2, max_size=8))
def test_trace_edges_length(nodes: list[str]):
    trace = Trace("t", "negative", tuple(nodes))
    edges = trace_edges(trace)
    assert len(edges) == len(nodes) - 1
    assert all(edges[i] == (nodes[i], nodes[i + 1]) for i in range(len(edges)))


def test_trace_edges_examples():
    assert trace_edges(Trace("t", "negative", ("a", "b", "c"))) == (("a", "b"), ("b", "c"))
    assert trace_edges(Trace("t", "negative", ("a", "b"))) == (("a", "b"),)
    assert trace_edges(Trace("t", "negative", ("a", "a", "b"))) == (("a", "a"), ("a", "b"))


# ---------------------------------------------------------------------------
# stack traces

SIMPLE_TRACE = """android.view.ViewRootImpl$CalledFromWrongThreadException: wrong thread
\tat android.view.View.requestLayout(View.java:1)
\tat com.app.Worker.run(Worker.java:2)
"""

CAUSED_BY_TRACE = """java.lang.RuntimeException: outer wrapper
\tat com.app.Outer.call(Outer.java:10)
\tat com.app.Main.main(Main.java:5)
Caused by: java.lang.IllegalStateException: inner
\tat com.app.Db.query(Db.java:7)
\tat com.app.Outer.call(Outer.java:10)
\t... 1 more
"""


def test_parse_stack_trace_innermost_first():
    trace = parse_stack_trace(SIMPLE_TRACE, "negative", "ui")
    assert trace.nodes == ("android.view.View.requestLayout", "com.app.Worker.run")
    assert trace.polarity == "negative"


def test_parse_stack_trace_uses_root_cause_and_expands_elision():
    trace = parse_stack_trace(CAUSED_BY_TRACE, "negative", "t")
    assert trace.nodes == ("com.app.Db.query", "com.app.Outer.call", "com.app.Main.main")
    # nothing from the non-root-cause section beyond the expanded suffix
    assert "com.app.Main.main" == trace.nodes[-1]


def test_parse_stack_trace_empty_document():
    with pytest.raises(ParseError, match="no stack frames found"):
        parse_stack_trace("", "negative", "t")
    with pytest.raises(ParseError, match="no stack frames found"):
        parse_stack_trace("just a message line\n", "negative", "t")


def test_parse_stack_trace_elision_overflow():
    text = CAUSED_BY_TRACE.replace("... 1 more", "... 5 more")
    with pytest.raises(ParseError, match="more frames than the enclosing section"):
        parse_stack_trace(text, "negative", "t")


def test_parse_stack_trace_nested_caused_by_cascade():
    text = (
        "outer\n"
        "\tat a.A.one(A.java:1)\n"
        "\tat a.A.two(A.java:2)\n"
        "\tat a.A.three(A.java:3)\n"
        "Caused by: mid\n"
        "\tat b.B.one(B.java:1)\n"
        "\t... 2 more\n"
        "Caused by: inner\n"
        "\tat c.C.one(C.java:1)\n"
        "\t... 2 more\n"
    )
    trace = parse_stack_trace(text, "negative", "t")
    # mid expands to [b.B.one, a.A.two, a.A.three]; inner copies its last two
    assert trace.nodes == ("c.C.one", "a.A.two", "a.A.three")


def test_parse_stack_trace_malformed_frame():
    with pytest.raises(ParseError, match="malformed frame line"):
        parse_stack_trace("header\n\tat missing.parens\n", "negative", "t")


def test_parse_stack_trace_requires_header():
    with pytest.raises(ParseError, match="missing header line"):
        parse_stack_trace("\tat a.B.c(D.java:1)\n", "negative", "t")


def _trace_or_error(parse, text):
    """The trace, or the type and text of the error (a one-frame trace is
    a ValidationError of `Trace`), and its line if it has one."""
    try:
        return parse(text, "negative", "t")
    except (ParseError, ValidationError) as error:
        return type(error), str(error), getattr(error, "line", None)


@settings(max_examples=600, deadline=None)
@given(st.one_of(st.lists(st.sampled_from(_STACK_LINES), max_size=10), _STACK_TEXT))
@example(["boom", _FRAMES[0], "Caused by: x", _FRAMES[1], "\t... 1 more"])
@example(["boom", _FRAMES[0], "Caused by:", "Caused by: x", _FRAMES[1]])
@example(["Caused by: x", _FRAMES[0]])
@example([_FRAMES[0], "boom"])
@example(["boom", _FRAMES[0], _FRAMES[1], "Caused by:", _FRAMES[2], "\t... 2 more", "Caused by:", _FRAMES[3], "\t... 3 more"])
@example(["boom", _FRAMES[0], "\t... 0 more", "\t... 0 more"])
def test_parse_stack_trace_matches_the_section_parser(lines):
    """Any mix of headers, "Caused by:" lines, frames good and bad,
    elisions and blank lines, any of them first, or a header and frames
    before them: the same trace, or an error with the same text and line,
    as the parser that kept one object per section."""
    text = "\n".join(lines)
    assert _trace_or_error(parse_stack_trace, text) == _trace_or_error(reference_parse_stack_trace, text)


def test_stack_traces_from_dir(tmp_path):
    (tmp_path / "boom.neg.txt").write_text(SIMPLE_TRACE, encoding="utf-8")
    (tmp_path / "fine.pos.txt").write_text(CAUSED_BY_TRACE, encoding="utf-8")
    (tmp_path / "ignored.txt").write_text("not a trace", encoding="utf-8")
    traces = stack_traces_from_dir(tmp_path)
    assert [(t.id, t.polarity) for t in traces] == [("boom", "negative"), ("fine", "positive")]


@pytest.mark.parametrize("cwd, spelling", [("..", "stacks"), ("..", "./stacks/"), ("..", "stacks//"), (".", "."), (".", "./"), ("..", None)])
def test_stack_traces_from_dir_names_a_file_as_pathlib_does(tmp_path, monkeypatch, cwd, spelling):
    """However the directory is spelled, a parse error names the file as
    `Path(directory) / name` prints it, and so does the file-name check."""
    stacks = tmp_path / "stacks"
    stacks.mkdir()
    (stacks / "ok.pos.txt").write_text(SIMPLE_TRACE, encoding="utf-8")
    (stacks / "zz.neg.txt").write_text("no header\n", encoding="utf-8")
    monkeypatch.chdir(stacks / cwd)
    directory = str(stacks) if spelling is None else spelling
    with pytest.raises(ParseError) as error:
        stack_traces_from_dir(directory)
    assert str(error.value).endswith(f"(file {Path(directory) / 'zz.neg.txt'})")
    (stacks / "zz.neg.txt").unlink()
    bad = "bad\udcff.neg.txt"
    (stacks / bad).write_bytes(b"")
    with pytest.raises(ParseError) as error:
        stack_traces_from_dir(directory)
    assert str(error.value) == f"file name is not UTF-8 (file {str(Path(directory) / bad)!r})"
    # what Trace refuses, a one-frame trace and an empty id, is a ParseError naming the file too
    (stacks / bad).unlink()
    for name, text, message in (
        ("one.neg.txt", "boom\n\tat a.B.c(B.java:1)\n", "trace one: a path needs at least 2 nodes, got 1"),
        (".neg.txt", SIMPLE_TRACE, "trace id must be a non-empty string"),
    ):
        (stacks / name).write_text(text, encoding="utf-8")
        with pytest.raises(ParseError) as error:
            stack_traces_from_dir(directory)
        assert str(error.value) == f"{message} (file {Path(directory) / name})"
        (stacks / name).unlink()


# ---------------------------------------------------------------------------
# validation diagnostics

def test_validate_flags_equal_negative_endpoints():
    corpus = Corpus(traces=(Trace("t", "negative", ("a", "b", "a")),))
    diagnostics = validate_corpus(corpus)
    assert any(
        d.severity == "error" and d.message == "negative endpoints equal: a"
        for d in diagnostics
    )


def test_validate_warns_on_self_loops_and_required_only_nodes():
    corpus = Corpus(
        traces=(Trace("t", "positive", ("a", "a", "b")),),
        required_edges=frozenset({("x", "y")}),
    )
    diagnostics = validate_corpus(corpus)
    codes = [d.code for d in diagnostics]
    assert "self-loop" in codes
    assert codes.count("required-edge-only-node") == 2
    assert all(d.severity == "warning" for d in diagnostics)


def test_validate_clean_corpus():
    corpus = Corpus(traces=(Trace("t", "positive", ("a", "b")),))
    assert validate_corpus(corpus) == ()


def test_validate_is_pure():
    corpus = Corpus(
        traces=(
            Trace("pos", "positive", ("a", "b")),
            Trace("neg", "negative", ("b", "c", "b")),
        )
    )
    assert validate_corpus(corpus) == validate_corpus(corpus)


@settings(max_examples=300, deadline=None)
@given(front_end_corpora())
# the second path starts where the first ends, which is not a self-loop
@example(Corpus(traces=(Trace("p", "positive", ("a", "b")), Trace("q", "positive", ("b", "c", "b")))))
@example(Corpus(traces=(Trace("n", "negative", ("a", "a", "b", "a", "a")), Trace("p", "positive", ("a", "b", "b")))))
@example(Corpus(traces=(Trace("p", "positive", ("a", "b")),), required_edges=frozenset({("a", "x"), ("y", "y")})))
# two-node paths, closed or not, a closed positive path, a self-loop
# repeated within one trace and one at a path's start, a required self-loop
# on a trace node and required-only nodes
@example(
    Corpus(
        traces=(
            Trace("n", "negative", ("a", "a")),
            Trace("p", "positive", ("b", "a", "b")),
            Trace("q", "positive", ("c", "c", "d", "c", "c", "d", "d")),
            Trace("r", "negative", ("d", "c")),
        ),
        required_edges=frozenset({("c", "c"), ("x", "a"), ("y", "y")}),
    )
)
def test_validate_corpus_matches_the_reference(corpus):
    assert validate_corpus(corpus) == reference_validate_corpus(corpus)


# ---------------------------------------------------------------------------
# the corpus writer against json.dumps and the row-by-row writer, and the
# node-id predicate

# characters str.isspace() accepts that are easy to miss, and some that look
# blank or need escaping but are not whitespace
_SPACES = "\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680\u2000\u2028\u2029\u202f\u3000"
_NOT_SPACES = "\u200b\ufeff\x00\"\\"
# no lone surrogates: they have no UTF-8 form to digest or write
_char = st.characters(exclude_categories=("Cs",)) | st.sampled_from(_SPACES + _NOT_SPACES)
_text = st.text(_char, min_size=1, max_size=6)
_any_node = st.text(
    st.characters(exclude_categories=("Cs",)).filter(lambda ch: not ch.isspace())
    | st.sampled_from(_NOT_SPACES),
    min_size=1,
    max_size=6,
)

_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(_char, max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(_char, max_size=4), inner, max_size=3),
    max_leaves=8,
)


# characters that encode_basestring writes as they are, every one but the
# control characters U+0000-U+001F, quote and backslash; the writer puts a
# corpus whose ids all hold only these into its rows as they are
_plain_char = st.characters(exclude_categories=("Cs",)).filter(lambda ch: ch >= " " and ch not in '"\\')
_plain_text = st.text(_plain_char, min_size=1, max_size=6)
_plain_node = st.text(_plain_char.filter(lambda ch: not ch.isspace()), min_size=1, max_size=6)


@st.composite
def rich_corpora(draw: st.DrawFn, ids=_text, nodes=_any_node) -> Corpus:
    """Any ids and node ids (or those `ids` and `nodes` draw), optional
    origins, required edges and metadata, zero traces included."""
    ids = draw(st.lists(ids, unique=True, max_size=6))
    traces = tuple(
        Trace(
            trace_id,
            draw(st.sampled_from(["positive", "negative"])),
            tuple(draw(st.lists(nodes, min_size=2, max_size=4))),
            origin=draw(st.none() | st.text(_char, max_size=6)),
        )
        for trace_id in ids
    )
    return Corpus(
        mode=draw(st.sampled_from(["qualifier", "effect"])),
        traces=traces,
        required_edges=frozenset(draw(st.sets(st.tuples(_any_node, _any_node), max_size=3))),
        min_positive_support=draw(st.integers(min_value=1, max_value=10**20)),
        metadata=draw(st.dictionaries(st.text(_char, max_size=4), _json_values, max_size=3)),
    )


@settings(max_examples=150, deadline=None)
@given(rich_corpora() | rich_corpora(_plain_text, _plain_node))
def test_serialize_matches_reference(corpus: Corpus):
    text = serialize_corpus(corpus)
    assert text == reference_serialize_corpus(corpus)
    assert corpus_digest(corpus) == hashlib.sha256(text.encode("utf-8")).hexdigest()


@settings(max_examples=500, deadline=None)
@given(st.text(_char | st.sampled_from("\x7f\x1b\u00ad\u2028\u2029\U000e0001"), max_size=8))
def test_plain_text_is_written_as_it_is(text: str):
    if _plain(text):
        assert encode_basestring(text) == json.dumps(text, ensure_ascii=False) == '"' + text + '"'
    else:
        assert encode_basestring(text) != '"' + text + '"'


def test_plain_holds_for_exactly_the_characters_written_as_they_are():
    # every code point, surrogates included: _plain encodes them with
    # surrogatepass, and encode_basestring leaves them as they are
    written = [c for c in range(sys.maxunicode + 1) if encode_basestring(chr(c)) == '"' + chr(c) + '"']
    assert [c for c in range(sys.maxunicode + 1) if _plain(chr(c))] == written
    assert sys.maxunicode + 1 - len(written) == 34


@settings(max_examples=150, deadline=None)
@given(rich_corpora() | rich_corpora(_plain_text, _plain_node))
def test_serialize_matches_the_row_by_row_writer(corpus: Corpus):
    assert serialize_corpus(corpus) == reference_row_serialize_corpus(corpus)


# characters encode_basestring escapes that a node id may hold
_ESCAPED = st.sampled_from('"\\\x00\x01\x1b')


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.lists(_plain_node, min_size=2, max_size=4).map(tuple), min_size=3, max_size=30),
    st.data(),
    st.sampled_from(["id", "node", "origin"]),
    _ESCAPED,
)
def test_a_row_that_needs_escaping_anywhere_is_written_as_json_dumps_writes_it(paths, data, field, char):
    """One id, node or origin that needs escaping, at a middle row among
    plain ones; the node at any place in its path."""
    k = data.draw(st.integers(1, len(paths) - 2), label="row")
    traces = [Trace(f"t{i}", "negative" if i % 3 else "positive", path) for i, path in enumerate(paths)]
    trace = traces[k]
    if field == "id":
        traces[k] = trace._replace(id=trace.id + char)
    elif field == "node":
        at = data.draw(st.integers(0, len(trace.nodes) - 1), label="node")
        traces[k] = trace._replace(nodes=(*trace.nodes[:at], "n" + char, *trace.nodes[at + 1 :]))
    else:
        traces[k] = trace._replace(origin="o" + char)
    corpus = Corpus(traces=tuple(traces))
    text = serialize_corpus(corpus)
    assert text == reference_serialize_corpus(corpus) == reference_row_serialize_corpus(corpus)
    assert parse_corpus(text) == corpus


@pytest.mark.parametrize("origins", ["none", "every", "some"])
@pytest.mark.parametrize("node", ["b", 'b"'], ids=["plain", "escaped"])
def test_corpora_with_origins_on_no_trace_every_trace_or_some(origins, node):
    def origin(i):
        return None if origins == "none" or (origins == "some" and i % 2) else f"o{i}" + '"' * (i % 3 == 0)

    corpus = Corpus(traces=tuple(Trace(f"t{i}", "positive", ("a", node), origin(i)) for i in range(5)))
    text = serialize_corpus(corpus)
    assert text == reference_serialize_corpus(corpus) == reference_row_serialize_corpus(corpus)
    assert ('"origin"' in text) == (origins != "none")


@pytest.mark.parametrize(
    "last_id, last_node",
    [("t", "c"), ('t"', "c"), ("t\\", "c"), ("t\t", "c"), ("t\u2028", "c")]
    + [("t", "c" + char) for char in ('"', "\\", "\x01", "\x7f", "\u00ad")],
)
def test_a_column_whose_last_id_needs_escaping_is_written_as_json_dumps_writes_it(last_id, last_node):
    # the origins, outside both columns, need escaping too
    traces = [Trace(f"t{i}", "negative", ("a", f"n{i}"), None if i % 2 else 'o"') for i in range(4)]
    corpus = Corpus(traces=(*traces, Trace(last_id, "positive", ("a", "b", last_node))))
    text = serialize_corpus(corpus)
    assert text == reference_serialize_corpus(corpus)
    assert corpus_digest(corpus) == hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_serialize_matches_reference_on_the_deepest_metadata_parse_accepts():
    # how deep the decoder goes depends on the stack it starts from, so the
    # depth is searched for here rather than fixed
    def document(depth: int) -> str:
        trace = '{"id": "t", "polarity": "negative", "nodes": ["a", "b"]}'
        return '{"traces": [' + trace + '], "metadata": ' + '{"a": ' * depth + "1" + "}" * depth + "}"

    def accepted(depth: int) -> bool:
        try:
            parse_corpus(document(depth))
        except ParseError:
            return False
        return True

    low, high = 1, 10_000
    while low < high:
        middle = (low + high + 1) // 2
        if accepted(middle):
            low = middle
        else:
            high = middle - 1
    assert low > 500
    corpus = parse_corpus(document(low))
    text = serialize_corpus(corpus)
    assert text == reference_serialize_corpus(corpus)
    assert corpus_digest(corpus) == hashlib.sha256(text.encode("utf-8")).hexdigest()


@settings(max_examples=500, deadline=None)
@given(st.text(_char, max_size=6))
def test_node_id_predicate_matches_reference(name: str):
    assert is_valid_node_id(name) == reference_is_valid_node_id(name)


@pytest.mark.parametrize("name", [None, 1, b"ab", ["ab"], "", " ", "a\u3000b", "a\x1fb", "\x85", "ab"])
def test_node_id_predicate_edge_cases(name):
    assert is_valid_node_id(name) == reference_is_valid_node_id(name)


class _Text(str):
    pass


@pytest.mark.parametrize(
    "value, expected",
    [
        ([], True),
        (["a"], True),
        (["a b", "", "\udc80"], True),
        ([_Text("a")], True),
        (["a", 1], False),
        ([None], False),
        ([True], False),
        ([["a"]], False),
        ([b"a"], False),
        ("ab", False),
        (("a", "b"), False),
        ({"a": 1}, False),
        (None, False),
    ],
)
def test_string_list_predicate_matches_reference(value, expected):
    assert is_string_list(value) == reference_is_string_list(value) == expected


@pytest.mark.parametrize("bad", ["", "a b", "\u2028", "x\x1c"])
def test_trace_names_the_first_invalid_node(bad):
    with pytest.raises(ValidationError, match=re.escape(f"invalid node id {bad!r}")):
        Trace("t", "negative", ("a", bad, "c", "d e"))
    with pytest.raises(ValidationError, match="invalid node id 7"):
        Trace("t", "negative", ("a", 7, bad))


# ---------------------------------------------------------------------------
# corpus-document fuzz

def _objects(doc) -> list[dict]:
    """The objects of a (possibly already mutated) corpus document whose
    keys parse_corpus reads: the document, its options, its trace entries."""
    found = [doc]
    if isinstance(doc.get("options"), dict):
        found.append(doc["options"])
    if isinstance(doc.get("traces"), list):
        found += [entry for entry in doc["traces"] if isinstance(entry, dict)]
    return found


_BAD_NODES = st.sampled_from(["", " ", "a b", "a\tb", "\u2028", "x\x1f", "\u3000y"]) | _text


@st.composite
def corpus_documents(draw: st.DrawFn) -> dict:
    """A valid corpus document, then up to four random mutations: a key
    dropped or added, a value of a wrong type, a bad node id, a bad
    polarity, non-list nodes."""
    traces = []
    for i in range(draw(st.integers(min_value=0, max_value=4))):
        entry = {
            "id": f"t{i}",
            "polarity": draw(st.sampled_from(["positive", "negative"])),
            "nodes": draw(st.lists(_node, min_size=2, max_size=4)),
        }
        if draw(st.booleans()):
            entry["origin"] = draw(st.text(_char, max_size=4))
        traces.append(entry)
    doc = {
        "mode": draw(st.sampled_from(["qualifier", "effect"])),
        "traces": traces,
        "required_edges": [list(pair) for pair in draw(st.lists(st.tuples(_node, _node), max_size=2))],
        "options": {"min_positive_support": draw(st.integers(min_value=1, max_value=3))},
        "metadata": draw(st.dictionaries(st.text(_char, max_size=4), _json_values, max_size=2)),
    }
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        target = draw(st.sampled_from(_objects(doc)))
        entries = [obj for obj in _objects(doc) if "nodes" in obj or "polarity" in obj]
        kind = draw(st.sampled_from(["drop", "add", "retype", "node", "polarity", "nodes"]))
        if kind == "drop" and target:
            del target[draw(st.sampled_from(sorted(target)))]
        elif kind == "add":
            target[draw(st.text(_char, max_size=8))] = draw(_json_values)
        elif kind == "retype" and target:
            target[draw(st.sampled_from(sorted(target)))] = draw(_json_values)
        elif kind == "node" and entries:
            entry = draw(st.sampled_from(entries))
            if isinstance(entry.get("nodes"), list) and entry["nodes"]:
                index = draw(st.integers(min_value=0, max_value=len(entry["nodes"]) - 1))
                entry["nodes"][index] = draw(_BAD_NODES)
        elif kind == "polarity" and entries:
            draw(st.sampled_from(entries))["polarity"] = draw(st.text(_char, max_size=8))
        elif kind == "nodes" and entries:
            draw(st.sampled_from(entries))["nodes"] = draw(_json_values)
    return doc


@settings(max_examples=250, deadline=None)
@given(corpus_documents())
def test_mutated_corpus_documents_fail_cleanly_or_round_trip(doc: dict):
    try:
        corpus = parse_corpus(json.dumps(doc))
    except (ParseError, ValidationError):
        return
    assert parse_corpus(serialize_corpus(corpus)) == corpus


# ---------------------------------------------------------------------------
# the bulk check of the traces array, against the per-entry parser

def _parsed(parse, text: str):
    """The corpus `parse` makes of `text`, or its error's type and message."""
    try:
        return parse(text)
    except (ParseError, ValidationError) as exc:
        return type(exc), str(exc)


def _entry_error(entries: list) -> bool:
    """Whether the per-entry parser rejects some entry of a traces array:
    a duplicate id is found only after every entry has passed."""
    try:
        reference_parse_corpus(json.dumps({"traces": entries}))
    except ValidationError as exc:
        return not str(exc).startswith("duplicate trace id")
    return False


def _assert_parses_as_reference(text: str) -> None:
    parsed = _parsed(parse_corpus, text)
    assert parsed == _parsed(reference_parse_corpus, text)
    if isinstance(parsed, Corpus):
        assert all(type(trace) is Trace and type(trace.nodes) is tuple for trace in parsed.traces)
    doc = json.loads(text)
    if isinstance(doc, dict) and isinstance(doc.get("traces"), list):
        # the slow loop runs only when some entry breaks a rule
        assert (_bulk_traces(doc["traces"]) is None) == _entry_error(doc["traces"])


@settings(max_examples=300, deadline=None)
@given(corpus_documents())
def test_parse_corpus_matches_reference(doc: dict):
    _assert_parses_as_reference(json.dumps(doc))


_DROP = object()


def _entry(i: int = 0, **changes) -> dict:
    """A valid trace entry with `changes` made; a key set to _DROP goes."""
    entry = {"id": f"t{i}", "polarity": "negative", "nodes": ["a", "b"]}
    entry.update(changes)
    return {key: value for key, value in entry.items() if value is not _DROP}


_TEN = [_entry(i) for i in range(10)]

_ORIGINS = st.sampled_from([_DROP, None, "static-expansion"])


@st.composite
def keyed_entries(draw: st.DrawFn) -> list:
    """Trace entries that are valid but for their keys: a required key may
    be missing, an unknown key may be added, and "origin" is absent, null
    or a string."""
    entries = []
    for i in range(draw(st.integers(min_value=0, max_value=5))):
        entry = _entry(i, origin=draw(_ORIGINS))
        if draw(st.integers(0, 4)) == 0:
            del entry[draw(st.sampled_from(["id", "polarity", "nodes"]))]
        if draw(st.integers(0, 4)) == 0:
            entry[draw(st.sampled_from(["extra", "Origin", "node"]))] = draw(_ORIGINS.filter(lambda v: v is not _DROP))
        entries.append(entry)
    return entries


@settings(max_examples=300, deadline=None)
@given(keyed_entries())
@example([_entry(origin=None), _entry(1, extra=1)])  # an extra key where an origin could be
@example([_entry(polarity=_DROP, extra=None, origin="o")])  # as many keys as a valid entry with origin
def test_bulk_trace_key_check_returns_none_exactly_when_the_entry_loop_raises(entries):
    bulk = _bulk_traces(entries)
    assert (bulk is None) == _entry_error(entries)
    if bulk is not None:
        assert bulk == reference_parse_corpus(json.dumps({"traces": entries})).traces


@pytest.mark.parametrize(
    "entries, error",
    [
        ([], None),
        ([_entry(origin=None)], None),
        ([_entry(origin="static-expansion"), _entry(1, polarity="positive", nodes=["b", "c", "d"])], None),
        ([_entry(polarity=["negative"])], "trace t0: unknown polarity ['negative']"),
        ([_entry(polarity={"negative": 1})], "trace t0: unknown polarity {'negative': 1}"),
        ([_entry(nodes=["a"])], "trace t0: a path needs at least 2 nodes, got 1"),
        ([_entry(nodes=["a", ""])], "trace t0: invalid node id ''"),
        ([_entry(nodes=["a b", "c"])], "trace t0: invalid node id 'a b'"),
        ([_entry(nodes=["a", "x\x1c"])], "trace t0: invalid node id 'x\\x1c'"),
        ([_entry(id=7)], "trace id must be a non-empty string"),
        ([_entry(id="")], "trace id must be a non-empty string"),
        ([_entry(), ["t1", "negative", ["a", "b"]]], "trace entry 1 must be an object"),
        ([_entry(extra=1)], "trace entry 0: unknown field(s): extra"),
        ([_entry(polarity=_DROP)], "trace entry 0: missing field(s): polarity"),
        (_TEN[:7] + [_entry(7, nodes="ab")] + _TEN[8:], "trace entry 7: 'nodes' must be an array of strings"),
        (_TEN[:7] + [_entry(7, origin=3)] + _TEN[8:], "trace entry 7: 'origin' must be a string"),
        # one bad id in three entries: the set holds it once, the loop names its first entry
        (
            _TEN[:3] + [_entry(3, nodes=["a", "x\ty"]), _entry(4, nodes=["x\ty", "b"]), _entry(5, nodes=["b", "x\ty"])],
            "trace t3: invalid node id 'x\\ty'",
        ),
        ([_entry(nodes=["a b", "c", "a b"]), _entry(1, nodes=["", "a b"])], "trace t0: invalid node id 'a b'"),
    ],
)
def test_bulk_trace_check_agrees_with_the_entry_loop(entries, error):
    text = json.dumps({"traces": entries})
    _assert_parses_as_reference(text)
    if error is None:
        assert parse_corpus(text).traces == reference_parse_corpus(text).traces
    else:
        with pytest.raises(ValidationError) as raised:
            parse_corpus(text)
        assert str(raised.value) == error
