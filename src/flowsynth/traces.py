"""Trace corpora: the example format the synthesizer consumes.

A corpus bundles positive and negative examples of flows between opaque
program nodes (variable sites, methods, operations).  Two frontends feed it:
a JSON document (the canonical on-disk form) and raw JVM-style stack traces.
Stack traces are converted to node paths innermost frame first, so that an
edge (u, v) uniformly reads "u's qualifier or effect must be allowed to flow
into v's" in both qualifier and effect mode.

Polarity of raw stack-trace files comes from the filename suffix
(``*.neg.txt`` / ``*.pos.txt``), never from file content: real exception
dumps carry no polarity.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import sys
from dataclasses import dataclass, field
from itertools import chain, repeat
from json.encoder import encode_basestring as _str
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple

from .errors import ParseError, ValidationError

Edge = tuple[str, str]

POSITIVE = "positive"
NEGATIVE = "negative"
POLARITIES = (POSITIVE, NEGATIVE)

QUALIFIER = "qualifier"
EFFECT = "effect"
MODES = (QUALIFIER, EFFECT)


def is_valid_node_id(name: object) -> bool:
    """A node id is a non-empty token with no whitespace or newlines.

    `str.split()` splits at exactly the characters `str.isspace()` accepts,
    so a string is such a token iff it splits into itself."""
    return isinstance(name, str) and name.split() == [name]


class _TraceFields(NamedTuple):
    id: str
    polarity: str
    nodes: tuple[str, ...]
    origin: str | None = None


class Trace(_TraceFields):
    """One example: an id, a polarity, and an ordered node path (>= 2 nodes).

    An immutable named tuple.  Every way of making one validates: the
    constructor, `_make`, `_replace` (which calls `_make`) and unpickling
    (which calls the constructor), and each names the first invalid node.
    `parse_corpus` builds traces directly, after checking the same rules
    over the whole "traces" array."""

    __slots__ = ()

    def __new__(cls, id: str, polarity: str, nodes: tuple[str, ...], origin: str | None = None):
        if not isinstance(id, str) or not id:
            raise ValidationError("trace id must be a non-empty string")
        if polarity not in POLARITIES:
            raise ValidationError(f"trace {id}: unknown polarity {polarity!r}")
        nodes = tuple(nodes)
        if len(nodes) < 2:
            raise ValidationError(f"trace {id}: a path needs at least 2 nodes, got {len(nodes)}")
        for node in nodes:
            if not is_valid_node_id(node):
                raise ValidationError(f"trace {id}: invalid node id {node!r}")
        return tuple.__new__(cls, (id, polarity, nodes, origin))

    @classmethod
    def _make(cls, iterable) -> Trace:
        return cls(*iterable)

    @property
    def is_negative(self) -> bool:
        return self.polarity == NEGATIVE

    @property
    def is_positive(self) -> bool:
        return self.polarity == POSITIVE

    @property
    def endpoints(self) -> Edge:
        return (self.nodes[0], self.nodes[-1])


@dataclass(frozen=True)
class Corpus:
    """A set of traces plus side constraints, in one of two modes."""

    mode: str = QUALIFIER
    traces: tuple[Trace, ...] = ()
    required_edges: frozenset[Edge] = frozenset()
    min_positive_support: int = 1
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValidationError(f"unknown mode {self.mode!r}")
        object.__setattr__(self, "traces", tuple(self.traces))
        ids = list(map(itemgetter(0), self.traces))
        if len(set(ids)) != len(ids):
            seen: set[str] = set()
            for trace_id in ids:
                if trace_id in seen:
                    raise ValidationError(f"duplicate trace id {trace_id}")
                seen.add(trace_id)
        edges = set()
        for pair in self.required_edges:
            src, dst = pair
            if not is_valid_node_id(src) or not is_valid_node_id(dst):
                raise ValidationError(f"required edge has invalid node id: {pair!r}")
            edges.add((src, dst))
        object.__setattr__(self, "required_edges", frozenset(edges))
        if not isinstance(self.min_positive_support, int) or isinstance(self.min_positive_support, bool):
            raise ValidationError("min_positive_support must be an integer")
        if self.min_positive_support < 1:
            raise ValidationError("min_positive_support must be >= 1")

    @property
    def negatives(self) -> tuple[Trace, ...]:
        return tuple(t for t in self.traces if t.is_negative)

    @property
    def positives(self) -> tuple[Trace, ...]:
        return tuple(t for t in self.traces if t.is_positive)


def trace_edges(trace: Trace) -> tuple[Edge, ...]:
    """Consecutive node pairs of the path, in path order (length = nodes - 1)."""
    return tuple(zip(trace.nodes, trace.nodes[1:]))


# ---------------------------------------------------------------------------
# Corpus JSON document

_CORPUS_KEYS = {"mode", "traces", "required_edges", "options", "metadata"}
_TRACE_KEYS = {"id", "polarity", "nodes", "origin"}
_TRACE_REQUIRED = {"id", "polarity", "nodes"}
_OPTION_KEYS = {"min_positive_support"}


def parse_file(parse, path: str | Path, *args):
    """`parse(text, *args)` on the UTF-8 text of the file at `path`.  Bytes
    that are not UTF-8, and any ParseError of `parse`, raise a ParseError
    that names the file."""
    try:
        with open(path, encoding="utf-8") as file:
            text = file.read()
        return parse(text, *args)
    except (UnicodeDecodeError, ParseError) as exc:
        raise ParseError(f"{exc} (file {path})") from None


def is_string_pair(value: object) -> bool:
    return isinstance(value, list) and len(value) == 2 and type(value[0]) is type(value[1]) is str


def is_string_list(value: object) -> bool:
    """A list whose items are all strings: `str.join` accepts exactly those."""
    if not isinstance(value, list):
        return False
    try:
        "".join(value)
    except TypeError:
        return False
    return True


def load_json(text: str):
    """The JSON document in `text`.  Raises ParseError for malformed JSON
    (with line/column), for nesting too deep to decode, for an integer
    longer than the interpreter converts, and for a string holding a lone
    surrogate, which no UTF-8 output can encode.  Only a `\\u` escape can
    decode to a surrogate, so text without one is not walked; a backslash
    is looked for first, since a one-character search is many times faster
    than a two-character one."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno, column=exc.colno) from exc
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None
    except ValueError:  # the only other one: int()'s limit on digits
        raise ParseError(f"invalid JSON: integer longer than {sys.get_int_max_str_digits()} digits") from None
    if "\\" in text and "\\u" in text:
        _reject_surrogates(doc)
    return doc


_SURROGATE = re.compile("[\ud800-\udfff]")


def _reject_surrogates(doc) -> None:
    """Raise ParseError if any string in the decoded document, key or
    value, holds a surrogate; iterative, so any depth json.loads accepts
    is walked."""
    stack = [doc]
    while stack:
        value = stack.pop()
        if isinstance(value, str):
            found = _SURROGATE.search(value)
            if found:
                raise ParseError(f"invalid JSON: lone surrogate \\u{ord(found.group()):04x} in a string")
        elif isinstance(value, list):
            stack.extend(value)
        elif isinstance(value, dict):
            stack.extend(value)
            stack.extend(value.values())


def dump_json(doc: dict, rows: dict) -> str:
    """`json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) +
    "\\n"`, where each key of `rows` names an array or object that `doc`
    holds empty, either a top-level key or a (top-level key, key) pair for
    one inside a top-level object, and `rows[key]` are its items already
    rendered at their depth (four spaces of indent at the top level, six
    one level down), without separators.

    json.dumps writes the skeleton with those values left empty, so
    free-form values of any nesting still go through it; only the large,
    fixed-shape values skip its pure-Python encoder, which `indent`
    selects.  Inside an object at depth d, a key of its own is the only
    line that starts with exactly 2(d + 1) spaces and a quote, so each one
    is found by a plain search from its parent's key.  Row templates escape
    strings with `encode_basestring`, the function json.dumps uses under
    `ensure_ascii=False`.
    """
    skeleton = json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False)
    pieces = []
    start = 0
    for key in sorted(rows, key=_key_path):
        path = _key_path(key)
        at, parent = 0, doc
        for depth, name in enumerate(path[:-1], 1):
            at = skeleton.index(f"\n{'  ' * depth}{_str(name)}: {{", at)
            parent = parent[name]
        empty = "{}" if isinstance(parent[path[-1]], dict) else "[]"
        marker = f"\n{'  ' * len(path)}{_str(path[-1])}: {empty}"
        closing = skeleton.index(marker, at) + len(marker) - 1
        pieces.append(skeleton[start:closing])
        if rows[key]:
            # the rows and their separators go into the one final join, so
            # the output is built without an intermediate copy of the rows
            spaced = [",\n"] * (2 * len(rows[key]) - 1)
            spaced[::2] = rows[key]
            pieces.append("\n")
            pieces += spaced
            pieces.append("\n" + "  " * len(path))
        start = closing
    pieces.append(skeleton[start:])
    pieces.append("\n")
    return "".join(pieces)


def _key_path(key: str | tuple[str, ...]) -> tuple[str, ...]:
    return (key,) if isinstance(key, str) else key


def _bulk_traces(entries: list) -> tuple[Trace, ...] | None:
    """The traces of a "traces" array, or None if any entry breaks a rule
    of the per-entry loop in `parse_corpus` or of `Trace.__new__`.  Each
    rule is checked once over the whole array, in passes that run in C,
    and the traces are built without calling `Trace.__new__`."""
    if not set(map(type, entries)) <= {dict}:
        return None
    try:
        ids = list(map(itemgetter("id"), entries))
        polarities = list(map(itemgetter("polarity"), entries))
        paths = list(map(itemgetter("nodes"), entries))
    except KeyError:
        return None
    # each entry holds the three required keys, so it holds no other key
    # than "origin" iff the key counts add up
    holding = sum(map(dict.__contains__, entries, repeat("origin")))
    if sum(map(len, entries)) != 3 * len(entries) + holding:
        return None
    origins = list(map(dict.get, entries, repeat("origin")))
    try:
        if not (
            set(map(type, ids)) <= {str}
            and all(ids)
            and set(polarities) <= set(POLARITIES)
            and set(map(type, paths)) <= {list}
            and min(map(len, paths), default=2) >= 2
            and set(map(type, origins)) <= {str, type(None)}
        ):
            return None
        # every node is a valid id iff the joined distinct nodes split back
        # into them (a node that is not a string fails the join, or the set
        # if it is not hashable); each string keeps the hash the set gives
        # it, for the lookups that checking the corpus makes
        nodes = list(set(chain.from_iterable(paths)))
        if " ".join(nodes).split() != nodes:
            return None
    except TypeError:  # an unhashable polarity, or a node that is not a string
        return None
    return tuple(map(tuple.__new__, repeat(Trace), zip(ids, polarities, map(tuple, paths), origins)))


def parse_corpus(text: str) -> Corpus:
    """Parse the corpus JSON document.

    Raises ParseError (with line/column) for malformed JSON and
    ValidationError for schema violations: duplicate ids, traces shorter
    than two nodes, unknown polarity or mode, unknown fields.
    """
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
    traces = _bulk_traces(raw_traces)
    if traces is None:
        # some entry breaks a rule: check one by one, to name the first
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


# the pieces around the columns of the corpus document's "traces" array,
# keys in sorted order: before the first id, between two rows, after an id,
# between two nodes, after the nodes, before the polarity, after the last
# row.  For plain ids and nodes they carry the quotes, and a polarity is
# always plain.  The origin line, when present, goes between "nodes" and
# "polarity".
_ROW_PIECES = {
    q: (f'    {{\n      "id": {q}', f'"\n    }},\n    {{\n      "id": {q}', f'{q},\n      "nodes": [\n        {q}',
        f"{q},\n        {q}", f"{q}\n      ],", '\n      "polarity": "', '"\n    }')
    for q in ('"', "")
}
_ORIGIN_LINE = '\n      "origin": %s,'
# what encode_basestring escapes: control characters, quote and backslash,
# each a byte below 0x80 in UTF-8, where no other character has such a byte
_ESCAPED_BYTES = bytes(range(0x20)) + b'"\\'


def _plain(text: str) -> bool:
    """Whether `encode_basestring` leaves `text` as it is, apart from the
    quotes around it."""
    data = text.encode("utf-8", "surrogatepass")
    return len(data.translate(None, _ESCAPED_BYTES)) == len(data)


def serialize_corpus(corpus: Corpus) -> str:
    """Canonical corpus serialization: key-sorted JSON with an indent of 2,
    sorted edge list, defaults written out, trailing newline.  parse_corpus
    inverts it.

    The traces array is one join of fixed pieces and its columns (ids,
    joined node paths, origin lines, polarities), with no string built per
    row, and the rest is json.dumps's (see dump_json); the bytes are those
    of one `json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False)`.
    When the joined trace ids and the joined distinct node ids are both
    plain, one test each, the columns go in as they are; otherwise every
    id and node is escaped.  On 25,000 plain traces the two tests take
    about 3 of the 12-15 ms; with one node that needs escaping, the
    corpus takes 21-25 ms.
    """
    doc: dict = {
        "mode": corpus.mode,
        "required_edges": [list(pair) for pair in sorted(corpus.required_edges)],
        "options": {"min_positive_support": corpus.min_positive_support},
        "traces": [],
    }
    if corpus.metadata:
        doc["metadata"] = corpus.metadata
    traces = corpus.traces
    if not traces:
        return dump_json(doc, {"traces": []})
    ids = list(map(itemgetter(0), traces))
    paths = list(map(itemgetter(2), traces))
    origins = list(map(itemgetter(3), traces))
    plain = _plain("".join(ids)) and _plain("".join(set(chain.from_iterable(paths))))
    first, between, after_id, node_sep, after_nodes, before_polarity, last = _ROW_PIECES['"' if plain else ""]
    if plain:
        nodes = map(node_sep.join, paths)
    else:
        ids = map(_str, ids)
        nodes = map(node_sep.join, map(map, repeat(_str), paths))
    if origins.count(None) == len(origins):
        origins = repeat("")
    else:
        origins = ["" if origin is None else _ORIGIN_LINE % _str(origin) for origin in origins]
    cells = zip(chain((first,), repeat(between)), ids, repeat(after_id), nodes, repeat(after_nodes), origins,
                repeat(before_polarity), map(itemgetter(1), traces))
    return dump_json(doc, {"traces": ["".join(chain(chain.from_iterable(cells), (last,)))]})


def corpus_digest(corpus: Corpus) -> str:
    """SHA-256 of the canonical corpus serialization.  Its bytes do not
    depend on how serialize_corpus renders them, so recorded digests stay
    valid."""
    return hashlib.sha256(serialize_corpus(corpus).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Stack-trace document

_FRAME_RE = re.compile(r"^\s*at (?P<fqn>[^(]+)\(.*\)\s*$")
_ELISION_RE = re.compile(r"^\s*\.\.\. (?P<count>\d+) more\s*$")
_CAUSED_BY = "Caused by:"


def parse_stack_trace(text: str, polarity: str, trace_id: str) -> Trace:
    """Parse a JVM-style stack trace into a Trace.

    Only the final ("Caused by:" root-cause) section contributes frames; a
    trailing "... N more" line is expanded by copying the last N frames of
    the immediately enclosing section, as expanded.  Frames are kept
    innermost first, so the first node is the offending operation.  A
    frame needs a header line before it; a "Caused by:" line is one.
    """
    sections: list[list[str]] = [[]]
    elisions: list[int | None] = [None]
    saw_header = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.startswith(_CAUSED_BY):
            sections.append([])
            elisions.append(None)
            saw_header = True
            continue
        elision = _ELISION_RE.match(line)
        if elision:
            if not sections[-1]:
                raise ParseError("elision line before any stack frame", line=lineno)
            if elisions[-1] is not None:
                raise ParseError("multiple elision lines in one section", line=lineno)
            try:
                elisions[-1] = int(elision.group("count"))
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
            if elisions[-1] is not None:
                raise ParseError("frame line after elision line", line=lineno)
            if not saw_header:
                raise ParseError("missing header line before first frame", line=lineno)
            sections[-1].append(fqn)
            continue
        saw_header = True

    if not sections[-1]:
        raise ParseError("no stack frames found")
    enclosing: list[str] = []
    for i, (frames, n) in enumerate(zip(sections, elisions)):
        if not frames:
            raise ParseError(f"section {i} has no stack frames")
        if n:
            if n > len(enclosing):
                raise ParseError(
                    f"'... {n} more' references more frames than the enclosing section supplies"
                )
            frames += enclosing[-n:]
        enclosing = frames
    return Trace(trace_id, polarity, tuple(enclosing))


def stack_traces_from_dir(directory: str | Path) -> tuple[Trace, ...]:
    """Read every *.neg.txt / *.pos.txt file under `directory` (sorted by
    name); the trace id is the filename with the polarity suffix removed.
    A parse error names the file as `Path(directory) / name` prints."""
    directory = str(Path(directory))
    prefix = "" if directory == "." else os.path.join(directory, "")
    suffixes = ((".neg.txt", NEGATIVE), (".pos.txt", POSITIVE))
    traces = []
    for name in sorted(os.listdir(directory)):
        for suffix, polarity in suffixes:
            if name.endswith(suffix):
                trace_id = name[: -len(suffix)]
                path = prefix + name
                if _SURROGATE.search(trace_id):
                    raise ParseError(f"file name is not UTF-8 (file {path!r})")
                traces.append(parse_file(parse_stack_trace, path, polarity, trace_id))
                break
    return tuple(traces)


# ---------------------------------------------------------------------------
# Corpus validation

ERROR = "error"
WARNING = "warning"


@dataclass(frozen=True)
class Diagnostic:
    severity: str
    code: str
    message: str
    trace_ids: tuple[str, ...] = ()


def validate_corpus(corpus: Corpus) -> tuple[Diagnostic, ...]:
    """All corpus-level diagnostics, in a fixed order: the rules the cut
    solver cannot see.

    Error: a negative trace with equal endpoints (reflexivity makes the
    flow impossible to prohibit).  Warnings: self-loop edges (never cut
    candidates) and nodes that appear only in required_edges.  Whether a
    negative can be broken at all is the solver's to decide, from the
    protection `build_graph` computes.

    One loop over the traces: a closed negative path gives the error, a
    path with a repeated node is walked for self-loops, and any other path
    is skipped, since a self-loop repeats its node.
    """
    diagnostics: list[Diagnostic] = []
    for trace_id, polarity, nodes, _ in corpus.traces:
        if polarity == NEGATIVE and nodes[0] == nodes[-1]:
            diagnostics.append(
                Diagnostic(ERROR, "negative-endpoints-equal", f"negative endpoints equal: {nodes[0]}", (trace_id,))
            )
        if len(set(nodes)) < len(nodes):
            # each self-loop once, in path order
            loops = dict.fromkeys(src for src, dst in zip(nodes, nodes[1:]) if src == dst)
            diagnostics.extend(_self_loop(node, (trace_id,)) for node in loops)
    diagnostics.extend(_self_loop(src) for src, dst in sorted(corpus.required_edges) if src == dst)
    required_nodes = {node for pair in corpus.required_edges for node in pair}
    if required_nodes:
        required_nodes -= set(chain.from_iterable(map(itemgetter(2), corpus.traces)))
    diagnostics.extend(
        Diagnostic(WARNING, "required-edge-only-node", f"node {node} appears only in required_edges")
        for node in sorted(required_nodes)
    )
    return tuple(diagnostics)


def _self_loop(node: str, trace_ids: tuple[str, ...] = ()) -> Diagnostic:
    return Diagnostic(WARNING, "self-loop", f"self-loop edge ({node}, {node}) imposes no constraint", trace_ids)


def corpus_errors(diagnostics: tuple[Diagnostic, ...]) -> tuple[Diagnostic, ...]:
    return tuple(d for d in diagnostics if d.severity == ERROR)
