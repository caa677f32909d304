"""Apply a synthesized analysis to traces: verdicts, reports, explanations.

analysis.json (format_version 2) stores the order as its covering edges,
which imply the reflexive transitive closure; in effect mode it lists only
the elements a check can reach, the generators and the bottom, which is
the default element.  The loader rebuilds the order as one up-set bitset
per element and checks the order laws on those before any trace is
checked: a cycle breaks antisymmetry (the smallest equivalent pair is
reported), and in effect mode the bottom's up-set holds every element.  A
version 2 effect order needs no join check: its elements stand for the
down-sets of generators, whose unions form a join semilattice by
construction.  A version 1 file (no format_version) may list every join
and the full relation; it still loads, and in effect mode a and b must
then have a least upper bound, which holds iff up(a) & up(b) is itself
some element's up-set.

A check walks each path once, node by node, mapping each node to its
element's index and testing each consecutive pair against the up-sets;
it stops at the first unrelated pair.  `check_trace` and `check_corpus`
share that walk, so a trace gets the same verdict alone or in a corpus.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cache, cached_property, partial
from itertools import chain, repeat
from json.encoder import encode_basestring as _str
from operator import attrgetter, itemgetter, not_
from typing import Any, NamedTuple

from .errors import CycleError, InvalidAnalysisError, NotRejected, UnknownElement
from .graph import _upsets, scc_condense
from .lattice import Element, QualifierOrder, _cover_indices
from .traces import (
    NEGATIVE, POSITIVE, Corpus, Edge, Trace, _plain, dump_json, is_string_list, is_string_pair, load_json
)

QUALIFIER_DEFAULT = "Q_unknown"
FORMAT_VERSION = 2


@dataclass(frozen=True, kw_only=True)
class AnalysisSpec(QualifierOrder):
    """The synthesized analysis as a self-contained, serializable value:
    an order, as `QualifierOrder` holds it, with the default element that
    unknown nodes map to, the cut and the synthesis metadata.  covers are
    the covering pairs analysis.json stores, as element-index pairs; a
    loaded spec has none, and they are read off `up` when needed.
    """

    mode: str
    cut: frozenset[Edge]
    default_element: str
    metadata: dict[str, Any] = field(default_factory=dict)

    @cached_property
    def node_index(self) -> dict[str, int]:
        """Each assigned node's element index, for the check's one lookup
        per node.  Raises UnknownElement when the assignment or the default
        names no element, which only a spec built by hand can do."""
        index = self.index
        try:
            index[self.default_element]  # the index of every other node
            return {node: index[name] for node, name in self.assignment.items()}
        except KeyError as error:
            raise UnknownElement(error.args[0]) from None

    def element_of(self, node: str) -> str:
        return self.assignment.get(node, self.default_element)


class Verdict(NamedTuple):
    """One trace's verdict, an immutable named tuple; a rejection names the
    first violating edge, its index in the path and the unrelated pair."""

    trace_id: str
    accepted: bool
    violation_index: int | None = None
    violating_edge: Edge | None = None
    source_element: str | None = None
    target_element: str | None = None


@dataclass(frozen=True)
class CheckReport:
    """Per-trace verdicts plus aggregate counts (misses are accepted
    negatives, false alarms are rejected positives)."""

    verdicts: tuple[Verdict, ...]
    negatives_rejected: int
    negatives_accepted: int
    positives_accepted: int
    positives_rejected: int

    @property
    def misses(self) -> int:
        return self.negatives_accepted

    @property
    def false_alarms(self) -> int:
        return self.positives_rejected

    @property
    def clean(self) -> bool:
        return self.misses == 0 and self.false_alarms == 0


def check_trace(spec: AnalysisSpec, trace: Trace) -> Verdict:
    """Accept iff every consecutive edge relates source element to target
    element; reject at the first violating edge in path order.  Unknown
    nodes map to the spec's default element."""
    for _, i, a, b in _rejections(spec, (trace.nodes,)):
        return Verdict(trace.id, False, i, (trace.nodes[i], trace.nodes[i + 1]), a, b)
    return Verdict(trace.id, True)


def check_corpus(spec: AnalysisSpec, corpus: Corpus) -> CheckReport:
    """Every trace's verdict, as `check_trace` gives it, and the four
    counts: every verdict is made accepted in one pass, and each rejection
    the walk finds is then put in its place."""
    traces = corpus.traces
    new = tuple.__new__  # a Verdict from its six fields, without the keyword-argument constructor
    none = repeat(None)  # zip draws the four None fields of a row from it in turn
    verdicts = list(map(new, repeat(Verdict), zip(map(itemgetter(0), traces), repeat(True), none, none, none, none)))
    rejected = dict.fromkeys([NEGATIVE, POSITIVE], 0)
    for k, i, a, b in _rejections(spec, map(itemgetter(2), traces)):
        trace_id, polarity, nodes, _ = traces[k]
        verdicts[k] = new(Verdict, (trace_id, False, i, (nodes[i], nodes[i + 1]), a, b))
        rejected[polarity] += 1
    negatives = list(map(itemgetter(1), traces)).count(NEGATIVE)
    positives = len(traces) - negatives
    return CheckReport(
        tuple(verdicts),
        rejected[NEGATIVE],
        negatives - rejected[NEGATIVE],
        positives - rejected[POSITIVE],
        rejected[POSITIVE],
    )


def _rejections(spec: AnalysisSpec, paths) -> list[tuple[int, int, str, str]]:
    """(k, i, a, b) for the k-th path of `paths` when its first edge i has a
    source element a not below its target element b, as names, in order.
    Element indices a, b relate iff up[a] >> b & 1."""
    element = spec.node_index.get
    default = spec.index[spec.default_element]
    up = spec.up
    names = spec.names
    found = []
    for k, nodes in enumerate(paths):
        a = element(nodes[0], default)
        i = 0
        for node in nodes[1:]:
            b = element(node, default)
            if not up[a] >> b & 1:
                found.append((k, i, names[a], names[b]))
                break
            a = b
            i += 1
    return found


@dataclass(frozen=True)
class Explanation:
    """Why a trace was rejected: the violating edge, the unrelated
    elements, and the synthesis constraints that forced the separation
    (when the spec metadata recorded them)."""

    trace_id: str
    violation_index: int
    violating_edge: Edge
    source_element: str
    target_element: str
    non_relation: str
    separating_cut_edges: tuple[Edge, ...]
    origins: tuple[tuple[str, tuple[str, ...]], ...]


def explain_rejection(spec: AnalysisSpec, trace: Trace) -> Explanation:
    verdict = check_trace(spec, trace)
    if verdict.accepted:
        raise NotRejected(f"trace {trace.id} is accepted; nothing to explain")
    a = verdict.source_element
    b = verdict.target_element
    separating = tuple(
        edge
        for edge in sorted(spec.cut)
        if spec.element_of(edge[0]) == a and spec.element_of(edge[1]) == b
    )

    constraints = _recorded(spec.metadata, "constraints", _is_constraint, "{id, nodes} objects")
    cut_origins = _recorded(spec.metadata, "cut_origins", _is_cut_origin, "[edge, constraint ids] pairs")
    recorded_paths = {entry["id"]: tuple(entry["nodes"]) for entry in constraints}
    origin_ids: list[str] = []
    for pair, ids in cut_origins:
        if tuple(pair) in separating:
            origin_ids.extend(i for i in ids if i not in origin_ids)
    origins = tuple((oid, recorded_paths.get(oid, ())) for oid in origin_ids)

    return Explanation(
        trace_id=trace.id,
        violation_index=verdict.violation_index,
        violating_edge=verdict.violating_edge,
        source_element=a,
        target_element=b,
        non_relation=f"{a} not leq {b}",
        separating_cut_edges=separating,
        origins=origins,
    )


def _recorded(metadata: dict, key: str, entry_ok, shape: str) -> list:
    """The metadata array `key`, empty when nothing was recorded; raises
    InvalidAnalysisError, naming the field, when it is not in the shape
    `make_analysis_spec` writes."""
    value = metadata.get(key, [])
    if not isinstance(value, list) or not all(map(entry_ok, value)):
        raise InvalidAnalysisError(f"metadata '{key}' must be an array of {shape}")
    return value


def _is_constraint(entry: object) -> bool:
    return isinstance(entry, dict) and type(entry.get("id")) is str and is_string_list(entry.get("nodes"))


def _is_cut_origin(entry: object) -> bool:
    return isinstance(entry, list) and len(entry) == 2 and is_string_pair(entry[0]) and is_string_list(entry[1])


# ---------------------------------------------------------------------------
# Serialization

def dump_analysis(spec: AnalysisSpec) -> str:
    """Canonical analysis serialization, format_version 2: key-sorted JSON
    with an indent of 2, the order as its covering pairs, every sequence
    deterministically ordered, trailing newline.

    Each fixed-shape value (elements, leq, cut, assignment, and the
    metadata's constraints and cut_origins in the shape synthesis writes)
    is one join of fixed pieces and columns (`_rows`), with no string
    built per row; `dump_json` adds the rest, with json.dumps's bytes.
    One `_plain` test over their strings picks pieces that carry the
    quotes, or that do not, when every string is escaped.  On taint-ladder
    this takes 1.8-2.0 ms, where a string per row took 2.9-3.4 ms; a spec
    of a few elements takes 20-35 us more: six joins against a few rows.
    """
    metadata = dict(spec.metadata)
    doc = {"format_version": FORMAT_VERSION, "mode": spec.mode, "elements": [], "leq": [], "assignment": {}, "cut": [],
           "default_element": spec.default_element, "metadata": metadata}
    shapes = {"constraints": lambda entry: _is_constraint(entry) and len(entry) == 2, "cut_origins": _is_cut_origin}
    recorded = {key: value for key, shaped in shapes.items()
                if isinstance(value := metadata.get(key), list) and all(map(shaped, value))}
    metadata.update(dict.fromkeys(recorded, []))
    members = list(map(sorted, map(attrgetter("members"), spec.elements)))
    assignment, cut, covers = sorted(spec.assignment.items()), sorted(spec.cut), _cover_indices(spec)
    constraints, origins = recorded.get("constraints", ()), recorded.get("cut_origins", ())
    ids, paths = list(map(itemgetter("id"), constraints)), list(map(itemgetter("nodes"), constraints))
    edges, causes = list(map(itemgetter(0), origins)), list(map(itemgetter(1), origins))
    strings = chain(spec.names, ids, *map(chain.from_iterable, (members, assignment, cut, paths, edges, causes)))
    q = '"' if _plain("".join(strings)) else ""
    cells = iter if q else partial(map, _str)  # a column of strings as it is written
    names = list(cells(spec.names))
    first, second = itemgetter(0), itemgetter(1)
    pair = f"    [\n      {q}\0{q},\n      {q}\0{q}\n    ]"
    rows = {
        "elements": _rows(
            f'    {{\n      "members": \0\0\0,\n      "name": {q}\0{q},\n      "synthetic": \0\n    }}',
            *_lists(members, 8, q), names,
            map(("false", "true").__getitem__, map(attrgetter("synthetic"), spec.elements)),
        ),
        "leq": _rows(pair, map(names.__getitem__, map(first, covers)), map(names.__getitem__, map(second, covers))),
        "assignment": _rows(f"    {q}\0{q}: {q}\0{q}", cells(map(first, assignment)), cells(map(second, assignment))),
        "cut": _rows(pair, cells(map(first, cut)), cells(map(second, cut))),
        ("metadata", "constraints"): _rows(
            f'      {{\n        "id": {q}\0{q},\n        "nodes": \0\0\0\n      }}', cells(ids), *_lists(paths, 10, q)
        ),
        ("metadata", "cut_origins"): _rows(
            f"      [\n        [\n          {q}\0{q},\n          {q}\0{q}\n        ],\n        \0\0\0\n      ]",
            cells(map(first, edges)), cells(map(second, edges)), *_lists(causes, 10, q),
        ),
    }
    return dump_json(doc, {key: value for key, value in rows.items() if isinstance(key, str) or key[1] in recorded})


@cache
def _template(row: str) -> tuple:
    """`row` split at its NULs: the head, what goes between two items (as
    a column), the tail, and the pieces between cells (as columns)."""
    head, *middle, tail = row.split("\0")
    return head, repeat(f"{tail},\n{head}"), tail, tuple(map(repeat, middle))


def _rows(row: str, *columns) -> list[str]:
    """The items of a fixed-shape value for `dump_json` as one row: `row` is
    an item with a NUL for each cell, `columns` hold one cell per item."""
    head, between, tail, pieces = _template(row)
    cells = zip(chain((head,), between), *chain.from_iterable(zip(columns, pieces)), columns[-1])
    text = "".join(chain.from_iterable(cells))
    return [text + tail] if text else []


def _lists(lists: list, indent: int, q: str) -> tuple:
    """Three columns that write each list of strings as json.dumps does, its
    items `indent` spaces in and escaped unless `q` is a quote."""
    pad = "\n" + " " * indent
    empty = list(map(not_, lists))
    items = lists if q else map(map, repeat(_str), lists)
    return (map((f"[{pad}{q}", "[").__getitem__, empty), map(f"{q},{pad}{q}".join, items),
            map((f"{q}{pad[:-2]}]", "]").__getitem__, empty))


def load_analysis(text: str) -> AnalysisSpec:
    """Parse and law-check a serialized analysis.

    Raises ParseError for JSON syntax errors and InvalidAnalysisError for
    schema or order-law failures (the CLI maps the latter to exit 3).
    """
    doc = load_json(text)
    if not isinstance(doc, dict):
        raise InvalidAnalysisError("analysis document must be a JSON object")
    required = {"mode", "elements", "leq", "assignment", "cut", "default_element", "metadata"}
    missing = sorted(required - set(doc))
    if missing:
        raise InvalidAnalysisError(f"analysis document missing field(s): {', '.join(missing)}")
    version = _format_version(doc)
    if doc["mode"] not in ("qualifier", "effect"):
        raise InvalidAnalysisError(f"unknown mode {doc['mode']!r}")
    for key in ("elements", "leq", "cut"):
        if not isinstance(doc[key], list):
            raise InvalidAnalysisError(f"'{key}' must be an array")

    elements = []
    names: set[str] = set()
    for raw in doc["elements"]:
        if not isinstance(raw, dict) or not raw.keys() >= {"name", "members", "synthetic"}:
            raise InvalidAnalysisError("element entries need name, members, synthetic")
        name, members = raw["name"], raw["members"]
        if not isinstance(name, str):
            raise InvalidAnalysisError(f"element name must be a string, got {name!r}")
        if name in names:
            raise InvalidAnalysisError(f"duplicate element name {name}")
        if not is_string_list(members):
            raise InvalidAnalysisError(f"members of element {name} must be an array of strings")
        if not isinstance(raw["synthetic"], bool):
            raise InvalidAnalysisError(f"synthetic flag of element {name} must be true or false")
        names.add(name)
        elements.append(Element(name, frozenset(members), raw["synthetic"]))

    owner: dict[str, str] = {}
    for element in elements:
        if not element.synthetic and not element.members:
            raise InvalidAnalysisError(f"non-synthetic element {element.name} has no members")
        overlap = [member for member in element.members if member in owner]
        if overlap:
            raise InvalidAnalysisError(
                f"element {element.name} shares members with another element: {sorted(overlap)}"
            )
        owner.update(dict.fromkeys(element.members, element.name))

    successors: dict[str, list[str]] = {name: [] for name in sorted(names)}
    for pair in doc["leq"]:
        if not is_string_pair(pair):
            raise InvalidAnalysisError("leq entries must be pairs of element names")
        a, b = pair
        if a not in names or b not in names:
            raise InvalidAnalysisError(f"leq pair references unknown element: {pair}")
        if a != b:
            successors[a].append(b)
    try:
        up = _upsets(successors)
    except CycleError:
        # the smallest element on a cycle, then the smallest one equivalent to it
        edges = [(a, b) for a, dsts in successors.items() for b in dsts]
        cycle = next(c for c in scc_condense(names, edges).components if len(c) > 1)
        a, b = sorted(cycle)[:2]
        raise InvalidAnalysisError(f"order is not antisymmetric: {a} and {b} are equivalent") from None

    assignment = doc["assignment"]
    if not isinstance(assignment, dict):
        raise InvalidAnalysisError("'assignment' must be an object")
    for node, target in assignment.items():
        if not isinstance(target, str) or target not in names:
            raise InvalidAnalysisError(f"assignment of {node} targets unknown element {target}")
        if owner.get(node, target) != target:
            raise InvalidAnalysisError(
                f"assignment of {node} targets {target}, but {node} is a member of {owner[node]}"
            )
    unassigned = sorted(owner.keys() - assignment.keys())
    if unassigned:
        node = unassigned[0]
        raise InvalidAnalysisError(f"{node} is a member of {owner[node]}, but has no assignment")
    default = doc["default_element"]
    if not isinstance(default, str) or default not in names:
        raise InvalidAnalysisError(f"default element {default!r} is not an element")

    cut = set()
    for pair in doc["cut"]:
        if not is_string_pair(pair):
            raise InvalidAnalysisError("cut entries must be pairs of node ids")
        cut.add((pair[0], pair[1]))

    ordered = list(successors)
    if doc["mode"] == "effect":
        _verify_bottom(ordered, up)
        if version == 1:
            _verify_joins(ordered, up)

    if not isinstance(doc["metadata"], dict):
        raise InvalidAnalysisError("'metadata' must be an object")

    return AnalysisSpec(
        mode=doc["mode"],
        elements=tuple(sorted(elements, key=lambda e: e.name)),
        up=tuple(up),
        assignment=dict(assignment),
        cut=frozenset(cut),
        default_element=default,
        metadata=doc["metadata"],
    )


def _format_version(doc: dict) -> int:
    """1 when the document has no format_version, else the integer 1 or 2
    it holds; any other value, `true` and `2.0` included, is an error."""
    version = doc.get("format_version", 1)
    if type(version) is not int or version not in (1, 2):
        if isinstance(version, (dict, list)):
            shown = "an object" if isinstance(version, dict) else "an array"
        else:
            shown = json.dumps(version)
        raise InvalidAnalysisError(f"format_version must be 1 or 2, got {shown}")
    return version


def _verify_bottom(names: list[str], up: list[int]) -> None:
    """Effect mode needs exactly one bottom: one element whose up-set holds
    every element."""
    bottoms = up.count((1 << len(names)) - 1)
    if bottoms != 1:
        raise InvalidAnalysisError(
            f"effect semilattice needs exactly one bottom element, found {bottoms}"
        )


def _verify_joins(names: list[str], up: list[int]) -> None:
    """A version 1 effect order needs a unique least upper bound for every
    pair of elements.  In an antisymmetric order, z is the least upper bound
    of a and b iff up[z] is their common upper bounds, up[a] & up[b]."""
    upsets = set(up)
    for i, a in enumerate(names):
        for j in range(i + 1, len(names)):
            if (up[i] & up[j]) not in upsets:
                raise InvalidAnalysisError(
                    f"elements {a} and {names[j]} lack a unique least upper bound"
                )
