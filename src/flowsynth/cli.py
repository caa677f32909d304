"""Command-line entry point: synth, check, expand, explain.

Exit codes: 0 success; 1 infeasible/conflict, or refinement hit its
iteration ceiling; 2 input parse/validation (including a negative
--max-exact-candidates, JSON nested too deeply, an integer too long to
convert, a string holding a lone surrogate and a file that is not UTF-8;
a parse error names the file), any other flowsynth error, and running out
of memory, which prints one `error: out of memory` line; 3 invalid
or inconsistent analysis, including malformed constraint records in the
metadata `explain` reads; 4 check found misses or false alarms.

A command runs with the cyclic garbage collector paused: what it builds
is acyclic, so reference counting frees it, and the collector would only
rescan the decoded corpus and the traces and verdicts made from it.

Log records of the `flowsynth` loggers go to stderr as `LEVEL: message`,
warnings and above; `-v` adds the DEBUG line of each refinement round.

In effect mode, `synth` draws the join completion in lattice.dot up to
DRAW_LIMIT elements from its walk (`completion_dot`, 1.0 ms against 1.5 ms
to build and draw the semilattice, on ui-effects), else the spec's order
with one warning.  The summary line counts the nodes drawn.
"""

from __future__ import annotations

import argparse
import functools
import gc
import logging
import sys
from dataclasses import replace
from itertools import compress, count
from json.encoder import encode_basestring as _str
from operator import itemgetter, not_
from pathlib import Path

from .checker import (
    AnalysisSpec,
    CheckReport,
    Verdict,
    check_corpus,
    dump_analysis,
    explain_rejection,
    load_analysis,
)
from .cut import AUTO, EXACT, GREEDY, PATH, SEPARATION, Conflict, SolverConfig
from .dot import completion_dot, drawn_counts, lattice_dot
from .errors import (
    FlowSynthError,
    InvalidAnalysisError,
    NotRejected,
    RefinementLimitError,
    ValidationError,
)
from .expand import EndpointSpec, enumerate_candidate_paths, parse_static_graph
from .pipeline import SynthesisResult, synthesize
from .traces import (
    EFFECT,
    QUALIFIER,
    WARNING,
    Corpus,
    _plain,
    corpus_digest,
    dump_json,
    parse_corpus,
    parse_file,
    serialize_corpus,
    stack_traces_from_dir,
)

EXIT_OK = 0
EXIT_CONFLICT = 1
EXIT_INPUT = 2
EXIT_INVALID_ANALYSIS = 3
EXIT_CHECK_FAILED = 4

# lattice.dot draws an effect order's join completion only up to this many
# elements: k independent two-element chains complete to 3**k of them.
DRAW_LIMIT = 4096

log = logging.getLogger("flowsynth")


class _StderrHandler(logging.Handler):
    """Writes each record as `LEVEL: message` to sys.stderr as it is at
    that moment, so that a caller that swaps sys.stderr between commands
    still gets the lines."""

    def __init__(self) -> None:
        super().__init__()
        self.setFormatter(logging.Formatter("%(levelname)s: %(message)s"))

    def emit(self, record: logging.LogRecord) -> None:
        try:
            print(self.format(record), file=sys.stderr)
        except Exception:
            self.handleError(record)


_STDERR = _StderrHandler()


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="flowsynth",
        description="Synthesize and apply program-specific flow analyses from trace corpora.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="also log one line per refinement round")
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="synthesize an analysis from a corpus")
    synth.add_argument("--corpus", type=Path, help="corpus JSON file")
    synth.add_argument("--stack-traces", type=Path, help="directory of *.neg.txt / *.pos.txt files")
    synth.add_argument("--mode", choices=[QUALIFIER, EFFECT], help="override the corpus mode")
    synth.add_argument("--semantics", choices=[SEPARATION, PATH], default=SEPARATION)
    synth.add_argument("--solver", choices=[AUTO, EXACT, GREEDY], default=SolverConfig.solver)
    synth.add_argument("--max-exact-candidates", type=int, default=SolverConfig.max_exact_candidates, metavar="N")
    synth.add_argument("--out", type=Path, required=True, help="output directory")

    check = sub.add_parser("check", help="check a corpus against a synthesized analysis")
    check.add_argument("--analysis", type=Path, required=True)
    check.add_argument("--corpus", type=Path, required=True)
    check.add_argument("--out", type=Path, required=True, help="output directory")

    expand = sub.add_parser("expand", help="expand endpoints into candidate negative traces")
    expand.add_argument("--static-graph", type=Path, required=True)
    expand.add_argument("--source", required=True)
    expand.add_argument("--sink", required=True)
    expand.add_argument("--max-path-len", type=int, default=EndpointSpec.max_path_len, metavar="N")
    expand.add_argument("--max-paths", type=int, default=EndpointSpec.max_paths, metavar="N")
    expand.add_argument("--out", type=Path, required=True, help="output corpus file")

    explain = sub.add_parser("explain", help="explain why the analysis rejects a trace")
    explain.add_argument("--analysis", type=Path, required=True)
    explain.add_argument("--trace-id", required=True)
    explain.add_argument("--corpus", type=Path, required=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    log.addHandler(_STDERR)  # once: a handler already there is not added again
    log.setLevel(logging.DEBUG if args.verbose else logging.WARNING)
    handlers = {
        "synth": run_synth,
        "check": run_check,
        "expand": run_expand,
        "explain": run_explain,
    }
    collecting = gc.isenabled()
    gc.disable()
    try:
        return handlers[args.command](args)
    except InvalidAnalysisError as exc:
        print(f"invalid analysis: {exc}", file=sys.stderr)
        return EXIT_INVALID_ANALYSIS
    except RefinementLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFLICT
    except (FlowSynthError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError:
        pass  # reported below, once the handler's frames and what they held are freed
    finally:
        if collecting:
            gc.enable()
    print("error: out of memory: the input is too large for the memory available", file=sys.stderr)
    return EXIT_INPUT


def _load_corpus_inputs(args) -> Corpus:
    if args.corpus is None and args.stack_traces is None:
        raise ValidationError("synth needs --corpus and/or --stack-traces")
    if args.corpus is not None:
        corpus = parse_file(parse_corpus, args.corpus)
    else:
        corpus = Corpus(mode=args.mode or QUALIFIER)
    if args.stack_traces is not None:
        corpus = replace(corpus, traces=corpus.traces + stack_traces_from_dir(args.stack_traces))
    if args.mode is not None and args.mode != corpus.mode:
        corpus = replace(corpus, mode=args.mode)
    return corpus


def run_synth(args) -> int:
    if args.max_exact_candidates < 0:
        raise ValidationError("--max-exact-candidates must be >= 0")
    corpus = _load_corpus_inputs(args)
    config = SolverConfig(solver=args.solver, max_exact_candidates=args.max_exact_candidates)
    try:
        result = synthesize(corpus, semantics=args.semantics, config=config)
    except ValidationError as exc:
        for diagnostic in exc.diagnostics:
            print(f"{diagnostic.severity}: {diagnostic.message}", file=sys.stderr)
        return EXIT_INPUT
    if isinstance(result, Conflict):
        _print_conflict(result, corpus)
        return EXIT_CONFLICT

    for diagnostic in result.diagnostics:
        if diagnostic.severity == WARNING:
            log.warning(diagnostic.message)

    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    (out / "analysis.json").write_text(dump_analysis(result.spec), encoding="utf-8")
    dot = completion_dot(result.order, DRAW_LIMIT) if result.corpus.mode == EFFECT else lattice_dot(result.order)
    if dot is None:
        log.warning(
            "the join completion has more than %d elements; lattice.dot draws only the generators and the bottom",
            DRAW_LIMIT,
        )
        dot = lattice_dot(result.spec)
    (out / "lattice.dot").write_bytes(dot)
    # the digest make_analysis_spec already took of this corpus
    report = _report_json(result.report, result.spec.metadata["corpus_sha256"], result.spec)
    (out / "report.json").write_text(report, encoding="utf-8")
    _print_summary(result, dot, out)

    if result.violations:
        print("internal consistency violations:", file=sys.stderr)
        for violation in result.violations:
            print(f"  {violation}", file=sys.stderr)
        return EXIT_INVALID_ANALYSIS
    return EXIT_OK


def run_check(args) -> int:
    spec = parse_file(load_analysis, args.analysis)
    corpus = parse_file(parse_corpus, args.corpus)
    digest = corpus_digest(corpus)
    if spec.metadata.get("corpus_sha256") not in (None, digest):
        log.warning("corpus digest does not match the one recorded in the analysis")
    report = check_corpus(spec, corpus)
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / "report.json").write_text(_report_json(report, digest, spec), encoding="utf-8")
    print(
        f"checked {len(report.verdicts)} trace(s): "
        f"{report.negatives_rejected} negative(s) rejected, {report.misses} miss(es), "
        f"{report.positives_accepted} positive(s) accepted, {report.false_alarms} false alarm(s)"
    )
    return EXIT_OK if report.clean else EXIT_CHECK_FAILED


def run_expand(args) -> int:
    graph = parse_file(parse_static_graph, args.static_graph)
    for role, node in (("source", args.source), ("sink", args.sink)):
        if node not in graph.nodes:
            raise ValidationError(f"--{role} {node} is not a node of the static graph")
    spec = EndpointSpec(args.source, args.sink, args.max_path_len, args.max_paths)
    result = enumerate_candidate_paths(graph, spec)
    corpus = Corpus(
        mode=QUALIFIER,
        traces=result.traces,
        metadata={
            "origin": "static-expansion",
            "source": args.source,
            "sink": args.sink,
            "max_path_len": args.max_path_len,
            "max_paths": args.max_paths,
            "truncated": result.truncated,
        },
    )
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(serialize_corpus(corpus), encoding="utf-8")
    note = " (truncated)" if result.truncated else ""
    print(f"wrote {len(result.traces)} candidate negative trace(s){note} to {args.out}")
    return EXIT_OK


def run_explain(args) -> int:
    spec = parse_file(load_analysis, args.analysis)
    corpus = parse_file(parse_corpus, args.corpus)
    matches = [trace for trace in corpus.traces if trace.id == args.trace_id]
    if not matches:
        raise ValidationError(f"trace id {args.trace_id!r} not found in corpus")
    trace = matches[0]
    try:
        explanation = explain_rejection(spec, trace)
    except NotRejected:
        print(f"trace {trace.id} is accepted; nothing to explain")
        return EXIT_OK
    src, dst = explanation.violating_edge
    print(f"trace {explanation.trace_id} rejected at edge {explanation.violation_index}: {src} -> {dst}")
    print(f"  {explanation.non_relation}")
    for edge in explanation.separating_cut_edges:
        print(f"  separated by cut edge: {edge[0]} -> {edge[1]}")
    for origin_id, nodes in explanation.origins:
        if nodes:
            print(f"  forced by constraint {origin_id}: {' -> '.join(nodes)}")
        else:
            print(f"  forced by constraint {origin_id}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Output helpers

def _print_conflict(conflict: Conflict, corpus: Corpus) -> None:
    source, sink = conflict.pair
    print(f"conflict: cannot separate {source} -> {sink}", file=sys.stderr)
    if conflict.negative_ids:
        print(f"  negative trace(s): {', '.join(conflict.negative_ids)}", file=sys.stderr)
    print(f"  protected witness path: {' -> '.join(conflict.witness)}", file=sys.stderr)
    # each witness edge as build_graph judges it: enough positives, else required
    holders = {key: [] for key in zip(conflict.witness, conflict.witness[1:])}
    for trace in corpus.positives:
        for key in holders.keys() & zip(trace.nodes, trace.nodes[1:]):
            holders[key].append(trace.id)
    supported, required = set(), []
    for key, ids in holders.items():
        if len(ids) >= corpus.min_positive_support:
            supported.update(ids)
        elif key in corpus.required_edges:
            required.append(key)
    if supported:
        print(f"  protected by positive trace(s): {', '.join(sorted(supported))}", file=sys.stderr)
    if required:
        edges = ", ".join(f"{src} -> {dst}" for src, dst in required)
        print(f"  required edge(s): {edges}", file=sys.stderr)


def _print_summary(result: SynthesisResult, dot: bytes, out: Path) -> None:
    graph = result.graph
    protected = len(graph.protected)
    cut_edges = ", ".join(map(" -> ".join, sorted(result.cut.edges))) or "(none)"
    elements, synthetic = drawn_counts(dot)
    report = result.report
    print(f"mode: {result.corpus.mode}")
    print(f"graph: {len(graph.nodes)} node(s), {len(graph.edges)} edge(s), {protected} protected")
    print(
        f"cut: {len(result.cut.edges)} edge(s) [{cut_edges}] "
        f"iterations={result.cut.iterations} optimal={str(result.cut.optimal).lower()}"
    )
    print(f"lattice: {elements} element(s), {synthetic} synthetic")
    print(
        f"report: {report.negatives_rejected}/{report.negatives_rejected + report.negatives_accepted} "
        f"negative(s) rejected, "
        f"{report.positives_accepted}/{report.positives_accepted + report.positives_rejected} "
        f"positive(s) accepted"
    )
    print(f"wrote: {out / 'analysis.json'} {out / 'lattice.dot'} {out / 'report.json'}")


# a rejected element of report.json's "verdicts" array, keys in sorted order
_REJECTED_ROW = (
    '    {\n      "accepted": false,\n      "trace_id": %s,\n      "violation": {\n'
    '        "edge": [\n          %s,\n          %s\n        ],\n        "index": %d,\n'
    '        "source_element": %s,\n        "target_element": %s\n      }\n    }'
)


def _rejected_row(verdict: Verdict) -> str:
    trace_id, _, index, (src, dst), source, target = verdict
    return _REJECTED_ROW % (_str(trace_id), _str(src), _str(dst), index, _str(source), _str(target))


def _report_json(report: CheckReport, digest: str, spec: AnalysisSpec) -> str:
    """report.json: the summary, both digests and one row per verdict, the
    bytes of `json.dumps(..., sort_keys=True, indent=2, ensure_ascii=False)`.
    The accepted rows between two rejections are one join over their ids,
    with pieces that carry the quotes when a `_plain` test of all ids
    passes.  On taint-ladder this takes 0.85-1.0 ms, where a string per
    row took 1.2-1.3 ms."""
    doc = {
        "summary": {
            "traces": len(report.verdicts),
            "negatives_rejected": report.negatives_rejected,
            "negatives_accepted": report.negatives_accepted,
            "positives_accepted": report.positives_accepted,
            "positives_rejected": report.positives_rejected,
        },
        "corpus_sha256": digest,
        "analysis_corpus_sha256": spec.metadata.get("corpus_sha256"),
        "verdicts": [],
    }
    verdicts = report.verdicts
    ids = list(map(itemgetter(0), verdicts))
    q = '"' if _plain("".join(ids)) else ""
    ids = ids if q else list(map(_str, ids))
    head, tail = f'    {{\n      "accepted": true,\n      "trace_id": {q}', f"{q}\n    }}"
    between = f"{tail},\n{head}"
    rows, start = [], 0
    for k in compress(count(), map(not_, map(itemgetter(1), verdicts))):
        if start < k:
            rows.append(f"{head}{between.join(ids[start:k])}{tail}")
        rows.append(_rejected_row(verdicts[k]))
        start = k + 1
    if start < len(ids):
        rows.append(f"{head}{between.join(ids[start:])}{tail}")
    return dump_json(doc, {"verdicts": rows})


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
