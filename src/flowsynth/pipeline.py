"""End-to-end synthesis: corpus -> graph -> cut -> lattice -> analysis."""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property

from . import __version__
from .checker import QUALIFIER_DEFAULT, AnalysisSpec, CheckReport, check_corpus
from .cut import SEPARATION, Conflict, CutSet, SolverConfig, solve_synthesis_cut
from .errors import ValidationError
from .graph import FlowGraph, build_graph
from .lattice import (
    BOTTOM_NAME,
    Element,
    EffectSemilattice,
    QualifierOrder,
    Violation,
    build_order,
    check_consistency,
    complete_join_semilattice,
)
from .traces import (
    EFFECT,
    Corpus,
    Diagnostic,
    Edge,
    corpus_digest,
    corpus_errors,
    validate_corpus,
)


@dataclass(frozen=True)
class SynthesisResult:
    """What a synthesis made.  In effect mode, the join completion of
    `order` is made only when it is asked for: `semilattice` builds it on
    first read, and `completion` on every call, up to a size limit."""

    corpus: Corpus
    diagnostics: tuple[Diagnostic, ...]
    graph: FlowGraph
    cut: CutSet
    order: QualifierOrder
    violations: tuple[Violation, ...]
    spec: AnalysisSpec
    report: CheckReport

    def completion(self, limit: int | None = None) -> EffectSemilattice | None:
        """The join completion of an effect order; None in qualifier mode
        or when it has more than `limit` elements."""
        if self.corpus.mode != EFFECT:
            return None
        return complete_join_semilattice(self.order, limit)

    @cached_property
    def semilattice(self) -> EffectSemilattice | None:
        return self.completion()

    @property
    def lattice(self) -> QualifierOrder:
        return self.semilattice if self.semilattice is not None else self.order


def synthesize(
    corpus: Corpus,
    semantics: str = SEPARATION,
    config: SolverConfig = SolverConfig(),
) -> SynthesisResult | Conflict:
    """Run the full pipeline.  Raises ValidationError (carrying the
    diagnostics) on corpus errors; returns the cut solver's Conflict when
    some negative flow cannot be broken."""
    diagnostics = validate_corpus(corpus)
    errors = corpus_errors(diagnostics)
    if errors:
        raise ValidationError(
            "; ".join(d.message for d in errors), diagnostics=diagnostics
        )

    graph = build_graph(corpus)
    outcome = solve_synthesis_cut(graph, semantics, config)
    if isinstance(outcome, Conflict):
        return outcome

    order = build_order(graph, outcome.edges)
    # the cut's endpoints map to generators, which embed order-faithfully
    # in the completion: the order gives the same violations
    violations = check_consistency(order, outcome.edges, graph.negative_pairs)
    spec = make_analysis_spec(corpus, outcome, order, config, semantics)
    report = check_corpus(spec, corpus)
    return SynthesisResult(
        corpus=corpus,
        diagnostics=diagnostics,
        graph=graph,
        cut=outcome,
        order=order,
        violations=violations,
        spec=spec,
        report=report,
    )


def make_analysis_spec(
    corpus: Corpus,
    cut: CutSet,
    order: QualifierOrder,
    config: SolverConfig,
    semantics: str,
) -> AnalysisSpec:
    """Bundle the synthesized order and the cut into a serializable spec.

    Unknown nodes map to a default element, inserted at its name position:
    in qualifier mode a fresh maximal element, related only to itself; in
    effect mode the bottom, covered by the minimal elements, so that no
    verdict reads a synthetic join.  A completed semilattice, whose joins
    and bottom are synthetic, raises ValueError.
    """
    if any(element.synthetic for element in order.elements):
        raise ValueError("make_analysis_spec takes the synthesized order, which has no synthetic elements")
    names = order.names
    effect = corpus.mode == EFFECT
    default = BOTTOM_NAME if effect else QUALIFIER_DEFAULT
    while default in order.index:
        default += "'"
    k = bisect_left(names, default)
    below = (1 << k) - 1
    up = [(mask & below) | (mask >> k << (k + 1)) for mask in order.up]
    # the default's up-set: every element for the bottom, else only itself
    up.insert(k, (2 << len(names)) - 1 if effect else 1 << k)
    elements = (*order.elements[:k], Element(default, frozenset(), synthetic=True), *order.elements[k:])
    covers = order.covers
    if covers is not None:
        # the elements from k on move up one place, which keeps the pairs ascending
        covers = [(p + (p >= k), q + (q >= k)) for p, q in covers]
        if effect:
            # the bottom is covered by each minimal element: the upper end of no cover
            covered = {q for _, q in order.covers}
            covers += [(k, p + (p >= k)) for p in range(len(names)) if p not in covered]
            covers.sort()
        covers = tuple(covers)

    origins: dict[Edge, list[str]] = {edge: [] for edge in sorted(cut.edges)}
    for constraint in cut.constraints:
        for edge in constraint.cuttable & cut.edges:
            origins[edge].append(constraint.id)
    metadata = {
        "corpus_sha256": corpus_digest(corpus),
        "optimal": cut.optimal,
        "semantics": semantics,
        "tool_version": __version__,
        "solver": config.solver,
        "max_exact_candidates": config.max_exact_candidates,
        "iterations": cut.iterations,
        "constraints": [
            {"id": c.id, "nodes": list(c.nodes)} for c in cut.constraints
        ],
        "cut_origins": [[list(edge), sorted(ids)] for edge, ids in origins.items()],
    }
    return AnalysisSpec(
        elements, tuple(up), dict(order.assignment), covers,
        mode=corpus.mode, cut=frozenset(cut.edges), default_element=default, metadata=metadata,
    )

