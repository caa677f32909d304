"""End-to-end synthesis: corpus -> graph -> cut -> lattice -> analysis."""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from . import __version__
from .checker import QUALIFIER_DEFAULT, AnalysisSpec, CheckReport, check_corpus
from .cut import SEPARATION, Conflict, CutSet, SolverConfig, solve_synthesis_cut
from .errors import ValidationError
from .graph import FlowGraph, _covers, build_graph
from .lattice import (
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
    corpus: Corpus
    diagnostics: tuple[Diagnostic, ...]
    graph: FlowGraph
    cut: CutSet
    order: QualifierOrder
    semilattice: EffectSemilattice | None
    violations: tuple[Violation, ...]
    spec: AnalysisSpec
    report: CheckReport

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
    semilattice = complete_join_semilattice(order) if corpus.mode == EFFECT else None
    final = semilattice if semilattice is not None else order
    violations = check_consistency(final, outcome.edges, graph.negative_pairs)
    spec = make_analysis_spec(corpus, outcome, final, config, semantics)
    report = check_corpus(spec, corpus)
    return SynthesisResult(
        corpus=corpus,
        diagnostics=diagnostics,
        graph=graph,
        cut=outcome,
        order=order,
        semilattice=semilattice,
        violations=violations,
        spec=spec,
        report=report,
    )


def make_analysis_spec(
    corpus: Corpus,
    cut: CutSet,
    lattice: QualifierOrder,
    config: SolverConfig,
    semantics: str,
) -> AnalysisSpec:
    """Bundle the synthesized lattice and cut into a serializable spec.

    Unknown nodes default to a fresh maximal element in qualifier mode
    (conservative: related only to itself) and to bottom in effect mode.
    An effect spec keeps only the elements a check can reach, the
    generators and the bottom, and the order among them: a node maps to a
    generator or to the default, so no verdict reads a synthetic join.
    Either way the spec's elements stay in name order, so its up-sets
    are the lattice's, renumbered.
    """
    if isinstance(lattice, EffectSemilattice):
        default = lattice.bottom
        kept = [p for p, e in enumerate(lattice.elements) if not e.synthetic or e.name == default]
        elements = [lattice.elements[p] for p in kept]
        # each kept element's up-set among the kept ones
        up = [sum(1 << k for k, q in enumerate(kept) if lattice.up[p] >> q & 1) for p in kept]
        covers = _covers([e.name for e in elements], up)
    else:
        default = QUALIFIER_DEFAULT
        names = lattice.names
        while default in lattice.index:
            default += "'"
        # the default goes in at its name position k, related only to itself
        k = bisect_left(names, default)
        below = (1 << k) - 1
        up = [(mask & below) | (mask >> k << (k + 1)) for mask in lattice.up]
        up.insert(k, 1 << k)
        elements = list(lattice.elements)
        elements.insert(k, Element(default, frozenset(), synthetic=True))
        covers = lattice.covers

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
        mode=corpus.mode,
        elements=tuple(elements),
        up=tuple(up),
        assignment=dict(lattice.assignment),
        cut=frozenset(cut.edges),
        default_element=default,
        metadata=metadata,
        covers=covers,
    )

