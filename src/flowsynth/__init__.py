"""flowsynth: synthesize program-specific static analyses from traces.

Corpora of positive and negative program traces (data-flow paths or stack
traces) are turned into a minimal set of prohibited flow edges, a
qualifier/effect assignment for program nodes, a partial order over the
qualifiers, and (in effect mode) a join semilattice, plus a checker that
validates traces against a synthesized analysis.
"""

__version__ = "0.1.0"

from .errors import (
    CycleError,
    FlowSynthError,
    InfeasibleSet,
    InvalidAnalysisError,
    NotRejected,
    ParseError,
    RefinementLimitError,
    UnknownElement,
    UnknownNode,
    ValidationError,
)
from .traces import (
    Corpus,
    Diagnostic,
    Trace,
    corpus_digest,
    corpus_errors,
    parse_corpus,
    parse_stack_trace,
    serialize_corpus,
    stack_traces_from_dir,
    trace_edges,
    validate_corpus,
)
from .graph import (
    Condensation,
    FlowGraph,
    build_graph,
    hasse_reduce,
    scc_condense,
)
from .cut import (
    Conflict,
    CutSet,
    PathConstraint,
    SolverConfig,
    min_hitting_set_exact,
    min_hitting_set_greedy,
    solve_synthesis_cut,
    verify_separation,
)
from .lattice import (
    EffectSemilattice,
    Element,
    QualifierOrder,
    Violation,
    build_order,
    check_consistency,
    complete_join_semilattice,
    join,
    order_query,
)
from .checker import (
    AnalysisSpec,
    CheckReport,
    Explanation,
    Verdict,
    check_corpus,
    check_trace,
    dump_analysis,
    explain_rejection,
    load_analysis,
)
from .expand import (
    EndpointSpec,
    ExpansionResult,
    StaticGraph,
    enumerate_candidate_paths,
    parse_static_graph,
)
from .pipeline import SynthesisResult, make_analysis_spec, synthesize
from .dot import lattice_dot

__all__ = [
    "__version__",
    "AnalysisSpec",
    "CheckReport",
    "Condensation",
    "Conflict",
    "Corpus",
    "CutSet",
    "CycleError",
    "Diagnostic",
    "EffectSemilattice",
    "Element",
    "EndpointSpec",
    "ExpansionResult",
    "Explanation",
    "FlowGraph",
    "FlowSynthError",
    "InfeasibleSet",
    "InvalidAnalysisError",
    "NotRejected",
    "ParseError",
    "PathConstraint",
    "QualifierOrder",
    "RefinementLimitError",
    "SolverConfig",
    "StaticGraph",
    "SynthesisResult",
    "Trace",
    "UnknownElement",
    "UnknownNode",
    "ValidationError",
    "Verdict",
    "Violation",
    "build_graph",
    "build_order",
    "check_consistency",
    "check_corpus",
    "check_trace",
    "complete_join_semilattice",
    "corpus_digest",
    "corpus_errors",
    "dump_analysis",
    "enumerate_candidate_paths",
    "explain_rejection",
    "hasse_reduce",
    "join",
    "lattice_dot",
    "load_analysis",
    "make_analysis_spec",
    "min_hitting_set_exact",
    "min_hitting_set_greedy",
    "order_query",
    "parse_corpus",
    "parse_stack_trace",
    "parse_static_graph",
    "scc_condense",
    "serialize_corpus",
    "solve_synthesis_cut",
    "stack_traces_from_dir",
    "synthesize",
    "trace_edges",
    "validate_corpus",
    "verify_separation",
]
