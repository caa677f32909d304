"""Exception types shared across the package."""

from __future__ import annotations


class FlowSynthError(Exception):
    """Base class for every error raised by this package."""


class ParseError(FlowSynthError):
    """A document could not be parsed; carries line/column when known."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        if line is not None:
            where = f"line {line}" if column is None else f"line {line}, column {column}"
            message = f"{message} ({where})"
        super().__init__(message)
        self.line = line
        self.column = column


class ValidationError(FlowSynthError):
    """Well-formed input that violates a schema or corpus rule."""

    def __init__(self, message: str, diagnostics: tuple = ()):
        super().__init__(message)
        self.diagnostics = diagnostics


class UnknownNode(FlowSynthError):
    """A node id was referenced that the graph does not contain."""


class UnknownElement(FlowSynthError):
    """An element name was referenced that the lattice does not contain."""


class CycleError(FlowSynthError):
    """An operation requiring an acyclic input was given a cycle."""


class InfeasibleSet(FlowSynthError):
    """A hitting-set constraint became empty after removing forbidden edges."""

    def __init__(self, index: int):
        super().__init__(f"constraint set {index} has no allowed edges")
        self.index = index


class NotRejected(FlowSynthError):
    """explain_rejection was called on a trace the analysis accepts."""


class InvalidAnalysisError(FlowSynthError):
    """A serialized analysis failed schema or order-law verification on load."""


class RefinementLimitError(FlowSynthError):
    """The lazy-refinement loop exceeded its iteration ceiling."""
