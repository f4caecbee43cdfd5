"""Static analysis for the reproduction: query linting and graph
schema validation.

The query side (:class:`QueryLinter`) checks parsed Cypher against the
ontology without executing it; the data side (:class:`GraphValidator`)
sweeps a loaded store for coded violations grouped per crawler; the code
side (:class:`ConcurrencyAnalyzer`) checks the serving stack's own lock
discipline (``RACE001``-``RACE007``).  All emit stable codes documented
in ``documentation/linting.md``.
"""

from repro.lint.concurrency import (
    ConcurrencyAnalyzer,
    analyze_paths,
    analyze_source,
    default_targets,
)
from repro.lint.diagnostics import (
    CODES,
    SEVERITIES,
    Diagnostic,
    diagnostic,
    fails_strict,
    worst_severity,
)
from repro.lint.extract import (
    extract_from_markdown,
    extract_from_python,
    extract_queries,
    looks_like_cypher,
)
from repro.lint.linter import QueryLinter, lint_query
from repro.lint.schema import (
    GRAPH_BUCKET,
    SCHEMA_CODES,
    UNKNOWN_BUCKET,
    GraphValidationReport,
    GraphValidator,
    SchemaViolation,
    touched_entities,
)

__all__ = [
    "CODES",
    "ConcurrencyAnalyzer",
    "GRAPH_BUCKET",
    "UNKNOWN_BUCKET",
    "Diagnostic",
    "GraphValidationReport",
    "GraphValidator",
    "QueryLinter",
    "SCHEMA_CODES",
    "SEVERITIES",
    "SchemaViolation",
    "analyze_paths",
    "analyze_source",
    "default_targets",
    "diagnostic",
    "extract_from_markdown",
    "extract_from_python",
    "extract_queries",
    "fails_strict",
    "lint_query",
    "looks_like_cypher",
    "touched_entities",
    "worst_severity",
]
