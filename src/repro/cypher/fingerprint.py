"""Query fingerprinting: one stable identity per query *shape*.

The statement-statistics registry (:mod:`repro.obs.statements`) needs to
aggregate "the same query" across requests that differ only in literal
values, parameter names, whitespace, or keyword casing — exactly what
PostgreSQL's ``pg_stat_statements`` does by normalizing the parse tree.
This module is the reproduction's version of that normalization, working
on the already-parsed :mod:`repro.cypher.ast`:

- every :class:`~repro.cypher.ast.Literal` renders as ``?``;
- every :class:`~repro.cypher.ast.Parameter` renders as ``$?`` (two
  textually different parameter names are one statement shape — the
  value bound at run time never enters the fingerprint);
- everything else (labels, relationship types, property keys, variable
  names, functions, clause structure) renders canonically, so it *does*
  distinguish statements.

Whitespace and keyword case are already gone by parse time, so
``match (a:AS) return a`` and ``MATCH  (a:AS)  RETURN a`` share a tree
and therefore a fingerprint.

The fingerprint is the first 12 hex chars of the SHA-256 of the
normalized text; the normalized text itself is kept alongside as the
human-readable exemplar shown by ``GET /debug/statements`` and
``repro top``.
"""

from __future__ import annotations

import hashlib

from repro.cypher import ast
from repro.cypher.render import MASKED

#: Hex chars of SHA-256 kept as the fingerprint (48 bits: collision-safe
#: for any realistic statement population, short enough to eyeball).
FINGERPRINT_HEX_CHARS = 12


def fingerprint_query(tree: ast.Query) -> tuple[str, str]:
    """``(fingerprint, normalized text)`` for one parsed query."""
    normalized = normalize_query(tree)
    digest = hashlib.sha256(normalized.encode("utf-8")).hexdigest()
    return digest[:FINGERPRINT_HEX_CHARS], normalized


def normalize_query(tree: ast.Query) -> str:
    """Render a parsed query canonically with literals/params masked."""
    return MASKED.query(tree)
