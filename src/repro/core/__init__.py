"""The LyriC query language: parser, semantics, evaluator, views, and
the Section 5 translation to flat SQL with constraints."""

from repro.core import ast
from repro.core.evaluator import evaluate
from repro.core.parser import parse, parse_query, parse_view
from repro.core.result import QueryStream, ResultRow, ResultSet
from repro.core.semantics import AnalyzedQuery, analyze
from repro.core.translator import TranslationError, translate
from repro.core.views import ViewResult, create_view

__all__ = [
    "AnalyzedQuery",
    "QueryStream",
    "ResultRow",
    "ResultSet",
    "TranslationError",
    "ViewResult",
    "analyze",
    "ast",
    "create_view",
    "evaluate",
    "parse",
    "parse_query",
    "parse_view",
    "translate",
]
