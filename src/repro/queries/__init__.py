"""Query model: variables, atoms, conjunctive queries, parser, catalog."""

from .query import Atom, Query, Variable, ivar, make_query, pvar
from .parser import parse_query, query_text
from . import catalog

__all__ = [
    "Atom",
    "Query",
    "Variable",
    "ivar",
    "make_query",
    "pvar",
    "parse_query",
    "query_text",
    "catalog",
]
