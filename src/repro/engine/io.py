"""The one tagged-JSON value codec, and databases as JSON files.

The service wire, the reduction cache and database files all write
attribute values with this codec::

    value                    JSON
    Interval(l, r)           {"interval": [l, r]}  (l, r: int | float, l <= r)
    nested tuple (a, b)      {"tuple": [a', b']}
    None/bool/int/float/str  itself

Encode and decode accept the same values.  NaN is refused, ±inf kept
(``json`` writes it as ``Infinity``).  Endpoints are never cast: an
``int`` past 2**53 stays exact, so distinct endpoints never merge.
Anything else is a :class:`CodecError`.  A database is relation name →
``{"schema": [...], "tuples": [[value, ...], ...]}``; the file functions
write and read that object, checked against a query's schema when one
is given.  The wire adds its own rule on top (finite numbers only,
:mod:`repro.service.protocol`).
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Sequence

from ..intervals.interval import Interval
from ..queries.query import Query
from .relation import Database, Relation


class CodecError(ValueError):
    """A value, tuple or database the codec cannot write or read."""


def is_finite_number(value: Any) -> bool:
    """A finite ``int`` or ``float``.  ``bool`` is an ``int`` to Python
    but not a number here."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return isinstance(value, int) or math.isfinite(value)


def _is_scalar(value: Any) -> bool:
    # a JSON scalar that passes through untagged; NaN stops here
    if isinstance(value, float) and value != value:
        raise CodecError("NaN is refused: it equals nothing, itself included")
    return value is None or isinstance(value, (bool, int, float, str))


def _is_endpoint(value: Any) -> bool:
    # an int or float, not a bool, not NaN (NaN != NaN)
    return not isinstance(value, bool) and isinstance(value, (int, float)) and value == value


def encode_value(value: Any) -> Any:
    """One attribute value as a JSON-safe object (tagged for intervals
    and nested tuples)."""
    if isinstance(value, Interval):
        if _is_endpoint(value.left) and _is_endpoint(value.right):
            return {"interval": [value.left, value.right]}
    elif isinstance(value, tuple):
        return {"tuple": [encode_value(v) for v in value]}
    elif _is_scalar(value):
        return value
    raise CodecError(f"value {value!r} has no encoding")


def decode_value(value: Any) -> Any:
    """Inverse of :func:`encode_value`, validating as it goes."""
    if isinstance(value, dict):
        if set(value) == {"interval"}:
            ends = value["interval"]
            if (
                isinstance(ends, list)
                and len(ends) == 2
                and _is_endpoint(ends[0])
                and _is_endpoint(ends[1])
                and ends[0] <= ends[1]
            ):
                return Interval(ends[0], ends[1])
            raise CodecError(
                f"an interval is two numbers [left, right], not NaN, with "
                f"left <= right, got {ends!r}"
            )
        if set(value) == {"tuple"}:
            return decode_tuple(value["tuple"])
        raise CodecError(f"unknown tagged value {value!r}")
    if _is_scalar(value):
        return value
    raise CodecError(f"cannot decode value {value!r}")


def encode_tuple(t: Sequence[Any]) -> list:
    """A database tuple as a JSON array of encoded values."""
    return [encode_value(v) for v in t]


def decode_tuple(values: Any) -> tuple:
    if not isinstance(values, list):
        raise CodecError(f"tuple payload must be a list, got {values!r}")
    return tuple(decode_value(v) for v in values)


def encode_database(db: Database) -> dict:
    """A whole database as a JSON-safe snapshot: relation name →
    ``{"schema": [...], "tuples": [[tagged values], ...]}``."""
    return {
        relation.name: {
            "schema": list(relation.schema),
            "tuples": [encode_tuple(t) for t in relation.tuples],
        }
        for relation in db
    }


def decode_database(payload: Any) -> Database:
    """Inverse of :func:`encode_database`."""
    if not isinstance(payload, dict):
        raise CodecError(f"database payload must be an object, got {payload!r}")
    db = Database()
    for name, body in payload.items():
        if not isinstance(body, dict) or set(body) != {"schema", "tuples"}:
            raise CodecError(
                f"relation {name!r} must carry exactly 'schema' and 'tuples'"
            )
        schema = body["schema"]
        if not isinstance(schema, list) or not all(
            isinstance(a, str) for a in schema
        ):
            raise CodecError(f"relation {name!r} schema must be a list of names")
        tuples = body["tuples"]
        if not isinstance(tuples, list):
            raise CodecError(f"relation {name!r} tuples must be a list")
        try:
            db.add(Relation(name, schema, [decode_tuple(t) for t in tuples]))
        except ValueError as error:
            raise CodecError(f"relation {name!r}: {error}") from error
    return db


def save_database_json(db: Database, path: str | Path) -> None:
    """Write a whole database as one JSON document (the codec's
    snapshot), its tuples sorted so that the file does not depend on
    set order."""
    payload = encode_database(db)
    for body in payload.values():
        body["tuples"].sort(key=json.dumps)
    Path(path).write_text(json.dumps(payload, indent=1, sort_keys=True))


def load_database_json(path: str | Path, query: Query | None = None) -> Database:
    """Read a database written by :func:`save_database_json`; with a
    ``query``, a database :func:`validate_database` finds fault with is
    a ``ValueError`` naming every problem."""
    db = decode_database(json.loads(Path(path).read_text()))
    if query is not None:
        problems = validate_database(query, db)
        if problems:
            raise ValueError(f"{path}: " + "; ".join(problems))
    return db


def validate_database(query: Query, db: Database) -> list[str]:
    """Schema/type validation of a database against a query.

    Returns a list of human-readable problems (empty = valid): missing
    relations, arity mismatches, non-interval values under interval
    variables, and interval values under point variables.
    """
    problems: list[str] = []
    for atom in query.atoms:
        if atom.relation not in db:
            problems.append(f"missing relation {atom.relation!r}")
            continue
        relation = db[atom.relation]
        if relation.arity != len(atom.variables):
            problems.append(
                f"{atom.relation}: arity {relation.arity} but atom "
                f"{atom.label} has {len(atom.variables)} variables"
            )
            continue
        # the first value of the wrong kind, if any: one problem per atom
        for v, value in (
            (v, value)
            for t in relation.tuples
            for v, value in zip(atom.variables, t)
            if v.is_interval != isinstance(value, Interval)
        ):
            if v.is_interval:
                problem = f"non-interval value {value!r} under interval variable"
            else:
                problem = f"interval value {value!r} under point variable"
            problems.append(f"{atom.relation}.{v.name}: {problem}")
            break
    return problems
