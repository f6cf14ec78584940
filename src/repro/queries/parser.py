"""A small text syntax for queries.

Example::

    parse_query("R([A], [B]) ∧ S([B], [C]) ∧ T([A], [C])")

``[A]`` denotes an interval variable, ``A`` a point variable; atoms are
separated by ``∧``, ``/\\``, ``&&`` or commas at the top level.  Repeated
relation names become self-join atoms labelled ``R``, ``R#2``, ...
"""

from __future__ import annotations

import re

from .query import Query, Variable, ivar, make_query, pvar

_ATOM_RE = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*)\s*\(([^()]*)\)\s*")
_IVAR_RE = re.compile(r"^\[\s*([A-Za-z_][A-Za-z0-9_]*)\s*\]$")
_PVAR_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)$")


def parse_query(text: str, name: str = "Q") -> Query:
    """Parse the textual query syntax into a :class:`Query`."""
    body = text
    if ":=" in body:
        name_part, body = body.split(":=", 1)
        name = name_part.strip() or name
    normalized = (
        body.replace("∧", "&").replace("/\\", "&").replace("&&", "&")
    )
    atom_texts = _split_atoms(normalized)
    atoms: list[tuple[str, list[Variable]]] = []
    for atom_text in atom_texts:
        match = _ATOM_RE.fullmatch(atom_text)
        if not match:
            raise ValueError(f"cannot parse atom: {atom_text!r}")
        relation, args = match.groups()
        variables = [_parse_variable(a) for a in args.split(",") if a.strip()]
        atoms.append((relation, variables))
    if not atoms:
        raise ValueError(f"no atoms found in query: {text!r}")
    return make_query(atoms, name=name)


def query_text(query: Query) -> str:
    """``query`` in the :func:`parse_query` syntax.

    Serializes by *relation name* (not atom label), so self-join atoms
    re-acquire their ``R``/``R#2`` labels deterministically on the far
    side and the round-tripped query is isomorphic to the original.
    """
    return " ∧ ".join(
        f"{atom.relation}({', '.join(repr(v) for v in atom.variables)})"
        for atom in query.atoms
    )


def _split_atoms(text: str) -> list[str]:
    parts: list[str] = []
    depth = 0
    current: list[str] = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch in "&," and depth == 0:
            part = "".join(current).strip()
            if part:
                parts.append(part)
            current = []
        else:
            current.append(ch)
    tail = "".join(current).strip()
    if tail:
        parts.append(tail)
    return parts


def _parse_variable(text: str) -> Variable:
    token = text.strip()
    m = _IVAR_RE.match(token)
    if m:
        return ivar(m.group(1))
    m = _PVAR_RE.match(token)
    if m:
        return pvar(m.group(1))
    raise ValueError(f"cannot parse variable: {text!r}")
