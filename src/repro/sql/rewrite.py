"""Rewrite passes: normalize → push selections down → cartesian-to-theta.

This is the pyMega-shaped middle of the front-end.  A parsed
:class:`~repro.sql.ast.Program` goes through three passes per disjunct:

1. **Predicate normalization** — ``a CONTAINS b`` becomes ``b INSIDE
   a``, constants move to the right of symmetric operators, symmetric
   column-column operands are ordered deterministically, duplicates are
   dropped, and the conjunction is sorted so equivalent disjuncts
   unparse identically (the canonical text shipped to remote shards).
2. **Selection pushdown** — predicates touching a single alias become
   per-scan filters applied before any join.
3. **Cartesian-to-theta-join** — the ``FROM`` list is a cartesian
   product; cross-alias ``=`` (point) and ``OVERLAPS`` (interval)
   predicates are folded into shared join variables via union-find,
   lowering the disjunct onto the engine's
   :class:`~repro.queries.query.Query` AST.  Predicates the interval
   engine cannot express natively (``INSIDE``/``CONTAINS``, constants,
   same-alias comparisons) survive as *residual* filters evaluated
   against join witnesses.

Binding is schema-driven when a :class:`~repro.engine.relation.Database`
is supplied (columns resolve against real schemas, kinds against sample
tuples) and inference-driven without one (each relation's schema is the
referenced columns in first-reference order, kinds inferred from
predicate usage) — the latter lets the CLI compile a query first and
generate a matching workload database second.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Union

from repro.engine.relation import Database, Relation
from repro.intervals import Interval
from repro.queries import Atom, Query, Variable

from .ast import (
    HEAD_COUNT,
    HEAD_EXISTS,
    OP_CONTAINS,
    OP_EQ,
    OP_INSIDE,
    OP_OVERLAPS,
    SYMMETRIC_OPS,
    ColumnRef,
    Comparison,
    Literal,
    SelectStmt,
    TableRef,
)
from .errors import SqlError
from .parser import parse_sql

KIND_POINT = "point"
KIND_INTERVAL = "interval"


@dataclass(frozen=True)
class SlotRef:
    """A resolved column: ``alias`` + positional ``index`` into its
    relation's tuples (plus the column name, for rendering)."""

    alias: str
    index: int
    column: str

    def unparse(self) -> str:
        return f"{self.alias}.{self.column}"


@dataclass(frozen=True)
class ConstRef:
    value: object

    def unparse(self) -> str:
        return Literal(self.value).unparse()


ResidualOperand = Union[SlotRef, ConstRef]


def _as_interval(value: object) -> Interval:
    if isinstance(value, Interval):
        return value
    return Interval.point(float(value))  # type: ignore[arg-type]


@dataclass(frozen=True)
class Residual:
    """A predicate evaluated against a join witness (``{alias: tuple}``)."""

    op: str
    left: ResidualOperand
    right: ResidualOperand

    @property
    def aliases(self) -> frozenset[str]:
        return frozenset(
            ref.alias for ref in (self.left, self.right) if isinstance(ref, SlotRef)
        )

    def unparse(self) -> str:
        return f"{self.left.unparse()} {self.op} {self.right.unparse()}"

    def _value(self, ref: ResidualOperand, witness: dict) -> object:
        if isinstance(ref, SlotRef):
            return witness[ref.alias][ref.index]
        return ref.value

    def holds(self, witness: dict) -> bool:
        left = self._value(self.left, witness)
        right = self._value(self.right, witness)
        if self.op == OP_EQ:
            return left == right
        if self.op == OP_OVERLAPS:
            return _as_interval(left).intersects(_as_interval(right))
        if self.op == OP_INSIDE:
            outer = _as_interval(right)
            if isinstance(left, Interval):
                return outer.contains(left)
            return outer.contains_point(float(left))  # type: ignore[arg-type]
        raise AssertionError(f"unknown residual op {self.op!r}")


@dataclass(frozen=True)
class CompiledDisjunct:
    """One lowered disjunct: join skeleton + filters + canonical text.
    Frozen, like its program: a session hands one compiled program to
    every request that sends its text."""

    select: SelectStmt
    sql: str
    query: Query
    scan_filters: dict[str, tuple[Residual, ...]]
    residuals: tuple[Residual, ...]
    #: alias → (relation name, arity) of the lowered atoms.
    tables: dict[str, tuple[str, int]]

    @property
    def filtered(self) -> bool:
        return bool(self.scan_filters) or bool(self.residuals)

    def execution_target(self, db: Database) -> tuple[Query, Database]:
        """The query/database pair the engine actually runs.

        Without filters this is ``(self.query, db)`` untouched — the
        session-cached fast path.  With filters, each alias gets its own
        relation (named by alias, so self-joins with different filters
        stay independent) holding the scan-filtered tuples, and the
        query's atoms are relabeled to reference them.
        """
        if not self.filtered:
            return self.query, db
        exec_db = Database()
        atoms = []
        for atom in self.query.atoms:
            alias = atom.label
            filters = self.scan_filters.get(alias, ())
            source = db[atom.relation]
            tuples = [
                t for t in source.tuples if all(f.holds({alias: t}) for f in filters)
            ]
            schema = tuple(v.name for v in atom.variables)
            exec_db.add(Relation(alias, schema, tuples))
            atoms.append(Atom(alias, alias, atom.variables))
        return Query(tuple(atoms), name=self.query.name), exec_db


@dataclass(frozen=True)
class CompiledProgram:
    """A bound SQL program: shared head + independently planned disjuncts."""

    head: str
    disjuncts: tuple[CompiledDisjunct, ...]
    sql: str
    #: relation → column names, positionally aligned with the lowered
    #: atoms.  Database-backed binds echo the real schemas; database-less
    #: binds report the inferred schemas, letting callers generate a
    #: workload database the same text will bind against.
    schemas: dict[str, tuple[str, ...]] = field(default_factory=dict)

    @property
    def relations(self) -> frozenset[str]:
        out: set[str] = set()
        for d in self.disjuncts:
            out |= d.query.relations
        return frozenset(out)

    def combine(self, answers: Iterable[object]) -> object:
        """Fold per-disjunct answers into the program's answer."""
        if self.head == HEAD_COUNT:
            return sum(int(a) for a in answers)  # type: ignore[arg-type]
        return any(bool(a) for a in answers)


def lower_query(query: Query, db: Database) -> CompiledProgram:
    """The filter-less ``EXISTS`` program a :class:`Query` AST stands
    for — alias = atom label, one ``OVERLAPS`` / ``=`` chain per shared
    variable over ``db``'s column names — so Query-AST callers are
    planned and explained by the one optimizer."""
    columns: dict[str, list[ColumnRef]] = {}
    for atom in query.atoms:
        for v, column in zip(atom.variables, db[atom.relation].schema):
            columns.setdefault(v.name, []).append(ColumnRef(atom.label, column))
    ops = {
        v.name: OP_OVERLAPS if v.is_interval else OP_EQ for v in query.variables
    }
    select = SelectStmt(
        HEAD_EXISTS,
        tuple(TableRef(atom.relation, atom.label) for atom in query.atoms),
        tuple(
            Comparison(ops[name], left, right)
            for name, refs in columns.items()
            for left, right in zip(refs, refs[1:])
        ),
    )
    disjunct = CompiledDisjunct(
        select=select,
        sql=select.unparse(),
        query=query,
        scan_filters={},
        residuals=(),
        tables={a.label: (a.relation, len(a.variables)) for a in query.atoms},
    )
    return CompiledProgram(HEAD_EXISTS, (disjunct,), disjunct.sql)


class _SchemaRegistry:
    """Column → (position, kind) resolution shared across a program.

    With a database, positions come from real schemas and kinds from
    sample tuples; without one, positions are assigned in first-
    reference order and kinds are inferred from predicate usage
    (defaulting to point).  Kinds are keyed per (relation, position) so
    self-joins and repeated relations across disjuncts stay consistent.
    """

    def __init__(self, db: Optional[Database], source: str):
        self.db = db
        self.source = source
        self.columns: dict[str, list[str]] = {}  # relation → ordered columns (db-less)
        self.kinds: dict[tuple[str, int], Optional[str]] = {}

    def check_relation(self, name: str, position: int) -> None:
        if self.db is not None and name not in self.db:
            raise SqlError(f"unknown relation {name!r}", self.source, position)

    def resolve(self, relation: str, ref: ColumnRef) -> int:
        if self.db is not None:
            schema = self.db[relation].schema
            if ref.column not in schema:
                raise SqlError(
                    f"relation {relation!r} has no column {ref.column!r} "
                    f"(schema: {', '.join(schema)})",
                    self.source,
                    ref.position,
                )
            index = schema.index(ref.column)
            if (relation, index) not in self.kinds:
                self.kinds[(relation, index)] = self._sample_kind(relation, index)
            return index
        order = self.columns.setdefault(relation, [])
        if ref.column not in order:
            order.append(ref.column)
        return order.index(ref.column)

    def _sample_kind(self, relation: str, index: int) -> Optional[str]:
        # sample_tuple decodes a single row of a block-backed relation
        # instead of its whole tuple set
        sample = self.db[relation].sample_tuple()  # type: ignore[union-attr]
        if sample is None:
            return None
        return KIND_INTERVAL if isinstance(sample[index], Interval) else KIND_POINT

    def kind(self, relation: str, index: int) -> Optional[str]:
        return self.kinds.get((relation, index))

    def require_kind(
        self, relation: str, index: int, kind: str, column: str, position: int
    ) -> None:
        current = self.kinds.get((relation, index))
        if current is None:
            self.kinds[(relation, index)] = kind
        elif current != kind:
            raise SqlError(
                f"column {relation}.{column} is used both as {current} and as {kind}",
                self.source,
                position,
            )

    def arity(self, relation: str) -> int:
        if self.db is not None:
            return len(self.db[relation].schema)
        return len(self.columns.get(relation, []))

    def column_name(self, relation: str, index: int) -> str:
        if self.db is not None:
            return self.db[relation].schema[index]
        return self.columns[relation][index]


class _UnionFind:
    def __init__(self) -> None:
        self.parent: dict[object, object] = {}

    def find(self, x: object) -> object:
        self.parent.setdefault(x, x)
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: object, b: object) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def _normalize(select: SelectStmt, source: str) -> SelectStmt:
    """Pass 1 — predicate normalization (see module docstring)."""
    out: list[Comparison] = []
    for pred in select.predicates:
        left, right, op = pred.left, pred.right, pred.op
        if op == OP_CONTAINS:  # a CONTAINS b  ≡  b INSIDE a
            left, right, op = right, left, OP_INSIDE
        if isinstance(left, Literal) and isinstance(right, Literal):
            raise SqlError(
                "predicate compares two constants; reference a column",
                source,
                pred.position,
            )
        if op in SYMMETRIC_OPS:
            if isinstance(left, Literal):
                left, right = right, left
            elif isinstance(right, ColumnRef) and (right.alias, right.column) < (
                left.alias,
                left.column,
            ):
                left, right = right, left
        out.append(Comparison(op, left, right, pred.position))
    deduped: list[Comparison] = []
    for pred in out:
        if pred not in deduped:
            deduped.append(pred)
    deduped.sort(key=lambda p: (p.op, p.left.unparse(), p.right.unparse()))
    return SelectStmt(select.head, select.tables, tuple(deduped))


def _bind_select(
    select: SelectStmt, source: str, registry: _SchemaRegistry, name: str
) -> CompiledDisjunct:
    aliases: dict[str, str] = {}  # alias → relation
    for table in select.tables:
        if table.alias in aliases:
            raise SqlError(
                f"duplicate alias {table.alias!r} in FROM", source, table.position
            )
        registry.check_relation(table.relation, table.position)
        aliases[table.alias] = table.relation

    def slot(ref: ColumnRef) -> SlotRef:
        if ref.alias not in aliases:
            raise SqlError(
                f"unknown alias {ref.alias!r} (FROM binds: {', '.join(aliases)})",
                source,
                ref.position,
            )
        index = registry.resolve(aliases[ref.alias], ref)
        return SlotRef(ref.alias, index, ref.column)

    def operand(op: Union[ColumnRef, Literal]) -> ResidualOperand:
        if isinstance(op, ColumnRef):
            return slot(op)
        return ConstRef(op.value)

    def relation_of(s: SlotRef) -> str:
        return aliases[s.alias]

    # --- kind inference over the normalized conjunction -------------
    bound: list[tuple[str, ResidualOperand, ResidualOperand, int]] = []
    for pred in select.predicates:
        left, right = operand(pred.left), operand(pred.right)
        if pred.op == OP_OVERLAPS:
            for side in (left, right):
                if isinstance(side, SlotRef):
                    registry.require_kind(
                        relation_of(side),
                        side.index,
                        KIND_INTERVAL,
                        side.column,
                        pred.position,
                    )
                elif not isinstance(side.value, Interval):  # number literal
                    raise SqlError(
                        "OVERLAPS needs interval operands "
                        "(use n INSIDE col for point membership)",
                        source,
                        pred.position,
                    )
        elif pred.op == OP_INSIDE:
            if isinstance(right, SlotRef):
                registry.require_kind(
                    relation_of(right),
                    right.index,
                    KIND_INTERVAL,
                    right.column,
                    pred.position,
                )
            elif not isinstance(right.value, Interval):
                raise SqlError(
                    "the right side of INSIDE must be an interval",
                    source,
                    pred.position,
                )
        elif pred.op == OP_EQ:
            if isinstance(right, ConstRef) and isinstance(right.value, Interval):
                raise SqlError(
                    "interval equality is not supported; use OVERLAPS or CONTAINS",
                    source,
                    pred.position,
                )
            for side in (left, right):
                if isinstance(side, SlotRef):
                    kind = registry.kind(relation_of(side), side.index)
                    if kind == KIND_INTERVAL:
                        raise SqlError(
                            f"column {side.unparse()} holds intervals; "
                            "intervals join by OVERLAPS, not =",
                            source,
                            pred.position,
                        )
            if isinstance(left, SlotRef) and isinstance(right, SlotRef):
                # propagate point-ness both ways
                for side in (left, right):
                    registry.require_kind(
                        relation_of(side),
                        side.index,
                        KIND_POINT,
                        side.column,
                        pred.position,
                    )
            elif isinstance(left, SlotRef):
                registry.require_kind(
                    relation_of(left), left.index, KIND_POINT, left.column, pred.position
                )
        bound.append((pred.op, left, right, pred.position))

    # --- pass 3: cartesian-to-theta-join (union-find lowering) ------
    merges = _UnionFind()
    residuals: list[Residual] = []
    for op, left, right, position in bound:
        cross_alias = (
            isinstance(left, SlotRef)
            and isinstance(right, SlotRef)
            and left.alias != right.alias
        )
        if cross_alias and op in (OP_EQ, OP_OVERLAPS):
            merges.union(left, right)
        else:
            residuals.append(Residual(op, left, right))

    # Deterministic class representatives: first FROM appearance, then
    # column position.
    alias_order = {alias: i for i, alias in enumerate(aliases)}

    def slot_key(s: SlotRef) -> tuple[int, int]:
        return (alias_order[s.alias], s.index)

    classes: dict[object, list[SlotRef]] = {}
    for key in list(merges.parent):
        classes.setdefault(merges.find(key), []).append(key)  # type: ignore[arg-type]

    variables: dict[SlotRef, Variable] = {}
    used_names: set[str] = set()

    def fresh_name(base: str) -> str:
        name_ = base
        bump = 1
        while name_ in used_names:
            bump += 1
            name_ = f"{base}_{bump}"
        used_names.add(name_)
        return name_

    for root, members in sorted(
        classes.items(), key=lambda kv: min(slot_key(s) for s in kv[1])
    ):
        members.sort(key=slot_key)
        rep = members[0]
        kind = registry.kind(relation_of(rep), rep.index) or KIND_POINT
        var = Variable(
            fresh_name(f"{rep.alias}_{rep.column}"), is_interval=kind == KIND_INTERVAL
        )
        for member in members:
            variables[member] = var

    atoms: list[Atom] = []
    tables: dict[str, tuple[str, int]] = {}
    for table in select.tables:
        relation = table.relation
        arity = registry.arity(relation)
        if arity == 0:
            raise SqlError(
                f"relation {relation!r} has no referenced columns; cannot "
                "infer a schema without a database",
                source,
                table.position,
            )
        atom_vars: list[Variable] = []
        seen: dict[str, str] = {}  # variable name → column, for the error
        for index in range(arity):
            column = registry.column_name(relation, index)
            key = SlotRef(table.alias, index, column)
            var = variables.get(key)
            if var is None:
                kind = registry.kind(relation, index) or KIND_POINT
                var = Variable(
                    fresh_name(f"{table.alias}_{column}"),
                    is_interval=kind == KIND_INTERVAL,
                )
            if var.name in seen:
                raise SqlError(
                    f"join predicates equate {table.alias}.{seen[var.name]} with "
                    f"{table.alias}.{column}; same-table equalities cannot be "
                    "lowered to a join variable — compare them in a filter "
                    "instead",
                    source,
                    table.position,
                )
            seen[var.name] = column
            atom_vars.append(var)
        atoms.append(Atom(table.alias, relation, tuple(atom_vars)))
        tables[table.alias] = (relation, arity)

    query = Query(tuple(atoms), name=name)

    # --- pass 2 (applied last so slots exist): selection pushdown ---
    scan_filters: dict[str, list[Residual]] = {}
    post_join: list[Residual] = []
    for residual in residuals:
        owners = residual.aliases
        if len(owners) == 1:
            scan_filters.setdefault(next(iter(owners)), []).append(residual)
        else:
            post_join.append(residual)

    return CompiledDisjunct(
        select=select,
        sql=select.unparse(),
        query=query,
        scan_filters={a: tuple(fs) for a, fs in scan_filters.items()},
        residuals=tuple(post_join),
        tables=tables,
    )


def compile_sql(text: str, db: Optional[Database] = None) -> CompiledProgram:
    """Parse, normalize and lower ``text`` against ``db`` (optional)."""
    program = parse_sql(text)
    registry = _SchemaRegistry(db, text)
    selects = [_normalize(s, text) for s in program.selects]
    # Bind in two rounds so db-less schema inference sees every
    # disjunct's columns before any query is built.
    if db is None:
        for select in selects:
            probe = _SchemaRegistry(None, text)
            probe.columns = registry.columns  # shared first-reference order
            probe.kinds = registry.kinds
            try:
                _bind_select(select, text, probe, "probe")
            except SqlError:
                pass  # re-raised with full context in the real round
    disjuncts = tuple(
        _bind_select(select, text, registry, f"D{i + 1}")
        for i, select in enumerate(selects)
    )
    head = selects[0].head
    schemas: dict[str, tuple[str, ...]] = {}
    for disjunct in disjuncts:
        for relation, _ in disjunct.tables.values():
            if relation in schemas:
                continue
            if db is not None:
                schemas[relation] = tuple(db[relation].schema)
            else:
                schemas[relation] = tuple(registry.columns.get(relation, ()))
    return CompiledProgram(
        head=head,
        disjuncts=disjuncts,
        sql=" UNION ".join(d.sql for d in disjuncts),
        schemas=schemas,
    )
