"""The SQL front-end and its width-driven cost-based optimizer
(:mod:`repro.sql`).

Five layers under test:

* the tokenizer/parser — a seeded property suite checks the
  parse → unparse → parse **fixpoint** (the unparse of a parse is a
  fixed point of the pipeline, and re-parsing it reproduces the same
  IR), and every malformed input raises a typed
  :class:`~repro.sql.SqlError` carrying position + caret snippet;
* the rewrite/lowering passes — selection pushdown, cartesian-to-theta
  join, predicate normalization, db-less vs db-backed schema binding;
* the cost-based optimizer — EXPLAIN strategy goldens on engineered
  workloads (naive under the budget, sweep for binary interval joins,
  reduction above the budget, filtered when residuals force it), with
  one workload exhibiting **different strategies across disjuncts** of
  a single UNION;
* execution — a seeded differential suite: the optimizer's answer ≡
  the Python-AST session path ≡ the strategy-free naive oracle;
* the service tier — the ``sql``/``explain`` verbs on the single-pool
  server and the 2-shard router (bit-identical to the local path), and
  the typed ``bad_query`` error for malformed query text on every
  surface.

CI runs this module across a seed matrix: ``REPRO_FUZZ_SEED`` shifts
every generated scenario into a fresh region of the seed space.
"""

import asyncio
import os
import random

import pytest

from repro.core import (
    QuerySession,
    execute_sql,
    explain_sql,
    naive_evaluate,
)
from repro.engine import Database, Relation
from repro.intervals import Interval
from repro.queries import parse_query
from repro.service import (
    BadQuery,
    RouterServer,
    ServiceClient,
    ServiceServer,
    ShardRouter,
    WorkerPool,
)
from repro.sql import (
    SqlError,
    compile_sql,
    explain_program,
    naive_program,
    parse_sql,
    plan_disjunct,
    render_explain,
    run_program,
    run_sql,
)

#: Selected by the CI fuzz matrix; each value shifts every scenario
#: into a fresh region of the seed space.
FUZZ_SEED = int(os.environ.get("REPRO_FUZZ_SEED", "0"))


def scenario_seed(index: int) -> int:
    return 10_000 * FUZZ_SEED + index


def interval(rng: random.Random, span: float = 100.0) -> Interval:
    left = rng.uniform(0.0, span)
    return Interval(left, left + rng.uniform(0.5, span / 12))


def meetings_db(n: int = 40, seed: int = 11) -> Database:
    """Two (room, slot) relations: a float point column and an interval
    column, dense enough that equality and overlap joins both fire."""
    rng = random.Random(seed)
    db = Database()
    for name in ("Meet", "Hold"):
        db.add(
            Relation(
                name,
                ("room", "slot"),
                [
                    (float(rng.randrange(6)), interval(rng))
                    for _ in range(n)
                ],
            )
        )
    return db


# ----------------------------------------------------------------------
# tokenizer / parser: property suite + typed diagnostics
# ----------------------------------------------------------------------


def random_sql(rng: random.Random) -> str:
    """A random syntactically valid program (the parser property needs
    syntax, not executability, so kinds are unconstrained)."""
    head = rng.choice(["COUNT(*)", "EXISTS", "*"])
    relations = ["R", "S", "T", "Audit"]
    columns = ["k", "t", "span", "owner"]
    ops = ["=", "OVERLAPS", "CONTAINS", "INSIDE"]

    def operand(aliases):
        roll = rng.random()
        if roll < 0.5:
            return f"{rng.choice(aliases)}.{rng.choice(columns)}"
        if roll < 0.7:
            return f"{rng.uniform(-5, 50):.2f}"
        if roll < 0.85:
            lo = rng.uniform(0, 40)
            return f"[{lo:.2f}, {lo + rng.uniform(0.1, 9):.2f}]"
        return f"'{rng.choice(['alice', 'bob', 'x y'])}'"

    def select():
        n_tables = rng.randint(1, 3)
        aliases = []
        tables = []
        for i in range(n_tables):
            alias = f"a{i}"
            keyword = " AS " if rng.random() < 0.5 else " "
            tables.append(f"{rng.choice(relations)}{keyword}{alias}")
            aliases.append(alias)
        parts = [f"SELECT {head} FROM {', '.join(tables)}"]
        n_predicates = rng.randint(0, 3)
        predicates = [
            f"{operand(aliases)} {rng.choice(ops)} {operand(aliases)}"
            for _ in range(n_predicates)
        ]
        if predicates:
            parts.append("WHERE " + " AND ".join(predicates))
        return " ".join(parts)

    disjuncts = [select() for _ in range(rng.randint(1, 3))]
    joiner = " UNION ALL " if rng.random() < 0.5 else " UNION "
    return joiner.join(disjuncts)


class TestParser:
    def test_parse_unparse_parse_fixpoint_over_seeded_corpus(self):
        """For 120 generated programs: re-parsing the unparse yields the
        same IR, and unparse is a fixpoint (idempotent rendering)."""
        for index in range(120):
            rng = random.Random(scenario_seed(index))
            text = random_sql(rng)
            program = parse_sql(text)
            rendered = program.unparse()
            reparsed = parse_sql(rendered)
            assert reparsed == program, text
            assert reparsed.unparse() == rendered, text

    def test_keywords_are_case_insensitive_and_star_is_exists(self):
        lower = parse_sql(
            "select * from Meet m, Hold h where m.room = h.room"
        )
        upper = parse_sql(
            "SELECT EXISTS FROM Meet AS m, Hold AS h WHERE m.room = h.room"
        )
        assert lower == upper

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("", "expected SELECT"),
            ("SELECT COUNT(*) FROM", "expected relation name"),
            ("SELECT COUNT(* FROM Meet m", "expected ')'"),
            ("SELECT COUNT(*) FROM Meet m WHERE", "expected"),
            ("SELECT COUNT(*) FROM Meet m WHERE m.x ~ m.y", "~"),
            ("SELECT COUNT(*) FROM Meet m trailing garbage ,", "expected"),
            (
                "SELECT COUNT(*) FROM Meet m UNION SELECT EXISTS FROM Hold h",
                "head",
            ),
            ("SELECT COUNT(*) FROM Meet m WHERE m.a = [1, ", "expected"),
        ],
    )
    def test_malformed_text_raises_positioned_sql_error(self, text, fragment):
        with pytest.raises(SqlError) as info:
            parse_sql(text)
        error = info.value
        assert fragment.lower() in str(error).lower()
        assert error.position >= 0
        if text:
            # the caret snippet points into the source line
            assert "^" in error.snippet()

    def test_string_literal_escapes_round_trip(self):
        text = "SELECT EXISTS FROM R r WHERE r.owner = 'it''s'"
        program = parse_sql(text)
        assert parse_sql(program.unparse()) == program


# ----------------------------------------------------------------------
# rewrite / binding
# ----------------------------------------------------------------------


class TestRewrite:
    def test_dbless_and_dbbacked_compiles_agree_on_lowering(self):
        db = meetings_db()
        text = (
            "SELECT COUNT(*) FROM Meet m, Hold h "
            "WHERE m.room = h.room AND m.slot OVERLAPS h.slot"
        )
        free = compile_sql(text)
        bound = compile_sql(text, db)
        assert [d.sql for d in free.disjuncts] == [
            d.sql for d in bound.disjuncts
        ]
        assert free.schemas == bound.schemas == {
            "Meet": ("room", "slot"),
            "Hold": ("room", "slot"),
        }

    def test_selection_pushdown_becomes_scan_filter(self):
        db = meetings_db()
        program = compile_sql(
            "SELECT COUNT(*) FROM Meet m, Hold h "
            "WHERE m.room = h.room AND h.room = 2",
            db,
        )
        (disjunct,) = program.disjuncts
        assert disjunct.scan_filters  # single-alias predicate pushed down
        assert not disjunct.residuals

    def test_cross_alias_containment_stays_residual(self):
        db = meetings_db()
        program = compile_sql(
            "SELECT COUNT(*) FROM Meet m, Hold h "
            "WHERE m.slot INSIDE h.slot AND m.room = h.room",
            db,
        )
        (disjunct,) = program.disjuncts
        assert disjunct.residuals
        plan = plan_disjunct(disjunct, db)
        assert plan.strategy == "filtered"

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("SELECT EXISTS FROM Meet m, Meet m", "alias"),
            ("SELECT EXISTS FROM Meet m WHERE m.bogus = 1", "bogus"),
            ("SELECT EXISTS FROM Meet m WHERE 1 = 2", "constant"),
            ("SELECT EXISTS FROM Meet m WHERE m.slot OVERLAPS 3", "INSIDE"),
            ("SELECT EXISTS FROM Meet m WHERE m.slot = [1, 2]", "OVERLAPS"),
            ("SELECT EXISTS FROM Nope n WHERE n.x = 1", "Nope"),
        ],
    )
    def test_binding_failures_are_typed(self, text, fragment):
        db = meetings_db()
        with pytest.raises(SqlError) as info:
            compile_sql(text, db)
        assert fragment.lower() in str(info.value).lower()


# ----------------------------------------------------------------------
# the cost-based optimizer: EXPLAIN strategy goldens
# ----------------------------------------------------------------------


def cost_split_db(n: int = 80, seed: int = 5) -> Database:
    """Tiny ``Small`` (naive stays under budget) next to a temporal
    ``Span`` big enough that a self-join triangle overflows it."""
    rng = random.Random(seed)
    db = Database()
    db.add(
        Relation(
            "Small",
            ("k", "t"),
            [(float(i % 3), interval(rng)) for i in range(8)],
        )
    )
    db.add(
        Relation("Span", ("t",), [(interval(rng),) for _ in range(n)])
    )
    return db


COST_SPLIT_SQL = (
    "SELECT COUNT(*) FROM Small a, Small b WHERE a.k = b.k "
    "UNION ALL SELECT COUNT(*) FROM Span x, Span y, Span z "
    "WHERE x.t OVERLAPS y.t AND y.t OVERLAPS z.t AND x.t OVERLAPS z.t"
)


class TestOptimizer:
    def test_union_disjuncts_pick_different_strategies(self):
        """The acceptance workload: one EXPLAIN, two disjuncts, two
        different chosen strategies."""
        db = cost_split_db()
        data = explain_program(compile_sql(COST_SPLIT_SQL, db), db)
        strategies = [d["strategy"] for d in data["disjuncts"]]
        assert len(data["disjuncts"]) >= 2
        assert strategies == ["naive", "reduction"]
        # the rendering carries widths, candidates and the rationale
        text = render_explain(data)
        assert "ijw=" in text and "chosen: naive" in text
        assert "chosen: reduction" in text

    def test_binary_interval_exists_above_budget_chooses_sweep(self):
        rng = random.Random(scenario_seed(2))
        db = Database()
        for name in ("A", "B"):
            db.add(
                Relation(
                    name, ("t",), [(interval(rng),) for _ in range(200)]
                )
            )
        program = compile_sql(
            "SELECT EXISTS FROM A a, B b WHERE a.t OVERLAPS b.t", db
        )
        plan = plan_disjunct(program.disjuncts[0], db)
        assert plan.strategy == "sweep"
        assert plan.candidates["naive"] > 20_000

    def test_explain_payload_is_json_safe_and_complete(self):
        import json

        db = cost_split_db()
        data = explain_program(compile_sql(COST_SPLIT_SQL, db), db)
        json.dumps(data)  # wire-safe by construction
        for entry in data["disjuncts"]:
            assert {
                "sql",
                "lowered",
                "strategy",
                "ej_method",
                "candidates",
                "widths",
                "reason",
            } <= set(entry)

    def test_widths_drive_the_ej_method(self):
        db = cost_split_db()
        data = explain_program(compile_sql(COST_SPLIT_SQL, db), db)
        triangle = data["disjuncts"][1]
        assert triangle["widths"]["max_fhtw"] <= 1.0
        assert triangle["ej_method"] == "yannakakis"

    def test_plans_are_unchanged_by_the_single_engine(self):
        """Golden, literals captured at the commit that still priced
        ``COUNT(*)`` over *columnar source tables* with a discount: no
        loader ever produced such tables, so for row-backed sources —
        the ``COST_SPLIT_SQL`` acceptance workload and an ``EXISTS`` and
        a ``COUNT(*)`` overlap statement of the ``serve_hot`` benchmark
        shape — strategy, EJ method and every candidate cost are what
        they were."""
        from repro.workloads import random_database

        def plans(sql, db):
            return [
                (plan.strategy, plan.ej_method, plan.candidates)
                for plan in (
                    plan_disjunct(d, db) for d in compile_sql(sql, db).disjuncts
                )
            ]

        assert plans(COST_SPLIT_SQL, cost_split_db()) == [
            (
                "naive",
                "yannakakis",
                {"naive": 64.0, "reduction": pytest.approx(6677.0974147790075)},
            ),
            (
                "reduction",
                "yannakakis",
                {
                    "naive": 512000.0,
                    "reduction": pytest.approx(2167202.1301859776),
                },
            ),
        ]
        path = parse_query("Pa([X0],[X1]) ∧ Pb([X1],[X2]) ∧ Pc([X2],[X3])")
        db = random_database(path, 100, seed=7, domain=1200.0)
        for head in ("EXISTS", "COUNT(*)"):
            sql = (
                f"SELECT {head} FROM Pa t0, Pb t1, Pc t2 "
                "WHERE t0.X1 OVERLAPS t1.X1 AND t1.X2 OVERLAPS t2.X2"
            )
            assert plans(sql, db) == [
                (
                    "reduction",
                    "yannakakis",
                    {
                        "naive": 1000000.0,
                        "reduction": pytest.approx(1954693.8042892965),
                    },
                )
            ], head
        assert "columnar" not in render_explain(
            explain_program(compile_sql(sql, db), db)
        )


# ----------------------------------------------------------------------
# execution: differential suite (optimizer ≡ AST path ≡ naive oracle)
# ----------------------------------------------------------------------


def random_executable_sql(rng: random.Random) -> str:
    """A random *kind-consistent* program over the meetings schema:
    ``room`` is a float point column, ``slot`` an interval column."""
    head = rng.choice(["COUNT(*)", "EXISTS"])

    def select():
        n_tables = rng.randint(1, 3)
        tables, aliases = [], []
        for i in range(n_tables):
            alias = f"x{i}"
            tables.append(f"{rng.choice(['Meet', 'Hold'])} {alias}")
            aliases.append(alias)
        predicates = []
        for left, right in zip(aliases, aliases[1:]):
            predicates.append(
                rng.choice(
                    [
                        f"{left}.room = {right}.room",
                        f"{left}.slot OVERLAPS {right}.slot",
                    ]
                )
            )
        if rng.random() < 0.5:
            alias = rng.choice(aliases)
            lo = rng.uniform(0, 80)
            predicates.append(
                rng.choice(
                    [
                        f"{alias}.room = {float(rng.randrange(6))}",
                        f"{alias}.slot INSIDE [{lo:.1f}, {lo + 25:.1f}]",
                    ]
                )
            )
        if len(aliases) >= 2 and rng.random() < 0.3:
            a, b = rng.sample(aliases, 2)
            predicates.append(f"{a}.slot INSIDE {b}.slot")  # residual
        clause = f" WHERE {' AND '.join(predicates)}" if predicates else ""
        return f"SELECT {head} FROM {', '.join(tables)}{clause}"

    return " UNION ALL ".join(select() for _ in range(rng.randint(1, 2)))


class TestExecution:
    def test_differential_suite_against_the_naive_oracle(self):
        """30 seeded executable programs: the optimizer's strategy mix
        (naive/sweep/reduction/filtered, session-cached) must be
        indistinguishable from strategy-free witness enumeration."""
        db = meetings_db(n=24, seed=scenario_seed(3))
        session = QuerySession.for_database(db)
        for index in range(30):
            rng = random.Random(scenario_seed(100 + index))
            text = random_executable_sql(rng)
            program = compile_sql(text, db)
            assert run_program(program, session) == naive_program(
                program, db
            ), text

    def test_sql_matches_the_python_ast_path_bit_for_bit(self):
        """The same join, phrased as SQL and as a conjunction AST, must
        produce identical answers through their respective pipelines."""
        db = meetings_db(n=30, seed=scenario_seed(4))
        session = QuerySession.for_database(db)
        got = session.sql(
            "SELECT EXISTS FROM Meet m, Hold h WHERE m.slot OVERLAPS h.slot"
        )
        ast_query = parse_query("Meet(r, [t]) ∧ Hold(s, [t])")
        # project away the non-join columns: the AST query must join on
        # the interval column only, like the SQL's single predicate
        proj = Database()
        proj.add(Relation("Meet", ("slot",), [(t[1],) for t in db["Meet"].tuples]))
        proj.add(Relation("Hold", ("slot",), [(t[1],) for t in db["Hold"].tuples]))
        ast_query = parse_query("Meet([T]) ∧ Hold([T])")
        ast_session = QuerySession.for_database(proj)
        assert got is ast_session.evaluate(ast_query)
        assert got is naive_evaluate(ast_query, proj)

    def test_union_count_is_bag_semantics(self):
        db = meetings_db(n=20, seed=scenario_seed(5))
        session = QuerySession.for_database(db)
        text = (
            "SELECT COUNT(*) FROM Meet m, Hold h WHERE m.room = h.room "
            "UNION ALL "
            "SELECT COUNT(*) FROM Meet a, Meet b WHERE a.slot OVERLAPS b.slot"
        )
        per_disjunct = [
            naive_program(compile_sql(part, db), db)
            for part in text.split(" UNION ALL ")
        ]
        assert run_sql(text, session) == sum(per_disjunct)

    def test_execute_sql_and_explain_sql_surfaces(self):
        db = meetings_db(n=18, seed=scenario_seed(6))
        text = (
            "SELECT COUNT(*) FROM Meet m, Hold h WHERE m.room = h.room"
        )
        value = execute_sql(text, db)
        assert value == naive_program(compile_sql(text, db), db)
        assert "chosen:" in explain_sql(text, db)

    def test_session_memoizes_sql_plans_and_invalidates_on_mutation(self):
        db = meetings_db(n=20, seed=scenario_seed(7))
        session = QuerySession.for_database(db)
        text = (
            "SELECT COUNT(*) FROM Meet m, Hold h "
            "WHERE m.slot OVERLAPS h.slot"
        )
        first = session.sql(text)
        hits_before = session.stats.sql_plan_hits
        assert session.sql(text) == first
        assert session.stats.sql_plan_hits > hits_before
        rng = random.Random(scenario_seed(8))
        db.insert("Meet", (2.0, interval(rng)))
        patched = session.sql(text)
        assert patched == naive_program(compile_sql(text, db), db)

    def test_a_naive_planned_count_is_answer_cached(self):
        """Regression: the pure-join ``COUNT(*)`` branch called
        ``naive_count`` directly when the optimizer chose ``naive``, so
        small counts were recomputed on every request."""
        db = meetings_db(n=5, seed=scenario_seed(9))
        session = QuerySession(db)
        text = (
            "SELECT COUNT(*) FROM Meet m, Hold h "
            "WHERE m.slot OVERLAPS h.slot"
        )
        program = compile_sql(text, db)
        assert [session.sql_plan(d).strategy for d in program.disjuncts] == [
            "naive"
        ]
        first = session.sql(text)
        assert first == naive_program(program, db)
        assert (session.stats.misses, session.stats.hits) == (1, 0)
        assert session.sql(text) == first
        assert (session.stats.misses, session.stats.hits) == (1, 1)
        assert session.stats.reductions == 0  # naive both times


# ----------------------------------------------------------------------
# the service tier: sql/explain verbs + typed bad_query everywhere
# ----------------------------------------------------------------------


UNION_SQL = (
    "SELECT COUNT(*) FROM Meet m, Hold h "
    "WHERE m.room = h.room AND m.slot OVERLAPS h.slot "
    "UNION ALL SELECT COUNT(*) FROM Meet a, Meet b "
    "WHERE a.slot OVERLAPS b.slot AND a.room = 3"
)


def run_with_server(db, body, **server_kw):
    pool = WorkerPool(db, workers=2)
    server = ServiceServer(pool, **server_kw)

    async def driver():
        host, port = await server.start()
        try:
            return await asyncio.to_thread(body, host, port)
        finally:
            await server.stop()

    try:
        return asyncio.run(driver())
    finally:
        pool.close()


def run_with_router_server(db, body, tenant="acme"):
    router = ShardRouter(shards=("s0", "s1"), workers_per_shard=1)
    router.attach_tenant(tenant, db)
    server = RouterServer(router)

    async def driver():
        host, port = await server.start()
        try:
            return await asyncio.to_thread(body, host, port)
        finally:
            await server.stop()

    try:
        return asyncio.run(driver())
    finally:
        router.close()


class TestService:
    def test_pool_sql_op_matches_local_execution(self):
        db = meetings_db(n=24, seed=scenario_seed(9))
        expected = run_program(
            compile_sql(UNION_SQL, db), QuerySession.for_database(db)
        )
        pool = WorkerPool(db.clone(), workers=2)
        try:
            program = compile_sql(UNION_SQL, db)
            futures = [
                pool.submit("sql", d.query, sql=d.sql)
                for d in program.disjuncts
            ]
            got = program.combine([f.result(timeout=120) for f in futures])
        finally:
            pool.close()
        assert got == expected

    def test_server_sql_and_explain_verbs(self):
        db = meetings_db(n=24, seed=scenario_seed(10))
        expected = run_program(
            compile_sql(UNION_SQL, db), QuerySession.for_database(db)
        )

        def body(host, port):
            with ServiceClient(host, port) as client:
                value = client.sql(UNION_SQL)
                data = client.explain(UNION_SQL)
                exists = client.sql(
                    "SELECT EXISTS FROM Meet m, Hold h "
                    "WHERE m.slot OVERLAPS h.slot"
                )
                stats = client.stats()
            return value, data, exists, stats

        value, data, exists, stats = run_with_server(db.clone(), body)
        assert value == expected and isinstance(value, int)
        assert isinstance(exists, bool)
        assert len(data["disjuncts"]) == 2
        assert stats["server"]["bad_queries"] == 0

    def test_router_sql_verb_is_bit_identical_to_the_ast_path(self):
        """The acceptance criterion: a UNION query with OVERLAPS
        predicates served through a 2-shard router's ``sql`` verb is
        bit-identical to the local Python-AST execution path."""
        db = meetings_db(n=30, seed=scenario_seed(11))
        expected = run_program(
            compile_sql(UNION_SQL, db), QuerySession.for_database(db)
        )

        def body(host, port):
            with ServiceClient(host, port, tenant="acme") as client:
                return client.sql(UNION_SQL), client.explain(UNION_SQL)

        value, data = run_with_router_server(db, body)
        assert value == expected
        assert [d["sql"] for d in data["disjuncts"]] == [
            d.sql for d in compile_sql(UNION_SQL, db).disjuncts
        ]

    def test_bad_query_is_typed_on_every_surface(self):
        db = meetings_db(n=12, seed=scenario_seed(12))

        def body(host, port):
            out = {}
            with ServiceClient(host, port, tenant="acme") as client:
                for name, call in (
                    ("sql", lambda: client.sql("SELECT COUNT(* FROM Meet m")),
                    ("explain", lambda: client.explain("SELECT nonsense")),
                    ("evaluate", lambda: client.evaluate("garbage ((")),
                    ("count", lambda: client.count("also garbage")),
                ):
                    with pytest.raises(BadQuery) as info:
                        call()
                    out[name] = info.value.code
                # semantic compile errors are bad_query too
                with pytest.raises(BadQuery):
                    client.sql("SELECT EXISTS FROM Meet m WHERE m.bogus = 1")
                stats = client.stats()
            return out, stats

        out, stats = run_with_router_server(db, body)
        assert set(out.values()) == {"bad_query"}
        assert stats["server"]["bad_queries"] == 5

    def test_async_client_sql_and_bad_query(self):
        from repro.service import AsyncServiceClient

        db = meetings_db(n=18, seed=scenario_seed(13))
        expected = run_program(
            compile_sql(UNION_SQL, db), QuerySession.for_database(db)
        )
        router = ShardRouter(shards=("s0", "s1"), workers_per_shard=1)
        router.attach_tenant("acme", db)
        server = RouterServer(router)

        async def driver():
            host, port = await server.start()
            try:
                async with AsyncServiceClient(
                    host, port, tenant="acme"
                ) as client:
                    value = await client.sql(UNION_SQL)
                    with pytest.raises(BadQuery):
                        await client.sql("SELECT COUNT(* FROM Meet m")
                    data = await client.explain(UNION_SQL)
                return value, data
            finally:
                await server.stop()

        try:
            value, data = asyncio.run(driver())
        finally:
            router.close()
        assert value == expected
        assert len(data["disjuncts"]) == 2
