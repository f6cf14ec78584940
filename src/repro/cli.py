"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``analyze "R([A],[B]) ∧ S([B],[C])"``
    Structural classification: acyclicity flags, Berge-cycle witness,
    τ class structure with exact widths, ij-width, predicted runtime.

``evaluate "<query>" [...more queries] --n 100 --seed 0 [--count]
[--repeat K] [--workload temporal] [--cache-dir DIR]``
    Generate a synthetic database and run the IJ engine through a
    :class:`~repro.core.QuerySession` (optionally counting witnesses),
    cross-checking small instances against the naive oracle.  Several
    queries share one session — isomorphic ones share one reduction —
    and ``--repeat`` re-runs the batch to show the warm-cache speedup.

``sql "SELECT COUNT(*) FROM R r, S s WHERE r.t OVERLAPS s.t" [--explain]``
    Evaluate SQL (the :mod:`repro.sql` dialect: ``COUNT(*)``/``EXISTS``
    heads, equality and ``OVERLAPS``/``CONTAINS``/``INSIDE`` predicates,
    ``UNION`` disjunctions) on a synthetic database whose schemas are
    inferred from the query text.  ``--explain`` prints the cost-based
    optimizer's per-disjunct plan — widths, candidate costs, chosen
    strategy — without running.

``reduce "<query>" --n 50 [--seed 0]``
    Show the forward reduction: number of disjuncts, shared variants,
    and the measured polylog blowup.

``catalog``
    One-line analyses of the paper's named queries.

``serve "<query>" [...more queries] --workers 4 --cache-dir DIR --port 0``
    Start the concurrent query service (:mod:`repro.service`): a
    process pool of session-owning workers behind an asyncio JSON-lines
    front-end with admission control.  The queries define the schema;
    the synthetic database is generated exactly as for ``evaluate``.

``loadgen "<query>" --host H --port P --requests 200 --mode closed
[--tenants acme,globex]``
    Replay an isomorphism-heavy open/closed-loop workload against a
    running server and report throughput and latency percentiles; with
    ``--tenants`` each request is stamped with a tenant for a router
    target.

``route "<query>" [...more queries] --shards 3 [--grow N] [--serve]``
    The sharded router tier.  By default: an offline placement report —
    which shard of a consistent-hash ring answers each query's
    canonical group, and (with ``--grow``/``--drop``) how few groups
    remap when the ring rescales.  With ``--serve``: start a live
    :class:`~repro.service.RouterServer` whose tenants are attached
    over the wire (``attach_tenant``), each serving its own database
    over one shared namespaced reduction cache.  With
    ``--remote-shards a=host:p1,b=host:p2``: coordinator mode — the
    shards are standalone ``repro shard`` processes dialed over the
    wire, health-checked (``--health-interval``) and failed over.

``shard --name a --listen 127.0.0.1:0 --workers 2 [--cache-dir DIR]``
    One standalone shard node process: a single-node router serving the
    full wire protocol (tenants attach over the wire; a coordinator
    warms its cache content-addressed).  Prints
    ``listening on HOST:PORT`` once bound — the line
    :func:`~repro.service.spawn_shard_process` parses.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from typing import Sequence

from .core import QuerySession, analyze_query, naive_count, naive_evaluate
from .engine import Database
from .queries import catalog as query_catalog
from .queries import parse_query
from .reduction import forward_reduce
from .workloads import point_database, random_database, temporal_database

WORKLOADS = {
    "random": lambda q, n, seed: random_database(q, n, seed=seed),
    "temporal": temporal_database,
    "points": point_database,
}


#: Options several commands take, declared once: flag → its
#: ``add_argument`` keywords.  A command passes only what differs for
#: it (a help text, a default); see :func:`_shared`.
SHARED_OPTIONS: dict[str, dict] = {
    "--n": dict(type=int, default=50, help="tuples per relation"),
    "--seed": dict(type=int, default=0),
    "--workload": dict(choices=sorted(WORKLOADS), default="random"),
    "--cache-dir": dict(default=None, metavar="DIR"),
    "--cache-max-bytes": dict(type=int, default=None, metavar="BYTES"),
    "--host": dict(default="127.0.0.1"),
    "--port": dict(type=int, default=0),
    "--max-inflight": dict(type=int, default=64),
    "--deadline-ms": dict(type=float, default=30_000.0),
}


def _shared(parser: argparse.ArgumentParser, *flags: str, **differs) -> None:
    for flag in flags:
        parser.add_argument(flag, **{**SHARED_OPTIONS[flag], **differs})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Boolean conjunctive queries with intersection joins "
            "(PODS 2022 reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="classify a query")
    p_analyze.add_argument("query", help="query text, e.g. 'R([A],[B]) ∧ S([B],[C])'")
    p_analyze.add_argument(
        "--no-widths", action="store_true", help="skip the width computation"
    )

    p_eval = sub.add_parser("evaluate", help="evaluate on a synthetic database")
    p_eval.add_argument(
        "query",
        nargs="*",
        help="one or more query texts; a batch shares one session cache",
    )
    p_eval.add_argument(
        "--query-file", default=None, metavar="FILE",
        help=(
            "read additional queries from FILE, one per line; lines "
            "starting with SELECT are parsed as SQL, the rest as "
            "conjunction syntax (blank lines and #-comments skipped)"
        ),
    )
    _shared(p_eval, "--n", "--seed")
    p_eval.add_argument(
        "--repeat", type=int, default=1,
        help="evaluate the batch this many times (cold vs warm cache)",
    )
    _shared(p_eval, "--workload")
    p_eval.add_argument(
        "--count", action="store_true", help="also count witnesses"
    )
    p_eval.add_argument(
        "--check", action="store_true",
        help="cross-check against the naive oracle (small n only)",
    )
    _shared(
        p_eval, "--cache-dir",
        help=(
            "persistent reduction cache directory: reductions are "
            "content-addressed on disk and shared across runs, so a "
            "warm re-run performs zero forward reductions"
        ),
    )
    _shared(
        p_eval, "--cache-max-bytes",
        help=(
            "cap the persistent cache directory at this many bytes; "
            "least-recently-used entries are evicted after each store "
            "(requires --cache-dir)"
        ),
    )
    p_eval.add_argument(
        "--profile", action="store_true",
        help=(
            "print a per-phase timing breakdown (canonicalize / reduce "
            "/ evaluate / cache-I/O) from the session's timing stats"
        ),
    )

    p_sql = sub.add_parser(
        "sql", help="evaluate SQL through the cost-based optimizer"
    )
    p_sql.add_argument(
        "sql",
        help=(
            "SQL text, e.g. \"SELECT COUNT(*) FROM R r, S s "
            "WHERE r.t OVERLAPS s.t\""
        ),
    )
    _shared(p_sql, "--n", "--seed", "--workload")
    p_sql.add_argument(
        "--explain", action="store_true",
        help="print the optimizer's per-disjunct plan instead of running",
    )
    p_sql.add_argument(
        "--check", action="store_true",
        help="cross-check against the strategy-free naive oracle",
    )

    p_reduce = sub.add_parser("reduce", help="inspect the forward reduction")
    p_reduce.add_argument("query")
    _shared(p_reduce, "--n", help=None)
    _shared(p_reduce, "--seed")

    sub.add_parser("catalog", help="tour the paper's named queries")

    p_serve = sub.add_parser(
        "serve", help="start the concurrent query service"
    )
    p_serve.add_argument(
        "query", nargs="+", help="queries defining the served schema"
    )
    _shared(p_serve, "--n", "--seed", "--workload")
    p_serve.add_argument(
        "--workers", type=int, default=4, help="worker processes"
    )
    _shared(p_serve, "--host")
    _shared(
        p_serve, "--port",
        help="TCP port (0 binds an ephemeral port, printed on startup)",
    )
    _shared(
        p_serve, "--cache-dir",
        help="shared persistent reduction cache for the worker pool",
    )
    _shared(p_serve, "--cache-max-bytes")
    _shared(
        p_serve, "--max-inflight",
        help="admitted-but-unanswered request bound (backpressure above)",
    )
    _shared(p_serve, "--deadline-ms", help="default per-request deadline")

    p_load = sub.add_parser(
        "loadgen", help="drive a running server with synthetic load"
    )
    p_load.add_argument(
        "query", nargs="+",
        help="base queries; requests are isomorphic variants of these",
    )
    _shared(p_load, "--host")
    _shared(p_load, "--port", default=None, required=True)
    p_load.add_argument("--requests", type=int, default=200)
    p_load.add_argument(
        "--mode", choices=("closed", "open"), default="closed"
    )
    p_load.add_argument(
        "--concurrency", type=int, default=8,
        help="virtual users (closed-loop mode)",
    )
    p_load.add_argument(
        "--rate", type=float, default=100.0,
        help="arrival rate in req/s (open-loop mode)",
    )
    p_load.add_argument(
        "--connections", type=int, default=8,
        help="pipelined connections (open-loop mode)",
    )
    p_load.add_argument(
        "--variants", type=int, default=10,
        help="isomorphic variants generated per base query",
    )
    p_load.add_argument("--count-fraction", type=float, default=0.0)
    p_load.add_argument("--mutate-fraction", type=float, default=0.0)
    _shared(p_load, "--seed")
    p_load.add_argument(
        "--domain", type=float, default=1000.0,
        help="value domain for generated mutation tuples",
    )
    p_load.add_argument(
        "--out", default=None, metavar="FILE",
        help="also write the full report as JSON",
    )
    p_load.add_argument(
        "--tenants", default=None, metavar="A,B,...",
        help=(
            "comma-separated tenant names: each request is stamped "
            "with one, for driving a router-tier server"
        ),
    )
    p_load.add_argument(
        "--direct", action="store_true",
        help=(
            "learn the coordinator's ring and dial the owning shard "
            "directly for evaluate/count traffic (falls back to the "
            "coordinator on remaps and failures)"
        ),
    )

    p_route = sub.add_parser(
        "route", help="sharded router tier: placement report or live server"
    )
    p_route.add_argument(
        "query", nargs="+",
        help="queries whose canonical groups are placed on the ring",
    )
    p_route.add_argument(
        "--shards", type=int, default=2,
        help="ring size (nodes are named shard-0..shard-N-1)",
    )
    p_route.add_argument(
        "--shard-names", default=None, metavar="A,B,...",
        help="explicit comma-separated shard names (overrides --shards)",
    )
    p_route.add_argument(
        "--replicas", type=int, default=128,
        help="virtual nodes per shard on the ring",
    )
    p_route.add_argument(
        "--variants", type=int, default=0,
        help=(
            "also place this many isomorphic variants per query "
            "(they collapse onto the base query's group)"
        ),
    )
    p_route.add_argument(
        "--grow", type=int, default=0, metavar="N",
        help="report how many groups remap when N shards join the ring",
    )
    p_route.add_argument(
        "--drop", default=None, metavar="NAME",
        help="report how many groups remap when NAME leaves the ring",
    )
    _shared(p_route, "--seed", help="variant-generation seed")
    p_route.add_argument(
        "--serve", action="store_true",
        help=(
            "start a live router server instead: shards are in-process "
            "worker-pool nodes; tenants attach over the wire"
        ),
    )
    _shared(p_route, "--host")
    _shared(
        p_route, "--port",
        help="TCP port for --serve (0 binds an ephemeral port)",
    )
    p_route.add_argument(
        "--workers-per-shard", type=int, default=1,
        help="worker processes per (shard, tenant) pool under --serve",
    )
    _shared(
        p_route, "--cache-dir",
        help="shared namespaced reduction cache for every pool (--serve)",
    )
    _shared(
        p_route, "--max-inflight", help="admission-control bound for --serve"
    )
    _shared(
        p_route, "--deadline-ms",
        help="default per-request deadline for --serve",
    )
    p_route.add_argument(
        "--remote-shards", default=None, metavar="NAME=HOST:PORT,...",
        help=(
            "coordinator mode for --serve: dial these standalone "
            "`repro shard` processes instead of spawning in-process "
            "worker pools"
        ),
    )
    p_route.add_argument(
        "--health-interval", type=float, default=None, metavar="SECONDS",
        help=(
            "ping remote shards this often and fail their in-flight "
            "work over to survivors when one stops answering"
        ),
    )

    p_shard = sub.add_parser(
        "shard", help="run one standalone shard node process"
    )
    p_shard.add_argument(
        "--name", required=True, help="this node's shard name"
    )
    p_shard.add_argument(
        "--listen", default="127.0.0.1:0", metavar="HOST:PORT",
        help="bind address (port 0 binds an ephemeral port, printed)",
    )
    p_shard.add_argument(
        "--workers", type=int, default=1,
        help="worker processes per attached tenant on this node",
    )
    _shared(
        p_shard, "--cache-dir",
        help=(
            "this node's own reduction cache directory (a coordinator "
            "warms it content-addressed over the wire)"
        ),
    )
    _shared(p_shard, "--max-inflight", help="admission-control bound")
    _shared(
        p_shard, "--deadline-ms", default=300_000.0,
        help=(
            "default per-request deadline (generous: a coordinator "
            "ships whole database snapshots through attach/reload)"
        ),
    )
    p_shard.add_argument(
        "--max-line-bytes", type=int, default=64 << 20,
        help=(
            "largest accepted request frame (generous by default: "
            "attach/reload snapshots and shipped cache entries arrive "
            "as single JSON lines)"
        ),
    )
    return parser


def _fail(message: object) -> int:
    """A usage error: say so on stderr, exit status 2."""
    print(f"error: {message}", file=sys.stderr)
    return 2


def _mismatch(expected: object, answer: object, label: str = "") -> bool:
    """Print one ``--check`` verdict; true when the oracle disagrees."""
    status = "OK" if expected == answer else "MISMATCH"
    print(f"naive oracle: {expected}   [{status}]" + (label and f"   ({label})"))
    return expected != answer


def _cache_options_error(args: argparse.Namespace) -> str | None:
    """The one check on ``--cache-dir`` / ``--cache-max-bytes``."""
    if args.cache_max_bytes is not None:
        if args.cache_dir is None:
            return "--cache-max-bytes requires --cache-dir"
        if args.cache_max_bytes < 0:
            return "--cache-max-bytes must be non-negative"
    return None


def _serve_until_interrupted(server, banner, close) -> int:
    """Start ``server``, print ``banner(host, port)`` (the
    ``listening on HOST:PORT`` line tools parse), serve until
    interrupted, then ``close()`` — its return value is the farewell
    line."""

    async def serve() -> None:
        print(banner(*await server.start()), flush=True)
        await server.serve_forever()

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        pass
    finally:
        print(close(), flush=True)
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    query = parse_query(args.query)
    analysis = analyze_query(query, compute_widths=not args.no_widths)
    print(analysis.summary())
    return 0


def _evaluation_database(queries, args: argparse.Namespace) -> Database:
    """One database covering every relation referenced by the batch.

    Every query must agree on each shared relation's schema (arity and
    interval/point pattern); the first generated instance is shared.
    """
    patterns: dict[str, tuple] = {}
    for query in queries:
        for atom in query.atoms:
            pattern = tuple(v.is_interval for v in atom.variables)
            prior = patterns.setdefault(atom.relation, pattern)
            if prior != pattern:
                raise ValueError(
                    f"relation {atom.relation} is used with incompatible "
                    f"schemas across the batch (arity/interval pattern "
                    f"{len(prior)}/{prior} vs {len(pattern)}/{pattern})"
                )
    db = Database()
    for query in queries:
        if all(atom.relation in db for atom in query.atoms):
            continue
        partial = WORKLOADS[args.workload](query, args.n, args.seed)
        for relation in partial:
            if relation.name not in db:
                db.add(relation)
    return db


def _read_query_file(path: str) -> tuple[list[str], list[str]]:
    """Split FILE into (conjunction texts, SQL texts), one query per
    line: a line starting with ``SELECT`` (any case) is SQL, anything
    else is the engine's conjunction syntax; blanks and ``#`` comments
    are skipped."""
    texts: list[str] = []
    sql_texts: list[str] = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if stripped.upper().startswith("SELECT"):
                sql_texts.append(stripped)
            else:
                texts.append(stripped)
    return texts, sql_texts


def cmd_evaluate(args: argparse.Namespace) -> int:
    from .sql import SqlError, compile_sql, naive_program, run_program

    texts = list(args.query)
    sql_texts: list[str] = []
    if args.query_file is not None:
        try:
            file_texts, sql_texts = _read_query_file(args.query_file)
        except OSError as error:
            return _fail(error)
        texts.extend(file_texts)
    if not texts and not sql_texts:
        return _fail("no queries given (args or --query-file)")
    try:
        queries = [parse_query(text) for text in texts]
        # db-less compile: infers each program's schemas and kinds, so
        # the workload generator below can cover its relations too
        programs = [compile_sql(text) for text in sql_texts]
    except (SqlError, ValueError) as error:
        return _fail(error)
    if (error := _cache_options_error(args)) is not None:
        return _fail(error)
    try:
        # SQL programs contribute their lowered disjunct queries, so one
        # generated database covers the whole mixed batch
        db = _evaluation_database(
            queries + [d.query for p in programs for d in p.disjuncts], args
        )
    except ValueError as error:
        return _fail(error)
    session = QuerySession(
        db,
        cache_dir=args.cache_dir,
        cache_max_bytes=args.cache_max_bytes,
    )
    print(f"|D| = {db.size} tuples ({args.workload} workload)")
    timings: list[float] = []
    answers: list[bool] = []
    sql_answers: list[bool | int] = []
    for _ in range(max(args.repeat, 1)):
        start = time.perf_counter()
        answers = session.evaluate_many(queries, strategy="reduction")
        sql_answers = [run_program(p, session) for p in programs]
        timings.append(time.perf_counter() - start)
    for i, (query, answer) in enumerate(zip(queries, answers), start=1):
        suffix = f"   [{timings[0] * 1e3:.1f} ms]" if len(queries) == 1 else ""
        label = query.name if len(queries) == 1 else f"#{i} {query.name}"
        print(f"Q(D) = {answer}{suffix}   ({label})")
    for text, program, value in zip(sql_texts, programs, sql_answers):
        head = "COUNT(*)" if program.head == "count" else "EXISTS"
        print(f"{head} = {value}   (sql: {text})")
    if len(timings) > 1:
        warm = min(timings[1:])
        speedup = timings[0] / warm if warm > 0 else float("inf")
        print(
            f"cold {timings[0] * 1e3:.1f} ms, warm {warm * 1e3:.3f} ms "
            f"(x{speedup:.0f} via session cache)"
        )
    stats = session.stats
    if args.repeat > 1 or len(queries) > 1:
        print(
            f"session: {stats.reductions} reductions, "
            f"{stats.hits} hits, {stats.misses} misses"
        )
    if args.profile:
        phases = stats.profile()
        total = sum(phases.values())
        wall = sum(timings)
        print(
            "profile: "
            + " | ".join(
                f"{name.replace('_', '-')} {seconds * 1e3:.1f} ms"
                f" ({seconds / total * 100:.0f}%)"
                if total > 0
                else f"{name.replace('_', '-')} {seconds * 1e3:.1f} ms"
                for name, seconds in phases.items()
            )
        )
        print(
            f"profile: phases {total * 1e3:.1f} ms of "
            f"{wall * 1e3:.1f} ms total evaluate wall time"
        )
    if session.cache is not None:
        cache_stats = session.cache.stats()
        pruned = (
            f", {cache_stats['pruned']} pruned"
            if args.cache_max_bytes is not None
            else ""
        )
        print(
            f"persistent cache ({args.cache_dir}): "
            f"{cache_stats['hits']} hits, {cache_stats['stores']} stores "
            f"({cache_stats['delta_stores']} delta / "
            f"{cache_stats['stores'] - cache_stats['delta_stores']} full / "
            f"{cache_stats['skipped_stores']} skipped)"
            f"{pruned}, {stats.reductions} reductions this run"
        )
    failed = False
    for i, (query, answer) in enumerate(zip(queries, answers), start=1):
        label = query.name if len(queries) == 1 else f"#{i} {query.name}"
        if args.check:
            failed |= _mismatch(naive_evaluate(query, db), answer, label)
        if args.count:
            start = time.perf_counter()
            total = session.count(query)
            elapsed = time.perf_counter() - start
            print(f"#witnesses = {total}   [{elapsed * 1e3:.1f} ms]")
            if args.check:
                failed |= _mismatch(naive_count(query, db), total, label)
    if args.check:
        for text, program, value in zip(sql_texts, programs, sql_answers):
            failed |= _mismatch(naive_program(program, db), value, f"sql: {text}")
    return 1 if failed else 0


def cmd_sql(args: argparse.Namespace) -> int:
    from .sql import SqlError, compile_sql, naive_program, render_explain, run_program

    try:
        # first pass is db-less: it infers each relation's schema and
        # kinds from the query text, which defines the generated data
        probe = compile_sql(args.sql)
    except SqlError as error:
        return _fail(error)

    try:
        generated = _evaluation_database(
            [d.query for d in probe.disjuncts], args
        )
    except ValueError as error:
        return _fail(error)
    # rebind relations under the SQL-visible column names, then compile
    # db-backed so the optimizer sees real statistics
    from .engine import Relation

    db = Database()
    for relation in generated:
        db.add(
            Relation(
                relation.name, probe.schemas[relation.name], relation.tuples
            )
        )
    session = QuerySession.for_database(db)
    program = session.program(args.sql)
    print(f"|D| = {db.size} tuples ({args.workload} workload)")
    if args.explain:
        print(render_explain(session.explain_sql(args.sql)))
        return 0
    start = time.perf_counter()
    answer = run_program(program, session)
    elapsed = time.perf_counter() - start
    head = "COUNT(*)" if program.head == "count" else "EXISTS"
    print(f"{head} = {answer}   [{elapsed * 1e3:.1f} ms]")
    if args.check and _mismatch(naive_program(program, db), answer):
        return 1
    return 0


def cmd_reduce(args: argparse.Namespace) -> int:
    query = parse_query(args.query)
    db = random_database(query, args.n, seed=args.seed)
    start = time.perf_counter()
    result = forward_reduce(query, db)
    elapsed = time.perf_counter() - start
    print(f"EJ disjuncts: {len(result.ej_queries)}")
    print(f"relations in D~: {len(result.database.relation_names)}")
    print(
        f"|D| = {db.size}, |D~| = {result.database.size} "
        f"(blowup x{result.blowup(db):.1f})   [{elapsed * 1e3:.1f} ms]"
    )
    print("disjunct 1:", result.ej_queries[0])
    return 0


def cmd_catalog(_: argparse.Namespace) -> int:
    for name, factory in query_catalog.PAPER_IJ_QUERIES.items():
        query = factory()
        analysis = analyze_query(query, compute_widths=False)
        flag = "iota" if analysis.iota_acyclic else "NOT iota"
        print(f"{name:10s} {flag:9s} {query}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from .service import ServiceServer, WorkerPool

    queries = [parse_query(text) for text in args.query]
    if (error := _cache_options_error(args)) is not None:
        return _fail(error)
    try:
        db = _evaluation_database(queries, args)
    except ValueError as error:
        return _fail(error)
    try:
        pool = WorkerPool(
            db,
            workers=args.workers,
            cache_dir=args.cache_dir,
            cache_max_bytes=args.cache_max_bytes,
        )
    except ValueError as error:
        return _fail(error)
    server = ServiceServer(
        pool,
        host=args.host,
        port=args.port,
        max_inflight=args.max_inflight,
        default_deadline_ms=args.deadline_ms,
    )

    def close() -> str:
        report = pool.close()
        return "final worker stats: " + json.dumps(
            report["aggregate"], sort_keys=True
        )

    return _serve_until_interrupted(
        server,
        lambda host, port: (
            f"repro.service listening on {host}:{port} "
            f"({args.workers} workers, |D| = {db.size} tuples, "
            f"cache_dir = {args.cache_dir})"
        ),
        close,
    )


def cmd_loadgen(args: argparse.Namespace) -> int:
    from .service import generate_requests, run_load

    base_queries = [parse_query(text) for text in args.query]
    tenants = None
    if args.tenants is not None:
        tenants = [t.strip() for t in args.tenants.split(",") if t.strip()]
        if not tenants:
            return _fail("--tenants must name at least one tenant")
    requests = generate_requests(
        base_queries,
        args.requests,
        seed=args.seed,
        variants_per_query=args.variants,
        count_fraction=args.count_fraction,
        mutate_fraction=args.mutate_fraction,
        domain=args.domain,
        tenants=tenants,
    )
    try:
        report = asyncio.run(
            run_load(
                args.host,
                args.port,
                requests,
                mode=args.mode,
                concurrency=args.concurrency,
                rate=args.rate,
                connections=args.connections,
                direct=args.direct,
            )
        )
    except ConnectionRefusedError:
        return _fail(
            f"no server at {args.host}:{args.port} "
            f"(start one with `repro serve`)"
        )
    print(report.summary())
    if args.out is not None:
        with open(args.out, "w") as handle:
            json.dump(report.as_dict(), handle, indent=2)
        print(f"report written to {args.out}")
    return 0


def _route_shard_names(args: argparse.Namespace) -> list[str]:
    if args.shard_names is not None:
        return [s.strip() for s in args.shard_names.split(",") if s.strip()]
    return [f"shard-{i}" for i in range(args.shards)]


def cmd_route(args: argparse.Namespace) -> int:
    from .core.session import canonical_form
    from .service import HashRing
    from .workloads import isomorphic_variants

    names = _route_shard_names(args)
    if not names:
        return _fail("need at least one shard")
    queries = [parse_query(text) for text in args.query]
    if args.serve:
        return _route_serve(args, names, queries)

    # group the queries (and optional isomorphic variants) by canonical
    # form: the ring places *groups*, so isomorphic queries collapse
    groups: dict[tuple, str] = {}
    members: dict[tuple, int] = {}
    for i, query in enumerate(queries, start=1):
        key = canonical_form(query).key
        groups.setdefault(key, f"#{i} {query.name}")
        members[key] = members.get(key, 0) + 1
        for variant in isomorphic_variants(query, args.variants, seed=args.seed):
            vkey = canonical_form(variant).key
            groups.setdefault(vkey, f"#{i} {query.name} (variant)")
            members[vkey] = members.get(vkey, 0) + 1
    ring = HashRing(names, replicas=args.replicas)
    placement = ring.placement(groups)
    print(
        f"{len(ring)} shards x {args.replicas} virtual nodes; "
        f"{len(queries)} queries"
        + (f" + {args.variants} variants each" if args.variants else "")
        + f" -> {len(groups)} canonical groups"
    )
    for key, label in groups.items():
        extra = f" (x{members[key]})" if members[key] > 1 else ""
        print(f"  {label}{extra} -> {placement[key]}")
    if args.grow:
        grown = HashRing(names, replicas=args.replicas)
        for i in range(args.grow):
            grown.add(f"shard-new-{i}")
        after = grown.placement(groups)
        moved = sum(1 for k in groups if placement[k] != after[k])
        print(
            f"growing {len(names)} -> {len(names) + args.grow} shards "
            f"remaps {moved}/{len(groups)} groups "
            f"(expected ~{len(groups) * args.grow / (len(names) + args.grow):.1f})"
        )
    if args.drop is not None:
        if args.drop not in ring:
            return _fail(f"shard {args.drop!r} is not on the ring")
        if len(ring) == 1:
            return _fail("cannot drop the only shard")
        ring.remove(args.drop)
        after = ring.placement(groups)
        moved = sum(1 for k in groups if placement[k] != after[k])
        print(
            f"dropping {args.drop} remaps {moved}/{len(groups)} groups "
            f"(exactly its share; every other group keeps its shard)"
        )
    return 0


def _parse_remote_shards(text: str) -> dict[str, tuple[str, int]]:
    """``NAME=HOST:PORT,...`` → ``{name: (host, port)}``."""
    remote: dict[str, tuple[str, int]] = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        name, _, address = item.partition("=")
        host, _, port = address.rpartition(":")
        if not name or not host or not port.isdigit():
            raise ValueError(
                f"--remote-shards entries must be NAME=HOST:PORT, got {item!r}"
            )
        if name in remote:
            raise ValueError(f"--remote-shards names {name!r} twice")
        remote[name] = (host, int(port))
    if not remote:
        raise ValueError("--remote-shards must name at least one shard")
    return remote


def _route_serve(
    args: argparse.Namespace, names: list[str], queries
) -> int:
    from .service import RouterServer, ShardRouter, ShardUnreachable

    remote = None
    if args.remote_shards is not None:
        try:
            remote = _parse_remote_shards(args.remote_shards)
        except ValueError as error:
            return _fail(error)
    try:
        router = ShardRouter(
            shards=names,
            cache_dir=args.cache_dir,
            workers_per_shard=args.workers_per_shard,
            replicas=args.replicas,
            remote_shards=remote,
            health_interval=args.health_interval,
        )
    except ShardUnreachable as error:
        return _fail(error)
    server = RouterServer(
        router,
        host=args.host,
        port=args.port,
        max_inflight=args.max_inflight,
        default_deadline_ms=args.deadline_ms,
    )

    def banner(host: str, port: int) -> str:
        placement = {q.name: router.shard_for(q) for q in queries}
        tier = "coordinator for" if remote is not None else "router"
        return (
            f"repro.service {tier} listening on {host}:{port} "
            f"({len(router.shard_names)} shards, {args.workers_per_shard} "
            f"workers per pool, cache_dir = {args.cache_dir}); attach tenants "
            f"with the attach_tenant verb; placement: {json.dumps(placement)}"
        )

    def close() -> str:
        report = router.close()
        return f"router closed ({len(report['tenants'])} tenants drained)"

    return _serve_until_interrupted(server, banner, close)


def cmd_shard(args: argparse.Namespace) -> int:
    from .service import RouterServer, ShardRouter

    host, _, port_text = args.listen.rpartition(":")
    if not host or not port_text.isdigit():
        return _fail(f"--listen must be HOST:PORT, got {args.listen!r}")
    if args.workers < 1:
        return _fail("--workers must be at least 1")
    # one shard node = a single-node router: same wire protocol, same
    # tenancy/reload semantics, internal shard name "local" (the
    # coordinator's ring names live one level up)
    router = ShardRouter(
        shards=("local",),
        cache_dir=args.cache_dir,
        workers_per_shard=args.workers,
    )
    server = RouterServer(
        router,
        host=host,
        port=int(port_text),
        max_inflight=args.max_inflight,
        default_deadline_ms=args.deadline_ms,
        max_line_bytes=args.max_line_bytes,
    )

    def close() -> str:
        router.close()
        return f"shard {args.name} closed"

    # keep the banner stable: spawn_shard_process parses it to learn the
    # ephemeral port
    return _serve_until_interrupted(
        server,
        lambda bound_host, bound_port: (
            f"repro.service shard {args.name} listening on "
            f"{bound_host}:{bound_port} ({args.workers} workers, "
            f"cache_dir = {args.cache_dir})"
        ),
        close,
    )


COMMANDS = {
    "analyze": cmd_analyze,
    "evaluate": cmd_evaluate,
    "sql": cmd_sql,
    "reduce": cmd_reduce,
    "catalog": cmd_catalog,
    "serve": cmd_serve,
    "loadgen": cmd_loadgen,
    "route": cmd_route,
    "shard": cmd_shard,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
