"""Direct-call probes: one layer's public function at a time, on the
workload's own inputs.

``probe_layers`` prices each layer in isolation (medians over a few
repetitions per distinct query/database of the workload);
``probe_depths`` replays the workload's reads hot at the session, pool
and wire depths.  Both run only in the traced run, after the passes.
"""

from __future__ import annotations

from pathlib import Path
from statistics import median
from time import perf_counter

from depths import WireService
from workloads import Workload, overlap_sql, run_read, wrong_answer

from repro.core import QuerySession
from repro.core.cache_format import load_result, serialize_result
from repro.core.disjunct_eval import count_disjunction, evaluate_disjunction
from repro.core.reduction_cache import (
    FORMAT_VERSION,
    ReductionCache,
    database_digests,
    reduction_key,
)
from repro.core.session import canonical_form
from repro.engine.ej import count_ej
from repro.engine.relation import Delta
from repro.queries.query import Atom, Query, Variable
from repro.reduction.disjoint import shift_distinct_left
from repro.reduction.forward import forward_reduce
from repro.service import protocol
from repro.sql import compile_sql, explain_program
from repro.widths import ij_width

#: distinct (query, database) pairs probed per workload, and the
#: repetitions of each call on each
MAX_INSTANCES = 3
REPS = 3
#: reads replayed per depth
DEPTH_OPS = 300


def _clock(samples: list[float], fn, *args, **kwargs):
    started = perf_counter()
    result = fn(*args, **kwargs)
    samples.append(perf_counter() - started)
    return result


def _renamed(query: Query, prefix: str) -> Query:
    """``query`` with fresh variable names: a form the process-global
    canonicalization memo has never seen."""
    return Query(
        tuple(
            Atom(
                atom.label,
                atom.relation,
                tuple(
                    Variable(f"{prefix}{v.name}", v.is_interval)
                    for v in atom.variables
                ),
            )
            for atom in query.atoms
        ),
        name=query.name,
    )


def _instances(workload: Workload) -> list[tuple[Query, int]]:
    seen, out = set(), []
    for read in workload.reads:
        key = (read.db, read.query)
        if read.query is not None and key not in seen:
            seen.add(key)
            out.append((read.query, read.db))
    # spread over the list so several query shapes are probed
    step = max(1, len(out) // MAX_INSTANCES)
    return out[::step][:MAX_INSTANCES]


def _wire_messages(workload: Workload) -> list[dict]:
    messages = []
    for index, op in enumerate(workload.ops[:200]):
        if op.mutation is not None:
            kind, relation, t = op.mutation
            messages.append(
                {
                    "id": index,
                    "op": "mutate",
                    "kind": kind,
                    "relation": relation,
                    "tuple": t,
                }
            )
        if op.kind == "sql":
            messages.append({"id": index, "op": "sql", "sql": op.sql})
        else:
            messages.append(
                {
                    "id": index,
                    "op": op.kind,
                    "query": protocol.query_text(op.query),
                }
            )
    return messages


def probe_layers(workload: Workload, workdir: Path) -> dict[str, float]:
    """Median cost of each layer's public entry points."""
    t: dict[str, list[float]] = {
        name: []
        for name in (
            "forward", "disjoint", "apply_delta", "boolean", "count",
            "per_disjunct", "serialize", "put", "get", "load", "canonicalize",
            "open", "compile", "plan", "ijw", "encode", "decode",
        )
    }
    for number, (query, db_index) in enumerate(_instances(workload)):
        db = workload.databases[db_index]
        cache_dir = workdir / f"cache{number}"
        cache = ReductionCache(cache_dir)
        key = reduction_key(query, database_digests(db), False, False, "plain")
        sql = overlap_sql(query, "COUNT(*)")
        for rep in range(REPS):
            plain = _clock(t["forward"], forward_reduce, query, db)
            started = perf_counter()
            shifted = shift_distinct_left(query, db)
            disjoint = forward_reduce(
                query, shifted, disjoint=True, provenance=True
            )
            t["disjoint"].append(perf_counter() - started)
            _clock(t["boolean"], evaluate_disjunction, plain)
            _clock(t["count"], count_disjunction, disjoint)
            _clock(t["serialize"], serialize_result, plain, FORMAT_VERSION)
            _clock(t["put"], cache.put, key, plain)
            _clock(t["get"], cache.get, key)
            (path,) = cache_dir.glob(f"*/{key}.red")
            _clock(t["load"], load_result, path, FORMAT_VERSION)
            _clock(t["open"], QuerySession, db, cache_dir=cache_dir)
            _clock(t["canonicalize"], canonical_form, _renamed(query, f"p{rep}_"))
            program = _clock(t["compile"], compile_sql, sql, db)
            _clock(t["plan"], explain_program, program, db)
            _clock(t["ijw"], ij_width, query.hypergraph())
        for disjunct in disjoint.ej_queries:
            _clock(t["per_disjunct"], count_ej, disjunct, disjoint.database)
        # last: patching mutates ``plain``
        relation = db[query.atoms[0].relation]
        a, b = sorted(relation.tuples, key=repr)[:2]
        recombined = (a[0],) + b[1:]
        if recombined not in relation:
            for kind in ("insert", "delete") * REPS:
                _clock(
                    t["apply_delta"],
                    plain.apply_delta,
                    Delta(1, kind, relation.name, recombined),
                )
    sizes = []
    for message in _wire_messages(workload):
        started = perf_counter()
        if "tuple" in message:
            message = dict(message, tuple=protocol.encode_tuple(message["tuple"]))
        line = protocol.dump_line(message)
        t["encode"].append(perf_counter() - started)
        started = perf_counter()
        parsed = protocol.parse_line(line)
        if "tuple" in parsed:
            protocol.decode_tuple(parsed["tuple"])
        t["decode"].append(perf_counter() - started)
        sizes.append(len(line))

    def ms(name: str) -> float:
        return median(t[name]) * 1e3 if t[name] else 0.0

    return {
        "sql.compile_ms_p50": ms("compile"),
        "sql.plan_ms_p50": ms("plan"),
        "session.canonicalize_ms_p50": ms("canonicalize"),
        "session.open_ms_p50": ms("open"),
        "cache.get_ms_p50": ms("get"),
        "cache.put_ms_p50": ms("put"),
        "cache.serialize_ms_p50": ms("serialize"),
        "cache.load_ms_p50": ms("load"),
        "reduction.forward_ms_p50": ms("forward"),
        "reduction.disjoint_ms_p50": ms("disjoint"),
        "reduction.apply_delta_ms_p50": ms("apply_delta"),
        "engine.boolean_ms_p50": ms("boolean"),
        "engine.count_ms_p50": ms("count"),
        "engine.per_disjunct_ms_p50": ms("per_disjunct"),
        "widths.ijw_ms_p50": ms("ijw"),
        "protocol.encode_us_p50": ms("encode") * 1e3,
        "protocol.decode_us_p50": ms("decode") * 1e3,
        "protocol.request_bytes_p50": float(median(sizes)),
    }


def probe_depths(
    workload: Workload, workdir: Path, expected: list
) -> tuple[dict[str, float], int, int]:
    """The reads of the workload's first database, hot, at three depths.
    Returns ``(metrics, attempted, wrong)``."""
    db = workload.databases[0]
    reads = [
        op._replace(mutation=None) for op in workload.ops if op.db == 0
    ][:DEPTH_OPS]
    cache_dir = workdir / "cache"
    answers = []

    def replay(run) -> float:
        """Second of two passes: the first warms every cache."""
        for op in reads:
            run(op)
        samples = []
        for op in reads:
            started = perf_counter()
            answer = run(op)
            samples.append(perf_counter() - started)
            answers.append((op, answer))
        return median(samples) * 1e3

    session = QuerySession(db, cache_dir=cache_dir)
    session_ms = replay(lambda op: run_read(session, op))
    service = WireService(db, cache_dir)
    try:
        pool_ms = replay(service.submit)
        service.drive(reads, connections=1, max_ops=len(reads))
        before = dict(service.server.counters)
        executed = service.drive(reads, connections=1, max_ops=len(reads))
        served = {
            name: value - before[name]
            for name, value in service.server.counters.items()
        }
    finally:
        service.close()
    answers.extend((op, answer) for op, _, answer in executed)
    wire_ms = median(latency for _, latency, _ in executed) * 1e3
    wrong = sum(wrong_answer(a, expected[op.read]) for op, a in answers)
    metrics = {
        "session.hot_hit_ms_p50": session_ms,
        "pool.ready_s": service.ready_s,
        "pool.roundtrip_ms_p50": pool_ms,
        "pool.ipc_overhead_ms": pool_ms - session_ms,
        "server.roundtrip_ms_p50": wire_ms,
        "server.wire_overhead_ms": wire_ms - pool_ms,
        "server.requests": float(served["requests"]),
        "server.errors": float(served["errors"]),
        "server.overload_rejections": float(served["overload_rejections"]),
    }
    return metrics, len(answers), wrong
