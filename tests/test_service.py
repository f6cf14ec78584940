"""The concurrent query-serving subsystem (:mod:`repro.service`).

Four layers under test:

* the wire protocol — tagged value encodings round-trip, query texts
  re-parse to isomorphic queries;
* the :class:`WorkerPool` — differential correctness against the naive
  oracle, canonical-group routing (one reduction cluster-wide per
  isomorphism group), mutation broadcast through the delta-patch path,
  graceful shutdown, worker-crash recovery (a SIGKILLed worker's
  outstanding answers are resubmitted, never lost or duplicated), and
  the acceptance criterion that a warm pool restart over a shared
  persistent cache performs **zero** forward reductions;
* the asyncio server — a mixed evaluate/count/mutate request stream is
  differentially checked against a mirrored database, and admission
  control answers overload and deadline misses with *typed* errors;
* the load harness — request-mix generation and a closed-loop run
  against a live server.

Worker processes use the ``spawn`` start method, so each test here is
also a cross-process content-addressing test (no interpreter state is
shared — only the cache directory).
"""

import asyncio
import os
import random
import signal
import sys
import time

import pytest

from repro.core import naive_count, naive_evaluate
from repro.engine import Database
from repro.intervals import Interval
from repro.queries import parse_query
from repro.service import (
    PoolClosed,
    ServiceClient,
    ServiceError,
    ServiceServer,
    WorkerPool,
    generate_requests,
    query_text,
    run_load,
)
from repro.service.protocol import (
    ProtocolError,
    decode_tuple,
    decode_value,
    encode_tuple,
    encode_value,
)
from repro.core.session import canonical_form
from repro.workloads import isomorphic_variants, random_database

TRIANGLE = "R([A],[B]) ∧ S([B],[C]) ∧ T([A],[C])"
PATH2 = "U([A],[B]) ∧ V([B],[C])"


def small_db(n: int = 20, seed: int = 11) -> Database:
    q1, q2 = parse_query(TRIANGLE), parse_query(PATH2)
    db = random_database(q1, n, seed=seed)
    for relation in random_database(q2, n, seed=seed + 1):
        db.add(relation)
    return db


def in_domain_tuple(db: Database, relation: str, rng: random.Random) -> tuple:
    """A fresh interval tuple whose endpoints already occur in the
    relation's columns — patchable by construction (PR 3)."""
    columns: list[list[float]] = []
    for position in range(db[relation].arity):
        points = sorted(
            {e for t in db[relation].tuples for e in (t[position].left, t[position].right)}
        )
        columns.append(points)
    while True:
        row = tuple(
            Interval(*sorted(rng.sample(points, 2))) for points in columns
        )
        if row not in db[relation].tuples:
            return row


# ----------------------------------------------------------------------
# protocol
# ----------------------------------------------------------------------


class TestProtocol:
    def test_values_round_trip(self):
        values = [
            1,
            1.5,
            "x",
            True,
            None,
            Interval(0.25, 4.0),
            (Interval(1, 2), 3, ("nested", Interval(5, 6))),
        ]
        for value in values:
            assert decode_value(encode_value(value)) == value
        t = (Interval(0, 1), 7)
        assert decode_tuple(encode_tuple(t)) == t

    def test_unencodable_value_raises(self):
        with pytest.raises(ProtocolError):
            encode_value(object())
        with pytest.raises(ProtocolError):
            decode_value({"what": 1})

    def test_query_text_round_trips_to_the_same_canonical_form(self):
        for text in (TRIANGLE, PATH2, "R([A],[B]) ∧ R([B],[C])"):
            query = parse_query(text)
            back = parse_query(query_text(query))
            assert canonical_form(back).key == canonical_form(query).key


# ----------------------------------------------------------------------
# the worker pool
# ----------------------------------------------------------------------


class TestWorkerPool:
    def test_differential_batch_and_counts(self):
        db = small_db()
        q1, q2 = parse_query(TRIANGLE), parse_query(PATH2)
        batch = isomorphic_variants(q1, 5, seed=1) + isomorphic_variants(
            q2, 5, seed=2
        )
        with WorkerPool(db, workers=2) as pool:
            answers = pool.evaluate_many(batch)
            counts = pool.count_many([q1, q2])
        assert answers == [naive_evaluate(q, db) for q in batch]
        assert counts == [naive_count(q1, db), naive_count(q2, db)]

    def test_isomorphism_group_shares_one_reduction_cluster_wide(self):
        db = small_db()
        query = parse_query(TRIANGLE)
        pool = WorkerPool(db, workers=2)
        try:
            pool.evaluate_many(isomorphic_variants(query, 8, seed=3))
        finally:
            report = pool.close()
        # 8 isomorphic queries routed to one worker, one reduction total
        assert report["aggregate"]["reductions"] == 1, report

    def test_mutation_broadcast_takes_the_patch_path(self):
        db = small_db()
        query = parse_query(TRIANGLE)
        rng = random.Random(7)
        with WorkerPool(db, workers=2) as pool:
            pool.evaluate_many([query])  # warm every routed worker
            t = in_domain_tuple(db, "R", rng)
            acks = pool.mutate("insert", "R", t).result(timeout=60)
            assert all(ack["applied"] for ack in acks)
            assert t in db["R"].tuples  # parent copy mutated too
            answer = pool.evaluate_many([query])[0]
            stats = pool.stats()
        assert answer == naive_evaluate(query, db)
        assert stats["aggregate"]["delta_patches"] >= 1, stats

    def test_graceful_shutdown_drains_queued_work(self):
        db = small_db(n=15)
        queries = [parse_query(TRIANGLE), parse_query(PATH2)]
        pool = WorkerPool(db, workers=2)
        futures = [pool.evaluate(q) for q in queries for _ in range(3)]
        report = pool.close()  # sentinel is FIFO behind the queued tasks
        assert [f.result(timeout=5) for f in futures] == [
            naive_evaluate(q, db) for q in queries for _ in range(3)
        ]
        assert report["aggregate"]["reductions"] >= 1
        with pytest.raises(PoolClosed):
            pool.evaluate(queries[0])

    @staticmethod
    def _crash_bases(n_groups: int = 10):
        """Distinct canonical groups over disjoint relations, so both
        workers hold routed work and crash recovery is observable."""
        return [
            parse_query(f"A{i}([X],[Y]) ∧ B{i}([Y],[Z]) ∧ C{i}([X],[Z])")
            for i in range(n_groups)
        ]

    @staticmethod
    def _crash_db(bases, n: int = 40):
        db = Database()
        for i, query in enumerate(bases):
            for relation in random_database(query, n, seed=i):
                db.add(relation)
        return db

    @staticmethod
    def _wait_for(predicate, timeout: float = 60.0) -> None:
        deadline = time.time() + timeout
        while not predicate() and time.time() < deadline:
            time.sleep(0.05)
        assert predicate()

    def test_worker_crash_recovers_without_lost_or_duplicate_answers(self):
        # 10 distinct canonical groups over disjoint relations, so both
        # workers hold outstanding tasks when one is killed mid-batch
        bases = self._crash_bases()
        db = self._crash_db(bases)
        pool = WorkerPool(db, workers=2)
        try:
            futures = [pool.evaluate(q) for q in bases]
            time.sleep(0.2)  # let both workers get into the batch
            victim = pool._workers[0]
            os.kill(victim.process.pid, signal.SIGKILL)
            answers = [f.result(timeout=120) for f in futures]
            # exactly one resolution per future, all correct
            assert answers == [naive_evaluate(q, db) for q in bases]
            # the crashed worker is respawned in place (on a helper
            # thread, so wait): the pool returns to full strength
            self._wait_for(
                lambda: pool.respawns == 1 and pool.alive_workers == [0, 1]
            )
            assert pool.evaluate_many(bases[:2]) == answers[:2]
            stats = pool.stats()
            assert len(stats["workers"]) == 2
            assert stats["respawns"] == 1
        finally:
            pool.close()

    def test_respawned_worker_warms_from_the_persistent_cache(self, tmp_path):
        """Satellite acceptance: after a SIGKILL, the replacement worker
        (same slot, parent's current database copy) serves its share of
        the workload entirely from the shared persistent cache — zero
        forward reductions, persistent hits only."""
        bases = self._crash_bases()
        db = self._crash_db(bases, n=20)
        pool = WorkerPool(db, workers=2, cache_dir=tmp_path)
        try:
            cold = pool.evaluate_many(bases)  # both workers reduce + persist
            victim = pool._workers[0]
            os.kill(victim.process.pid, signal.SIGKILL)
            self._wait_for(
                lambda: pool.respawns == 1 and pool.alive_workers == [0, 1]
            )
            assert pool.evaluate_many(bases) == cold
            stats = pool.stats()
            replacement = next(
                w for w in stats["workers"] if w["worker"] == 0
            )
            assert replacement["session"]["reductions"] == 0, replacement
            assert replacement["session"]["persistent_hits"] > 0, replacement
        finally:
            pool.close()

    def test_mutation_during_respawn_window_reaches_the_replacement(self):
        """A broadcast mutation racing the replacement build must not be
        lost: either it is in the replacement's database snapshot or the
        delta replay re-sends it (idempotent overlap is fine) — every
        post-respawn answer matches the naive oracle over the parent's
        mutated copy."""
        bases = self._crash_bases(4)
        db = self._crash_db(bases, n=15)
        rng = random.Random(3)
        pool = WorkerPool(db, workers=2)
        try:
            pool.evaluate_many(bases)
            victim = pool._workers[0]
            os.kill(victim.process.pid, signal.SIGKILL)
            # broadcast immediately: with the kill just delivered, the
            # mutation often lands inside the detect/spawn window
            t = in_domain_tuple(db, "A0", rng)
            pool.mutate("insert", "A0", t).result(timeout=60)
            self._wait_for(
                lambda: pool.respawns == 1 and pool.alive_workers == [0, 1]
            )
            assert t in db["A0"].tuples  # parent copy current
            assert pool.evaluate_many(bases) == [
                naive_evaluate(q, db) for q in bases
            ]
        finally:
            pool.close()

    def test_single_worker_crash_keeps_serving_through_the_respawn(self):
        """With one worker, a crash leaves nobody alive for the
        detect-and-spawn window; work submitted in that window (or
        outstanding at crash time) must park for the replacement and
        resolve — not hard-fail a blip the pool recovers from."""
        db = small_db(n=10)
        query = parse_query(TRIANGLE)
        pool = WorkerPool(db, workers=1)
        try:
            assert pool.evaluate_many([query]) == [
                naive_evaluate(query, db)
            ]
            os.kill(pool._workers[0].process.pid, signal.SIGKILL)
            # submitted right after the kill: routed to the dead worker
            # (orphaned, then held) or parked — either way it resolves
            future = pool.evaluate(query)
            assert future.result(timeout=120) == naive_evaluate(query, db)
            self._wait_for(lambda: pool.respawns == 1)
            assert pool.alive_workers == [0]
        finally:
            pool.close()

    def test_crash_without_respawn_shrinks_the_pool(self):
        """``max_respawns=0`` is the pool that never respawns: it
        shrinks and survivors keep serving."""
        db = small_db(n=10)
        query = parse_query(TRIANGLE)
        pool = WorkerPool(db, workers=2, max_respawns=0)
        try:
            pool.evaluate_many([query])
            victim = pool._workers[0]
            os.kill(victim.process.pid, signal.SIGKILL)
            self._wait_for(lambda: pool.alive_workers == [1])
            assert pool.respawns == 0
            assert pool.evaluate_many([query]) == [
                naive_evaluate(query, db)
            ]
            assert len(pool.stats()["workers"]) == 1
        finally:
            pool.close()

    def test_warm_pool_restart_performs_zero_reductions(self, tmp_path):
        """The PR's acceptance criterion: a restarted pool over the
        shared content-addressed cache loads every reduction from disk
        (``reductions == 0`` on every worker, ``persistent_hits > 0``)."""
        db = small_db()
        q1, q2 = parse_query(TRIANGLE), parse_query(PATH2)
        batch = isomorphic_variants(q1, 4, seed=5) + isomorphic_variants(
            q2, 4, seed=6
        )

        def workload(pool: WorkerPool):
            return pool.evaluate_many(batch), pool.count_many([q1, q2])

        pool = WorkerPool(db, workers=2, cache_dir=tmp_path)
        try:
            cold = workload(pool)
        finally:
            cold_report = pool.close()
        assert cold_report["aggregate"]["reductions"] > 0

        restarted = WorkerPool(db, workers=2, cache_dir=tmp_path)
        try:
            warm = workload(restarted)
        finally:
            warm_report = restarted.close()
        assert warm == cold
        assert warm_report["aggregate"]["reductions"] == 0, warm_report
        assert warm_report["aggregate"]["persistent_hits"] > 0, warm_report
        for worker in warm_report["workers"]:
            assert worker["session"]["reductions"] == 0, worker

    def test_admission_policy_is_plumbed_to_workers(self):
        """Pool options reach the worker sessions: a one-slot answer
        cache evicts as soon as a second answer arrives."""
        db = small_db(n=10)
        query = parse_query(TRIANGLE)
        with WorkerPool(db, workers=1, answer_cache_size=1) as pool:
            pool.evaluate_many([query])
            pool.count_many([query])
            stats = pool.stats()
        assert stats["aggregate"]["evictions"] >= 1, stats


# ----------------------------------------------------------------------
# the asyncio server
# ----------------------------------------------------------------------


def run_with_server(db, body, workers: int = 2, **server_kw):
    """Start pool + server, run blocking ``body(host, port)`` in a
    thread, tear down, and return ``(body_result, close_report)``."""
    pool = WorkerPool(db, workers=workers)
    server = ServiceServer(pool, **server_kw)

    async def driver():
        host, port = await server.start()
        try:
            return await asyncio.to_thread(body, host, port)
        finally:
            await server.stop()

    try:
        result = asyncio.run(driver())
    finally:
        report = pool.close()
    return result, report


class TestServer:
    def test_mixed_request_smoke_is_differentially_correct(self):
        """The CI service smoke: 2 workers, ~50 mixed evaluate / count /
        mutate requests over one connection, every answer checked
        against a naive-oracle mirror of the database."""
        db = small_db(n=15, seed=3)
        mirror = small_db(n=15, seed=3)
        q1 = parse_query(TRIANGLE)
        rng = random.Random(17)

        def body(host, port):
            checked = 0
            with ServiceClient(host, port) as client:
                for i in range(50):
                    roll = rng.random()
                    if roll < 0.15:
                        t = in_domain_tuple(mirror, "R", rng)
                        ack = client.mutate("insert", "R", t)
                        assert ack["applied"] and ack["workers"] == 2
                        mirror.insert("R", t)
                    elif roll < 0.25:
                        assert client.count(TRIANGLE) == naive_count(q1, mirror)
                    elif roll < 0.35:
                        variants = [
                            query_text(v)
                            for v in isomorphic_variants(q1, 3, seed=i)
                        ]
                        expected = naive_evaluate(q1, mirror)
                        assert client.evaluate_many(variants) == [expected] * 3
                    else:
                        variant = isomorphic_variants(q1, 1, seed=i)[0]
                        assert client.evaluate(
                            query_text(variant)
                        ) == naive_evaluate(q1, mirror)
                    checked += 1
                stats = client.stats()
            assert stats["server"]["served"] >= checked
            assert stats["server"]["bad_requests"] == 0
            assert len(stats["workers"]) == 2
            return checked

        checked, report = run_with_server(db, body)
        assert checked == 50
        assert report["aggregate"]["delta_patches"] >= 1, (
            "logged mutations must patch warm workers, not rebuild them"
        )

    def test_overload_returns_typed_backpressure(self):
        db = small_db(n=25)
        requests = generate_requests(
            [parse_query(TRIANGLE)], 40, seed=4, variants_per_query=4
        )

        def body(host, port):
            return asyncio.run(
                run_load(host, port, requests, mode="open", rate=2000.0,
                         connections=2)
            )

        report, _ = run_with_server(db, body, max_inflight=1)
        overloaded = report.errors.get("overloaded", 0)
        assert overloaded > 0, report.as_dict()
        assert report.ok + sum(report.errors.values()) == 40
        # rejected requests saw backpressure, not silent queueing: they
        # answered orders of magnitude faster than the served ones
        assert report.ok >= 1

    def test_pipelined_burst_cannot_slip_past_the_inflight_bound(self):
        """Regression: admission claims the in-flight slot synchronously
        in the read loop, so N requests buffered in one TCP segment
        cannot all be admitted before any of them starts executing."""
        db = small_db(n=25)
        import json as json_module

        def body(host, port):
            with ServiceClient(host, port) as client:
                burst = b"".join(
                    json_module.dumps(
                        {"id": i, "op": "count", "query": TRIANGLE}
                    ).encode()
                    + b"\n"
                    for i in range(20)
                )
                client._file.write(burst)  # one write, one segment
                client._file.flush()
                codes = []
                for _ in range(20):
                    response = json_module.loads(client._file.readline())
                    codes.append(
                        None
                        if response["ok"]
                        else response["error"]["code"]
                    )
            return codes

        codes, _ = run_with_server(db, body, max_inflight=1)
        overloaded = codes.count("overloaded")
        served = codes.count(None)
        assert served + overloaded == 20, codes
        assert served >= 1
        # the admitted count takes far longer than draining the buffered
        # burst, so nearly all of the burst must see typed backpressure
        # (the seed bug admitted all 20)
        assert overloaded >= 15, codes

    def test_schema_invalid_mutate_is_rejected_not_applied(self):
        """Regression: a mutate whose value kinds contradict the
        relation (ints where intervals live), or whose interval
        endpoints are not finite ordered numbers, must be a
        ``bad_request`` — the database layer only checks arity, and
        applying it would poison every later query over the relation
        cluster-wide (and every respawned worker, through the parent's
        copy)."""
        db = small_db(n=10)
        good = {"interval": [2, 3]}
        bad_values = [
            {"interval": [1, None]},
            {"interval": ["a", "b"]},
            {"interval": [float("nan"), 1]},
            {"interval": [True, 2]},
            {"interval": [1, float("inf")]},
            {"interval": [3, 1]},
            float("nan"),
        ]

        def body(host, port):
            with ServiceClient(host, port) as client:
                bad_kinds = client.request(
                    "mutate", kind="insert", relation="R", tuple=[1, 2]
                )
                rejected = [
                    client.request(
                        "mutate", kind="insert", relation="R", tuple=[bad, good]
                    )
                    for bad in bad_values
                ]
                unknown = client.request(
                    "mutate", kind="insert", relation="NOPE", tuple=[1]
                )
                answer = client.evaluate(TRIANGLE)  # R is unpoisoned
                count = client.count(TRIANGLE)
            return bad_kinds, rejected, unknown, answer, count

        before = set(db["R"].tuples)
        (bad_kinds, rejected, unknown, answer, count), _ = run_with_server(
            db, body
        )
        assert bad_kinds["error"]["code"] == "bad_request"
        for response in rejected:
            assert response["error"]["code"] == "bad_request", response
        assert unknown["error"]["code"] == "bad_request"
        assert answer == naive_evaluate(parse_query(TRIANGLE), small_db(n=10))
        assert count == naive_count(parse_query(TRIANGLE), small_db(n=10))
        # nothing reached the parent's copy, which respawns inherit
        assert set(db["R"].tuples) == before

    def test_pool_rejects_invalid_options_at_construction(self):
        """Regression: a bad session option must raise in the parent,
        not kill every spawned worker and surface as a WorkerCrash."""
        db = small_db(n=5)
        with pytest.raises(ValueError):
            WorkerPool(db, workers=1, answer_cache_size=0)
        with pytest.raises(ValueError):
            WorkerPool(db, workers=1, cache_max_bytes=-5)
        with pytest.raises(ValueError):
            WorkerPool(db, workers=0)

    def test_oversized_request_line_is_a_typed_bad_request(self):
        """A line over ``max_line_bytes`` cannot be resynchronized, so
        the server answers a typed ``bad_request`` and closes the
        connection — not a silent EOF with a logged traceback."""
        db = small_db(n=10)
        import json as json_module

        def body(host, port):
            with ServiceClient(host, port) as client:
                huge = {"id": 1, "op": "evaluate", "query": "R" * 5000}
                client._file.write(json_module.dumps(huge).encode() + b"\n")
                client._file.flush()
                response = json_module.loads(client._file.readline())
                closed = client._file.readline() == b""
            return response, closed

        (response, closed), _ = run_with_server(
            db, body, max_line_bytes=2048
        )
        assert response["error"]["code"] == "bad_request"
        assert "2048" in response["error"]["message"]
        assert closed

    def test_malformed_deadline_is_a_bad_request(self):
        db = small_db(n=10)
        malformed = ["fast", "5", True, float("nan"), float("inf"), [5]]

        def body(host, port):
            with ServiceClient(host, port) as client:
                responses = [
                    client.request("evaluate", query=TRIANGLE, deadline_ms=bad)
                    for bad in malformed
                ]
                # null means no deadline; the connection survived
                answer = client.evaluate(TRIANGLE, deadline_ms=None)
            return responses, answer

        (responses, answer), _ = run_with_server(db, body)
        for response in responses:
            assert response["error"]["code"] == "bad_request", response
        assert answer == naive_evaluate(parse_query(TRIANGLE), small_db(n=10))

    def test_deadline_exceeded_is_typed(self):
        db = small_db(n=25)

        def body(host, port):
            with ServiceClient(host, port) as client:
                with pytest.raises(ServiceError) as excinfo:
                    client.count(TRIANGLE, deadline_ms=0)
                code = excinfo.value.code
                # the connection survives a deadline miss
                answer = client.evaluate(TRIANGLE)
            return code, answer

        (code, answer), _ = run_with_server(db, body)
        assert code == "deadline_exceeded"
        assert answer == naive_evaluate(parse_query(TRIANGLE), small_db(n=25))

    def test_bad_requests_are_typed_and_non_fatal(self):
        db = small_db(n=10)

        def body(host, port):
            codes = []
            with ServiceClient(host, port) as client:
                codes.append(client.request("frobnicate")["error"]["code"])
                codes.append(
                    client.request("evaluate", query="not a query ∧∧")[
                        "error"
                    ]["code"]
                )
                codes.append(
                    client.request("mutate", kind="replace", relation="R",
                                   tuple=[])["error"]["code"]
                )
                # raw garbage line: the server answers with id null
                client._file.write(b"{ not json\n")
                client._file.flush()
                import json

                codes.append(json.loads(client._file.readline())["error"]["code"])
                answer = client.evaluate(TRIANGLE)  # still serving
            return codes, answer

        (codes, answer), _ = run_with_server(db, body)
        # malformed *query text* gets the dedicated bad_query code;
        # framing-level garbage stays bad_request
        assert codes == ["bad_request", "bad_query", "bad_request", "bad_request"]
        assert answer == naive_evaluate(parse_query(TRIANGLE), small_db(n=10))


# ----------------------------------------------------------------------
# the load harness
# ----------------------------------------------------------------------


class TestLoadgen:
    def test_generate_requests_mix_and_determinism(self):
        base = [parse_query(TRIANGLE)]
        requests = generate_requests(
            base, 200, seed=9, variants_per_query=5,
            count_fraction=0.2, mutate_fraction=0.2,
        )
        assert requests == generate_requests(
            base, 200, seed=9, variants_per_query=5,
            count_fraction=0.2, mutate_fraction=0.2,
        )
        ops = {op: 0 for op in ("evaluate", "count", "mutate")}
        for request in requests:
            ops[request["op"]] += 1
        assert ops["evaluate"] > ops["count"] > 0
        assert ops["mutate"] > 0
        # isomorphism-heavy: many requests, few canonical groups
        keys = {
            canonical_form(parse_query(r["query"])).key
            for r in requests
            if r["op"] == "evaluate"
        }
        assert len(keys) == 1
        kinds = {r["kind"] for r in requests if r["op"] == "mutate"}
        assert "insert" in kinds

    def test_closed_loop_run_reports_throughput_and_percentiles(self):
        db = small_db(n=15)
        requests = generate_requests(
            [parse_query(TRIANGLE), parse_query(PATH2)], 30, seed=2,
            variants_per_query=4, count_fraction=0.1, mutate_fraction=0.1,
        )

        def body(host, port):
            return asyncio.run(
                run_load(host, port, requests, mode="closed", concurrency=3)
            )

        report, _ = run_with_server(db, body)
        assert report.ok == 30, report.as_dict()
        digest = report.as_dict()
        latency = digest["latency_ms"]
        assert latency["p50"] <= latency["p95"] <= latency["max"]
        assert digest["throughput_rps"] > 0
        assert digest["ops"]["evaluate"] > 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(pytest.main([__file__, "-q"]))
