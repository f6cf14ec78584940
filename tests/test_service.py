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
import json
import logging
import os
import random
import signal
import socket
import sys
import threading
import time
from concurrent.futures import Future
from functools import partial

import pytest

from repro.core import naive_count, naive_evaluate
from repro.engine import Database
from repro.intervals import Interval
from repro.queries import parse_query
from repro.service import (
    PoolClosed,
    RouterServer,
    ServiceClient,
    ServiceError,
    ServiceServer,
    WorkerPool,
    generate_requests,
    query_text,
    run_load,
)
from repro.service.client import ShardUnreachable
from repro.service.pool import WorkerCrash
from repro.service.protocol import (
    BadQueryError,
    ProtocolError,
    decode_tuple,
    decode_value,
    encode_tuple,
    encode_value,
)
from repro.core.session import canonical_form
from repro.service.router import RouterClosed, UnknownTenant
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
    """A fresh interval tuple whose every left endpoint already is a
    left endpoint of its column, and every right one a right one —
    patchable by construction, G.1-shifted artifacts included."""
    rows = sorted(db[relation].tuples, key=repr)
    while True:
        ends = [
            (rng.choice(rows)[col].left, rng.choice(rows)[col].right)
            for col in range(db[relation].arity)
        ]
        if all(left <= right for left, right in ends):
            row = tuple(Interval(*pair) for pair in ends)
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

    def test_a_dead_worker_is_joined_off_the_collector(self, monkeypatch):
        """The collector never waits on a process: a SIGKILLed worker is
        joined by ``close()`` (the one joiner, so its ``waitpid`` wins),
        and after ``close()`` every process the pool spawned has its
        exit code."""
        from multiprocessing.process import BaseProcess

        joiners, spawned = [], []
        join, spawn = BaseProcess.join, WorkerPool._spawn

        def recorded_join(process, timeout=None):
            joiners.append(threading.current_thread().name)
            return join(process, timeout)

        def recorded_spawn(pool, index):
            spawned.append(spawn(pool, index))
            return spawned[-1]

        monkeypatch.setattr(BaseProcess, "join", recorded_join)
        monkeypatch.setattr(WorkerPool, "_spawn", recorded_spawn)
        db = small_db(n=10)
        query = parse_query(TRIANGLE)
        pool = WorkerPool(db, workers=2)
        try:
            assert pool.evaluate_many([query]) == [naive_evaluate(query, db)]
            os.kill(pool._workers[0].process.pid, signal.SIGKILL)
            self._wait_for(
                lambda: pool.respawns == 1 and pool.alive_workers == [0, 1]
            )
            assert pool.evaluate_many([query]) == [naive_evaluate(query, db)]
        finally:
            pool.close()
        assert joiners and "repro-pool-collector" not in joiners
        assert len(spawned) == 3
        assert spawned[0].process.exitcode == -signal.SIGKILL
        assert [w.process.exitcode for w in spawned[1:]] == [0, 0]

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

    def test_session_options_are_plumbed_to_workers(self, tmp_path):
        """Pool options reach the worker sessions: a namespaced pool's
        stores leave ownership markers under that namespace."""
        db = small_db(n=10)
        query = parse_query(TRIANGLE)
        with WorkerPool(
            db, workers=1, cache_dir=tmp_path, cache_namespace="acme"
        ) as pool:
            pool.count_many([query])
        assert list((tmp_path / "_namespaces" / "acme").iterdir())


#: padding that makes each pickled task ~4 KiB, so a burst overruns a
#: pipe's 64 KiB buffer many times over (the worker ops ignore it)
PAD = "x" * 4096


def _covering_tuple(db: Database, relation: str) -> tuple:
    """An in-domain tuple that overlaps every tuple of ``relation``."""
    rows = db[relation].tuples
    return tuple(
        Interval(min(t[c].left for t in rows), max(t[c].right for t in rows))
        for c in range(db[relation].arity)
    )


class TestTaskChannel:
    """The submitting thread writes each task to its worker's pipe:
    registration order is delivery order, a full pipe blocks no
    submitter (a sender thread waits for the worker instead), the
    collector never writes a task, and a payload that cannot be pickled
    fails alone."""

    def test_a_running_pool_has_one_parent_side_helper_thread(self):
        before = set(threading.enumerate())
        db = small_db(n=10)
        with WorkerPool(db, workers=2) as pool:
            pool.evaluate_many([parse_query(TRIANGLE), parse_query(PATH2)])
            pool.mutate("insert", "R", _covering_tuple(db, "R")).result(timeout=60)
            pool.stats()
            names = [t.name for t in threading.enumerate() if t not in before]
        assert names == ["repro-pool-collector"]
        assert not any("Feeder" in t.name for t in threading.enumerate())

    def test_concurrent_bursts_keep_registration_order(self):
        """Three threads submit ~800 KiB of pickled tasks at once, and
        ~2.5 MB of answers come back; a mutation broadcast mid-burst is
        seen by every read registered after it, and by none before."""
        db = small_db(n=12)
        triangle, path = parse_query(TRIANGLE), parse_query(PATH2)
        wide = _covering_tuple(db, "R")
        old = naive_count(triangle, db)
        mirror = small_db(n=12)
        mirror.insert("R", wide)
        new = naive_count(triangle, mirror)
        assert new != old
        reads: dict[str, list] = {"before": [], "after": [], "other": []}
        pool = WorkerPool(db, workers=2)

        def mutator():
            for _ in range(40):
                reads["before"].append(pool.submit("count", triangle, pad=PAD))
            reads["ack"] = pool.mutate("insert", "R", wide)
            for _ in range(40):
                reads["after"].append(pool.submit("count", triangle, pad=PAD))

        def other():
            # stats answers are large: while a task pipe is full, a
            # collector kept from the pool lock lets the result pipe
            # fill too, and the pool deadlocks
            for _ in range(60):
                reads["other"].append(pool.submit("count", path, pad=PAD))
                for _ in range(20):
                    reads["other"].append(pool.stats_async())

        threads = [threading.Thread(target=f) for f in (mutator, other, other)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            assert [f.result(timeout=60) for f in reads["before"]] == [old] * 40
            assert [f.result(timeout=60) for f in reads["after"]] == [new] * 40
            assert len(reads["ack"].result(timeout=60)) == 2
            for future in reads["other"]:
                future.result(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            if any(thread.is_alive() for thread in threads):
                for worker in pool._workers:  # unblock a deadlocked writer
                    worker.process.kill()
            pool.close()

    def test_close_right_after_a_burst_answers_every_future(self):
        db = small_db(n=12)
        queries = [parse_query(TRIANGLE), parse_query(PATH2)]
        pool = WorkerPool(db, workers=2)
        futures = [pool.submit("evaluate", q, pad=PAD) for q in queries * 40]
        pool.close()
        expected = [naive_evaluate(q, db) for q in queries]
        assert [f.result(timeout=5) for f in futures] == expected * 40

    def test_an_unpicklable_payload_fails_its_own_future_only(self):
        db = small_db(n=10)
        query = parse_query(TRIANGLE)
        with WorkerPool(db, workers=1) as pool:
            bad = pool.submit("evaluate", query, bogus=lambda: 0)
            assert bad.done()  # failed in submit(), before any pipe write
            with pytest.raises(TypeError, match="cannot be pickled"):
                bad.result()
            assert pool._workers[0].outstanding == {}
            assert pool.evaluate(query).result(timeout=60) == naive_evaluate(
                query, db
            )

    def test_an_unpicklable_mutation_raises_and_mutates_nothing(self):
        db = small_db(n=10)
        query = parse_query(TRIANGLE)
        with WorkerPool(db, workers=1) as pool:
            version, rows = db.version, set(db["R"].tuples)
            with pytest.raises(TypeError, match="cannot be pickled"):
                pool.mutate("insert", "R", (lambda: 0, Interval(0, 1)))
            assert db.version == version
            assert set(db["R"].tuples) == rows
            assert pool.evaluate(query).result(timeout=60) == naive_evaluate(
                query, db
            )

    def test_a_full_pipe_never_stalls_the_event_loop(self):
        """A stopped worker and an ``evaluate_many`` whose three ~40 KB
        tasks overrun its 64 KiB pipe: the rest waits on a sender thread,
        and a deadline on a second connection is still answered on time."""
        db = small_db(n=10)
        x, y = "X" * 20_000, "Y" * 20_000
        texts = [f"{r}([{x}],[{y}])" for r in "RST"]
        expected = [naive_evaluate(parse_query(text), db) for text in texts]
        pool = WorkerPool(db, workers=1)
        server = ServiceServer(pool)

        def body(host, port):
            pid = pool._workers[0].process.pid
            os.kill(pid, signal.SIGSTOP)
            try:
                with socket.create_connection((host, port), timeout=60) as sock:
                    stream = sock.makefile("rwb")
                    request = {"id": 1, "op": "evaluate_many", "queries": texts}
                    stream.write(json.dumps(request).encode() + b"\n")
                    stream.flush()
                    TestWorkerPool._wait_for(
                        lambda: any(
                            t.name == "repro-pool-sender-0"
                            for t in threading.enumerate()
                        ),
                        10,
                    )
                    with ServiceClient(host, port, timeout=5) as probe:
                        started = time.monotonic()
                        response = probe.request(
                            "count", query=TRIANGLE, deadline_ms=50
                        )
                        elapsed = time.monotonic() - started
                    os.kill(pid, signal.SIGCONT)
                    return response, elapsed, json.loads(stream.readline())
            finally:
                os.kill(pid, signal.SIGCONT)

        async def driver():
            host, port = await server.start()
            try:
                return await asyncio.to_thread(body, host, port)
            finally:
                await server.stop()

        pool.wait_ready()
        try:
            response, elapsed, bulk = asyncio.run(driver())
        finally:
            pool.close()
        assert response["error"]["code"] == "deadline_exceeded", response
        assert elapsed < 2.0
        assert bulk["result"] == expected, bulk

    def test_the_worker_exits_on_task_pipe_eof(self):
        with WorkerPool(small_db(n=5), workers=1, max_respawns=0) as pool:
            pool.wait_ready()
            worker = pool._workers[0]
            worker.tasks.close()  # what the parent's death does
            # polled, not joined: the collector's death handler joins
            # (and reaps) the worker too
            TestWorkerPool._wait_for(lambda: worker.process.exitcode is not None)
            assert worker.process.exitcode == 0  # returned, not killed
            TestWorkerPool._wait_for(lambda: pool.alive_workers == [])

    @staticmethod
    def _stop_and_load(pool, queries, mutate=None):
        """SIGSTOP worker 0, then register work for it: the work reaches
        its pipe but is never answered, so all of it is lost when the
        caller SIGKILLs the returned pid."""
        pool.wait_ready()
        pid = pool._workers[0].process.pid
        os.kill(pid, signal.SIGSTOP)
        futures = [pool.evaluate(q) for q in queries]
        ack = None if mutate is None else pool.mutate(*mutate)
        return pid, futures, ack

    def test_a_workers_death_resubmits_off_the_collector_and_counts(
        self, monkeypatch
    ):
        bases = TestWorkerPool._crash_bases()
        db = TestWorkerPool._crash_db(bases, n=15)
        writers: list[tuple[str, object, int]] = []  # thread, pipe, tasks
        write = WorkerPool._write

        def recording_write(worker):
            name = threading.current_thread().name
            writers.append((name, worker.tasks, len(worker.outbox)))
            return write(worker)

        monkeypatch.setattr(WorkerPool, "_write", staticmethod(recording_write))
        pool = WorkerPool(db, workers=2)
        try:
            mine = [q for q in bases if WorkerPool._slot(q) % 2 == 0]
            assert mine
            rng = random.Random(4)
            mutation = ("insert", "A0", in_domain_tuple(db, "A0", rng))
            pid, futures, ack = self._stop_and_load(pool, mine, mutation)
            survivor = pool._workers[1].tasks
            writers.clear()
            os.kill(pid, signal.SIGKILL)
            assert [f.result(timeout=120) for f in futures] == [
                naive_evaluate(q, db) for q in mine
            ]
            assert len(ack.result(timeout=120)) == 1  # the survivor's
            TestWorkerPool._wait_for(lambda: pool.respawns == 1)
            resubmits = [(name, n) for name, pipe, n in writers if pipe is survivor]
            assert sum(n for _, n in resubmits) >= len(mine)
            assert "repro-pool-collector" not in {name for name, _, _ in writers}
            assert "repro-pool-flush-0" in {name for name, _ in resubmits}
            assert pool.lost == {
                "resubmitted": len(mine),
                "parked": 0,
                "failed": 0,
                "dropped": 1,  # the dead worker's mutation ack
            }
        finally:
            report = pool.close()
        assert report["lost_resubmitted"] == len(mine)
        assert report["lost_dropped"] == 1

    @pytest.mark.parametrize("respawn", [True, False])
    def test_a_lone_workers_death_parks_or_fails_and_counts(self, respawn):
        db = small_db(n=10)
        queries = [parse_query(TRIANGLE), parse_query(PATH2)]
        pool = WorkerPool(db, workers=1, max_respawns=None if respawn else 0)
        try:
            pid, futures, _ = self._stop_and_load(pool, queries)
            os.kill(pid, signal.SIGKILL)
            if respawn:
                assert [f.result(timeout=120) for f in futures] == [
                    naive_evaluate(q, db) for q in queries
                ]
            else:
                for future in futures:
                    with pytest.raises(WorkerCrash):
                        future.result(timeout=120)
        finally:
            report = pool.close()
        verdict = "parked" if respawn else "failed"
        expected = dict.fromkeys(("resubmitted", "parked", "failed", "dropped"), 0)
        expected[verdict] = len(queries)
        assert pool.lost == expected
        assert report[f"lost_{verdict}"] == len(queries)


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

    def test_a_repeated_sql_text_compiles_once_per_session(self):
        """The server compiles a text once (to route its disjuncts)
        and so does the worker that runs it: four of five sends hit
        each memo.  A malformed text is never memoized and answers
        ``bad_query`` on every send."""
        from repro.core import QuerySession

        db = small_db(n=12, seed=5)
        text = "SELECT COUNT(*) FROM R r, S s WHERE r.B OVERLAPS s.B"
        expected = QuerySession(db.clone()).sql(text)

        def body(host, port):
            with ServiceClient(host, port) as client:
                answers = [client.sql(text) for _ in range(5)]
                codes = []
                for _ in range(3):
                    with pytest.raises(ServiceError) as excinfo:
                        client.sql("SELECT COUNT(* FROM R r")
                    codes.append(excinfo.value.code)
                return answers, codes, client.stats()

        pool_db = db.clone()
        (answers, codes, stats), _ = run_with_server(pool_db, body)
        assert answers == [expected] * 5
        assert codes == ["bad_query"] * 3
        assert stats["server"]["bad_queries"] == 3
        assert stats["aggregate"]["sql_compile_hits"] == 4
        assert QuerySession.for_database(pool_db).stats.sql_compile_hits == 4

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
            with socket.create_connection((host, port), timeout=60) as sock:
                stream = sock.makefile("rwb")
                burst = b"".join(
                    json_module.dumps(
                        {"id": i, "op": "count", "query": TRIANGLE}
                    ).encode()
                    + b"\n"
                    for i in range(20)
                )
                stream.write(burst)  # one write, one segment
                stream.flush()
                codes = []
                for _ in range(20):
                    response = json_module.loads(stream.readline())
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

    def test_pool_rejects_invalid_options_at_construction(self, tmp_path):
        """Regression: a bad session option must raise in the parent,
        not kill every spawned worker and surface as a WorkerCrash."""
        db = small_db(n=5)
        with pytest.raises(ValueError):
            WorkerPool(db, workers=1, cache_dir=tmp_path, cache_max_bytes=-5)
        with pytest.raises(ValueError):
            WorkerPool(db, workers=0)

    def test_pool_refuses_cache_max_bytes_without_a_cache_dir(self):
        """A byte cap with nothing to cap is refused in the parent, as
        the CLI refuses ``--cache-max-bytes`` without ``--cache-dir``."""
        with pytest.raises(ValueError, match="cache_dir"):
            WorkerPool(small_db(n=5), workers=1, cache_max_bytes=1000)

    def test_oversized_request_line_is_a_typed_bad_request(self):
        """A line over ``max_line_bytes`` cannot be resynchronized, so
        the server answers a typed ``bad_request`` and closes the
        connection — not a silent EOF with a logged traceback."""
        db = small_db(n=10)
        import json as json_module

        def body(host, port):
            with socket.create_connection((host, port), timeout=60) as sock:
                stream = sock.makefile("rwb")
                huge = {"id": 1, "op": "evaluate", "query": "R" * 5000}
                stream.write(json_module.dumps(huge).encode() + b"\n")
                stream.flush()
                response = json_module.loads(stream.readline())
                closed = stream.readline() == b""
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
            # raw garbage line: the server answers with id null (which
            # the client would take for a lost connection), and the
            # connection keeps serving
            import json

            with socket.create_connection((host, port), timeout=60) as sock:
                stream = sock.makefile("rwb")
                stream.write(b"{ not json\n")
                stream.flush()
                codes.append(json.loads(stream.readline())["error"]["code"])
                request = {"id": 1, "op": "evaluate", "query": TRIANGLE}
                stream.write(json.dumps(request).encode() + b"\n")
                stream.flush()
                answer = json.loads(stream.readline())["result"]  # still serving
            return codes, answer

        (codes, answer), _ = run_with_server(db, body)
        # malformed *query text* gets the dedicated bad_query code;
        # framing-level garbage stays bad_request
        assert codes == ["bad_request", "bad_query", "bad_request", "bad_request"]
        assert answer == naive_evaluate(parse_query(TRIANGLE), small_db(n=10))


class _ScriptedTarget:
    """A pool (and router) stand-in whose ``submit`` raises a scripted
    exception (the dispatch phase) or returns a future that another
    thread fails with it (the completion phase)."""

    def __init__(self, error: BaseException | None, phase: str, delay=0.01):
        self.db = small_db(n=5)
        self.error, self.phase, self.delay = error, phase, delay
        self.futures: list[Future] = []

    def database(self, tenant):
        return self.db

    def stats_async(self):
        future = Future()
        future.set_result({})
        return future

    def submit(self, *args, **payload):
        if self.phase == "dispatch":
            raise self.error
        future = Future()
        self.futures.append(future)
        if self.phase == "hang":
            return future
        if self.error is None:
            resolve = partial(future.set_result, True)
        else:
            resolve = partial(future.set_exception, self.error)
        threading.Timer(self.delay, resolve).start()
        return future

    mutate = submit


def serve_scripted(target, body, tier: str = "pool"):
    """Run blocking ``body(host, port, server)`` against a server over
    ``target`` (no worker processes)."""
    if tier == "pool":
        server = ServiceServer(target)
    else:
        server = RouterServer(target)

    async def driver():
        host, port = await server.start()
        try:
            return await asyncio.to_thread(body, host, port, server)
        finally:
            await server.stop()

    return asyncio.run(driver())


#: ``(phase, exception, wire code, message, counter)``: what each
#: exception answers when dispatch raises it and when the pool future
#: fails with it — the contract both server tiers keep.
ERROR_TABLE = [
    ("dispatch", ShardUnreachable("gone"), "shard_unreachable", "gone", None),
    ("dispatch", BadQueryError("bad text"), "bad_query", "bad text", "bad_queries"),
    ("dispatch", ProtocolError("bad frame"), "bad_request", "bad frame", "bad_requests"),
    ("dispatch", ValueError("v"), "bad_request", "v", "bad_requests"),
    ("dispatch", KeyError("k"), "bad_request", "'k'", "bad_requests"),
    ("dispatch", TypeError("t"), "bad_request", "t", "bad_requests"),
    ("dispatch", UnknownTenant("acme"), "bad_request", "'acme'", "bad_requests"),
    ("dispatch", PoolClosed("p"), "shutting_down", "the serving tier is closed", None),
    ("dispatch", RouterClosed("r"), "shutting_down", "the serving tier is closed", None),
    ("dispatch", WorkerCrash("w"), "internal", "w", None),
    (
        "complete",
        asyncio.TimeoutError(),
        "deadline_exceeded",
        "deadline elapsed before a worker answered",
        "deadline_exceeded",
    ),
    ("complete", ShardUnreachable("gone"), "shard_unreachable", "gone", None),
    (
        "complete",
        ServiceError({"code": "overloaded", "message": "full"}),
        "overloaded",
        "full",
        None,
    ),
    ("complete", ServiceError({}), "internal", "None: None", None),
    (
        "complete",
        UnknownTenant("acme"),
        "bad_request",
        "UnknownTenant: 'acme'",
        "bad_requests",
    ),
    ("complete", ValueError("v"), "bad_request", "ValueError: v", "bad_requests"),
    (
        "complete",
        BadQueryError("b"),
        "bad_request",
        "BadQueryError: b",
        "bad_requests",
    ),
    ("complete", KeyError("k"), "internal", "KeyError: 'k'", None),
    ("complete", TypeError("t"), "internal", "TypeError: t", None),
    ("complete", WorkerCrash("w"), "internal", "w", None),
    ("complete", PoolClosed("p"), "internal", "p", None),
    ("complete", RouterClosed("r"), "internal", "r", None),
    ("complete", RuntimeError("boom"), "internal", "RuntimeError: boom", None),
]


class TestReplyPath:
    @pytest.mark.parametrize("tier", ["pool", "router"])
    @pytest.mark.parametrize(
        "phase, error, code, message, counter",
        ERROR_TABLE,
        ids=[f"{row[0]}-{type(row[1]).__name__}" for row in ERROR_TABLE],
    )
    def test_each_exception_keeps_its_wire_code(
        self, tier, phase, error, code, message, counter
    ):
        target = _ScriptedTarget(error, phase)

        def body(host, port, server):
            with ServiceClient(host, port, timeout=10, tenant="acme") as client:
                before = dict(server.counters)
                response = client.request("evaluate", query=TRIANGLE)
                after, inflight = dict(server.counters), server._inflight
                target.error, target.phase = None, "complete"  # still serving
                ok = client.request("evaluate", query=TRIANGLE)
            return response, before, after, inflight, ok

        response, before, after, inflight, ok = serve_scripted(target, body, tier)
        assert response["error"] == {"code": code, "message": message}, response
        delta = {k: after[k] - before[k] for k in after if after[k] != before[k]}
        expected = {"requests": 1, "errors": 1}
        if counter is not None:
            expected[counter] = 1
        assert delta == expected
        assert inflight == 0
        assert ok["result"] is True, ok

    def test_a_missed_deadline_answers_and_cancels_the_pool_future(self):
        target = _ScriptedTarget(None, "hang")

        def body(host, port, server):
            with ServiceClient(host, port, timeout=10) as client:
                response = client.request("count", query=TRIANGLE, deadline_ms=50)
                return response, dict(server.counters), server._inflight

        response, counters, inflight = serve_scripted(target, body)
        assert response["error"]["code"] == "deadline_exceeded"
        assert counters["deadline_exceeded"] == counters["errors"] == 1
        assert inflight == 0
        assert target.futures[0].cancelled()

    def test_a_pipelined_burst_is_answered_by_id(self):
        """64 requests in one write, two workers answering out of
        order: every reply carries its request's id and answer."""
        db = small_db(n=12)
        texts = [TRIANGLE, PATH2]
        expected = [naive_count(parse_query(text), db) for text in texts]

        def body(host, port):
            with socket.create_connection((host, port), timeout=60) as sock:
                stream = sock.makefile("rwb")
                stream.write(
                    b"".join(
                        json.dumps(
                            {"id": i, "op": "count", "query": texts[i % 2]}
                        ).encode()
                        + b"\n"
                        for i in range(64)
                    )
                )
                stream.flush()
                return [json.loads(stream.readline()) for _ in range(64)]

        responses, _ = run_with_server(db, body)
        assert sorted(r["id"] for r in responses) == list(range(64))
        for response in responses:
            assert response["result"] == expected[response["id"] % 2], response

    def test_a_closed_connection_still_settles_its_requests(self):
        target = _ScriptedTarget(None, "complete", delay=0.3)

        def body(host, port, server):
            with socket.create_connection((host, port), timeout=10) as sock:
                sock.sendall(
                    b"".join(
                        json.dumps({"id": i, "op": "evaluate", "query": TRIANGLE})
                        .encode() + b"\n"
                        for i in range(5)
                    )
                )
                TestWorkerPool._wait_for(lambda: server._inflight == 5, 10)
            # closed with five replies owed
            TestWorkerPool._wait_for(lambda: server._inflight == 0, 10)
            counters = dict(server.counters)
            with ServiceClient(host, port, timeout=10) as client:
                answer = client.evaluate(TRIANGLE)
            return counters, answer

        counters, answer = serve_scripted(target, body)
        assert counters["requests"] == counters["served"] == 5
        assert answer is True

    def test_stop_writes_what_a_connection_owes_before_closing_it(self):
        target = _ScriptedTarget(None, "complete", delay=0.3)

        def body(host, port, server):
            with socket.create_connection((host, port), timeout=10) as sock:
                stream = sock.makefile("rwb")
                for i in range(3):
                    request = {"id": i, "op": "evaluate", "query": TRIANGLE}
                    stream.write(json.dumps(request).encode() + b"\n")
                stream.flush()
                TestWorkerPool._wait_for(lambda: server._inflight == 3, 10)
                loop = server._server.get_loop()
                asyncio.run_coroutine_threadsafe(server.stop(), loop).result(10)
                replies = [json.loads(stream.readline()) for _ in range(3)]
                return replies, stream.readline()

        replies, after = serve_scripted(target, body)
        assert sorted((r["id"], r["result"]) for r in replies) == [
            (0, True),
            (1, True),
            (2, True),
        ]
        assert after == b""  # then the connection closed

    def test_a_reply_after_stop_leaves_the_pool_serving(self, caplog):
        """The worker answers after the server stopped and its loop
        closed: the reply is dropped, and the collector neither dies nor
        logs a failed callback."""
        db = small_db(n=10)
        query = parse_query(TRIANGLE)
        pool = WorkerPool(db, workers=1)
        server = ServiceServer(pool)
        loop = asyncio.new_event_loop()
        try:
            pool.wait_ready()
            host, port = loop.run_until_complete(server.start())
            pid = pool._workers[0].process.pid
            os.kill(pid, signal.SIGSTOP)
            try:
                sock = socket.create_connection((host, port), timeout=10)
                request = {"id": 1, "op": "count", "query": TRIANGLE}
                sock.sendall(json.dumps(request).encode() + b"\n")

                async def admitted():
                    while server._inflight == 0:
                        await asyncio.sleep(0.01)

                loop.run_until_complete(asyncio.wait_for(admitted(), 30))
                with pytest.raises(asyncio.TimeoutError):
                    loop.run_until_complete(asyncio.wait_for(server.stop(), 0.2))
                loop.close()
            finally:
                os.kill(pid, signal.SIGCONT)
            sock.close()
            with caplog.at_level(logging.ERROR, logger="concurrent.futures"):
                # FIFO: the count's late reply is handled before this one
                assert pool.evaluate(query).result(timeout=60) == naive_evaluate(
                    query, db
                )
            failed = [r for r in caplog.records if r.name == "concurrent.futures"]
            assert not failed, failed
            assert pool._collector.is_alive()
        finally:
            loop.close()
            pool.close()


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
