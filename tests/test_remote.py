"""Remote shard nodes (:mod:`repro.service.remote`) and the
distributed-path races the move across machine boundaries exposed.

Layers under test:

* the :class:`AsyncServiceClient` pending-future regressions — an
  id-less error response must fail *every* pipelined caller (nothing
  can ever be matched again), a send failure must unregister the
  future it minted (a leaked entry would hang its caller forever), and
  a request after the server closed must fail at once;
* the blocking :class:`ServiceClient` timeout-desync regression — a
  timed-out request's late reply must never be read as the answer to
  a later request: replies are matched by id, so the late one finds
  its request forgotten and the next call gets its own result;
* the :class:`ShardRouter` detach race — tenant state fetched outside
  the lock must be re-validated under it, or a request races a
  concurrent detach into a zombie tenant's pools;
* :class:`ServiceClient` — pipelined out-of-order matching (one client
  shared by threads), typed :class:`ShardUnreachable` on dial failure /
  connection loss / id-less errors, a builtin :class:`TimeoutError`
  that forgets its request, and the exactly-once ``on_down`` contract;
* :class:`RemoteShardPool` over :class:`RemoteShardNode` — the
  pop-based exactly-once protocol between a reply and the failover's
  ``drain()``, pinned against scripted peers;
* client-side routing — the :class:`AsyncServiceClient` learns the
  ring, dials the owning shard directly, and falls back to the router
  on connection loss or a typed can't-serve response;
* the coordinator's admin paths over scripted nodes (:class:`FakeShard`)
  — admin operations serialised (a detach cannot slip into a running
  ``add_shard``), and the remote half of ``reload``: one ``reload``
  frame per node, the delta-log suffix replayed afterwards, a node lost
  mid-reload skipped, evicted and logged;
* the CI ``distributed-smoke`` — two real shard OS processes with
  separate per-node cache directories behind an in-process
  coordinator: differential wire traffic, a mid-run SIGSTOP+SIGKILL of
  one shard with in-flight work (every future still answers, correctly,
  exactly once), and a third shard joining *warm*: its cache is
  populated purely by content-addressed entries shipped over the wire,
  and serving the whole workload afterwards costs it **zero** forward
  reductions.  The JSON report lands under ``benchmarks/results/``.
"""

import asyncio
import contextlib
import json
import logging
import os
import signal
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor, wait
from pathlib import Path

import pytest

from repro.core import naive_count, naive_evaluate
from repro.core.reduction_cache import ReductionCache
from repro.engine import Database
from repro.intervals import Interval
from repro.queries import parse_query
from repro.service import (
    AsyncServiceClient,
    PoolClosed,
    RemoteShardNode,
    RemoteShardPool,
    RouterServer,
    ServiceClient,
    ServiceError,
    ShardRouter,
    ShardUnreachable,
    UnknownTenant,
    generate_requests,
    run_load,
)
from repro.service import protocol, remote
from repro.service.loadgen import LoadReport
from repro.service.pool import _resolve
from repro.service.protocol import decode_database, decode_tuple, query_text
from repro.workloads import isomorphic_variants, random_database

TRIANGLE = "R([A],[B]) ∧ S([B],[C]) ∧ T([A],[C])"
PATH2 = "U([A],[B]) ∧ V([B],[C])"

RESULTS_DIR = Path(__file__).resolve().parent.parent / "benchmarks" / "results"


# ----------------------------------------------------------------------
# no process outlives the suite: every shard node this module spawns is
# its own process group, and each must be empty once the node is gone
# ----------------------------------------------------------------------

_SPAWNED: list[int] = []


def spawn_shard_process(*args, **kwargs):
    shard = remote.spawn_shard_process(*args, **kwargs)
    _SPAWNED.append(shard.process.pid)
    return shard


def live_group_members(pgid: int) -> list[int]:
    """Pids in ``/proc`` whose process group is ``pgid``, zombies (dead,
    waiting for whoever adopted them to reap) excluded."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue  # exited while we looked
        # the command name may contain spaces; fields resume after ")"
        state, _ppid, pgrp = stat.rsplit(")", 1)[1].split()[:3]
        if int(pgrp) == pgid and state != "Z":
            members.append(int(entry))
    return members


def assert_group_dies(pgid: int, within: float = 10.0) -> None:
    deadline = time.monotonic() + within
    while live_group_members(pgid) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert live_group_members(pgid) == []


@pytest.fixture(scope="module", autouse=True)
def no_process_outlives_the_suite():
    yield
    for pgid in _SPAWNED:
        assert_group_dies(pgid)


def small_db(n: int = 14, seed: int = 11) -> Database:
    q1, q2 = parse_query(TRIANGLE), parse_query(PATH2)
    db = random_database(q1, n, seed=seed)
    for relation in random_database(q2, n, seed=seed + 1):
        db.add(relation)
    return db


# ----------------------------------------------------------------------
# scripted wire peers (no worker pools: connection semantics in isolation)
# ----------------------------------------------------------------------


class StubServer:
    """A threaded JSON-lines server: every connection is answered by
    ``respond(request) -> response dict | None`` (``None`` drops the
    connection).  :meth:`close` also severs live connections, so
    clients observe a real peer death."""

    def __init__(self, respond):
        self.respond = respond
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.host, self.port = self.listener.getsockname()
        self._conns: list[socket.socket] = []
        self._lock = threading.Lock()
        threading.Thread(target=self._accept_loop, daemon=True).start()

    def _accept_loop(self):
        while True:
            try:
                conn, _ = self.listener.accept()
            except OSError:
                return
            with self._lock:
                self._conns.append(conn)
            threading.Thread(
                target=self._serve, args=(conn,), daemon=True
            ).start()

    def _serve(self, conn):
        try:
            with conn, conn.makefile("rwb") as file:
                while True:
                    line = file.readline()
                    if not line:
                        return
                    response = self.respond(protocol.parse_line(line))
                    if response is None:
                        return
                    file.write(protocol.dump_line(response))
                    file.flush()
        except (OSError, ValueError):
            pass

    def close(self):
        self.listener.close()
        with self._lock:
            conns, self._conns = self._conns, []
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            conn.close()


@contextlib.contextmanager
def scripted_peer(handler):
    """One-connection scripted peer: ``handler(file)`` runs the whole
    conversation, then the connection drops."""
    listener = socket.create_server(("127.0.0.1", 0))
    host, port = listener.getsockname()

    def serve():
        try:
            conn, _ = listener.accept()
            with conn, conn.makefile("rwb") as file:
                handler(file)
        except OSError:
            pass

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield host, port
    finally:
        listener.close()
        thread.join(timeout=5)


def free_port() -> int:
    """A port that was just free (and is closed again): dial-failure
    tests' target."""
    with socket.create_server(("127.0.0.1", 0)) as listener:
        return listener.getsockname()[1]


# ----------------------------------------------------------------------
# satellite regressions: the async client's pending-future bookkeeping
# ----------------------------------------------------------------------


class TestAsyncClientPendingRegressions:
    def test_idless_error_fails_every_pipelined_caller(self):
        """An ``id: null`` error cannot be matched to one request, so
        every pending future must fail — before the fix both callers
        hung forever on futures nothing would ever resolve."""

        async def scenario():
            async def handle(reader, writer):
                for _ in range(2):
                    await reader.readline()
                writer.write(
                    protocol.dump_line(
                        protocol.error_response(
                            None, "bad_request", "unframeable"
                        )
                    )
                )
                await writer.drain()
                # keep the connection OPEN: the hang only reproduces
                # when no EOF arrives to fail the pending futures
                await asyncio.sleep(10)

            server = await asyncio.start_server(handle, "127.0.0.1", 0)
            host, port = server.sockets[0].getsockname()[:2]
            try:
                async with AsyncServiceClient(host, port) as client:
                    callers = [
                        asyncio.ensure_future(client.request("stats"))
                        for _ in range(2)
                    ]
                    results = await asyncio.wait_for(
                        asyncio.gather(*callers, return_exceptions=True),
                        timeout=10,
                    )
                    assert all(
                        isinstance(r, ServiceError) for r in results
                    ), results
                    assert all(r.code == "bad_request" for r in results)
                    assert client._pending == {}
            finally:
                server.close()
                await server.wait_closed()

        asyncio.run(scenario())

    def test_oversized_request_gets_a_prompt_typed_failure(self):
        """End-to-end against a real (tenant-less) router server with a
        tiny line limit: the oversized request's own future must fail
        promptly — typed, or via the dropped connection — not hang."""
        router = ShardRouter(shards=("s0",), cache_dir=None)
        server = RouterServer(router, max_line_bytes=2048)

        async def scenario():
            host, port = await server.start()
            try:
                async with AsyncServiceClient(host, port) as client:
                    big = " ∧ ".join(["R([A],[B])"] * 400)
                    with pytest.raises((ServiceError, ConnectionError)):
                        await asyncio.wait_for(
                            client.request(
                                "evaluate", tenant="ghost", query=big
                            ),
                            timeout=10,
                        )
                    assert client._pending == {}
            finally:
                await server.stop()

        try:
            asyncio.run(scenario())
        finally:
            router.close()

    def test_send_failure_unregisters_the_pending_future(self):
        """A write/drain failure means the request never reached the
        wire: its future must leave ``_pending`` (nothing will resolve
        it) and the send error must surface — before the fix the entry
        leaked and a later ``gather`` on it waited forever."""

        async def scenario():
            async def handle(reader, writer):
                while True:
                    line = await reader.readline()
                    if not line:
                        return
                    request = protocol.parse_line(line)
                    writer.write(
                        protocol.dump_line(
                            protocol.ok_response(request["id"], "pong")
                        )
                    )
                    await writer.drain()

            server = await asyncio.start_server(handle, "127.0.0.1", 0)
            host, port = server.sockets[0].getsockname()[:2]
            try:
                async with AsyncServiceClient(host, port) as client:
                    real_drain = client._writer.drain

                    async def bad_drain():
                        raise OSError("send buffer gone")

                    client._writer.drain = bad_drain
                    with pytest.raises(OSError):
                        await client.request("stats")
                    assert client._pending == {}
                    # the transport itself is intact: later requests
                    # (with the real drain) still work
                    client._writer.drain = real_drain
                    response = await client.request("stats")
                    assert response["result"] == "pong"
            finally:
                server.close()
                await server.wait_closed()

        asyncio.run(scenario())

    def test_request_after_server_close_fails_at_once(self):
        """Once the read loop has seen EOF nothing resolves a new
        future: before the fix the request was written into the
        half-closed socket and awaited forever."""

        async def scenario():
            async def handle(reader, writer):
                request = protocol.parse_line(await reader.readline())
                writer.write(
                    protocol.dump_line(protocol.ok_response(request["id"], "pong"))
                )
                await writer.drain()
                writer.close()

            server = await asyncio.start_server(handle, "127.0.0.1", 0)
            host, port = server.sockets[0].getsockname()[:2]
            try:
                async with AsyncServiceClient(host, port) as client:
                    assert (await client.request("ring"))["result"] == "pong"
                    await asyncio.wait({client._read_task}, timeout=10)
                    assert client._read_task.done()
                    for _ in range(2):
                        with pytest.raises(ConnectionError):
                            await asyncio.wait_for(
                                client.request("ring"), timeout=3
                            )
                    assert client._pending == {}
            finally:
                server.close()
                await server.wait_closed()

        asyncio.run(scenario())


# ----------------------------------------------------------------------
# satellite regression: blocking-client timeout desync
# ----------------------------------------------------------------------


class TestStaleConnectionRegression:
    def test_a_late_reply_never_answers_a_later_request(self):
        """After a timeout mid-response the late reply is still in
        flight; before the id-matched client the next request read it
        and returned the *previous* request's answer.  Now the late
        reply finds its request forgotten, and every later call gets
        its own result."""
        release = threading.Event()

        def handler(file):
            request = read(file)
            release.wait(10)  # answer only after the client gave up
            reply(file, request, "late")
            reply(file, read(file), "ring")
            reply(file, read(file), True)
            file.readline()  # hold the connection open

        with scripted_peer(handler) as (host, port):
            client = ServiceClient(host, port, timeout=0.3)
            with pytest.raises(TimeoutError):
                client.request("stats")
            release.set()
            time.sleep(0.2)  # let the late reply land first
            assert client.request("ring")["result"] == "ring"
            assert client.evaluate("R([A],[B])") is True
            client.close()

    def test_server_eof_breaks_the_client(self):
        def handler(file):
            file.readline()  # read the request, answer nothing, drop

        with scripted_peer(handler) as (host, port):
            client = ServiceClient(host, port, timeout=5)
            with pytest.raises(ConnectionError):
                client.request("stats")
            with pytest.raises(ShardUnreachable):
                client.request("stats")
            with pytest.raises(ShardUnreachable):
                client.evaluate("R([A],[B])")
            client.close()


# ----------------------------------------------------------------------
# satellite regression: the router's detach race
# ----------------------------------------------------------------------


class TestDetachRaceRegression:
    def test_stale_tenant_state_is_revalidated_under_the_lock(
        self, tmp_path, monkeypatch
    ):
        """Pin the interleaving: tenant state looked up *before* a
        concurrent detach, used *after*.  The fix re-validates identity
        under the lock and raises :class:`UnknownTenant` instead of
        enqueueing into (or mutating) a zombie tenant's pools."""
        db = small_db(8, seed=3)
        q = parse_query(TRIANGLE)
        t = (Interval(1.0, 2.0), Interval(3.0, 4.0))
        with ShardRouter(
            shards=("s0",), cache_dir=tmp_path, workers_per_shard=1
        ) as router:
            router.attach_tenant("acme", db)
            stale = router._tenant("acme")
            router.detach_tenant("acme")
            monkeypatch.setattr(router, "_tenant", lambda name: stale)
            with pytest.raises(UnknownTenant):
                router.evaluate("acme", q)
            with pytest.raises(UnknownTenant):
                router.submit_many([q], "acme")
            with pytest.raises(UnknownTenant):
                router.mutate("acme", "insert", "R", t)
            # the stale master must not have absorbed the mutation
            assert t not in stale.master["R"].tuples

    def test_concurrent_detach_fuzz(self, tmp_path):
        """Seeded concurrency: traffic races attach/detach cycles.
        Every call either answers correctly or raises the typed
        :class:`UnknownTenant` — never a zombie answer, a stray
        ``PoolClosed``, or a hang."""
        db = small_db(8, seed=3)
        q = parse_query(TRIANGLE)
        want = naive_evaluate(q, db)
        variants = isomorphic_variants(q, 4, seed=1)
        outcomes: list = []
        stop = threading.Event()

        with ShardRouter(
            shards=("s0",), cache_dir=tmp_path, workers_per_shard=1
        ) as router:

            def traffic():
                i = 0
                while not stop.is_set():
                    i += 1
                    try:
                        outcomes.append(
                            router.evaluate(
                                "acme", variants[i % len(variants)]
                            ).result(60)
                        )
                    except UnknownTenant:
                        outcomes.append("unknown")
                    except Exception as error:  # anything else is the bug
                        outcomes.append(repr(error))
                        return

            thread = threading.Thread(target=traffic, daemon=True)
            thread.start()
            try:
                for _ in range(3):
                    router.attach_tenant("acme", db)
                    time.sleep(0.15)
                    router.detach_tenant("acme")
                    time.sleep(0.05)
            finally:
                stop.set()
                thread.join(timeout=120)
        assert not thread.is_alive()
        assert set(outcomes) <= {want, "unknown"}, set(outcomes)
        assert want in outcomes  # the traffic actually got answers


# ----------------------------------------------------------------------
# the blocking client: one pipelined connection
# ----------------------------------------------------------------------


class TestServiceClient:
    def test_pipelined_responses_match_out_of_order(self):
        def handler(file):
            first = protocol.parse_line(file.readline())
            second = protocol.parse_line(file.readline())
            file.write(
                protocol.dump_line(
                    protocol.ok_response(second["id"], "second")
                )
            )
            file.write(
                protocol.dump_line(protocol.ok_response(first["id"], "first"))
            )
            file.flush()
            file.readline()  # hold until the client closes

        with scripted_peer(handler) as (host, port):
            conn = ServiceClient(host, port)
            a = conn.request_async("stats")
            b = conn.request_async("stats")
            assert b.result(10)["result"] == "second"
            assert a.result(10)["result"] == "first"
            conn.close()
            assert conn.is_down

    def test_connection_loss_fails_pending_and_fires_on_down_once(self):
        def handler(file):
            file.readline()  # swallow the request, then die

        downs: list = []
        with scripted_peer(handler) as (host, port):
            conn = ServiceClient(host, port, on_down=downs.append)
            future = conn.request_async("stats")
            with pytest.raises(ShardUnreachable):
                future.result(10)
            deadline = time.monotonic() + 5
            while not downs and time.monotonic() < deadline:
                time.sleep(0.01)
            assert downs == [conn]
            # a dead wire resolves new work immediately, never raises
            with pytest.raises(ShardUnreachable):
                conn.request_async("stats").result(1)
            assert conn.is_down and not conn.ping(timeout=1)
            conn.close()
            assert downs == [conn]  # close after loss fires nothing new

    def test_idless_error_is_connection_loss(self):
        def handler(file):
            protocol.parse_line(file.readline())
            file.write(
                protocol.dump_line(
                    protocol.error_response(None, "bad_request", "unframeable")
                )
            )
            file.flush()

        downs: list = []
        with scripted_peer(handler) as (host, port):
            conn = ServiceClient(host, port, on_down=downs.append)
            with pytest.raises(ShardUnreachable):
                conn.request_async("stats").result(10)
            conn.close()
        assert downs == [conn]

    def test_dial_failure_is_typed(self):
        with pytest.raises(ShardUnreachable):
            ServiceClient("127.0.0.1", free_port(), timeout=2)

    def test_local_close_fires_no_on_down(self):
        def handler(file):
            file.readline()  # block until the peer closes

        downs: list = []
        with scripted_peer(handler) as (host, port):
            conn = ServiceClient(host, port, on_down=downs.append)
            conn.close()
        assert downs == []

    def test_blocking_request_unwraps_typed_errors(self):
        def handler(file):
            request = protocol.parse_line(file.readline())
            file.write(
                protocol.dump_line(
                    protocol.error_response(
                        request["id"], "deadline_exceeded", "too slow"
                    )
                )
            )
            file.flush()
            request = protocol.parse_line(file.readline())
            file.write(
                protocol.dump_line(protocol.ok_response(request["id"], 5))
            )
            file.flush()
            file.readline()

        with scripted_peer(handler) as (host, port):
            conn = ServiceClient(host, port)
            with pytest.raises(ServiceError) as excinfo:
                conn.ring()
            assert excinfo.value.code == "deadline_exceeded"
            assert conn.ring() == 5
            conn.close()

    def test_threads_sharing_one_client_each_get_their_own_answer(self):
        """The peer answers only once both requests are in, in reverse
        order: a serial client would deadlock, the pipelined one hands
        each thread the reply to its own request."""

        def handler(file):
            first, second = read(file), read(file)
            for request in (second, first):
                reply(file, request, request["query"])
            file.readline()

        queries = ["R([A],[B])", "S([B],[C])"]
        with scripted_peer(handler) as (host, port):
            with ServiceClient(host, port, timeout=10) as client:
                with ThreadPoolExecutor(2) as threads:
                    answers = list(
                        threads.map(
                            lambda q: client.request("evaluate", query=q)[
                                "result"
                            ],
                            queries,
                        )
                    )
        assert answers == queries

    def test_timeout_is_builtin_and_forgets_its_request(self):
        """A timed-out request raises the builtin :class:`TimeoutError`
        (not Python 3.10's distinct ``concurrent.futures`` one), pops
        its own entry, and leaves the client serving."""

        def handler(file):
            read(file)  # never answered
            reply(file, read(file), "pong")
            file.readline()

        with scripted_peer(handler) as (host, port):
            with ServiceClient(host, port, timeout=0.3) as client:
                with pytest.raises(TimeoutError) as excinfo:
                    client.request("stats")
                assert type(excinfo.value) is TimeoutError
                assert client._pending == {}
                assert client.request("ring")["result"] == "pong"
                assert client._pending == {}


# ----------------------------------------------------------------------
# exactly-once across the wire: the connection's registry (scripted peers)
# ----------------------------------------------------------------------


def read(file) -> dict:
    return protocol.parse_line(file.readline())


def reply(file, request: dict, result) -> None:
    file.write(protocol.dump_line(protocol.ok_response(request["id"], result)))
    file.flush()


def wait_until(predicate, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.01)
    assert predicate()


class TestRemoteShardPoolExactlyOnce:
    """The pool over one (node, tenant) keeps no registry: every entry
    lives in the node connection's pending map, and whoever pops it —
    the reader on a reply, or ``drain()`` — owns its resolve."""

    SQL = "SELECT COUNT(*) FROM R r, S s WHERE r.B OVERLAPS s.B"

    def setup_method(self):
        self.query = parse_query(TRIANGLE)

    @contextlib.contextmanager
    def pool(self, handler, on_down=None):
        """A ``RemoteShardPool`` for tenant ``acme`` on a node whose far
        side is ``handler(file)``; when the handler returns, the node's
        connection drops."""
        with scripted_peer(handler) as (host, port):
            node = RemoteShardNode("s0", host, port, on_down=on_down)
            try:
                yield RemoteShardPool(node, "acme")
            finally:
                node.close()

    def test_ok_response_resolves_the_outer_future(self):
        seen: list[dict] = []

        def handler(file):
            seen.append(read(file))
            reply(file, seen[-1], True)
            file.readline()

        with self.pool(handler) as pool:
            assert pool.submit("evaluate", self.query).result(10) is True
            assert pool.node.drain() == []  # popped: nothing outstanding
        (request,) = seen
        assert request["op"] == "evaluate" and request["tenant"] == "acme"
        assert parse_query(request["query"]) == self.query

    def test_typed_error_response_raises_service_error(self):
        def handler(file):
            request = read(file)
            file.write(
                protocol.dump_line(
                    protocol.error_response(
                        request["id"], "deadline_exceeded", "slow"
                    )
                )
            )
            file.flush()
            file.readline()

        with self.pool(handler) as pool:
            with pytest.raises(ServiceError) as excinfo:
                pool.submit("evaluate", self.query).result(10)
        assert excinfo.value.code == "deadline_exceeded"

    def test_dead_wire_leaves_the_entry_for_the_sweep(self):
        """Loss with ``on_down``: every unanswered entry is handed over
        exactly once and *unresolved* — the failover owns it now."""
        handed: list = []
        downs: list = []

        def on_down(node):
            downs.append(node)
            handed.extend(node.drain())

        def handler(file):
            read(file), read(file)  # swallow both requests, then die

        with self.pool(handler, on_down) as pool:
            outer = pool.submit("evaluate", self.query)
            ack = pool.mutate("delete", "R", (Interval(1.0, 2.0),))
            wait_until(lambda: len(handed) == 2)
            wait_until(lambda: pool.node._settled)
            assert downs == [pool.node]
            assert not outer.done() and not ack.done()  # deliberately NOT failed
            entry = next(e for e in handed if e.op == "evaluate")
            assert (entry.query, entry.future, entry.tenant) == (
                self.query, outer, "acme",
            )
            assert {e.op for e in handed} == {"evaluate", "mutate"}
            assert pool.node.drain() == []  # handed over once, not twice
            # a settled connection resolves new work at once, typed
            with pytest.raises(ShardUnreachable):
                pool.submit("evaluate", self.query).result(1)

    def test_unclaimed_entries_fail_typed_on_loss(self):
        """Was ``test_orphaned_pool_self_resolves_dead_wires``: when no
        failover will come for an entry (no ``on_down``, or one that
        claims nothing), the loss itself fails it with
        ``ShardUnreachable`` — never a hang."""

        def handler(file):
            read(file)

        for on_down in (None, lambda node: None):
            with self.pool(handler, on_down) as pool:
                outer = pool.submit("evaluate", self.query)
                with pytest.raises(ShardUnreachable):
                    outer.result(10)
                assert pool.node.drain() == []

    def test_late_wire_completion_after_sweep_backs_off(self):
        """A reply that arrives after ``drain()`` is dropped: the
        drainer owns the resolve."""
        release = threading.Event()

        def handler(file):
            first = read(file)
            release.wait(10)
            reply(file, first, True)  # the late answer
            reply(file, read(file), "pong")
            file.readline()

        with self.pool(handler) as pool:
            outer = pool.submit("evaluate", self.query)
            (entry,) = pool.node.drain()  # failover swept first
            release.set()
            # replies come back in order: once the ping is answered the
            # late reply has been read — and found nothing pending
            assert pool.node.ring() == "pong"
            assert not outer.done()
            _resolve(entry.future, False)  # ...the drainer delivers, once
            assert outer.result(1) is False

    def test_resubmission_reuses_the_original_future(self):
        """A drained entry placed again is ``submit(op, query,
        future=original, **payload)`` — same future object, and for a
        SQL disjunct the same text crosses the wire."""
        seen: list[dict] = []

        def dying(file):
            read(file), read(file)

        def survivor(file):
            for answer in (False, 7):
                seen.append(read(file))
                reply(file, seen[-1], answer)
            file.readline()

        handed: list = []
        with self.pool(dying, lambda node: handed.extend(node.drain())) as pool:
            outer = pool.submit("evaluate", self.query)
            outer_sql = pool.submit("sql", self.query, sql=self.SQL)
            wait_until(lambda: len(handed) == 2)
        with self.pool(survivor) as pool:
            for entry in handed:
                assert pool.submit(
                    entry.op, entry.query, future=entry.future, **entry.payload
                ) is entry.future
            assert outer.result(10) is False
            assert outer_sql.result(10) == 7
        assert [r["op"] for r in seen] == ["evaluate", "sql"]
        assert seen[1]["sql"] == self.SQL and "query" not in seen[1]

    def test_detached_tenant_fails_typed_on_node_death(self):
        """Was ``test_orphan_fails_entries_already_stranded_by_a_dead_
        wire``: a tenant detached with work still pinned on a node that
        then dies is work the eviction finds no pool for — it fails
        with ``ShardUnreachable`` instead of waiting for a resubmission
        that cannot come."""
        detached = threading.Event()

        def handler(file):
            reply(file, read(file), {"tenant": "acme", "shards": 1})  # attach
            read(file)  # the evaluate: pinned, never answered
            reply(file, read(file), {"tenant": "acme", "purged": 0})  # detach
            detached.wait(10)  # ...and then the node dies

        with scripted_peer(handler) as (host, port):
            with ShardRouter(remote_shards={"s0": (host, port)}) as router:
                router.attach_tenant("acme", small_db(4))
                outer = router.evaluate("acme", self.query)
                router.detach_tenant("acme")
                detached.set()
                with pytest.raises(ShardUnreachable):
                    outer.result(10)
                wait_until(lambda: router.shard_names == ())

    def test_closed_pool_rejects_new_work(self):
        def handler(file):
            file.readline()

        with self.pool(handler) as pool:
            assert pool.close() == {"node": "s0", "tenant": "acme"}
            for call in (
                lambda: pool.submit("evaluate", self.query),
                lambda: pool.mutate("insert", "R", (1,)),
                pool.stats_async,
            ):
                with pytest.raises(PoolClosed):
                    call()

    def test_mutate_wire_shape_and_ack(self):
        t = (Interval(1.0, 2.0), Interval(3.0, 4.0))
        seen: list[dict] = []

        def handler(file):
            seen.append(read(file))
            reply(file, seen[-1], {"applied": True})
            file.readline()

        with self.pool(handler) as pool:
            assert pool.mutate("insert", "R", t).result(10) == {"applied": True}
        (fields,) = seen
        assert fields["op"] == "mutate" and fields["kind"] == "insert"
        assert fields["relation"] == "R" and fields["tenant"] == "acme"
        assert decode_tuple(fields["tuple"]) == t

    def test_stats_reshape_projects_this_tenants_slice(self):
        payload = {
            "ring": {"nodes": ["local"]},
            "shards": {
                "local": {
                    "acme": {
                        "workers": [{"worker": 0}],
                        "aggregate": {"reductions": 3, "persistent_hits": 2},
                    },
                    "other": {
                        "workers": [{"worker": 1}],
                        "aggregate": {"reductions": 99},
                    },
                }
            },
        }
        seen: list[dict] = []

        def handler(file):
            seen.append(read(file))
            reply(file, seen[-1], payload)
            file.readline()

        with self.pool(handler) as pool:
            assert pool.stats_async().result(10) == {
                "workers": [{"worker": 0}],
                "aggregate": {"reductions": 3, "persistent_hits": 2},
                "node": "s0",
            }
        assert "tenant" not in seen[0]  # stats spans the node's tenants


# ----------------------------------------------------------------------
# client-side routing: direct dial, fallback on loss and on remap
# ----------------------------------------------------------------------


def ring_info(shard_host, shard_port):
    return {
        "nodes": ["s0"],
        "replicas": 8,
        "addresses": {"s0": [shard_host, shard_port]},
    }


class TestClientDirectRouting:
    """Client-side routing is :class:`AsyncServiceClient`'s alone: the
    blocking :class:`ServiceClient` talks to the one server it dialed."""

    @staticmethod
    def route(shard_respond, router_respond, scenario):
        """Run ``await scenario(client, shard)`` with an async client on
        a stub coordinator that advertises one stub shard: it answers
        ``ring`` with the shard's address, anything else through
        ``router_respond``."""
        shard = StubServer(shard_respond)

        def coordinator(request):
            if request["op"] == "ring":
                return protocol.ok_response(
                    request["id"], ring_info(shard.host, shard.port)
                )
            return router_respond(request)

        router = StubServer(coordinator)

        async def run():
            async with AsyncServiceClient(router.host, router.port) as client:
                await asyncio.wait_for(scenario(client, shard), timeout=10)

        try:
            asyncio.run(run())
        finally:
            router.close()
            shard.close()

    def test_direct_dial_then_fallback_on_connection_loss(self):
        shard_calls: list[str] = []

        def shard_respond(request):
            shard_calls.append(request["op"])
            return protocol.ok_response(request["id"], 7)

        async def scenario(client, shard):
            info = await client.learn_ring()
            assert info["addresses"] == {"s0": [shard.host, shard.port]}
            assert await client.count(TRIANGLE) == 7  # the shard answered
            assert shard_calls == ["count"]
            shard.close()  # the shard dies under the client
            assert await client.count(TRIANGLE) == 1  # fallback: the router

        self.route(
            shard_respond,
            lambda request: protocol.ok_response(request["id"], 1),
            scenario,
        )

    def test_typed_cant_serve_response_falls_back(self):
        def shard_respond(request):
            return protocol.error_response(
                request["id"], "shard_unreachable", "remapped elsewhere"
            )

        async def scenario(client, shard):
            await client.learn_ring()
            assert await client.count(TRIANGLE) == 3

        self.route(
            shard_respond,
            lambda request: protocol.ok_response(request["id"], 3),
            scenario,
        )

    def test_other_typed_errors_are_not_retried(self):
        def shard_respond(request):
            return protocol.error_response(
                request["id"], "bad_request", "no such tenant"
            )

        def router_respond(request):
            raise AssertionError("must not fall back on a non-routing error")

        async def scenario(client, shard):
            await client.learn_ring()
            with pytest.raises(ServiceError) as excinfo:
                await client.count(TRIANGLE)
            assert excinfo.value.code == "bad_request"

        self.route(shard_respond, router_respond, scenario)

    def test_async_direct_dial_then_fallback_on_connection_loss(self):
        async def scenario():
            shard_writers = []

            async def shard_handle(reader, writer):
                shard_writers.append(writer)
                while True:
                    line = await reader.readline()
                    if not line:
                        return
                    request = protocol.parse_line(line)
                    writer.write(
                        protocol.dump_line(protocol.ok_response(request["id"], 7))
                    )
                    await writer.drain()

            shard_server = await asyncio.start_server(
                shard_handle, "127.0.0.1", 0
            )
            shard_addr = shard_server.sockets[0].getsockname()[:2]

            async def router_handle(reader, writer):
                while True:
                    line = await reader.readline()
                    if not line:
                        return
                    request = protocol.parse_line(line)
                    if request["op"] == "ring":
                        payload = protocol.ok_response(
                            request["id"], ring_info(*shard_addr)
                        )
                    else:
                        payload = protocol.ok_response(request["id"], 1)
                    writer.write(protocol.dump_line(payload))
                    await writer.drain()

            router_server = await asyncio.start_server(
                router_handle, "127.0.0.1", 0
            )
            host, port = router_server.sockets[0].getsockname()[:2]
            try:
                async with AsyncServiceClient(host, port) as client:
                    await client.learn_ring()
                    assert await client.count(TRIANGLE) == 7  # direct
                    shard_server.close()
                    await shard_server.wait_closed()
                    for writer in shard_writers:
                        writer.close()
                    assert await client.count(TRIANGLE) == 1  # fallback
            finally:
                router_server.close()
                await router_server.wait_closed()

        asyncio.run(scenario())


# ----------------------------------------------------------------------
# the CI distributed smoke: real shard OS processes
# ----------------------------------------------------------------------


def differential_check(client, request, mirror, report):
    """Issue one wire request and check it against the naive-oracle
    mirror (mutations are applied to the mirror as they are acked)."""
    op = request["op"]
    start = time.perf_counter()
    response = client.request(**request)
    report.record(
        op,
        time.perf_counter() - start,
        None if response.get("ok") else response["error"]["code"],
    )
    assert response["ok"], response
    result = response["result"]
    if op == "evaluate":
        assert result == naive_evaluate(parse_query(request["query"]), mirror)
    elif op == "count":
        assert result == naive_count(parse_query(request["query"]), mirror)
    else:
        values = decode_tuple(request["tuple"])
        if request["kind"] == "insert":
            changed = mirror.insert(request["relation"], values)
        else:
            changed = mirror.delete(request["relation"], values)
        assert result["applied"] == (changed is not None)
    return response["id"]


class TestDistributedSmoke:
    def test_distributed_differential_kill_and_warm_join(self, tmp_path):
        """The CI ``distributed-smoke``: two real shard OS processes
        (separate per-node cache directories) behind a coordinator.

        1. Differential wire traffic (evaluate/count/mutate) through a
           :class:`RouterServer`, answer by answer against the naive
           oracle; plus client-side direct routing and a ``--direct``
           closed-loop load run.
        2. One shard is SIGSTOPped with evaluate/count futures and a
           mutation broadcast pinned in flight, then SIGKILLed: every
           future still answers — correctly, exactly once — because the
           failover sweep resubmits the routed work to the survivor and
           resolves the broadcast acks benignly.  Zero lost, zero
           duplicated.
        3. A third shard joins *warm*: its empty cache directory is
           populated purely by content-addressed entries shipped over
           the wire.  The other survivor is then decommissioned, so the
           newcomer serves the ENTIRE workload — and performs zero
           forward reductions doing it.
        """
        db = small_db(12, seed=5)
        base_queries = [
            parse_query(TRIANGLE),
            parse_query(PATH2),
            parse_query("R([A],[B]) ∧ S([A],[B])"),
            parse_query("U([A],[B]) ∧ V([A],[B])"),
            parse_query("T([A],[B]) ∧ U([B],[C])"),
            parse_query("S([A],[B]) ∧ T([B],[C])"),
        ]
        queries = [
            v
            for q in base_queries
            for v in isomorphic_variants(q, 2, seed=3)
        ]
        dirs = {
            name: tmp_path / f"cache-{name}" for name in ("sA", "sB", "sC")
        }
        report = LoadReport(mode="closed")
        mirror = db.clone()

        with contextlib.ExitStack() as stack:
            shard_a = stack.enter_context(
                spawn_shard_process("sA", cache_dir=dirs["sA"])
            )
            shard_b = stack.enter_context(
                spawn_shard_process("sB", cache_dir=dirs["sB"])
            )
            router = ShardRouter(
                remote_shards={"sA": shard_a.address, "sB": shard_b.address},
                health_interval=2.0,
            )
            stack.callback(router.close)

            # ---- phase 1: differential wire traffic + client routing
            info = router.attach_tenant("acme", db)
            assert info["shards"] == 2
            server = RouterServer(router)
            requests = generate_requests(
                base_queries[:2],
                total=40,
                seed=7,
                variants_per_query=4,
                count_fraction=0.2,
                mutate_fraction=0.15,
                tenants=("acme",),
            )
            direct_load = generate_requests(
                base_queries[:2],
                total=16,
                seed=11,
                variants_per_query=3,
                tenants=("acme",),
            )

            def wire_body(host, port):
                started = time.perf_counter()
                with ServiceClient(host, port) as client:
                    ids = [
                        differential_check(client, request, mirror, report)
                        for request in requests
                    ]
                    assert len(set(ids)) == len(requests)  # one answer each
                report.duration_s = time.perf_counter() - started
                # client-side routing: learn the ring, dial shards direct
                async def routed_phase():
                    async with AsyncServiceClient(
                        host, port, tenant="acme"
                    ) as routed:
                        info = await routed.learn_ring()
                        assert set(info["addresses"]) == {"sA", "sB"}
                        for q in queries[:6]:
                            assert await routed.evaluate(
                                query_text(q)
                            ) == naive_evaluate(q, mirror)
                        assert routed._shard_clients  # direct dials happened

                asyncio.run(routed_phase())
                # the load harness's --direct path (async client)
                load_report = asyncio.run(
                    run_load(
                        host,
                        port,
                        direct_load,
                        mode="closed",
                        concurrency=4,
                        direct=True,
                    )
                )
                assert load_report.ok == load_report.requests == len(
                    direct_load
                )

            async def wire_phase():
                host, port = await server.start()
                try:
                    await asyncio.to_thread(wire_body, host, port)
                finally:
                    await server.stop()

            asyncio.run(wire_phase())
            want = [naive_evaluate(q, mirror) for q in queries]
            counts = [naive_count(q, mirror) for q in base_queries[:3]]

            # ---- phase 2: freeze sA with work in flight, then kill it
            shard_a.pause()
            eval_futures = [router.evaluate("acme", q) for q in queries]
            count_futures = [
                router.count("acme", q) for q in base_queries[:3]
            ]
            ghost = (Interval(9e6, 9e6 + 1), Interval(9e6 + 2, 9e6 + 3))
            ack = router.mutate("acme", "delete", "R", ghost)  # no-op
            shard_a.kill()
            answers = [f.result(300) for f in eval_futures]
            assert answers == want  # zero lost, zero wrong
            assert [f.result(300) for f in count_futures] == counts
            acked = ack.result(300)
            assert acked["applied"] is False  # the ghost tuple never existed
            assert acked["shards"] == 2  # broadcast reached both pools
            deadline = time.monotonic() + 60
            while (
                router.shard_names != ("sB",)
                and time.monotonic() < deadline
            ):
                time.sleep(0.05)
            assert router.shard_names == ("sB",)

            # serve every group on the survivor so its cache holds every
            # current-digest entry (the donor side of the warm join)
            assert router.evaluate_many(queries, "acme") == want

            # ---- phase 3: warm join + decommission, zero reductions
            shard_c = stack.enter_context(
                spawn_shard_process("sC", cache_dir=dirs["sC"])
            )
            grown = router.add_shard("sC", shard_c.address)
            assert grown["shards"] == 2
            assert grown["cache_entries_shipped"] > 0
            keys_b = set(ReductionCache(dirs["sB"]).entry_keys())
            keys_c = set(ReductionCache(dirs["sC"]).entry_keys())
            assert keys_b and keys_b <= keys_c  # shipped, content-addressed

            removed = router.remove_shard("sB")
            assert removed["shards"] == 1
            assert router.shard_names == ("sC",)
            # the newcomer serves the WHOLE workload purely from the
            # shipped entries: differential-correct, zero reductions
            assert router.evaluate_many(queries, "acme") == want
            stats = router.stats()
            newcomer = stats["shards"]["sC"]["acme"]
            assert newcomer["aggregate"].get("reductions", 0) == 0
            assert newcomer["aggregate"].get("persistent_hits", 0) >= len(
                base_queries
            )

        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        payload = {
            **report.as_dict(),
            "distributed": {
                "shards_spawned": 3,
                "killed_with_inflight": "sA",
                "decommissioned": "sB",
                "inflight_futures_resubmitted": len(queries) + 3,
                "cache_entries_shipped": grown["cache_entries_shipped"],
                "warm_join_reductions": newcomer["aggregate"].get(
                    "reductions", 0
                ),
                "warm_join_persistent_hits": newcomer["aggregate"].get(
                    "persistent_hits", 0
                ),
            },
        }
        with (RESULTS_DIR / "distributed_smoke.json").open("w") as handle:
            json.dump(payload, handle, indent=2)

    def test_shard_process_serves_the_wire_protocol_standalone(
        self, tmp_path
    ):
        """One shard process on its own is a complete single-node
        service: attach, evaluate, mutate, stats over the wire."""
        db = small_db(8, seed=3)
        q = parse_query(TRIANGLE)
        with spawn_shard_process(
            "solo", cache_dir=tmp_path / "cache"
        ) as shard:
            with ServiceClient(*shard.address, tenant="acme") as client:
                info = client.attach_tenant("acme", db)
                assert info["shards"] == 1
                assert client.evaluate(TRIANGLE) == naive_evaluate(q, db)
                stats = client.stats()
                assert "acme" in stats["shards"]["local"]


    @pytest.mark.parametrize("signum", [signal.SIGKILL, signal.SIGTERM])
    def test_a_killed_shard_node_takes_its_workers_with_it(self, signum):
        """Regression: each worker holds a write end of its own task
        queue, so ``tasks.get()`` never saw EOF when the node died and
        the workers (and the resource tracker) lived on under init."""
        db = small_db(8, seed=3)
        shard = spawn_shard_process("doomed", workers=2)
        pgid = shard.process.pid
        with ServiceClient(*shard.address, tenant="acme") as client:
            client.attach_tenant("acme", db)
            assert client.evaluate(TRIANGLE) == naive_evaluate(
                parse_query(TRIANGLE), db
            )
        # the node, its two workers and their resource tracker
        assert len(live_group_members(pgid)) >= 4
        os.kill(pgid, signum)
        shard.process.wait(timeout=30)
        assert_group_dies(pgid)


# ----------------------------------------------------------------------
# the router's remote-mode edges (no processes: stub shard servers)
# ----------------------------------------------------------------------


class FakeShard(StubServer):
    """A scripted shard node: it keeps each tenant's database as the
    frames it receives leave it, answers ``evaluate`` from the naive
    oracle and logs every frame.  ``hold[op]`` (an event) parks that
    verb's answer until it is set; a verb in ``drop`` severs the
    connection instead of answering."""

    def __init__(self, hold=None, drop=()):
        self.frames: list[dict] = []
        self.dbs: dict[str, Database] = {}
        self.hold = hold or {}
        self.drop = drop
        super().__init__(self.answer)

    def answer(self, request):
        op, tenant = request["op"], request.get("tenant")
        self.frames.append(request)
        if op in self.drop:
            return None
        if op in self.hold:
            self.hold[op].wait(10)
        if op in ("attach_tenant", "reload"):
            self.dbs[tenant] = decode_database(request["database"])
            result = {"tenant": tenant, "shards": 1}
        elif op == "detach_tenant":
            self.dbs.pop(tenant, None)
            result = {"tenant": tenant, "purged": 0}
        elif op == "mutate":
            db = self.dbs[tenant]
            apply = db.insert if request["kind"] == "insert" else db.delete
            changed = apply(request["relation"], decode_tuple(request["tuple"]))
            result = {"applied": changed is not None}
        elif op == "evaluate":
            result = naive_evaluate(parse_query(request["query"]), self.dbs[tenant])
        elif op == "cache_keys":
            return protocol.error_response(
                request["id"], "bad_request", "this node has no cache directory"
            )
        else:  # ring: the health probe
            result = {}
        return protocol.ok_response(request["id"], result)

    def ops(self, op: str) -> list[int]:
        """Positions of ``op``'s frames in arrival order."""
        return [i for i, frame in enumerate(self.frames) if frame["op"] == op]


def contents(db: Database) -> dict:
    return {relation.name: set(relation.tuples) for relation in db}


def remote_router(nodes: dict) -> ShardRouter:
    return ShardRouter(
        remote_shards={name: (node.host, node.port) for name, node in nodes.items()}
    )


class TestRemoteRouterEdges:
    def test_no_reachable_shard_is_a_typed_error(self):
        with pytest.raises(ShardUnreachable):
            ShardRouter(remote_shards={"s0": ("127.0.0.1", free_port())})

    def test_empty_remote_shards_rejected(self):
        with pytest.raises(ValueError):
            ShardRouter(remote_shards={})

    def test_local_router_rejects_addresses_remote_requires_them(
        self, tmp_path
    ):
        with ShardRouter(shards=("s0",), cache_dir=tmp_path) as router:
            with pytest.raises(ValueError):
                router.add_shard("s1", ("127.0.0.1", 1))

    def test_detach_during_add_shard_leaves_no_stray_tenant(self):
        """Admin operations are serialised: a ``detach_tenant`` issued
        while ``add_shard`` is attaching the tenant to the new node waits
        for it, then detaches the tenant there too.  Before, the detach
        finished first and the new node kept a tenant the router no
        longer listed."""
        gate = threading.Event()
        s0, s1 = FakeShard(), FakeShard(hold={"attach_tenant": gate})
        try:
            with remote_router({"s0": s0}) as router:
                router.attach_tenant("acme", small_db(4))
                with ThreadPoolExecutor(2) as executor:
                    adding = executor.submit(
                        router.add_shard, "s1", (s1.host, s1.port)
                    )
                    wait_until(lambda: s1.ops("attach_tenant"))
                    detaching = executor.submit(router.detach_tenant, "acme")
                    wait([detaching], timeout=1)  # the old race ran here
                    gate.set()
                    assert adding.result(30)["shards"] == 2
                    assert detaching.result(30)["shards"] == 2
                assert router.tenants == ()
                for node in (s0, s1):
                    assert set(node.dbs) <= set(router.tenants)
        finally:
            s0.close()
            s1.close()


# ----------------------------------------------------------------------
# the remote half of hot-reload (scripted nodes)
# ----------------------------------------------------------------------


class TestRemoteReload:
    """Each node swaps its own pools (one ``reload`` frame carrying the
    snapshot); the coordinator keeps its pools and replays what it
    accepted meanwhile."""

    def test_each_node_swaps_and_the_suffix_is_replayed(self):
        old_db, new_db = small_db(8, seed=3), small_db(8, seed=47)
        extra = (Interval(5000.0, 5001.0), Interval(5002.0, 5003.0))
        want = new_db.clone()
        want.insert("U", extra)
        gate = threading.Event()
        nodes = {"s0": FakeShard(hold={"reload": gate}), "s1": FakeShard()}
        try:
            with remote_router(nodes) as router:
                router.attach_tenant("acme", old_db)
                with ThreadPoolExecutor(1) as executor:
                    reloading = executor.submit(router.reload, "acme", new_db)
                    wait_until(lambda: nodes["s0"].ops("reload"))
                    # accepted while the nodes are swapping
                    ack = router.mutate("acme", "insert", "U", extra)
                    gate.set()
                    report = reloading.result(30)
                assert ack.result(10)["shards"] == 2
                assert report["reloaded"] == 2
                assert (report["replayed"], report["shards"]) == (1, 2)
                for node in nodes.values():
                    # the broadcast, then the replay after the swap
                    wait_until(lambda: len(node.ops("mutate")) == 2)
                    (swap,) = node.ops("reload")
                    snapshot = decode_database(node.frames[swap]["database"])
                    assert contents(snapshot) == contents(new_db)
                    assert node.ops("mutate")[-1] > swap
                    assert contents(node.dbs["acme"]) == contents(want)
                assert contents(router.database("acme")) == contents(want)
                for q in isomorphic_variants(parse_query(PATH2), 4, seed=1):
                    assert router.evaluate("acme", q).result(10) == (
                        naive_evaluate(q, want)
                    )
        finally:
            for node in nodes.values():
                node.close()

    def test_a_node_lost_mid_reload_is_skipped_and_evicted(self, caplog):
        old_db, new_db = small_db(8, seed=3), small_db(8, seed=47)
        nodes = {"s0": FakeShard(), "s1": FakeShard(drop=("reload",))}
        try:
            with caplog.at_level(logging.WARNING, logger="repro.service"):
                with remote_router(nodes) as router:
                    router.attach_tenant("acme", old_db)
                    report = router.reload("acme", new_db)
                    assert (report["reloaded"], report["shards"]) == (1, 1)
                    assert router.shard_names == ("s0",)
                    for q in isomorphic_variants(parse_query(TRIANGLE), 4, seed=1):
                        assert router.evaluate("acme", q).result(10) == (
                            naive_evaluate(q, new_db)
                        )
        finally:
            for node in nodes.values():
                node.close()
        (record,) = [r for r in caplog.records if r.name == "repro.service"]
        assert record.levelno == logging.WARNING
        assert (record.shard, record.reason) == ("s1", "connection_lost")
        # the reload frame itself was in flight: an admin verb fails typed
        assert (record.resubmitted, record.failed) == (0, 1)
