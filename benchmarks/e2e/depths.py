"""The serving depths below the in-process session: pool and wire.

``WireService`` is what ``serve_hot`` measures end to end — an in-process
asyncio :class:`ServiceServer` on a loopback ephemeral port in front of
``WorkerPool(db, workers=1)`` (default ``spawn``), driven closed-loop by
``AsyncServiceClient`` connections with one request outstanding each.
The traced run of every workload replays the same reads at the session,
pool and wire depths, so subtracting adjacent depths prices the pool IPC
and the server/wire layer.

Every wait carries a timeout and ``close`` always reaches
``pool.terminate()``: a benchmark that hangs or leaves a worker behind
is the failure this file exists to prevent.
"""

from __future__ import annotations

import asyncio
from pathlib import Path
from time import perf_counter

from repro.engine import Database
from repro.service import AsyncServiceClient, ServiceServer, WorkerPool
from repro.service.protocol import query_text
from repro.sql import compile_sql

WAIT_S = 60.0


class Failure:
    """The answer of an op that raised: never equal to an expected one."""

    def __init__(self, error: BaseException):
        self.error = f"{type(error).__name__}: {error}"

    def __repr__(self) -> str:
        return f"Failure({self.error})"


class WireService:
    """Pool + server + event loop, owned together and closed together."""

    def __init__(self, db: Database, cache_dir: Path):
        started = perf_counter()
        self.pool = WorkerPool(db, workers=1, cache_dir=cache_dir)
        self.loop = asyncio.new_event_loop()
        self.server = ServiceServer(self.pool)
        try:
            self.pool.wait_ready(timeout=WAIT_S)
            self.ready_s = perf_counter() - started
            self.host, self.port = self._await(self.server.start())
        except BaseException:
            self.close()
            raise
        self._wire_text: dict[int, str] = {}
        self._disjunct: dict[str, tuple] = {}

    def _await(self, awaitable):
        return self.loop.run_until_complete(
            asyncio.wait_for(awaitable, WAIT_S)
        )

    def close(self) -> None:
        try:
            self._await(self.server.stop())
        finally:
            try:
                self.pool.close(timeout=WAIT_S)
            finally:
                self.pool.terminate()
                self.loop.close()

    def worker_counters(self) -> dict:
        """The worker session's cumulative counters."""
        stats = self.pool.stats_async().result(timeout=WAIT_S)
        return stats["aggregate"]

    # -- pool depth ----------------------------------------------------

    def submit(self, op):
        """One op straight into the pool (SQL is pre-compiled here, off
        the clock, because at the wire depth that is the server's job)."""
        if op.kind != "sql":
            future = self.pool.submit(op.kind, op.query)
            return future.result(timeout=WAIT_S)
        compiled = self._disjunct.get(op.sql)
        if compiled is None:
            program = compile_sql(op.sql, self.pool.db)
            (disjunct,) = program.disjuncts
            compiled = self._disjunct[op.sql] = (program, disjunct)
        program, disjunct = compiled
        future = self.pool.submit("sql", disjunct.query, sql=disjunct.sql)
        return program.combine([future.result(timeout=WAIT_S)])

    # -- wire depth ----------------------------------------------------

    async def _send(self, client: AsyncServiceClient, op):
        if op.kind == "sql":
            return await client.sql(op.sql)
        text = self._wire_text.get(id(op.query))
        if text is None:
            text = self._wire_text[id(op.query)] = query_text(op.query)
        if op.kind == "count":
            return await client.count(text)
        return await client.evaluate(text)

    async def _user(self, client, ops, first, step, deadline, quota):
        """One closed-loop user: next request only after the previous
        reply.  Returns ``(op, latency_s, answer)`` per request."""
        done = []
        index = first
        while len(done) < quota:
            op = ops[index % len(ops)]
            sent = perf_counter()
            try:
                answer = await asyncio.wait_for(self._send(client, op), WAIT_S)
            except Exception as error:  # counted as a failed op
                answer = Failure(error)
            now = perf_counter()
            done.append((op, now - sent, answer))
            index += step
            if deadline is not None and now >= deadline:
                break
        return done

    def drive(self, ops, connections: int, seconds=None, max_ops=None, first=0):
        """Closed loop of ``connections`` users over ``ops`` from op
        ``first`` (user *k* takes ops *first+k*, *first+k+connections*,
        ...), for ``seconds`` or exactly ``max_ops`` requests.  Returns
        every user's ``(op, latency_s, answer)`` triples."""

        async def run():
            clients = [
                await AsyncServiceClient(self.host, self.port).connect()
                for _ in range(connections)
            ]
            try:
                deadline = None if max_ops is not None else perf_counter() + seconds
                quotas = [
                    float("inf")
                    if max_ops is None
                    else len(range(k, max_ops, connections))
                    for k in range(connections)
                ]
                per_user = await asyncio.gather(
                    *(
                        self._user(
                            c, ops, first + k, connections, deadline, quotas[k]
                        )
                        for k, c in enumerate(clients)
                    )
                )
                return per_user
            finally:
                for client in clients:
                    await client.close()

        per_user = self.loop.run_until_complete(run())
        return [entry for user in per_user for entry in user]
