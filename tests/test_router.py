"""The sharded router tier (:mod:`repro.service.ring` /
:mod:`repro.service.router`).

Layers under test:

* the consistent-hash ring — deterministic cross-process placement,
  and the acceptance criterion that growing a 4-shard ring to 5
  remaps at most 30% of 200 canonical-form groups (each straight onto
  the new node; removal remaps exactly the departing node's share);
* the :class:`ShardRouter` — differential correctness per tenant
  against the naive oracle, cross-tenant reduction sharing over the
  namespaced content-addressed cache (an identical second tenant
  performs **zero** forward reductions), mutation convergence across
  every shard replica, namespace-accurate detach purging;
* hot-reload — a served database is swapped via snapshot + delta
  replay while requests are in flight, and none are dropped; admin
  operations are serialised, so an ``add_shard`` racing a reload
  builds from the reloaded master;
* eviction — ``remove_shard`` is the one eviction path and logs why;
* rescale-under-traffic — concurrent differential traffic stays
  correct across tenant attach, ring growth/shrink and a hot-reload;
* the :class:`RouterServer` wire tier — tenant-scoped verbs, typed
  errors for unknown tenants, and the CI ``router-smoke``: mixed
  multi-tenant loadgen traffic differentially checked request by
  request, then one shard killed, with a bounded remap and no lost or
  duplicated answers; the loadgen-style JSON report lands under
  ``benchmarks/results/`` for the CI artifact upload.

Worker processes use the ``spawn`` start method, so every router test
also exercises cross-process content addressing for real.
"""

import asyncio
import json
import logging
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.core import naive_count, naive_evaluate
from repro.core.reduction_cache import ReductionCache
from repro.core.session import canonical_form
from repro.engine import Database
from repro.intervals import Interval
from repro.queries import parse_query
from repro.service import (
    HashRing,
    RouterServer,
    ServiceClient,
    ShardRouter,
    UnknownTenant,
    generate_requests,
    stable_digest,
)
from repro.service.loadgen import LoadReport
from repro.service.protocol import decode_tuple
from repro.workloads import isomorphic_variants, random_database

TRIANGLE = "R([A],[B]) ∧ S([B],[C]) ∧ T([A],[C])"
PATH2 = "U([A],[B]) ∧ V([B],[C])"

RESULTS_DIR = Path(__file__).resolve().parent.parent / "benchmarks" / "results"


def small_db(n: int = 14, seed: int = 11) -> Database:
    q1, q2 = parse_query(TRIANGLE), parse_query(PATH2)
    db = random_database(q1, n, seed=seed)
    for relation in random_database(q2, n, seed=seed + 1):
        db.add(relation)
    return db


def canonical_keys(n_groups: int) -> list:
    """``n_groups`` distinct canonical-form keys — real ones, from
    parsed queries over disjoint relations."""
    return [
        canonical_form(
            parse_query(f"A{i}([X],[Y]) ∧ B{i}([Y],[Z]) ∧ C{i}([X],[Z])")
        ).key
        for i in range(n_groups)
    ]


# ----------------------------------------------------------------------
# the consistent-hash ring
# ----------------------------------------------------------------------


class TestHashRing:
    def test_placement_is_deterministic_across_instances(self):
        """No per-process hash salting: two independently built rings
        (a router and its restarted successor, or two processes) agree
        on every placement."""
        keys = canonical_keys(50)
        a = HashRing(["s0", "s1", "s2"])
        b = HashRing(["s2", "s0", "s1"])  # insertion order is irrelevant
        assert a.placement(keys) == b.placement(keys)
        assert stable_digest(keys[0]) == stable_digest(keys[0])

    def test_isomorphic_queries_share_a_placement(self):
        ring = HashRing(["s0", "s1", "s2"])
        base = parse_query(TRIANGLE)
        keys = {
            canonical_form(v).key
            for v in isomorphic_variants(base, 8, seed=5)
        }
        assert len(keys) == 1  # they collapse to one group...
        (key,) = keys
        assert ring.node_for(key) == ring.node_for(canonical_form(base).key)

    def test_single_node_takes_everything(self):
        ring = HashRing(["only"])
        assert {ring.node_for(k) for k in canonical_keys(20)} == {"only"}

    def test_grow_4_to_5_remaps_at_most_30_percent_of_200_groups(self):
        """Acceptance criterion: growing a 4-shard ring to 5 remaps at
        most 30% of 200 canonical-form groups, and every remapped group
        moves straight onto the new node (never between old nodes)."""
        keys = canonical_keys(200)
        ring = HashRing([f"s{i}" for i in range(4)])
        before = ring.placement(keys)
        ring.add("s4")
        after = ring.placement(keys)
        moved = [k for k in keys if before[k] != after[k]]
        assert len(moved) <= 60  # 30% of 200; ideal share is 20%
        assert moved, "a non-trivial share must land on the new node"
        assert all(after[k] == "s4" for k in moved)

    def test_remove_remaps_exactly_the_departing_share(self):
        keys = canonical_keys(200)
        ring = HashRing([f"s{i}" for i in range(4)])
        before = ring.placement(keys)
        departing = [k for k in keys if before[k] == "s1"]
        ring.remove("s1")
        after = ring.placement(keys)
        for k in keys:
            if k in departing:
                assert after[k] != "s1"
            else:
                assert after[k] == before[k]

    def test_membership_and_errors(self):
        ring = HashRing(["a", "b"])
        assert len(ring) == 2 and "a" in ring and "c" not in ring
        with pytest.raises(ValueError):
            ring.add("a")
        with pytest.raises(KeyError):
            ring.remove("c")
        ring.remove("a")
        ring.remove("b")
        with pytest.raises(LookupError):
            ring.node_for("anything")
        described = HashRing(["x"], replicas=16).describe()
        assert described["nodes"] == ["x"]
        assert described["points"] == 16


# ----------------------------------------------------------------------
# the router: tenancy, sharing, convergence
# ----------------------------------------------------------------------


class TestShardRouter:
    def test_two_tenants_differential_sharing_and_detach(self, tmp_path):
        """One combined lifecycle pass (worker processes are expensive
        on CI): two tenants over a 2-shard ring and one shared cache —
        per-tenant differential correctness, **zero** forward
        reductions for a second tenant serving identical relations,
        mutation isolation + convergence across shard replicas, and a
        detach purge that only evicts entries no survivor references."""
        db = small_db(14, seed=11)
        queries = [
            v
            for q in (TRIANGLE, PATH2)
            for v in isomorphic_variants(parse_query(q), 3, seed=3)
        ]
        with ShardRouter(
            shards=("s0", "s1"), cache_dir=tmp_path, workers_per_shard=1
        ) as router:
            router.attach_tenant("acme", db)
            with pytest.raises(ValueError):
                router.attach_tenant("acme", db)  # duplicate
            with pytest.raises(ValueError):
                router.attach_tenant("bad name!", db)  # invalid namespace
            with pytest.raises(UnknownTenant):
                router.evaluate("nobody", parse_query(TRIANGLE))

            want = [naive_evaluate(q, db) for q in queries]
            assert router.evaluate_many(queries, "acme") == want

            # identical data under a second tenant: all reductions come
            # from the shared content-addressed cache — zero recomputed
            router.attach_tenant("globex", db)
            assert router.evaluate_many(queries, "globex") == want
            stats = router.stats()
            globex_reductions = sum(
                tenants["globex"]["aggregate"].get("reductions", 0)
                for tenants in stats["shards"].values()
                if "globex" in tenants
            )
            assert globex_reductions == 0
            assert stats["ring"]["tenants"] == ["acme", "globex"]

            # both tenants' namespaces own entries in the one cache
            cache = ReductionCache(tmp_path)
            assert set(cache.namespaces()) >= {"acme", "globex"}
            shared = cache.namespace_keys("acme") & cache.namespace_keys(
                "globex"
            )
            assert shared, "identical relations must share cache entries"

            # mutate acme only: isolation + replica convergence
            victim = next(iter(db["R"].tuples))
            ack = router.mutate("acme", "delete", "R", victim).result(60)
            assert ack["applied"] and ack["shards"] == 2
            assert not router.mutate("acme", "delete", "R", victim).result(
                60
            )["applied"]  # idempotent under set semantics
            mutated = db.clone()
            mutated.delete("R", victim)
            q = parse_query(TRIANGLE)
            assert router.count("acme", q).result(60) == naive_count(
                q, mutated
            )
            assert router.count("globex", q).result(60) == naive_count(q, db)
            for state in router._tenants.values():
                for pool in state.pools.values():
                    assert pool.db["R"].tuples == state.master["R"].tuples

            # detach globex: shared entries survive (acme still owns
            # them), and globex's ownership marks are gone
            report = router.detach_tenant("globex", purge=True)
            assert report["tenant"] == "globex"
            cache = ReductionCache(tmp_path)
            assert "globex" not in cache.namespaces()
            assert shared <= cache.namespace_keys("acme")
            assert router.evaluate_many([q], "acme") == [
                naive_evaluate(q, mutated)
            ]
            with pytest.raises(UnknownTenant):
                router.detach_tenant("globex")

    def test_hot_reload_swaps_data_without_dropping_requests(
        self, tmp_path, monkeypatch
    ):
        """Snapshot + delta replay: a mutation accepted while the new
        pools are being built is replayed onto the snapshot, requests
        submitted before the swap still answer (from the old data),
        and requests after the swap see the new database."""
        old_db = small_db(12, seed=11)
        new_db = small_db(12, seed=47)
        q = parse_query(TRIANGLE)
        queries = isomorphic_variants(q, 6, seed=9)
        with ShardRouter(
            shards=("s0", "s1"), cache_dir=tmp_path, workers_per_shard=1
        ) as router:
            router.attach_tenant("acme", old_db)
            inflight = [router.evaluate("acme", v) for v in queries]

            # land a mutation in the delta log deterministically *mid*
            # reload — after the version snapshot, while the new pools
            # are building (_build_pool runs outside the router lock):
            # the delta targets the old master, so reload must replay
            # it onto the new one
            extra = (Interval(5000.0, 5001.0), Interval(5002.0, 5003.0))
            assert extra not in old_db["U"].tuples
            assert extra not in new_db["U"].tuples
            mutated_new = new_db.clone()
            mutated_new.insert("U", extra)
            build, fired = router._build_pool, []

            def build_and_mutate(db, tenant):
                if not fired:
                    fired.append(True)
                    router.mutate("acme", "insert", "U", extra)
                return build(db, tenant)

            monkeypatch.setattr(router, "_build_pool", build_and_mutate)
            report = router.reload("acme", new_db)
            assert report["shards"] == 2 and report["replayed"] == 1

            # nothing in flight was dropped; answers are the old data's
            want_old = naive_evaluate(q, old_db)
            assert [f.result(60) for f in inflight] == [want_old] * len(
                queries
            )
            # post-swap traffic sees the new database + replayed delta
            assert router.count(
                "acme", parse_query(PATH2)
            ).result(60) == naive_count(parse_query(PATH2), mutated_new)
            assert router._tenants["acme"].reloads == 1

    def test_rescale_and_reload_under_concurrent_traffic(self, tmp_path):
        """Acceptance criterion, live half: a differential client keeps
        hammering one tenant while the ring grows, shrinks and the
        database hot-reloads; every answer must match the naive oracle
        of either the pre- or post-reload data (both only inside the
        swap window)."""
        db_a = small_db(12, seed=11)
        db_b = small_db(12, seed=47)
        q = parse_query(TRIANGLE)
        queries = isomorphic_variants(q, 4, seed=21) + isomorphic_variants(
            parse_query(PATH2), 4, seed=22
        )
        answers_old = [naive_evaluate(v, db_a) for v in queries]
        answers_new = [naive_evaluate(v, db_b) for v in queries]

        swap_done = threading.Event()
        stop = threading.Event()
        failures: list = []
        rounds = [0]

        def traffic(router):
            while not stop.is_set():
                # capture the epoch BEFORE submitting: a batch launched
                # pre-swap may drain from the old pools even if the
                # swap completes while it is in flight, so only batches
                # launched strictly after the swap must see new data
                pre = not swap_done.is_set()
                got = router.evaluate_many(queries, "acme")
                for i, answer in enumerate(got):
                    if pre:
                        ok = answer in (answers_old[i], answers_new[i])
                    else:
                        ok = answer == answers_new[i]
                    if not ok:
                        failures.append((i, answer))
                rounds[0] += 1

        with ShardRouter(
            shards=("s0", "s1"), cache_dir=tmp_path, workers_per_shard=1
        ) as router:
            router.attach_tenant("acme", db_a)
            worker = threading.Thread(target=lambda: traffic(router))
            worker.start()
            try:
                router.attach_tenant("globex", db_b)  # under traffic
                assert router.evaluate_many(queries, "globex") == answers_new
                router.add_shard("s2")  # grow under traffic
                router.remove_shard("s0")  # shrink under traffic
                router.reload("acme", db_b)  # hot-swap under traffic
                swap_done.set()
                deadline = time.time() + 60
                target = rounds[0] + 2  # two full post-swap rounds
                while rounds[0] < target and time.time() < deadline:
                    time.sleep(0.05)
            finally:
                stop.set()
                worker.join(timeout=120)
            assert not worker.is_alive()
            assert not failures, failures[:5]
            assert rounds[0] >= 3  # traffic genuinely overlapped the ops
            assert router.shard_names == ("s1", "s2")

    def test_reload_and_add_shard_are_serialised(self, tmp_path, monkeypatch):
        """Admin operations are mutually exclusive: an ``add_shard``
        issued while a ``reload`` is building its pools waits for the
        swap and builds the new shard from the reloaded master.  Before,
        the reload adopted the new shard's pre-reload pool unreplayed,
        so every group the ring placed there answered from the old
        database."""
        old_db, new_db = small_db(8, seed=11), small_db(8, seed=47)
        with ShardRouter(
            shards=("s0",), cache_dir=tmp_path, workers_per_shard=1
        ) as router:
            router.attach_tenant("acme", old_db)
            build, built = router._build_pool, []
            held, second = threading.Event(), threading.Event()
            release = threading.Event()

            def gated_build(db, tenant):
                built.append(db)
                if len(built) == 1:
                    held.set()
                    release.wait(30)  # the reload's build is held here
                else:
                    second.set()
                return build(db, tenant)

            monkeypatch.setattr(router, "_build_pool", gated_build)
            with ThreadPoolExecutor(2) as executor:
                reloading = executor.submit(router.reload, "acme", new_db)
                assert held.wait(30)
                adding = executor.submit(router.add_shard, "s1")
                second.wait(2)  # the old race built s1's pool here
                release.set()
                reloading.result(60)
                adding.result(60)
            state = router._tenants["acme"]
            assert set(state.pools) == {"s0", "s1"}
            for pool in state.pools.values():
                for relation in new_db:
                    assert pool.db[relation.name].tuples == relation.tuples
                    assert state.master[relation.name].tuples == relation.tuples

    def test_remove_shard_is_the_one_eviction_and_says_why(self, caplog):
        with ShardRouter(shards=("s0", "s1")) as router:
            with caplog.at_level(logging.INFO, logger="repro.service"):
                report = router.remove_shard("s0")
        assert report == {"shard": "s0", "shards": 1, "tenants": 0}
        (record,) = [r for r in caplog.records if r.name == "repro.service"]
        assert record.levelno == logging.INFO
        assert (record.shard, record.reason) == ("s0", "decommissioned")
        assert (record.resubmitted, record.failed) == (0, 0)

    def test_every_router_health_checks_its_shards(self):
        with pytest.raises(ValueError):
            ShardRouter(shards=("s0",), health_interval=0)
        with ShardRouter(shards=("s0", "s1"), health_interval=0.05) as router:
            time.sleep(0.3)  # a few rounds: a local shard always answers
            assert router.shard_names == ("s0", "s1")


# ----------------------------------------------------------------------
# the wire tier and the CI router smoke
# ----------------------------------------------------------------------


def run_with_router_server(body, shards=("s0", "s1"), cache_dir=None, **kw):
    """Start router + server, run blocking ``body(host, port)`` in a
    thread, tear down, and return ``(body_result, close_report)``."""
    router = ShardRouter(
        shards=shards, cache_dir=cache_dir, workers_per_shard=1
    )
    server = RouterServer(router, **kw)

    async def driver():
        host, port = await server.start()
        try:
            return await asyncio.to_thread(body, host, port)
        finally:
            await server.stop()

    try:
        result = asyncio.run(driver())
    finally:
        report = router.close()
    return result, report


class TestRouterServer:
    def test_router_smoke_differential_with_shard_kill(self, tmp_path):
        """The CI ``router-smoke``: a 2-shard ring serving two tenants,
        mixed loadgen traffic (evaluate / count / mutate, stamped with
        tenants), every answer differentially checked against a
        single-process naive-oracle mirror; then one shard is killed
        and the suite asserts (a) only the dead shard's share of the
        canonical groups remaps, (b) replayed traffic still answers
        exactly once each, correctly — nothing lost, nothing
        duplicated.  The loadgen-style JSON report is written under
        ``benchmarks/results/`` for the CI artifact upload."""
        dbs = {"acme": small_db(12, seed=5), "globex": small_db(12, seed=23)}
        base_queries = [parse_query(TRIANGLE), parse_query(PATH2)]
        requests = generate_requests(
            base_queries,
            total=60,
            seed=7,
            variants_per_query=4,
            count_fraction=0.2,
            mutate_fraction=0.15,
            tenants=("acme", "globex"),
        )
        assert {r["tenant"] for r in requests} == {"acme", "globex"}

        def check(client, request, mirrors, report):
            op, tenant = request["op"], request["tenant"]
            start = time.perf_counter()
            response = client.request(**request)
            report.record(
                op,
                time.perf_counter() - start,
                None if response.get("ok") else response["error"]["code"],
            )
            assert response["ok"], response
            result = response["result"]
            mirror = mirrors[tenant]
            if op == "evaluate":
                assert result == naive_evaluate(
                    parse_query(request["query"]), mirror
                )
            elif op == "count":
                assert result == naive_count(
                    parse_query(request["query"]), mirror
                )
            else:
                values = decode_tuple(request["tuple"])
                if request["kind"] == "insert":
                    changed = mirror.insert(request["relation"], values)
                else:
                    changed = mirror.delete(request["relation"], values)
                assert result["applied"] == (changed is not None)
            return response["id"]

        def body(host, port):
            report = LoadReport(mode="closed")
            mirrors = {name: db.clone() for name, db in dbs.items()}
            with ServiceClient(host, port) as client:
                for name, db in dbs.items():
                    info = client.attach_tenant(name, db)
                    assert info["shards"] == 2
                start = time.perf_counter()
                ids = [
                    check(client, request, mirrors, report)
                    for request in requests
                ]
                report.duration_s = time.perf_counter() - start
                assert len(set(ids)) == len(requests)  # one answer each

                # placement before the kill, from the group keys the
                # traffic actually used (rings are deterministic, so a
                # local mirror ring reproduces the server's placement)
                ring_info = client.ring()
                assert sorted(ring_info["nodes"]) == ["s0", "s1"]
                keys = {
                    canonical_form(parse_query(r["query"])).key
                    for r in requests
                    if r["op"] in ("evaluate", "count")
                }
                mirror_ring = HashRing(
                    ring_info["nodes"], replicas=ring_info["replicas"]
                )
                before = mirror_ring.placement(keys)

                # kill shard s0: its pools drain gracefully — requests
                # already queued there still answer — and the ring
                # remaps exactly its share of the groups
                client.ring_remove("s0")
                mirror_ring.remove("s0")
                after = mirror_ring.placement(keys)
                moved = [k for k in keys if before[k] != after[k]]
                assert all(before[k] == "s0" for k in moved)
                assert all(
                    after[k] == before[k] for k in keys if k not in moved
                )

                # no lost or duplicated answers: replay the read-only
                # traffic; every request answers exactly once, still
                # differentially correct against the mirrors
                replay_ids = [
                    check(client, request, mirrors, report)
                    for request in requests
                    if request["op"] in ("evaluate", "count")
                ]
                assert len(set(replay_ids)) == len(replay_ids)
                stats = client.stats()
                assert stats["server"]["errors"] == 0
                return report, len(moved), len(keys), len(ids) + len(
                    replay_ids
                )

        (report, moved, groups, answered), _ = run_with_router_server(
            body, cache_dir=tmp_path
        )
        assert report.ok == report.requests == answered
        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        payload = {
            **report.as_dict(),
            "router": {
                "shards_before": 2,
                "shards_after": 1,
                "tenants": sorted(dbs),
                "canonical_groups": groups,
                "remapped_groups": moved,
                "differentially_checked": answered,
            },
        }
        with (RESULTS_DIR / "router_smoke.json").open("w") as handle:
            json.dump(payload, handle, indent=2)

    def test_wire_admin_verbs_and_typed_errors(self, tmp_path):
        db = small_db(10, seed=3)
        db2 = small_db(10, seed=77)
        q = parse_query(TRIANGLE)

        def body(host, port):
            with ServiceClient(host, port, tenant="acme") as client:
                client.attach_tenant("acme", db)
                # the client stamps its tenant onto plain verbs
                assert client.evaluate(TRIANGLE) == naive_evaluate(q, db)

                # unknown tenant and duplicate attach are bad_request
                bad = client.request("count", query=TRIANGLE, tenant="ghost")
                assert not bad["ok"]
                assert bad["error"]["code"] == "bad_request"
                dup = client.request(
                    "attach_tenant", tenant="acme", database={}
                )
                assert not dup["ok"]
                assert dup["error"]["code"] == "bad_request"
                # malformed database payloads are rejected up front
                garbage = client.request(
                    "attach_tenant",
                    tenant="fresh",
                    database={"R": {"schema": ["x"]}},
                )
                assert not garbage["ok"]
                assert garbage["error"]["code"] == "bad_request"
                missing = client.request("reload", tenant="acme")
                assert not missing["ok"]
                assert missing["error"]["code"] == "bad_request"

                # ring lifecycle over the wire
                grown = client.ring_add("s2")
                assert grown["shards"] == 3
                shrunk = client.ring_remove("s1")
                assert shrunk["shards"] == 2
                assert client.evaluate(TRIANGLE) == naive_evaluate(q, db)
                last = client.request("ring_remove", shard="missing")
                assert not last["ok"]
                assert last["error"]["code"] == "bad_request"

                # hot-reload over the wire, then detach
                client.reload("acme", db2)
                assert client.evaluate(TRIANGLE) == naive_evaluate(q, db2)
                info = client.ring()
                assert info["tenants"] == ["acme"]
                client.detach_tenant("acme")
                return client.ring()["tenants"]

        tenants, _ = run_with_router_server(body, cache_dir=tmp_path)
        assert tenants == []


# ----------------------------------------------------------------------
# tenant-stamped loadgen traffic
# ----------------------------------------------------------------------


class TestTenantLoadgen:
    def test_requests_are_stamped_and_mutations_stay_coherent(self):
        requests = generate_requests(
            [parse_query(TRIANGLE)],
            total=120,
            seed=3,
            mutate_fraction=0.4,
            tenants=("a", "b"),
        )
        assert all("tenant" in r for r in requests)
        assert {r["tenant"] for r in requests} == {"a", "b"}
        # a delete only ever targets a tuple previously inserted for
        # the SAME tenant — cross-tenant deletes would differentially
        # miss on a router
        live: dict = {"a": [], "b": []}
        for request in requests:
            if request["op"] != "mutate":
                continue
            key = (request["relation"], json.dumps(request["tuple"]))
            if request["kind"] == "insert":
                live[request["tenant"]].append(key)
            else:
                assert key in live[request["tenant"]]
                live[request["tenant"]].remove(key)

    def test_untagged_requests_when_tenants_omitted(self):
        requests = generate_requests([parse_query(TRIANGLE)], total=10)
        assert all("tenant" not in r for r in requests)
        with pytest.raises(ValueError):
            generate_requests([parse_query(TRIANGLE)], total=5, tenants=())
