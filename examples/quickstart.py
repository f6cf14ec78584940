#!/usr/bin/env python3
"""Quickstart: analyse and evaluate an intersection-join query.

Walks through the paper's running example, the triangle query
``Q△ = R([A],[B]) ∧ S([B],[C]) ∧ T([A],[C])`` (Section 1.1):

1. structural analysis — ι-acyclicity, the 8 reduced EJ queries,
   ij-width 3/2, the FAQ-AI comparison;
2. evaluation via the forward reduction (Theorem 4.15);
3. exact counting and witness enumeration (Appendix G);
4. sessions — caching the reduction and batch-evaluating isomorphic
   queries so the expensive step runs once;
5. persistence — the content-addressed on-disk reduction cache, which
   lets a restarted worker (a brand-new session) skip the reduction
   entirely, plus the session's cache-stats counters;
6. mutation — the delta-maintenance layer: single-tuple inserts and
   deletes made through the ``Database`` mutation API patch the cached
   reduction in place (zero re-reductions) whenever the new interval's
   endpoints already lie in the segment trees' endpoint domains;
7. serving — the concurrent service (``repro.service``): a process
   pool of session-owning workers behind an asyncio JSON-lines server
   with admission control, driven here by the bundled load generator.
   The same thing is available on the command line as ``repro serve``
   and ``repro loadgen``;
8. profiling and the cold reduction — the session's per-phase timing
   stats (``repro evaluate --profile`` on the CLI) and the whole-column
   cold reduction: encodings are computed once per ``(relation, column,
   position)`` for all of a column's values together and shared across
   tuples and variants; a delta patch slices them or walks the tree;
9. the sharded router tier — a consistent-hash ring of shard nodes
   serving two tenants whose pools share one namespaced cache
   (identical data costs the second tenant zero reductions), with one
   tenant's database hot-reloaded mid-traffic via snapshot + delta
   replay.  On the command line: ``repro route``;
10. remote shards — the same ring across OS-process boundaries, with
    failover and warm joins;
11. the columnar cache format — the version-5 framed on-disk layout:
    length-framed header + JSON metadata + raw little-endian array
    sections behind one SHA-256 digest, loaded through ``np.memmap``
    so a warm worker maps the code/refcount arrays zero-copy instead
    of unpickling object graphs.  No pickle is involved anywhere:
    pre-v5 ``.pkl`` entries have no reader (they are evicted like any
    other entry) — migrate by simply re-warming the cache directory;
13. the evaluation engine — the vectorized counting DP, the
    sorted-array generic join and the mask-sweep full reducer, which
    evaluate reduced EJ disjuncts directly on the uint32 code matrices
    (no tuple is decoded on the warm path) and dictionary-encode plain
    row relations handed to the public entry points at their door.
"""

import asyncio
import random
import tempfile
import time
from pathlib import Path

from repro import QuerySession, analyze_query, count_ij, evaluate_ij, parse_query
from repro.core import naive_count, naive_evaluate, witnesses_ij
from repro.intervals import Interval
from repro.reduction import forward_reduce, shift_distinct_left
from repro.workloads import isomorphic_variants, random_database


def main() -> None:
    query = parse_query(
        "Q_triangle := R([A],[B]) ∧ S([B],[C]) ∧ T([A],[C])"
    )

    print("=" * 64)
    print("1. Structural analysis")
    print("=" * 64)
    analysis = analyze_query(query)
    print(analysis.summary())
    print()

    print("=" * 64)
    print("2. The forward reduction on a concrete database")
    print("=" * 64)
    db = random_database(query, n=60, seed=42, domain=300, mean_length=25)
    reduction = forward_reduce(query, db)
    print(f"input size |D| = {db.size} tuples")
    print(
        f"transformed size |D~| = {reduction.database.size} tuples "
        f"(blowup x{reduction.blowup(db):.1f}, polylog per Lemma 4.10)"
    )
    print(f"EJ disjuncts: {len(reduction.ej_queries)}")
    print("first disjunct:", reduction.ej_queries[0])
    print()

    print("=" * 64)
    print("3. Evaluation, counting, witnesses")
    print("=" * 64)
    answer = evaluate_ij(query, db)
    print(f"Q(D) = {answer}")
    total = count_ij(query, db)
    print(f"satisfying tuple combinations: {total}")
    assert total == naive_count(query, db), "oracle cross-check failed"
    print("first witnesses (atom -> tuple):")
    for witness in witnesses_ij(query, db, limit=3):
        for label in sorted(witness):
            print(f"    {label}: {witness[label]}")
        print("    --")
    print()

    print("=" * 64)
    print("4. Sessions: cache the reduction, batch isomorphic queries")
    print("=" * 64)
    session = QuerySession(db)
    start = time.perf_counter()
    session.evaluate(query, strategy="reduction")
    cold = time.perf_counter() - start
    start = time.perf_counter()
    session.evaluate(query, strategy="reduction")
    warm = time.perf_counter() - start
    print(
        f"evaluate: cold {cold * 1e3:.1f} ms, warm {warm * 1e6:.1f} us "
        f"(cached until a relation it reads changes version)"
    )
    batch = isomorphic_variants(query, 10, seed=0)
    answers = session.evaluate_many(batch, strategy="reduction")
    stats = session.stats
    print(
        f"evaluate_many over {len(batch)} variable-renamed copies: "
        f"answers {set(answers)}, forward reductions so far: "
        f"{stats.reductions} (isomorphic queries share one)"
    )
    print()

    print("=" * 64)
    print("5. Persistent cache: a restarted worker never re-reduces")
    print("=" * 64)
    with tempfile.TemporaryDirectory() as cache_dir:
        # a "worker" that warms the on-disk, content-addressed cache
        cold_worker = QuerySession(db, cache_dir=cache_dir)
        start = time.perf_counter()
        cold_worker.evaluate(query, strategy="reduction")
        cold = time.perf_counter() - start
        # a brand-new session over the same directory — what the same
        # query costs after a process restart (or on another worker)
        warm_worker = QuerySession(db, cache_dir=cache_dir)
        start = time.perf_counter()
        warm_worker.evaluate(query, strategy="reduction")
        warm = time.perf_counter() - start
        print(
            f"cold worker {cold * 1e3:.1f} ms "
            f"({cold_worker.stats.reductions} reduction computed, "
            f"{cold_worker.cache.stores} stored to disk)"
        )
        print(
            f"warm worker {warm * 1e3:.2f} ms "
            f"({warm_worker.stats.reductions} reductions — the artifact "
            f"is loaded, not recomputed)"
        )
        assert warm_worker.stats.reductions == 0
        print("warm worker stats:", warm_worker.stats.as_dict())
    # mutations invalidate incrementally: only queries touching the
    # changed relation are re-reduced, and persisted entries for the
    # old contents simply become unreachable (content addressing)
    print()

    print("=" * 64)
    print("6. Mutating a live session: delta maintenance")
    print("=" * 64)
    session = QuerySession(db)
    session.evaluate(query, strategy="reduction")
    reduction = session.reduction(query)
    print(f"warm session: {session.stats.reductions} reductions cached")

    # an insert whose endpoints are already in the artifact's endpoint
    # domains patches the cached reduction — no re-reduction.  The
    # artifact ranks endpoints in the G.1-shifted space (section 13),
    # where a left endpoint sits apart from a right one, so reuse the
    # left and the right endpoints of existing intervals.  The patch runs
    # on the arrays: the tuple's derived rows are encoded against the
    # artifact's own trees (interval parts are node ids, written
    # verbatim) and codebook (point values), found in each variant's
    # sorted uint32 matrix by packed-key binary search, and the int64 refcounts
    # bumped (new rows spliced in, dead rows masked out), copy-on-write
    # so a memmap-loaded cache entry is never written.  The patched
    # relations keep their column blocks, so the kernels of section 13
    # evaluate them as before; a session with a cache_dir persists the
    # patch as a delta frame (the change, not the artifact).
    rng = random.Random(0)
    rows = sorted(db["R"].tuples, key=repr)
    delta = None
    while delta is None:  # skip tuples that happen to exist already
        ends = [(rng.choice(rows)[c].left, rng.choice(rows)[c].right) for c in (0, 1)]
        if all(lo <= hi for lo, hi in ends):
            new_tuple = tuple(Interval(lo, hi) for lo, hi in ends)
            delta = db.insert("R", new_tuple)  # a Delta; None if present
    before = session.stats.reductions
    start = time.perf_counter()
    answer = session.evaluate(query, strategy="reduction")
    patched = time.perf_counter() - start
    print(
        f"insert {delta.kind} v{delta.version} into R: answer {answer} "
        f"in {patched * 1e3:.2f} ms — "
        f"{session.stats.reductions - before} new reductions, "
        f"{session.stats.delta_patches} delta patches"
    )
    assert session.stats.reductions == before
    assert answer == naive_evaluate(query, db)
    assert all(
        reduction.database[name].columnar is not None
        for name in reduction.variant_counts
    ), "patched variants keep their column blocks"

    # deletes patch too (refcounted derived rows); an insert whose
    # endpoint is *outside* the domain falls back to a full re-reduce
    db.delete("R", new_tuple)
    session.evaluate(query, strategy="reduction")
    db.insert("R", (Interval(-1e6, -1e6 + 1), Interval(0.0, 1.0)))
    session.evaluate(query, strategy="reduction")
    print(
        f"after delete (patched) + out-of-domain insert (rebuilt): "
        f"{session.stats.delta_patches} patches, "
        f"{session.stats.reductions} reductions total"
    )
    assert session.stats.reductions == before + 1
    db.delete("R", (Interval(-1e6, -1e6 + 1), Interval(0.0, 1.0)))
    print()

    print("=" * 64)
    print("7. Serving: a worker pool, an asyncio server, a load test")
    print("=" * 64)
    from repro.service import (
        ServiceServer,
        WorkerPool,
        generate_requests,
        run_load,
    )

    with tempfile.TemporaryDirectory() as cache_dir:
        # 2 worker processes, each owning a QuerySession over the
        # *shared* persistent cache; isomorphic queries are routed to
        # the same worker, so each reduction happens once cluster-wide
        pool = WorkerPool(db, workers=2, cache_dir=cache_dir)
        server = ServiceServer(pool, max_inflight=32)

        async def serve_and_load():
            host, port = await server.start()
            print(f"serving on {host}:{port} (2 workers)")
            requests = generate_requests(
                [query], 40, seed=0, variants_per_query=8,
                count_fraction=0.1,
            )
            try:
                return await run_load(
                    host, port, requests, mode="closed", concurrency=4
                )
            finally:
                await server.stop()

        report = asyncio.run(serve_and_load())
        print(report.summary())
        stats = pool.close()
        print(
            f"pool lifetime stats: {stats['aggregate']['reductions']} "
            f"reductions for {report.ok} requests "
            f"(isomorphism groups share; the persistent cache would "
            f"hand them to a restarted pool for free)"
        )
    print()

    print("=" * 64)
    print("8. Profiling and the whole-column cold reduction")
    print("=" * 64)
    # where does a session spend its time?  The per-phase timing stats
    # behind `repro evaluate --profile`:
    profiled = QuerySession(db)
    profiled.evaluate(query, strategy="reduction")
    phases = profiled.stats.profile()
    print(
        "session phases: "
        + " | ".join(
            f"{name.replace('_', '-')} {seconds * 1e3:.1f} ms"
            for name, seconds in phases.items()
        )
    )
    # the cold reduction itself is whole-column: a segment-tree node is
    # an integer (its heap index — the bitstring of the paper is that
    # index in binary, rendered only by `repro.intervals.bitstring.bits`),
    # each tree encodes a whole column of distinct interval values in
    # `height` array steps, the split family of a depth is one broadcast
    # over a cut plan per (depth, position) — Claim C.1 — and the
    # products of all tuples are laid out at once.  A delta patch
    # encodes its one tuple by the scalar walk, or slices the column
    # result when the value was in it (tests/oracles keeps a naive
    # per-tuple loop over the literal tree of Section 3 the builder is
    # pinned to, bit for bit; decoded rows hold the same node ids).
    # Only point values need a dictionary:
    start = time.perf_counter()
    cold = forward_reduce(query, db)
    cold_ms = (time.perf_counter() - start) * 1e3
    tree = cold.segment_trees["A"]
    print(
        f"cold reduction: {cold_ms:.1f} ms "
        f"([A]: {len(tree.endpoints)} endpoints, height {tree.height}, "
        f"{sum(len(batch[-1]) for batch in tree._columns)} column encodings; "
        f"{len(cold.codebook)} point values in the codebook)"
    )
    print()

    print("=" * 64)
    print("9. The sharded router: a 2-shard ring, two tenants, hot-reload")
    print("=" * 64)
    from repro.service import ShardRouter, query_text

    with tempfile.TemporaryDirectory() as cache_dir:
        # two shard nodes; the consistent-hash ring places each
        # canonical-form group on one of them (growing the ring later
        # would remap only ~1/N of the groups)
        with ShardRouter(
            shards=("shard-0", "shard-1"), cache_dir=cache_dir
        ) as router:
            router.attach_tenant("acme", db)
            print(
                f"tenant 'acme' attached; {query_text(query)!r} is "
                f"answered by {router.shard_for(query)}"
            )
            # a second tenant with IDENTICAL relations: its pools warm
            # from the shared content-addressed cache under its own
            # namespace — zero forward reductions on its cold start
            router.attach_tenant("globex", db)
            variants_ = [query] + isomorphic_variants(query, 3, seed=9)
            for tenant in ("acme", "globex"):
                answers = router.evaluate_many(variants_, tenant)
                assert answers == [naive_evaluate(v, db) for v in variants_]
            reductions = {
                tenant: sum(
                    by_tenant[tenant]["aggregate"]["reductions"]
                    for by_tenant in router.stats()["shards"].values()
                    if tenant in by_tenant
                )
                for tenant in ("acme", "globex")
            }
            print(
                f"forward reductions — acme: {reductions['acme']}, "
                f"globex: {reductions['globex']} (content addressing "
                f"makes identical data communal)"
            )

            # hot-reload acme's database mid-traffic: requests in
            # flight at swap time drain from the old pools (old
            # answers), requests after the swap see the new data
            db_v2 = db.clone()
            victim = next(iter(db_v2["R"].tuples))
            db_v2.delete("R", victim)
            inflight = [router.evaluate("acme", v) for v in variants_]
            report = router.reload("acme", db_v2)
            assert [f.result() for f in inflight] == [
                naive_evaluate(v, db) for v in variants_
            ]
            assert router.evaluate_many(variants_, "acme") == [
                naive_evaluate(v, db_v2) for v in variants_
            ]
            print(
                f"hot-reloaded 'acme' under live traffic "
                f"(replayed {report['replayed']} queued deltas); "
                f"'globex' still serves the original data: "
                f"{router.evaluate_many([query], 'globex')[0]}"
            )
    print()

    print("=" * 64)
    print("10. Remote shards: the ring across OS-process boundaries")
    print("=" * 64)
    from repro.service import ShardRouter as Coordinator
    from repro.service import spawn_shard_process

    # each shard is a standalone `repro shard --listen` process with
    # its OWN cache directory; the coordinator dials them over the
    # same JSON-lines protocol the clients speak
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        with (
            spawn_shard_process("east", cache_dir=scratch / "east") as east,
            spawn_shard_process("west", cache_dir=scratch / "west") as west,
        ):
            with Coordinator(
                remote_shards={"east": east.address, "west": west.address},
                health_interval=2.0,
            ) as coordinator:
                coordinator.attach_tenant("acme", db)
                variants_ = [query] + isomorphic_variants(query, 3, seed=9)
                want = [naive_evaluate(v, db) for v in variants_]
                assert coordinator.evaluate_many(variants_, "acme") == want
                print(
                    f"2 shard processes serving; {query_text(query)!r} "
                    f"answered by {coordinator.shard_for(query)}"
                )
                # kill one shard with nothing special prepared: the
                # health/connection machinery evicts it and resubmits
                # its in-flight work to the survivor — every future
                # still answers, exactly once
                east.kill()
                assert coordinator.evaluate_many(variants_, "acme") == want
                print(
                    f"shard 'east' killed; survivors "
                    f"{coordinator.shard_names} still answer correctly"
                )
                # a new shard joins WARM: its empty cache directory is
                # populated by content-addressed entries shipped over
                # the wire before it takes any traffic
                with spawn_shard_process(
                    "north", cache_dir=scratch / "north"
                ) as north:
                    grown = coordinator.add_shard("north", north.address)
                    print(
                        f"shard 'north' joined warm: "
                        f"{grown['cache_entries_shipped']} cache entries "
                        f"shipped over the wire before it took traffic"
                    )
                    assert (
                        coordinator.evaluate_many(variants_, "acme") == want
                    )
    print("the CI distributed-smoke job replays this with loadgen traffic")
    print()

    print("=" * 64)
    print("11. The columnar cache format: memmap loads, no pickle")
    print("=" * 64)
    from repro.core.reduction_cache import result_digest

    with tempfile.TemporaryDirectory() as cache_dir:
        QuerySession(db, cache_dir=cache_dir).evaluate(
            query, strategy="reduction"
        )
        # what actually hit the disk: one content-addressed `.red`
        # frame — magic + SHA-256 digest + JSON metadata + raw
        # little-endian array sections.  No pickle opcodes anywhere.
        entry = next(Path(cache_dir).glob("*/*.red"))
        raw = entry.read_bytes()
        print(
            f"stored frame {entry.name}: {len(raw) >> 10} KB, "
            f"magic {raw[:8]!r}"
        )
        assert raw[:8] == b"REPROV09"
        # a warm load maps the frame (np.memmap) and wraps the array
        # sections zero-copy: columnar relations point straight into
        # the file's pages instead of re-materializing object graphs
        warm = QuerySession(db, cache_dir=cache_dir)
        warm.evaluate(query, strategy="reduction")
        assert warm.stats.reductions == 0
        loaded = warm.reduction(query)
        assert result_digest(loaded) == result_digest(
            forward_reduce(
                query, shift_distinct_left(query, db), disjoint=True,
                provenance=True,
            )
        )
        print("warm load is digest-identical to a fresh reduction")
        # tampering (or truncation, or a version skew) degrades to a
        # cache miss, never an error or a trusted deserialization
        entry.write_bytes(raw[:-1] + bytes([raw[-1] ^ 1]))
        tampered = QuerySession(db, cache_dir=cache_dir)
        tampered.evaluate(query, strategy="reduction")
        print(
            f"bit-flipped entry: {tampered.stats.reductions} re-reduction, "
            f"0 errors (digest mismatch = miss)"
        )
        assert tampered.stats.reductions == 1
        # migration note: pre-v5 pickle envelopes (*.pkl) have no
        # reader — they are never opened or exported, only counted
        # against --cache-max-bytes and evicted; re-warming the
        # directory replaces them with frames
        print("legacy *.pkl entries are never read; the cache is pickle-free")
    print()

    print("=" * 64)
    print("12. repro.sql: queries as text, plans by width")
    print("=" * 64)
    # The SQL dialect covers the engine's whole query surface:
    #   SELECT COUNT(*) | EXISTS FROM R [AS r], ...
    #       [WHERE <predicate> AND ...]
    #   [UNION [ALL] SELECT ...]
    # with three predicate families —
    #   equality:  r.k = s.k        r.k = 3        r.name = 'alice'
    #   intervals: r.t OVERLAPS s.t     r.t CONTAINS s.t
    #              r.t INSIDE s.t  (point-in-interval / containment)
    #   literals:  r.t OVERLAPS [10, 20]
    # The rewriter normalizes predicates, pushes single-alias
    # selections into the scans, and turns the cartesian FROM-product
    # into theta-joins on the engine's Query AST; what cannot lower
    # (cross-alias containment between two intervals) stays behind as
    # a residual filter.
    from repro.core import execute_sql, explain_sql
    from repro.engine import Database, Relation
    from repro.sql import compile_sql

    sql_db = Database()
    rng = random.Random(3)
    for name in ("Meet", "Hold"):
        rows = []
        for _ in range(40):
            left = rng.uniform(0.0, 90.0)
            rows.append(
                (float(rng.randrange(5)), Interval(left, left + 6.0))
            )
        sql_db.add(Relation(name, ("room", "slot"), rows))
    text = (
        "SELECT COUNT(*) FROM Meet m, Hold h "
        "WHERE m.room = h.room AND m.slot OVERLAPS h.slot "
        "UNION ALL "
        "SELECT COUNT(*) FROM Meet a, Meet b WHERE a.slot OVERLAPS b.slot"
    )
    program = compile_sql(text, sql_db)
    for disjunct in program.disjuncts:
        print(f"lowered: {disjunct.query}")
    print(f"answer: {execute_sql(text, sql_db)}")
    # EXPLAIN shows the width-driven cost model at work: per disjunct,
    # the lowered query, its widths (ijw / max fhtw), the candidate
    # costs (naive / sweep / reduction) and the chosen strategy with a
    # rationale.  The same payload ships over the service protocol's
    # `explain` verb; `sql` evaluates, fanning disjuncts out across
    # shards by canonical form exactly like Python-AST queries, and
    # malformed text comes back as the typed `bad_query` error code
    # (client-side: repro.service.BadQuery) instead of a retryable
    # failure.
    print(explain_sql(text, sql_db))
    print(
        "same through the service: client.sql(text) / "
        "client.explain(text) against `repro serve` or a router"
    )
    print("CLI one-shots: repro sql '<SELECT ...>' [--explain | --check]")
    print()

    # ------------------------------------------------------------------
    print("13. the evaluation engine: counting without tuples")
    print("=" * 64)
    # The forward reduction's derived relations are dictionary-encoded
    # uint32 code matrices (section 8).  The evaluation kernels work on
    # those arrays directly:
    #   * counting DP — count arrays per join-tree node, group-by
    #     messages via packed keys + np.bincount, so COUNT(*) over a
    #     warm artifact never decodes a tuple (and counts past int64
    #     continue as Python ints);
    #   * generic join — each atom's rows sorted once in the global
    #     variable order; a prefix's children are one contiguous key
    #     range found by searchsorted, and the whole frontier of
    #     partial assignments advances one level at a time
    #     (method='generic');
    #   * bag materialisation (method='decomposition') — every bag is
    #     that level-wise join over column slices of the atoms, each
    #     frontier row expanded from its own narrowest candidate range
    #     (which keeps the AGM bound), and the bags are code matrices
    #     too, so the counting DP above runs over them and no row is
    #     decoded in between;
    #   * full evaluation — semijoin mask sweeps + output-projected
    #     frame joins; only the final result rows are decoded.
    # There is one engine: a reduction artifact is evaluated as it is,
    # and plain row relations handed to evaluate_ej / count_ej /
    # generic_join_* are dictionary-encoded into a call-local codebook
    # first.  Reading `.tuples` of an artifact relation is a decoded
    # view; the arrays stay.  The tuple implementations the kernels are
    # pinned to (dict DP, trie join, tuple bags, tuple Yannakakis) live
    # under tests/oracles.
    # Which of the two a cyclic disjunct gets is one rule, read off two
    # widths per structure *and head* (engine/ej.py::plan_ej, the
    # default method='auto'): a flat generic join costs N^ρ*, the bags
    # N^fhtw, so decompose iff fhtw < ρ* — with ρ* taken over the
    # variables the head enumerates.  Neither EXISTS nor COUNT(*)
    # branches on a column private to one atom: EXISTS needs any row,
    # and COUNT(*) weights each assignment of the shared columns by how
    # many rows of each atom extend it, so every provenance id is summed
    # out, not listed.  The triangle's disjuncts (3/2 = 3/2) therefore
    # count as one weighted generic join each — which this exercises.
    # Only full evaluation lists the ids (ρ* = 3) and decomposes.
    # Both heads read one artifact: a session keeps, per query, the
    # Appendix G disjoint reduction with provenance ids over the
    # G.1-shifted database, and answers EXISTS, COUNT and witnesses
    # from it (and patches it, like any artifact, from the change log).
    from repro.core.disjunct_eval import count_disjunction, evaluate_disjunction

    session = QuerySession(db)
    artifact = session.reduction(query)
    start = time.perf_counter()
    count = count_disjunction(artifact)
    seconds = time.perf_counter() - start
    assert count == naive_count(query, db)
    assert evaluate_disjunction(artifact) == naive_evaluate(query, db)
    assert all(r.columnar is not None for r in artifact.database)
    print(
        f"count over {len(artifact.ej_queries)} disjuncts: "
        f"{count} in {seconds * 1e3:.1f}ms (the EXISTS artifact too: "
        f"{session.stats.reductions} reduction)"
    )
    print()


if __name__ == "__main__":
    main()
