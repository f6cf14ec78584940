"""Cross-process persistence: the content-addressed reduction cache.

A first subprocess warms an on-disk cache directory; a second, fresh
subprocess over the *same data* must perform **zero** forward
reductions (asserted via the ``reductions`` counter on the session
stats) while producing identical answers.  A third run against mutated
data must *not* be served stale entries.

Digest stability across interpreters is what makes this work, so the
workers run under different ``PYTHONHASHSEED`` values on purpose.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import (
    ReductionCache,
    database_fingerprint,
    naive_count,
    naive_evaluate,
    reduction_key,
    relation_digest,
)
from repro.core.reduction_cache import (
    FORMAT_VERSION,
    database_digests,
    encode_value,
)
from repro.engine import Database, Relation
from repro.intervals import Interval
from repro.queries import parse_query
from repro.reduction import forward_reduce
from repro.workloads import random_database

SRC = str(Path(__file__).resolve().parent.parent / "src")

#: The worker: builds a deterministic database, evaluates and counts
#: through a persistently cached session, emits answers + stats as JSON.
WORKER = """
import json, sys
from repro.core import QuerySession
from repro.queries import parse_query
from repro.workloads import random_database

cache_dir, n = sys.argv[1], int(sys.argv[2])
query = parse_query("R([A],[B]) \\u2227 S([B],[C]) \\u2227 T([A],[C])")
db = random_database(query, n, seed=5)
session = QuerySession(db, cache_dir=cache_dir)
answer = session.evaluate(query, strategy="reduction")
count = session.count(query)
print(json.dumps({
    "answer": bool(answer),
    "count": count,
    "stats": session.stats.as_dict(),
}))
"""


def run_worker(cache_dir, n: int = 10, hash_seed: str = "0") -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONHASHSEED"] = hash_seed
    result = subprocess.run(
        [sys.executable, "-c", WORKER, str(cache_dir), str(n)],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return json.loads(result.stdout.strip().splitlines()[-1])


class TestCrossProcess:
    def test_warm_worker_performs_zero_reductions(self, tmp_path):
        cold = run_worker(tmp_path, hash_seed="101")
        assert cold["stats"]["reductions"] == 2  # plain + disjoint pipeline
        assert cold["stats"]["persistent_hits"] == 0

        warm = run_worker(tmp_path, hash_seed="202")
        assert warm["stats"]["reductions"] == 0, warm["stats"]
        assert warm["stats"]["persistent_hits"] == 2, warm["stats"]
        assert warm["answer"] == cold["answer"]
        assert warm["count"] == cold["count"]

        # and the answers are the oracle's
        query = parse_query("R([A],[B]) ∧ S([B],[C]) ∧ T([A],[C])")
        db = random_database(query, 10, seed=5)
        assert cold["answer"] == naive_evaluate(query, db)
        assert cold["count"] == naive_count(query, db)

    def test_different_data_is_not_served_from_cache(self, tmp_path):
        run_worker(tmp_path, n=10)
        other = run_worker(tmp_path, n=11)  # different contents, same dir
        assert other["stats"]["reductions"] == 2, other["stats"]
        assert other["stats"]["persistent_hits"] == 0, other["stats"]


class TestContentAddressing:
    def test_fingerprint_is_order_independent_and_content_sensitive(self):
        tuples = [
            (Interval(i, i + 1), Interval(2 * i, 2 * i + 1)) for i in range(6)
        ]
        a = Database([Relation("R", ("A", "B"), tuples)])
        b = Database([Relation("R", ("A", "B"), list(reversed(tuples)))])
        assert database_fingerprint(a) == database_fingerprint(b)
        b["R"].tuples.add((Interval(9, 10), Interval(9, 10)))
        assert database_fingerprint(a) != database_fingerprint(b)

    def test_relation_digest_sees_schema(self):
        tuples = [(Interval(0, 1),)]
        a = Relation("R", ("A",), tuples)
        b = Relation("R", ("B",), tuples)
        assert relation_digest(a) != relation_digest(b)

    def test_encode_value_distinguishes_lookalikes(self):
        """Type tags: 1, 1.0, "1", True and [1, 1] must not collide."""
        values = [1, 1.0, "1", True, Interval(1, 1), (1,), None]
        encoded = [encode_value(v) for v in values]
        assert len(set(encoded)) == len(encoded)

    def test_frozenset_values_encode_order_independently(self):
        assert encode_value(frozenset({1, 2, "x"})) == encode_value(
            frozenset({"x", 2, 1})
        )
        assert encode_value(frozenset({1})) != encode_value(frozenset({2}))

    def test_strings_cannot_forge_tuple_boundaries(self):
        """Regression: without length prefixes, ("a,s:b", "c") and
        ("a", "b,s:c") encoded identically — a mutation swapping one
        for the other was invisible to the digest diff."""
        assert encode_value(("a,s:b", "c")) != encode_value(("a", "b,s:c"))
        a = Relation("R", ("A", "B"), [("a,s:b", "c")])
        b = Relation("R", ("A", "B"), [("a", "b,s:c")])
        assert relation_digest(a) != relation_digest(b)

    def test_newlines_cannot_forge_line_framing(self):
        """Tuple-set framing is length-based, so embedded newlines in
        values cannot make two different tuple sets collide."""
        assert encode_value("a\nb") != encode_value("a") + encode_value("b")
        one = Relation("R", ("A",), [("a\ns:1:b",)])
        two = Relation("R", ("A",), [("a",), ("b",)])
        assert relation_digest(one) != relation_digest(two)

    def test_reduction_key_depends_only_on_referenced_relations(self):
        query = parse_query("R([A],[B]) ∧ S([B],[C])")
        db = random_database(query, 5, seed=1)
        unrelated = Database(list(db) + [
            Relation("Z", ("A",), [(Interval(0, 1),)])
        ])
        key_without = reduction_key(query, database_digests(db))
        key_with = reduction_key(query, database_digests(unrelated))
        assert key_without == key_with
        unrelated["S"].tuples.add((Interval(7, 8), Interval(7, 8)))
        assert reduction_key(
            query, database_digests(unrelated)
        ) != key_with


class TestStore:
    def test_round_trip_preserves_the_reduction(self, tmp_path):
        query = parse_query("R([A],[B]) ∧ S([B],[C])")
        db = random_database(query, 6, seed=2)
        result = forward_reduce(query, db)
        cache = ReductionCache(tmp_path)
        key = reduction_key(query, database_digests(db))
        assert cache.get(key) is None  # miss before store
        cache.put(key, result)
        loaded = cache.get(key)
        assert loaded is not None
        assert loaded.database.size == result.database.size
        assert [q.name for q in loaded.ej_queries] == [
            q.name for q in result.ej_queries
        ]
        assert loaded.tuple_order == result.tuple_order
        assert loaded.source_relations == {"R", "S"}
        assert len(cache) == 1
        assert cache.stats() == {
            "hits": 1, "misses": 1, "stores": 1, "pruned": 0,
            "unserializable": 0,
            # the miss was a missing file; the store a full frame
            "miss_absent": 1, "miss_invalid": 0, "miss_orphan": 0,
            "miss_replay": 0, "delta_stores": 0, "skipped_stores": 0,
        }

    def test_corrupt_entry_is_a_miss_not_an_error(self, tmp_path):
        query = parse_query("R([A],[B]) ∧ S([B],[C])")
        db = random_database(query, 4, seed=3)
        cache = ReductionCache(tmp_path)
        key = reduction_key(query, database_digests(db))
        cache.put(key, forward_reduce(query, db))
        path = next(tmp_path.glob("*/*.red"))
        path.write_bytes(b"not a cache frame")
        assert cache.get(key) is None

    def test_version_skew_is_a_miss(self, tmp_path, monkeypatch):
        from repro.core import reduction_cache as rc

        query = parse_query("R([A],[B]) ∧ S([B],[C])")
        db = random_database(query, 4, seed=4)
        cache = ReductionCache(tmp_path)
        key = reduction_key(query, database_digests(db))
        cache.put(key, forward_reduce(query, db))
        monkeypatch.setattr(rc, "FORMAT_VERSION", rc.FORMAT_VERSION + 1)
        assert cache.get(key) is None

    def test_rejects_missing_directory_gracefully(self, tmp_path):
        nested = tmp_path / "a" / "b" / "c"
        cache = ReductionCache(nested)  # created on demand
        assert nested.is_dir()
        assert len(cache) == 0


class TestIntegrityDigest:
    """Entries carry a SHA-256 of everything after the frame header,
    verified on load: a torn or tampered concurrent write is a miss,
    never an error surfacing mid-query."""

    def _stored(self, tmp_path):
        query = parse_query("R([A],[B]) ∧ S([B],[C])")
        db = random_database(query, 5, seed=6)
        cache = ReductionCache(tmp_path)
        key = reduction_key(query, database_digests(db))
        cache.put(key, forward_reduce(query, db))
        return cache, key, next(tmp_path.glob("*/*.red"))

    def test_round_trip_verifies(self, tmp_path):
        cache, key, _ = self._stored(tmp_path)
        assert cache.get(key) is not None

    def test_flipped_payload_byte_is_a_miss(self, tmp_path):
        cache, key, path = self._stored(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF  # corrupt deep inside the payload
        path.write_bytes(bytes(blob))
        assert cache.get(key) is None
        assert cache.misses == 1

    def test_flipped_blob_byte_is_a_miss(self, tmp_path):
        # the digest covers the raw array section too, not just the
        # JSON metadata — a bit-flip in a code matrix must not produce
        # a silently wrong artifact
        cache, key, path = self._stored(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[-3] ^= 0x01
        path.write_bytes(bytes(blob))
        assert cache.get(key) is None

    def test_truncated_write_is_a_miss(self, tmp_path):
        cache, key, path = self._stored(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 7])
        assert cache.get(key) is None


class TestFramedFormat:
    """The v5 layout itself: digest-equal round trips, zero-copy memmap
    loads, and no reader for legacy pickled entries."""

    @staticmethod
    def _stored(tmp_path, **cache_kwargs):
        query = parse_query("R([A],[B]) ∧ S([B],[C]) ∧ T([A],[C])")
        db = random_database(query, 12, seed=11)
        cache = ReductionCache(tmp_path, **cache_kwargs)
        key = reduction_key(query, database_digests(db))
        result = forward_reduce(query, db)
        cache.put(key, result)
        return cache, key, result

    def test_round_trip_is_digest_identical(self, tmp_path):
        from repro.core.reduction_cache import result_digest

        cache, key, result = self._stored(tmp_path)
        loaded = cache.get(key)
        assert loaded is not None
        assert result_digest(loaded) == result_digest(result)

    def test_loaded_arrays_are_memmap_views(self, tmp_path):
        import numpy as np

        cache, key, result = self._stored(tmp_path)
        loaded = cache.get(key)
        blocks = [
            r.columnar for r in loaded.database if r.columnar is not None
        ]
        assert blocks, "vectorized artifact should load columnar"
        for block in blocks:
            base = block.codes
            while isinstance(base.base, np.ndarray):  # walk the views
                base = base.base
            assert isinstance(base, np.memmap)

    def test_contains_no_pickle_opcodes(self, tmp_path):
        # the frame is magic + digest + JSON + raw array bytes; the
        # pickle protocol-2+ preamble must never appear at its head
        _, key, _ = self._stored(tmp_path)
        raw = next(tmp_path.glob("*/*.red")).read_bytes()
        assert raw[:8] == b"REPROV%02d" % FORMAT_VERSION
        assert not raw.startswith(b"\x80")

    def test_a_v5_frame_is_a_counted_miss_and_v6_holds_no_bitstring(
        self, tmp_path
    ):
        import hashlib
        import json
        import re
        import struct

        from repro.core.cache_format import _parse_frame

        cache, key, _ = self._stored(tmp_path)
        path = next(tmp_path.glob("*/*.red"))
        raw = path.read_bytes()
        meta, blob_base = _parse_frame(raw, FORMAT_VERSION)
        # interval parts are node ids in the blobs: no string table, and
        # nothing in the JSON half that looks like one
        assert all(type(v) is int for v in meta["codebook"])
        kinds = {k for entry in meta["relations"] for k in entry["kinds"]}
        assert kinds == {"bits"}
        strings = re.findall(r'"((?:[^"\\]|\\.)*)"', json.dumps(meta))
        assert not [s for s in strings if len(s) > 1 and not s.strip("01")]
        # what the previous writer left under the same name: its own
        # magic, its own version number, a valid digest
        # ... and a v7 full frame is the v6 one but for magic and version
        assert raw[:8] == b"REPROV07" and "kind" not in meta
        for version in (5, 6):
            meta["format_version"] = version
            meta_bytes = json.dumps(meta).encode()
            body = struct.pack("<Q", len(meta_bytes)) + meta_bytes
            body += b"\x00" * (-(48 + len(meta_bytes)) % 64) + raw[blob_base:]
            path.parent.mkdir(exist_ok=True)
            path.write_bytes(
                b"REPROV%02d" % version + hashlib.sha256(body).digest() + body
            )
            before = cache.stats()
            assert cache.get(key) is None
            after = cache.stats()
            assert after["misses"] == before["misses"] + 1
            assert after["miss_invalid"] == before["miss_invalid"] + 1
            assert not path.exists()  # healed: the rebuild's put finds no file

    def test_stray_pkl_is_dead_bytes_counted_and_evicted_never_opened(
        self, tmp_path
    ):
        """An upgraded directory may still hold pre-v5 ``.pkl``
        envelopes.  Nothing reads them (a hostile one must not run), but
        they occupy the bytes ``max_bytes`` caps, so size accounting,
        ``prune`` and ``purge_namespace`` still see them."""
        import pickle

        class Hostile:
            def __reduce__(self):
                return (Path.touch, (tmp_path / "pwned",))

        query = parse_query("R([A],[B]) ∧ S([B],[C])")
        db = random_database(query, 6, seed=12)
        key = reduction_key(query, database_digests(db))
        cache = ReductionCache(tmp_path, namespace="acme")
        stray = tmp_path / key[:2] / f"{key}.pkl"
        stray.parent.mkdir(parents=True)
        stray.write_bytes(pickle.dumps(Hostile()))
        assert cache.get(key) is None and cache.misses == 1
        assert not (tmp_path / "pwned").exists()
        assert cache.entry_keys() == []  # never shipped either
        assert cache.export_entry(key) is None
        assert cache.size_bytes() == stray.stat().st_size
        assert len(cache) == 1
        assert cache.prune(0) == 1 and not stray.exists()
        # a tenant's purge reclaims the stray bytes filed under its keys
        stray.write_bytes(b"junk")
        cache._mark(key)
        assert cache.purge_namespace() == 1 and not stray.exists()

    def test_a_killed_writers_temp_file_is_counted_and_pruned_once_stale(
        self, tmp_path
    ):
        """A worker SIGKILLed between ``mkstemp`` and ``os.replace``
        leaves a ``*.tmp`` beside the entry.  It occupies bytes
        ``max_bytes`` caps, so ``size_bytes`` counts it, and ``prune``
        unlinks it first once no live writer can own it (60 s) — a
        young one is a write in flight and is left alone."""
        cache, key, _ = self._stored(tmp_path)
        entry = cache._path(key)
        stale = entry.parent / "tmpkilled.tmp"
        young = entry.parent / "tmpwriting.tmp"
        stale.write_bytes(b"x" * 1000)
        young.write_bytes(b"y" * 10)
        old = stale.stat().st_mtime - 61
        os.utime(stale, (old, old))
        size = entry.stat().st_size
        assert cache.size_bytes() == size + 1010
        assert len(cache) == 1 and cache.entry_keys() == [key]
        # under the cap once the stale bytes go: no entry is evicted
        assert cache.prune(size + 10) == 0
        assert not stale.exists() and young.exists() and entry.exists()
        assert cache.size_bytes() == size + 10
        # a live writer's file is never the victim, only counted
        assert cache.prune(0) == 1
        assert young.exists() and not entry.exists()

    def test_retired_knobs_are_gone(self, capsys):
        """One reduction builder, one cache reader: nothing under
        ``src/repro`` imports ``pickle``, and the options that used to
        select the losing paths are rejected, not ignored."""
        import re

        import repro
        from repro.cli import main

        offenders = [
            path
            for path in Path(repro.__file__).parent.rglob("*.py")
            if re.search(
                r"^\s*(import pickle|from pickle)", path.read_text(), re.M
            )
        ]
        assert offenders == []
        query = parse_query("R([A],[B]) ∧ S([B],[C])")
        db = random_database(query, 4, seed=13)
        with pytest.raises(TypeError):
            forward_reduce(query, db, vectorized=False)
        with pytest.raises(TypeError):
            ReductionCache("unused", allow_pickle=True)
        with pytest.raises(SystemExit) as exit_info:
            main(["evaluate", "R([A],[B])", "--cache-allow-pickle"])
        assert exit_info.value.code == 2
        assert "--cache-allow-pickle" in capsys.readouterr().err
        # the serving tier's options with one value in use (PR 18): the
        # pool evaluates by reduction, spawns, and respawns within
        # ``max_respawns``; a stale keyword is an error before any
        # process starts, not a silently different pool
        from repro.service import ShardRouter, WorkerPool, pool, protocol

        for retired in (
            {"strategy": "reduction"},
            {"start_method": "spawn"},
            {"respawn": False},
        ):
            with pytest.raises(TypeError):
                WorkerPool(db, workers=1, **retired)
        with pytest.raises(TypeError):
            ShardRouter(shards=("s0",), strategy="reduction")
        for module, name in (
            (protocol, "encode_delta"),
            (protocol, "decode_delta"),
            (pool, "_route_digest"),
        ):
            assert not hasattr(module, name), name

    def test_import_entry_rejects_pickled_bytes(self, tmp_path):
        import pickle

        cache, key, result = self._stored(tmp_path)
        hostile = pickle.dumps({"version": 5, "payload": b"x"})
        other = "f" * 64
        assert cache.import_entry(other, hostile) is False
        assert cache.get(other) is None

    def test_import_entry_accepts_exported_frames(self, tmp_path):
        donor, key, result = self._stored(tmp_path / "donor")
        raw = donor.export_entry(key)
        assert raw is not None
        receiver = ReductionCache(tmp_path / "receiver")
        assert receiver.import_entry(key, raw) is True
        assert receiver.get(key) is not None


#: Two processes hammer one cache directory: A stores/loads, B prunes
#: to (nearly) zero in a tight loop, so A's stat/replace/get constantly
#: race B's unlink.  Every operation must degrade gracefully (lost
#: stores, misses) — never raise.
STRESS_WORKER = """
import sys
from repro.core import ReductionCache
from repro.core.reduction_cache import database_digests, reduction_key
from repro.queries import parse_query
from repro.reduction import forward_reduce
from repro.workloads import random_database

cache_dir, role, rounds = sys.argv[1], sys.argv[2], int(sys.argv[3])
cache = ReductionCache(cache_dir)
query = parse_query("R([A],[B]) \\u2227 S([B],[C])")
loaded = 0
if role == "store":
    results = []
    for seed in range(4):
        db = random_database(query, 4, seed=seed)
        key = reduction_key(query, database_digests(db))
        results.append((key, forward_reduce(query, db)))
    for i in range(rounds):
        key, result = results[i % len(results)]
        cache.put(key, result)
        if cache.get(key) is not None:
            loaded += 1
else:
    for _ in range(rounds):
        cache.prune(max_bytes=1)
print(loaded)
"""


class TestConcurrentPruneStoreStress:
    def test_two_processes_store_and_prune_without_errors(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        store = subprocess.Popen(
            [sys.executable, "-c", STRESS_WORKER, str(tmp_path), "store", "300"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        prune = subprocess.Popen(
            [sys.executable, "-c", STRESS_WORKER, str(tmp_path), "prune", "600"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        store_out, store_err = store.communicate(timeout=300)
        prune_out, prune_err = prune.communicate(timeout=300)
        assert store.returncode == 0, store_err
        assert prune.returncode == 0, prune_err
        # stores raced a pruner deleting everything, yet some round
        # trips still landed and none of them errored
        assert int(store_out.strip()) >= 0
        # afterwards the directory is usable and consistent
        cache = ReductionCache(tmp_path)
        query = parse_query("R([A],[B]) ∧ S([B],[C])")
        db = random_database(query, 4, seed=0)
        key = reduction_key(query, database_digests(db))
        cache.put(key, forward_reduce(query, db))
        assert cache.get(key) is not None


class TestNamespaces:
    """Multi-tenant accounting over the shared store: namespaced caches
    mark the keys they touch with zero-byte ownership markers, so a
    tenant can be purged without evicting entries other tenants still
    reference — the substrate behind the router's ``detach_tenant``."""

    @staticmethod
    def _entry(seed: int):
        query = parse_query("R([A],[B]) ∧ S([B],[C])")
        db = random_database(query, 5, seed=seed)
        return reduction_key(query, database_digests(db)), forward_reduce(
            query, db
        )

    def test_put_and_get_mark_ownership(self, tmp_path):
        key, result = self._entry(1)
        acme = ReductionCache(tmp_path, namespace="acme")
        acme.put(key, result)
        assert acme.namespaces() == ["acme"]
        assert acme.namespace_keys() == {key}
        # a *hit* from another namespace marks it as co-owner
        globex = ReductionCache(tmp_path, namespace="globex")
        assert globex.get(key) is not None
        assert globex.namespaces() == ["acme", "globex"]
        assert globex.namespace_keys("acme") == globex.namespace_keys()
        # a miss marks nothing
        other, _ = self._entry(2)
        assert globex.get(other) is None
        assert other not in globex.namespace_keys()

    def test_unnamespaced_cache_marks_nothing(self, tmp_path):
        key, result = self._entry(1)
        cache = ReductionCache(tmp_path)
        cache.put(key, result)
        assert cache.get(key) is not None
        assert cache.namespaces() == []
        assert cache.namespace_keys() == set()
        with pytest.raises(ValueError):
            cache.purge_namespace()  # nothing to purge

    def test_purge_keeps_entries_other_namespaces_reference(self, tmp_path):
        shared_key, shared = self._entry(1)
        private_key, private = self._entry(2)
        acme = ReductionCache(tmp_path, namespace="acme")
        acme.put(shared_key, shared)
        acme.put(private_key, private)
        globex = ReductionCache(tmp_path, namespace="globex")
        assert globex.get(shared_key) is not None  # co-owns the shared key
        assert len(acme) == 2
        removed = acme.purge_namespace()
        assert removed == 1  # only the private entry went
        assert "acme" not in acme.namespaces()
        # the shared entry is communal property (checked through an
        # unnamespaced handle — a namespaced *get* would re-mark it)
        cold = ReductionCache(tmp_path)
        assert cold.get(private_key) is None
        assert cold.get(shared_key) is not None
        # purging the last owner finally drops the shared entry
        assert globex.purge_namespace() == 1
        assert len(ReductionCache(tmp_path)) == 0

    def test_purge_by_name_from_an_unnamespaced_handle(self, tmp_path):
        key, result = self._entry(3)
        ReductionCache(tmp_path, namespace="tenant-a").put(key, result)
        admin = ReductionCache(tmp_path)
        assert admin.purge_namespace("tenant-a") == 1
        assert admin.namespaces() == []

    def test_markers_outlive_pruned_entries(self, tmp_path):
        key, result = self._entry(4)
        cache = ReductionCache(tmp_path, namespace="acme")
        cache.put(key, result)
        assert cache.prune(0) == 1  # evict everything
        assert cache.namespace_keys() == {key}  # the reference survives
        assert cache.purge_namespace() == 0  # entry already gone: no-op

    @pytest.mark.parametrize(
        "bad", ["", "has space", "a/b", "-leading", ".hidden", "x" * 65]
    )
    def test_invalid_namespace_names_are_rejected(self, tmp_path, bad):
        with pytest.raises(ValueError):
            ReductionCache(tmp_path, namespace=bad)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(pytest.main([__file__, "-q"]))
