"""Delta frames: a patched reduction is persisted as the change.

A ``.red`` entry is either a full frame or a delta frame — ``{kind:
"delta", parent, depth, deltas}`` behind the same magic / SHA-256 /
length header — that :meth:`ReductionCache.get` resolves by loading the
parent and replaying the deltas through ``apply_delta``.  Pinned here:

* (a) chain ≡ live ≡ naive on random mutation scripts (restarted
  sessions answer from the chain with zero reductions);
* (b) the shape on disk (1 full + k delta, the cap, frame sizes);
* (c) never replace / no cycle on the patch path;
* (d) hostile and torn frames: a counted miss with its reason, bounded
  file opens, no exception, the unusable file gone afterwards;
* (e) prune / namespaces / a concurrent pruner with chains on disk;
* (f) shipping delta frames between cache directories.

CI runs this module across the ``REPRO_FUZZ_SEED`` matrix.
"""

import hashlib
import json
import logging
import os
import random
import struct
import subprocess
import sys
from pathlib import Path

import pytest

import repro.core.reduction_cache as reduction_cache
from repro.cli import main as cli_main
from repro.core import (
    QuerySession,
    ReductionCache,
    naive_count,
    naive_evaluate,
    reduction_key,
)
from repro.core.cache_format import (
    DeltaFrame,
    _parse_frame,
    load_result,
    serialize_delta,
    validate_entry_bytes,
)
from repro.core.reduction_cache import (
    FORMAT_VERSION,
    MAX_DELTA_CHAIN,
    database_digests,
    result_digest,
)
from repro.engine import Delta
from repro.intervals import Interval
from repro.queries import parse_query
from repro.queries.catalog import figure9e_ij, path_ij, triangle_ij
from repro.reduction import forward_reduce
from repro.workloads import random_database

FUZZ_SEED = int(os.environ.get("REPRO_FUZZ_SEED", "0"))
SRC = str(Path(__file__).resolve().parents[1] / "src")

QUERIES = {
    "path3": path_ij(3),
    "fig9e": figure9e_ij(),
    "triangle": triangle_ij(),
    # B is a point variable and P a point-only atom
    "points": parse_query("R([A],B) ∧ S([A],B) ∧ P(B)"),
}


def _metas(directory) -> dict[str, dict]:
    """key -> frame metadata of every entry on disk."""
    return {
        path.stem: _parse_frame(path.read_bytes(), FORMAT_VERSION)[0]
        for path in Path(directory).glob("*/*.red")
    }


def _depth(metas: dict[str, dict], key: str) -> int:
    """Links from ``key`` down to a full frame, following ``parent``."""
    depth = 0
    while "kind" in metas[key]:
        key = metas[key]["parent"]
        depth += 1
    return depth


def _recombined(rng, originals, present):
    """A tuple not in ``present`` whose every column value occurs in
    ``originals`` — an in-domain insert."""
    for _ in range(200):
        picks = [rng.choice(originals) for _ in originals[0]]
        t = tuple(pick[col] for col, pick in enumerate(picks))
        if t not in present:
            return t
    return None


def _fresh(rng, template, domain):
    """A tuple shaped like ``template`` with endpoints no tree holds."""
    return tuple(
        Interval(left, left + rng.uniform(0.5, 20.0))
        if isinstance(value, Interval)
        else rng.randint(0, int(domain))
        for value, left in ((v, rng.uniform(0.0, domain)) for v in template)
    )


def _plain(session):
    """The session's one memoized plain reduction."""
    (entry,) = [e for e in session._reductions.values() if e.pipeline == "plain"]
    return entry.result


def _patch(query, db, session, rng):
    """One in-domain insert, read back through the live session."""
    relation = sorted(query.relations)[0]
    originals = sorted(db[relation].tuples, key=repr)
    t = _recombined(rng, originals, db[relation].tuples)
    assert db.insert(relation, t) is not None
    before = session.stats.reductions
    assert session.evaluate(query, strategy="reduction") == naive_evaluate(
        query, db
    )
    assert session.stats.reductions == before
    return relation, t


# ----------------------------------------------------------------------
# (a) chain ≡ live ≡ naive
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_chain_equals_live_equals_naive(name, tmp_path):
    query = QUERIES[name]
    seed = FUZZ_SEED * 101 + sorted(QUERIES).index(name)
    rng = random.Random(seed)
    domain = 120.0
    db = random_database(query, 7, seed=seed, domain=domain)
    originals = {r.name: sorted(r.tuples, key=repr) for r in db}
    inserted: list[tuple[str, tuple]] = []
    live = QuerySession(db, cache_dir=tmp_path)
    live.evaluate(query, strategy="reduction")
    patched_steps = 0
    for step in range(16):
        relation = rng.choice(sorted(query.relations))
        roll = rng.random()
        if roll < 0.45:
            t = _recombined(rng, originals[relation], db[relation].tuples)
            delta = t and db.insert(relation, t)
            if delta:
                inserted.append((relation, t))
        elif roll < 0.6:
            t = _fresh(rng, originals[relation][0], domain)
            delta = db.insert(relation, t)
            if delta:
                inserted.append((relation, t))
        elif roll < 0.8 and inserted:
            delta = db.delete(*inserted.pop(rng.randrange(len(inserted))))
        else:
            delta = db.delete(relation, rng.choice(originals[relation]))
        if not delta:
            continue
        context = (name, seed, step, delta)
        before = live.stats.reductions, live.cache.skipped_stores
        truth = naive_evaluate(query, db)
        assert live.evaluate(query, strategy="reduction") == truth, context
        patched = live.stats.reductions == before[0]
        kept = live.cache.skipped_stores != before[1]
        restarted = QuerySession(db, cache_dir=tmp_path)
        assert restarted.evaluate(query, strategy="reduction") == truth, context
        if patched:
            patched_steps += 1
            assert restarted.stats.reductions == 0, context
            assert restarted.stats.persistent_hits == 1, context
        if not kept:
            # nothing was at the address before this step, so what the
            # chain rebuilds is the live artifact bit for bit
            assert result_digest(_plain(restarted)) == result_digest(
                _plain(live)
            ), context
        count = naive_count(query, db)
        assert live.count(query) == count, context
        assert restarted.count(query) == count, context
    assert patched_steps > 0, (name, seed)
    assert live.cache.delta_stores > 0, (name, seed)
    stats = live.cache.stats()
    assert stats["misses"] == sum(
        stats[f"miss_{reason}"]
        for reason in ("absent", "invalid", "orphan", "replay")
    )


# ----------------------------------------------------------------------
# (b) the shape on disk, (c) never replace / no cycle
# ----------------------------------------------------------------------


class TestShapeOnDisk:
    def warm(self, tmp_path, n=10):
        query = path_ij(3)
        db = random_database(query, n, seed=FUZZ_SEED + 5, domain=200.0)
        session = QuerySession(db, cache_dir=tmp_path)
        session.evaluate(query, strategy="reduction")
        return query, db, session

    patch = staticmethod(_patch)

    def test_k_patches_leave_one_full_and_k_delta_frames_up_to_the_cap(
        self, tmp_path
    ):
        query, db, session = self.warm(tmp_path)
        rng = random.Random(FUZZ_SEED)
        for k in range(1, MAX_DELTA_CHAIN + 1):
            self.patch(query, db, session, rng)
            metas = _metas(tmp_path)
            kinds = sorted(meta.get("kind", "full") for meta in metas.values())
            assert kinds == ["delta"] * k + ["full"]
            assert max(_depth(metas, key) for key in metas) == k
        # the patch after the cap stores whole: the compaction
        self.patch(query, db, session, rng)
        metas = _metas(tmp_path)
        assert sum("kind" not in meta for meta in metas.values()) == 2
        assert _plain(session).stored_as[1] == 0
        self.patch(query, db, session, rng)
        metas = _metas(tmp_path)
        assert max(_depth(metas, key) for key in metas) == MAX_DELTA_CHAIN
        assert _plain(session).stored_as[1] == 1
        stats = session.cache.stats()
        assert stats["delta_stores"] == MAX_DELTA_CHAIN + 1
        assert stats["stores"] == MAX_DELTA_CHAIN + 3
        # every link of the longest chain resolves after a restart
        restarted = QuerySession(db, cache_dir=tmp_path)
        assert restarted.evaluate(query, strategy="reduction") == naive_evaluate(
            query, db
        )
        assert restarted.stats.reductions == 0

    def test_a_delta_frame_is_small_and_has_no_blob_section(self, tmp_path):
        query, db, session = self.warm(tmp_path)
        triple = parse_query("W([A],[B],[C]) ∧ V([A],[B],[C])")
        wide = random_database(triple, 8, seed=FUZZ_SEED, domain=200.0)
        wide_session = QuerySession(wide, cache_dir=tmp_path / "wide")
        wide_session.evaluate(triple, strategy="reduction")
        self.patch(triple, wide, wide_session, random.Random(1))
        self.patch(query, db, session, random.Random(2))
        for directory in (tmp_path / "wide", tmp_path):
            deltas = [
                path
                for path in Path(directory).glob("*/*.red")
                if isinstance(load_result(path, FORMAT_VERSION), DeltaFrame)
            ]
            assert len(deltas) == 1
            raw = deltas[0].read_bytes()
            assert len(raw) < 1024
            (meta_len,) = struct.unpack("<Q", raw[40:48])
            assert len(raw) == 48 + meta_len  # header + metadata, no blobs
            meta, _ = _parse_frame(raw, FORMAT_VERSION)
            assert set(meta) == {
                "format_version", "kind", "parent", "depth", "deltas"
            }

    def test_a_full_put_is_one_serialise_and_one_write(self, tmp_path, monkeypatch):
        """Set-up stores full frames only and must not pay for the new
        frame kind: no read, no parse, no second serialise."""
        query = path_ij(3)
        db = random_database(query, 6, seed=1)
        result = forward_reduce(query, db)
        calls = []
        for name in ("serialize_result", "serialize_delta", "load_result"):
            original = getattr(reduction_cache, name)
            monkeypatch.setattr(
                reduction_cache,
                name,
                lambda *a, _name=name, _fn=original: calls.append(_name) or _fn(*a),
            )
        cache = ReductionCache(tmp_path)
        cache.put(reduction_key(query, database_digests(db)), result)
        assert calls == ["serialize_result"]

    def test_insert_then_delete_never_replaces_and_never_cycles(self, tmp_path):
        query, db, session = self.warm(tmp_path)
        (origin,) = _metas(tmp_path)
        path = session.cache._path(origin)
        before = path.read_bytes()
        relation, t = self.patch(query, db, session, random.Random(FUZZ_SEED))
        assert db.delete(relation, t) is not None
        assert session.evaluate(query, strategy="reduction") == naive_evaluate(
            query, db
        )
        # back at the address of the full frame it started from
        assert path.read_bytes() == before
        assert session.cache.skipped_stores == 1
        assert _plain(session).stored_as is None
        metas = _metas(tmp_path)
        assert len(metas) == 2
        fresh = ReductionCache(tmp_path)
        assert all(fresh.get(key) is not None for key in metas)
        # the artifact's depth is unknown now: its next patch stores
        # whole, and still loads after a restart
        self.patch(query, db, session, random.Random(FUZZ_SEED + 1))
        assert _plain(session).stored_as[1] == 0
        restarted = QuerySession(db, cache_dir=tmp_path)
        assert restarted.evaluate(query, strategy="reduction") == naive_evaluate(
            query, db
        )
        assert restarted.stats.reductions == 0

    def test_the_cli_summary_counts_delta_full_and_skipped_stores(
        self, tmp_path, capsys
    ):
        assert cli_main(
            ["evaluate", "R([A],[B]) ∧ S([B],[C])", "--n", "12",
             "--cache-dir", str(tmp_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "1 stores (0 delta / 1 full / 0 skipped)" in out


# ----------------------------------------------------------------------
# (d) hostile and torn frames
# ----------------------------------------------------------------------


def _raw(meta: dict) -> bytes:
    """``meta`` framed as another writer of this format version could
    have left it: a valid header and digest over arbitrary metadata."""
    meta_bytes = json.dumps(meta).encode("utf-8")
    body = struct.pack("<Q", len(meta_bytes)) + meta_bytes
    return b"REPROV%02d" % FORMAT_VERSION + hashlib.sha256(body).digest() + body


class Chain:
    """A full frame, and an in-domain insert whose address holds
    whatever frame a test writes there."""

    def __init__(self, directory, seed=0):
        self.query = parse_query("R([A],[B]) ∧ S([B],[C])")
        self.db = random_database(self.query, 8, seed=seed + 11, domain=150.0)
        self.cache = ReductionCache(directory)
        self.parent = self.key()
        self.artifact = forward_reduce(self.query, self.db)
        self.cache.put(self.parent, self.artifact)
        rows = sorted(self.db["R"].tuples, key=repr)
        self.t = _recombined(random.Random(seed), rows, self.db["R"].tuples)
        self.db.insert("R", self.t)
        self.child = self.key()
        self.cache = ReductionCache(directory)  # fresh counters

    def key(self):
        return reduction_key(self.query, database_digests(self.db))

    def meta(self, **overrides):
        wire_t = {"tuple": [{"interval": [v.left, v.right]} for v in self.t]}
        meta = {
            "format_version": FORMAT_VERSION,
            "kind": "delta",
            "parent": self.parent,
            "depth": 1,
            "deltas": [["R", "insert", wire_t]],
        }
        meta.update(overrides)
        return meta

    def write(self, key, raw):
        path = self.cache._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(raw)
        return path


WIRE_PAIR = {"tuple": [{"interval": [1, 2]}, {"interval": [1, 2]}]}

MALFORMED = {
    "self-parent": lambda c: c.meta(parent=c.child),
    "depth 0": lambda c: c.meta(depth=0),
    "depth -1": lambda c: c.meta(depth=-1),
    "depth over the cap": lambda c: c.meta(depth=MAX_DELTA_CHAIN + 1),
    "float depth": lambda c: c.meta(depth=1.0),
    "bool depth": lambda c: c.meta(depth=True),
    "depth lying by +1": lambda c: c.meta(depth=2),
    "parent ../x": lambda c: c.meta(parent="../x"),
    "parent 63 hex": lambda c: c.meta(parent=c.parent[:63]),
    "parent upper-case": lambda c: c.meta(parent=c.parent.upper()),
    "kind replace": lambda c: c.meta(deltas=[["R", "replace", WIRE_PAIR]]),
    "non-tuple payload": lambda c: c.meta(
        deltas=[["R", "insert", {"interval": [1, 2]}]]
    ),
    "delta of two fields": lambda c: c.meta(deltas=[["R", "insert"]]),
    "empty deltas": lambda c: c.meta(deltas=[]),
    "unknown frame kind": lambda c: c.meta(kind="patch"),
    "no parent": lambda c: {
        k: v for k, v in c.meta().items() if k != "parent"
    },
}

UNREPLAYABLE = {
    "unknown relation": lambda c: c.meta(deltas=[["Z", "insert", WIRE_PAIR]]),
    "wrong arity": lambda c: c.meta(
        deltas=[["R", "insert", {"tuple": [{"interval": [1, 2]}]}]]
    ),
    "a point where an interval goes": lambda c: c.meta(
        deltas=[["R", "insert", {"tuple": [3, "x"]}]]
    ),
    "delete of an absent tuple": lambda c: c.meta(
        deltas=[["R", "delete", {"tuple": [{"interval": [1, 2]}] * 2}]]
    ),
    "endpoints outside the trees": lambda c: c.meta(
        deltas=[["R", "insert", {"tuple": [{"interval": [0.123, 0.456]}] * 2}]]
    ),
}


class TestHostileFrames:
    @pytest.fixture
    def opens(self, monkeypatch):
        """Every ``load_result`` call ``get`` makes, by file."""
        seen = []
        original = reduction_cache.load_result

        def counting(path, version):
            seen.append(Path(path).stem)
            return original(path, version)

        monkeypatch.setattr(reduction_cache, "load_result", counting)
        return seen

    def assert_miss(self, chain, reason, opens, gone=True):
        before = chain.cache.stats()
        assert chain.cache.get(chain.child) is None
        after = chain.cache.stats()
        changed = {k: after[k] - before[k] for k in after if after[k] != before[k]}
        assert changed == {"misses": 1, f"miss_{reason}": 1}
        assert len(opens) <= MAX_DELTA_CHAIN + 1
        assert chain.cache._path(chain.child).exists() is not gone

    def test_the_honest_frame_is_a_hit(self, tmp_path, opens):
        chain = Chain(tmp_path, FUZZ_SEED)
        chain.write(chain.child, _raw(chain.meta()))
        loaded = chain.cache.get(chain.child)
        assert opens == [chain.child, chain.parent]
        assert loaded.stored_as == (chain.child, 1)
        chain.artifact.apply_delta(Delta(0, "insert", "R", chain.t))
        assert result_digest(loaded) == result_digest(chain.artifact)
        # byte for byte what the writer produces
        assert _raw(chain.meta()) == serialize_delta(
            chain.parent, 1, [Delta(0, "insert", "R", chain.t)], FORMAT_VERSION
        )

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_a_malformed_frame_is_an_invalid_miss_and_is_removed(
        self, case, tmp_path, opens, caplog
    ):
        chain = Chain(tmp_path, FUZZ_SEED)
        chain.write(chain.child, _raw(MALFORMED[case](chain)))
        parent_bytes = chain.cache._path(chain.parent).read_bytes()
        with caplog.at_level(logging.WARNING, logger="repro.cache"):
            self.assert_miss(chain, "invalid", opens)
        (record,) = caplog.records
        assert record.name == "repro.cache" and chain.child in record.getMessage()
        # the frame lied; the entry it pointed at is not to blame
        assert chain.cache._path(chain.parent).read_bytes() == parent_bytes
        assert not list(tmp_path.rglob("x"))

    @pytest.mark.parametrize("case", sorted(UNREPLAYABLE))
    def test_deltas_that_do_not_apply_are_a_replay_miss(
        self, case, tmp_path, opens, caplog
    ):
        chain = Chain(tmp_path, FUZZ_SEED)
        chain.write(chain.child, _raw(UNREPLAYABLE[case](chain)))
        with caplog.at_level(logging.WARNING, logger="repro.cache"):
            self.assert_miss(chain, "replay", opens)
        assert not caplog.records  # only miss_invalid is worth a warning
        assert chain.cache.get(chain.parent) is not None

    def test_a_two_entry_cycle_ends_after_three_opens(self, tmp_path, opens):
        chain = Chain(tmp_path, FUZZ_SEED)
        other = "ab" * 32
        chain.write(chain.child, _raw(chain.meta(parent=other, depth=2)))
        chain.write(other, _raw(chain.meta(parent=chain.child, depth=1)))
        self.assert_miss(chain, "invalid", opens)
        assert opens == [chain.child, other, chain.child]
        assert not chain.cache._path(other).exists()

    def test_a_depth_lying_by_minus_one_blames_the_liar(self, tmp_path, opens):
        chain = Chain(tmp_path, FUZZ_SEED)
        middle = "cd" * 32
        chain.write(middle, _raw(chain.meta()))  # honest: depth 1
        rows = sorted(chain.db["S"].tuples, key=repr)
        wire_s = {"tuple": [{"interval": [v.left, v.right]} for v in rows[0]]}
        chain.write(
            chain.child,
            _raw(chain.meta(parent=middle, deltas=[["S", "delete", wire_s]])),
        )
        self.assert_miss(chain, "invalid", opens)
        assert chain.cache._path(middle).exists()

    def test_a_flipped_byte_and_a_truncation_are_invalid_misses(
        self, tmp_path, opens
    ):
        chain = Chain(tmp_path, FUZZ_SEED)
        raw = _raw(chain.meta())
        flipped = bytearray(raw)
        flipped[-5] ^= 0x01
        for torn in (bytes(flipped), raw[:-7], raw[:20], b""):
            opens.clear()
            chain.write(chain.child, torn)
            self.assert_miss(chain, "invalid", opens)
        # ... of a full frame too
        path = chain.cache._path(chain.parent)
        path.write_bytes(path.read_bytes()[:-3])
        chain.write(chain.child, raw)
        opens.clear()
        self.assert_miss(chain, "invalid", opens)
        assert not path.exists()

    def test_an_unlinked_parent_is_an_orphan_miss(self, tmp_path, opens):
        chain = Chain(tmp_path, FUZZ_SEED)
        chain.write(chain.child, _raw(chain.meta()))
        chain.cache._path(chain.parent).unlink()
        self.assert_miss(chain, "orphan", opens)
        opens.clear()
        self.assert_miss(chain, "absent", opens)

    def test_an_equal_by_address_parent_with_a_smaller_domain_fails_closed(
        self, tmp_path, opens
    ):
        """The parent on disk is replaced by a fresh reduction of the
        same contents whose trees lack the endpoints the delta inserts:
        the replay raises, the child is a ``miss_replay``, and the
        rebuild's store heals the address."""
        query = parse_query("R([A],[B]) ∧ S([B],[C])")
        db = random_database(query, 8, seed=FUZZ_SEED + 3, domain=150.0)
        extra = (Interval(900.25, 901.5), Interval(902.125, 903.75))
        session = QuerySession(db, cache_dir=tmp_path)
        db.insert("R", extra)
        session.evaluate(query, strategy="reduction")
        artifact = _plain(session)
        db.delete("R", extra)
        artifact.apply_delta(Delta(0, "delete", "R", extra))
        # the addresses a session reads: those of the canonical query
        canonical = artifact.original
        parent = reduction_key(canonical, database_digests(db))
        cache = ReductionCache(tmp_path)
        cache.put(parent, artifact)  # [A]'s tree still holds 900.25, 901.5
        t = (extra[0], sorted(db["R"].tuples, key=repr)[0][1])
        db.insert("R", t)
        delta = Delta(0, "insert", "R", t)
        artifact.apply_delta(delta)
        child = reduction_key(canonical, database_digests(db))
        cache.put(child, artifact, [delta])
        assert cache.stats()["delta_stores"] == 1
        assert ReductionCache(tmp_path).get(child) is not None
        # the same address, rebuilt from the contents alone
        db.delete("R", t)
        cache.put(parent, forward_reduce(canonical, db))
        db.insert("R", t)
        reader = ReductionCache(tmp_path)
        assert reader.get(child) is None
        assert reader.stats()["miss_replay"] == 1
        assert not reader._path(child).exists()
        assert reader.get(parent) is not None
        healed = QuerySession(db, cache_dir=tmp_path)
        assert healed.evaluate(query, strategy="reduction") == naive_evaluate(
            query, db
        )
        assert healed.stats.reductions == 1
        again = QuerySession(db, cache_dir=tmp_path)
        again.evaluate(query, strategy="reduction")
        assert again.stats.reductions == 0 and again.stats.persistent_hits == 1


# ----------------------------------------------------------------------
# (e) hygiene with chains on disk
# ----------------------------------------------------------------------


#: The two-process store-and-prune stress of ``test_persistent_cache``,
#: with the storing process patching: one long-lived session writes
#: delta frames while the other prunes the directory to nothing.
PATCH_WORKER = """
import random, sys
from repro.core import QuerySession, ReductionCache, naive_evaluate
from repro.queries import parse_query
from repro.workloads import random_database

cache_dir, role, rounds = sys.argv[1], sys.argv[2], int(sys.argv[3])
if role == "patch":
    query = parse_query("R([A],[B]) \\u2227 S([B],[C])")
    db = random_database(query, 6, seed=4)
    rows = sorted(db["R"].tuples, key=repr)
    rng = random.Random(0)
    session = QuerySession(db, cache_dir=cache_dir)
    wrong = 0
    for i in range(rounds):
        t = (rng.choice(rows)[0], rng.choice(rows)[1])
        if db.insert("R", t) is None:
            db.delete("R", t)
        wrong += session.evaluate(query, strategy="reduction") != naive_evaluate(query, db)
        fresh = QuerySession(db, cache_dir=cache_dir)
        wrong += fresh.evaluate(query, strategy="reduction") != naive_evaluate(query, db)
    print(wrong, session.cache.delta_stores)
else:
    cache = ReductionCache(cache_dir)
    for _ in range(rounds):
        cache.prune(max_bytes=1)
    print(0, 0)
"""


class TestHygiene:
    def chain(self, directory, namespace=None, patches=3):
        query = path_ij(3)
        db = random_database(query, 8, seed=FUZZ_SEED + 9, domain=200.0)
        session = QuerySession(
            db, cache_dir=directory, cache_namespace=namespace
        )
        session.evaluate(query, strategy="reduction")
        (root,) = _metas(directory)
        rng = random.Random(FUZZ_SEED)
        for _ in range(patches):
            _patch(query, db, session, rng)
        return query, db, session, root

    def test_pruning_a_parent_orphans_the_child_and_answers_stay_right(
        self, tmp_path
    ):
        query, db, session, root = self.chain(tmp_path)
        cache = session.cache
        os.utime(cache._path(root), (1, 1))  # least recently used
        total = cache.size_bytes()
        assert cache.prune(total - 1) == 1
        assert not cache._path(root).exists()
        restarted = QuerySession(db, cache_dir=tmp_path)
        assert restarted.evaluate(query, strategy="reduction") == naive_evaluate(
            query, db
        )
        assert restarted.cache.stats()["miss_orphan"] == 1
        assert restarted.stats.reductions == 1
        # the rebuild stored whole under the orphan's address
        assert QuerySession(db, cache_dir=tmp_path).reduction(query) is not None

    def test_a_hit_keeps_every_link_of_its_chain_young(self, tmp_path):
        query, db, session, root = self.chain(tmp_path)
        cache = ReductionCache(tmp_path)
        paths = [cache._path(key) for key in _metas(tmp_path)]
        for path in paths:
            os.utime(path, (1, 1))
        top, depth = _plain(session).stored_as
        assert depth == 3 and cache.get(top) is not None
        assert all(path.stat().st_mtime > 1 for path in paths)

    def test_purge_removes_a_private_chain_and_keeps_a_shared_parent(
        self, tmp_path
    ):
        query, db, session, root = self.chain(tmp_path, namespace="acme")
        globex = ReductionCache(tmp_path, namespace="globex")
        assert globex.get(root) is not None
        assert len(_metas(tmp_path)) == 4
        assert session.cache.namespace_keys() == set(_metas(tmp_path))
        assert session.cache.purge_namespace() == 3
        assert set(_metas(tmp_path)) == {root}
        assert globex.get(root) is not None
        # a reader of the chain's tip co-owns every link it resolved
        query, db, session, root = self.chain(tmp_path / "b", namespace="acme")
        top, _ = _plain(session).stored_as
        globex = ReductionCache(tmp_path / "b", namespace="globex")
        assert globex.get(top) is not None
        assert globex.namespace_keys() == set(_metas(tmp_path / "b"))
        assert session.cache.purge_namespace() == 0

    def test_a_patching_process_and_a_pruning_process_share_a_directory(
        self, tmp_path
    ):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        workers = [
            subprocess.Popen(
                [sys.executable, "-c", PATCH_WORKER, str(tmp_path), role, rounds],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                env=env,
            )
            for role, rounds in (("patch", "60"), ("prune", "400"))
        ]
        outputs = [worker.communicate(timeout=300) for worker in workers]
        for worker, (_, err) in zip(workers, outputs):
            assert worker.returncode == 0, err
        wrong, delta_stores = map(int, outputs[0][0].split())
        assert wrong == 0
        assert delta_stores > 0


# ----------------------------------------------------------------------
# (f) shipping
# ----------------------------------------------------------------------


class TestShipping:
    def donor(self, tmp_path):
        chain = Chain(tmp_path / "donor", FUZZ_SEED)
        artifact = chain.cache.get(chain.parent)
        delta = Delta(0, "insert", "R", chain.t)
        artifact.apply_delta(delta)
        chain.cache.put(chain.child, artifact, [delta])
        assert chain.cache.delta_stores == 1
        return chain, result_digest(artifact)

    def test_a_delta_frame_ships_like_any_entry(self, tmp_path):
        chain, digest = self.donor(tmp_path)
        assert chain.cache.entry_keys() == sorted([chain.parent, chain.child])
        frames = {key: chain.cache.export_entry(key) for key in chain.cache.entry_keys()}
        assert all(validate_entry_bytes(raw, FORMAT_VERSION) for raw in frames.values())
        assert len(frames[chain.child]) < 1024
        # child before parent, nobody reading in between: a hit
        receiver = ReductionCache(tmp_path / "receiver")
        for key in (chain.child, chain.parent):
            assert receiver.import_entry(key, frames[key]) is True
        assert result_digest(receiver.get(chain.child)) == digest

    def test_a_child_that_arrives_first_misses_until_its_parent_does(
        self, tmp_path
    ):
        chain, digest = self.donor(tmp_path)
        receiver = ReductionCache(tmp_path / "receiver")
        child = chain.cache.export_entry(chain.child)
        assert receiver.import_entry(chain.child, child) is True
        assert receiver.get(chain.child) is None
        assert receiver.stats()["miss_orphan"] == 1
        # the miss healed the orphan away, so it is again a key the
        # receiver lacks: the next warming round ships both
        assert receiver.entry_keys() == []
        assert receiver.import_entry(
            chain.parent, chain.cache.export_entry(chain.parent)
        )
        assert receiver.import_entry(chain.child, child) is True
        assert result_digest(receiver.get(chain.child)) == digest

    def test_the_golden_wire_frames_embed_no_frame_magic(self):
        golden = Path(__file__).parent / "golden" / "wire_frames.json"
        assert "REPROV" not in golden.read_text()
