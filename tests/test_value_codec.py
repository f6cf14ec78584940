"""One tagged-JSON value codec for the wire, the cache and database files.

* a seeded round trip of databases with endpoints at ±2**53±1, ±inf and
  -0.0, nested point tuples and strings — through wire lines, cache
  frames and files — keeps every tuple and ``naive_count``; NaN is
  refused at encode, and the wire admits finite data only;
* (a) a ±inf point value is a persistent hit, not an invalid miss;
* (b) a witness read of a loaded artifact with ±inf endpoints decodes
  its rank table instead of rebuilding;
* (c) a file keeps ints past 2**53 exact and point tuples as tuples.

CI runs this module across the ``REPRO_FUZZ_SEED`` matrix.
"""

import json
import logging
import math
import os
import random

import pytest

from repro.core import QuerySession, naive_count, naive_evaluate
from repro.core.baselines import naive_witnesses
from repro.core.cache_format import (
    CacheFormatError,
    load_result,
    serialize_delta,
    serialize_result,
)
from repro.core.disjunct_eval import count_disjunction, evaluate_disjunction
from repro.core.reduction_cache import FORMAT_VERSION
from repro.engine import Database, Delta, Relation
from repro.engine.io import (
    CodecError,
    decode_database,
    encode_database,
    encode_value,
    load_database_json,
    save_database_json,
)
from repro.intervals import Interval
from repro.queries import catalog, parse_query
from repro.reduction import forward_reduce, shift_distinct_left
from repro.service import protocol
from repro.workloads import random_database

FUZZ_SEED = int(os.environ.get("REPRO_FUZZ_SEED", "0"))

BIG = 2**53
#: endpoints and point values where a float cast or a lax codec merges
#: or loses values
EXTREMES = (BIG - 1, BIG, BIG + 1, -BIG - 1, -BIG, -BIG + 1, math.inf, -math.inf, -0.0)
QUERY = parse_query("R([A], [B], K) ∧ S([B], [C]) ∧ T([A], [C], K)")


def extreme_database(seed: int) -> Database:
    """``random_database`` over :data:`QUERY` with some intervals moved
    to :data:`EXTREMES` (point intervals among them) and some point
    values replaced by extremes, nested point tuples and strings."""
    rng = random.Random(seed)
    db = random_database(QUERY, 10, seed=seed, domain=8.0, mean_length=4.0)
    for relation in db:
        rows = set()
        for t in relation.tuples:
            row = []
            for value in t:
                draw = rng.random()
                if isinstance(value, Interval):
                    if draw < 0.3:
                        ends = EXTREMES + (value.left, value.right)
                        left, right = sorted([rng.choice(EXTREMES), rng.choice(ends)])
                        value = Interval(left, right if draw < 0.2 else left)
                elif draw < 0.1:
                    value = rng.choice(EXTREMES)
                elif draw < 0.2:
                    value = (rng.choice(EXTREMES), ("s", rng.choice(EXTREMES)))
                elif draw < 0.25:
                    value = f"s{rng.randrange(3)}"
                row.append(value)
            rows.add(tuple(row))
        relation.tuples.clear()
        relation.tuples.update(rows)
    return db


def assert_same_database(loaded: Database, db: Database) -> None:
    assert loaded.relation_names == db.relation_names
    for relation in db:
        assert loaded[relation.name].schema == relation.schema
        assert loaded[relation.name].tuples == relation.tuples
    assert naive_count(QUERY, loaded) == naive_count(QUERY, db)


SEEDS = [FUZZ_SEED * 101 + i for i in range(8)]


@pytest.mark.parametrize("seed", SEEDS)
def test_extreme_databases_round_trip_through_wire_lines(seed):
    db = extreme_database(seed)
    line = protocol.dump_line({"id": 1, "database": encode_database(db)})
    payload = protocol.parse_line(line)["database"]
    assert_same_database(decode_database(payload), db)
    # the wire's own rule: it admits a snapshot only if every number is
    # finite (``allow_nan=False`` refuses ``Infinity`` as well)
    try:
        json.dumps(payload, allow_nan=False)
    except ValueError:
        with pytest.raises(protocol.ProtocolError, match="finite"):
            protocol.decode_database(payload)
    else:
        assert_same_database(protocol.decode_database(payload), db)


@pytest.mark.parametrize("seed", SEEDS)
def test_extreme_databases_round_trip_through_cache_frames(seed, tmp_path):
    db = extreme_database(seed)
    artifact = forward_reduce(
        QUERY, shift_distinct_left(QUERY, db), disjoint=True, provenance=True
    )
    path = tmp_path / "entry.red"
    path.write_bytes(serialize_result(artifact, FORMAT_VERSION))
    loaded = load_result(path, FORMAT_VERSION)
    assert loaded is not None
    assert count_disjunction(loaded) == naive_count(QUERY, db)
    assert evaluate_disjunction(loaded) == naive_evaluate(QUERY, db)
    assert loaded.codebook.values == artifact.codebook.values
    assert loaded.tuple_order == artifact.tuple_order
    assert loaded.ranks == artifact.ranks


@pytest.mark.parametrize("seed", SEEDS)
def test_extreme_databases_round_trip_through_files(seed, tmp_path):
    db = extreme_database(seed)
    path = tmp_path / "db.json"
    save_database_json(db, path)
    assert_same_database(load_database_json(path, QUERY), db)


def test_nan_is_refused_at_encode(tmp_path):
    nan = math.nan
    for value in (nan, (1, nan), ("s", (nan,))):
        with pytest.raises(CodecError, match="NaN"):
            encode_value(value)
    db = Database([Relation("P", ("K",), [(nan,)])])
    with pytest.raises(CodecError, match="NaN"):
        encode_database(db)
    with pytest.raises(CodecError, match="NaN"):
        save_database_json(db, tmp_path / "db.json")
    assert not (tmp_path / "db.json").exists()
    with pytest.raises(CacheFormatError, match="NaN"):
        serialize_delta("0" * 64, 1, [Delta(1, "insert", "P", (nan,))], FORMAT_VERSION)


def test_an_infinite_point_value_is_a_persistent_hit(tmp_path, caplog):
    """(a) Three sessions over one ``cache_dir``: one store, then two
    loads — the frame written is one the reader reads."""
    query = parse_query("R([A], K) ∧ S([A], K)")
    db = random_database(query, 6, seed=3, domain=10.0, mean_length=4.0)
    db["R"].tuples.add((Interval(1.0, 9.0), math.inf))
    db["S"].tuples.add((Interval(2.0, 3.0), math.inf))
    db["S"].tuples.add((Interval(2.0, 3.0), -math.inf))
    stores = hits = invalid = 0
    with caplog.at_level(logging.WARNING):
        for _ in range(3):
            session = QuerySession(db, cache_dir=tmp_path)
            assert session.count(query) == naive_count(query, db)
            stats = session.cache.stats()
            stores += stats["stores"]
            invalid += stats["miss_invalid"]
            hits += session.stats.persistent_hits
    assert (stores, hits, invalid) == (1, 2, 0)
    assert not caplog.records


def test_witnesses_of_a_loaded_infinite_artifact_decode_its_rank_table(tmp_path):
    """(b) The rank table and provenance order of a loaded triangle
    artifact with ±inf endpoints decode: no rebuild."""
    query = catalog.triangle_ij()
    db = random_database(query, 8, seed=2, domain=30.0, mean_length=8.0)
    db["S"].tuples.add((Interval(-math.inf, math.inf), Interval(-math.inf, 4.0)))
    db["R"].tuples.add((Interval(1.0, math.inf), Interval(-math.inf, 4.0)))
    expected = sorted(map(repr, naive_witnesses(query, db)))
    assert sorted(map(repr, QuerySession(db, cache_dir=tmp_path).witnesses(query))) == expected
    warm = QuerySession(db, cache_dir=tmp_path)
    assert sorted(map(repr, warm.witnesses(query))) == expected
    stats = warm.stats.as_dict()
    assert (stats["persistent_hits"], stats["reductions"]) == (1, 0)
    assert (stats["domain_changed"], stats["domain_changed_rank_table"]) == (0, 0)


def test_a_file_keeps_big_ints_and_point_tuples(tmp_path):
    """(c) Endpoints are never cast to ``float``: ``2**53 + 1`` and
    ``2**53`` stay apart.  A point tuple stays a tuple."""
    query = parse_query("R([A]) ∧ S([A])")
    db = Database(
        [
            Relation("R", ("A",), [(Interval.point(BIG + 1),)]),
            Relation("S", ("A",), [(Interval.point(BIG),)]),
            Relation("P", ("K",), [((1, 2),)]),
        ]
    )
    path = tmp_path / "db.json"
    save_database_json(db, path)
    loaded = load_database_json(path, query)
    assert naive_count(query, db) == naive_count(query, loaded) == 0
    assert loaded["R"].tuples == {(Interval.point(BIG + 1),)}
    ((value,),) = loaded["P"].tuples
    assert value == (1, 2) and type(value) is tuple
