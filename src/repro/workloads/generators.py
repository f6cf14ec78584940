"""Synthetic workload generators.

Interval databases for arbitrary IJ/EIJ queries, plus the two domains
the paper's introduction motivates: temporal validity intervals and
spatial minimum bounding rectangles (a 2-D rectangle is two interval
variables [24]).
"""

from __future__ import annotations

import random
from typing import Sequence

from ..engine.relation import Database, Relation
from ..intervals.interval import Interval
from ..queries.query import Query


def random_interval(
    rng: random.Random,
    domain: float = 1000.0,
    mean_length: float = 10.0,
    point_probability: float = 0.0,
) -> Interval:
    """One interval with uniform left endpoint and geometric-ish length."""
    left = rng.uniform(0.0, domain)
    if point_probability and rng.random() < point_probability:
        return Interval.point(left)
    length = rng.expovariate(1.0 / mean_length) if mean_length > 0 else 0.0
    return Interval(left, left + length)


def random_integer_interval(
    rng: random.Random, domain: int = 1000, max_length: int = 10
) -> Interval:
    left = rng.randint(0, domain)
    return Interval(left, left + rng.randint(0, max_length))


def random_database(
    query: Query,
    n: int,
    seed: int = 0,
    domain: float = 1000.0,
    mean_length: float = 10.0,
    point_probability: float = 0.0,
    integer: bool = False,
) -> Database:
    """A database with ``n`` random tuples per relation of ``query``
    (one relation per symbol: the atoms of a self-join share it).

    Interval columns get random intervals; point columns get uniform
    integers.  ``point_probability`` mixes in degenerate point intervals
    (the regime where intersection joins become equality joins).
    """
    rng = random.Random(seed)
    db = Database()
    kinds: dict[str, tuple[bool, ...]] = {}
    for atom in query.atoms:
        kind = tuple(v.is_interval for v in atom.variables)
        if kinds.setdefault(atom.relation, kind) != kind:
            raise ValueError(
                f"atoms give relation {atom.relation} different arities "
                "or column kinds"
            )
        if atom.relation in db:
            continue
        rows = set()
        attempts = 0
        while len(rows) < n and attempts < 20 * n + 100:
            attempts += 1
            row = []
            for v in atom.variables:
                if v.is_interval:
                    if integer:
                        row.append(
                            random_integer_interval(
                                rng, int(domain), max(int(mean_length), 0)
                            )
                        )
                    else:
                        row.append(
                            random_interval(
                                rng, domain, mean_length, point_probability
                            )
                        )
                else:
                    row.append(rng.randint(0, int(domain)))
            rows.add(tuple(row))
        db.add(Relation(atom.relation, atom.variable_names, rows))
    return db


def point_database(query: Query, n: int, seed: int = 0, domain: int = 100) -> Database:
    """All intervals are points: intersection joins degenerate to
    equality joins (Section 1)."""
    return random_database(
        query, n, seed=seed, domain=domain, mean_length=0.0,
        point_probability=1.0,
    )


def temporal_sessions(
    n: int,
    seed: int = 0,
    horizon: float = 10_000.0,
    mean_duration: float = 60.0,
) -> list[tuple[Interval, int]]:
    """``n`` (validity-interval, entity-id) pairs modelling a temporal
    table of sessions/versions (Gao et al. [16])."""
    rng = random.Random(seed)
    out = []
    for i in range(n):
        start = rng.uniform(0.0, horizon)
        duration = rng.expovariate(1.0 / mean_duration)
        out.append((Interval(start, start + duration), i))
    return out


def temporal_database(query: Query, n: int, seed: int = 0) -> Database:
    """A temporal instance for any IJ query: each atom is a table of
    validity intervals over a shared timeline."""
    return random_database(
        query, n, seed=seed, domain=10_000.0, mean_length=60.0
    )


def spatial_rectangles(
    n: int,
    seed: int = 0,
    extent: float = 1000.0,
    mean_side: float = 5.0,
) -> list[tuple[Interval, Interval, int]]:
    """``n`` axis-aligned MBRs as (x-interval, y-interval, id) triples —
    the spatial-join representation of Section 2 [24]."""
    rng = random.Random(seed)
    out = []
    for i in range(n):
        x = rng.uniform(0, extent)
        y = rng.uniform(0, extent)
        w = rng.expovariate(1.0 / mean_side)
        h = rng.expovariate(1.0 / mean_side)
        out.append((Interval(x, x + w), Interval(y, y + h), i))
    return out


def spatial_join_database(
    relation_names: Sequence[str],
    n: int,
    seed: int = 0,
    extent: float = 1000.0,
    mean_side: float = 5.0,
) -> Database:
    """One MBR table per relation name with schema ``([X], [Y])`` — the
    input of a multiway spatial intersection join."""
    db = Database()
    for offset, name in enumerate(relation_names):
        rects = spatial_rectangles(
            n, seed=seed + offset, extent=extent, mean_side=mean_side
        )
        db.add(
            Relation(name, ("X", "Y"), [(x, y) for x, y, _ in rects])
        )
    return db
