"""Golden artifact digests: ``result_digest`` of seeded forward
reductions, pinned as constants.

Each shape is reduced twice — the plain reduction ``forward_reduce(q,
db)`` and the session's artifact (the Appendix G.1 shift, disjoint, with
provenance) — over one seeded database with point intervals mixed in.
A change to how the reduction is computed must leave these digests as
they are; a change to *what* it computes must say so by updating them.
"""

import pytest

from repro.core.reduction_cache import result_digest
from repro.queries import catalog
from repro.reduction import forward_reduce
from repro.reduction.disjoint import shift_distinct_left
from repro.workloads import random_database

SHAPES = {
    "triangle": catalog.triangle_ij,
    "star3": lambda: catalog.star_ij(3),
    "fig9e": catalog.figure9e_ij,
    "path3": lambda: catalog.path_ij(3),
    "cycle4": lambda: catalog.cycle_ij(4),
}

#: shape -> (plain digest, session-artifact digest)
GOLDEN = {
    "triangle": (
        "c1db5f2c1ed029645ff66bb66b3e99e316e0996fb9d50232260329305badf756",
        "ef16cc937d82a87311babdfc0d0ca37cb91c6c9ee44cbf10a3e7e312d22cb480",
    ),
    "star3": (
        "31fab8be93b215df016500b1af5f0620fd59b45b5ccbda63809101a26d9b6049",
        "feb239db5a2d5a08c3e078ec46e166fd01c240c1452f36fc6701422c91e944ad",
    ),
    "fig9e": (
        "9363e97d864bbe27fb88e62a6bb5f08869cdddf0af1542b62bc20d1b9b2f2dc5",
        "0c3a64e7d2080bfc6e9e18b66d454ec80c490ad63839a58e711ac98bf94b91fd",
    ),
    "path3": (
        "39a1086fd3fbab46e8db200f3735b2e73476b49615da450a936cfa4699ff0bdf",
        "985df04691710e559b10a3848f3cc7b8a4a92bbe63bbf88f648d46665b834926",
    ),
    "cycle4": (
        "b494674fe55b6b29f280c3a8ae270c45cb8031e6627d4291ebf664f88e4330ef",
        "136427c95b34e7359ae9f7ee83642cb264c96924941a07c963f7d2841406455d",
    ),
}


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_reductions_digest_as_pinned(name):
    query = SHAPES[name]()
    db = random_database(
        query, 24, seed=35, domain=96.0, mean_length=10.0, point_probability=0.2
    )
    plain = forward_reduce(query, db)
    shifted = shift_distinct_left(query, db)
    session = forward_reduce(query, shifted, disjoint=True, provenance=True)
    assert (result_digest(plain), result_digest(session)) == GOLDEN[name]
