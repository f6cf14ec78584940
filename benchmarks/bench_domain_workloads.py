"""Domain workloads: the temporal and spatial scenarios of the
introduction, end to end through the engine.

Temporal: concurrent-incident triangle over validity intervals.
Spatial: two-layer MBR overlay (rectangle = two interval variables),
computed by plane sweep, the reduction, and the optimizer's plan — all
agreeing.
"""

from conftest import bench_n, print_table

from repro.core import QuerySession, count_ij, evaluate_ij, sweep_join
from repro.engine import Database, Relation
from repro.queries import parse_query
from repro.workloads import spatial_rectangles, temporal_database


def test_temporal_triangle(benchmark):
    q = parse_query(
        "Deploy([W],[R]) ∧ Alert([W],[P]) ∧ Anomaly([R],[P])"
    )
    db = temporal_database(q, bench_n(60, 20), seed=2)

    def run():
        return evaluate_ij(q, db), count_ij(q, db)

    answer, count = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        "temporal concurrent-incident triangle (N=60/relation)",
        ["answer", "#concurrent triples"],
        [(answer, count)],
    )
    assert isinstance(answer, bool)
    assert (count > 0) == answer


def test_spatial_overlay_three_ways(benchmark):
    pair = parse_query("P([X],[Y]) ∧ F([X],[Y])")
    n = bench_n(150, 40)
    layers = {}
    for name, seed in [("P", 4), ("F", 5)]:
        rects = spatial_rectangles(n, seed=seed, extent=400.0, mean_side=25.0)
        layers[name] = Relation(name, ("X", "Y"), [(x, y) for x, y, _ in rects])
    db = Database(layers.values())

    def three_ways():
        by_sweep = sum(
            1
            for a, b in sweep_join(
                [(t[0], t) for t in db["P"].tuples],
                [(t[0], t) for t in db["F"].tuples],
            )
            if a[1].intersects(b[1])
        )
        by_reduction = count_ij(pair, db)
        session = QuerySession(db)
        return (
            by_sweep,
            by_reduction,
            session.evaluate(pair),
            session.plan(pair).strategy,
        )

    sweep_count, reduction_count, answer, strategy = benchmark.pedantic(
        three_ways, rounds=1, iterations=1
    )
    print_table(
        "spatial 2-layer overlay (150 MBRs per layer)",
        ["sweep pairs", "reduction pairs", "planner answer", "plan"],
        [(sweep_count, reduction_count, answer, strategy)],
    )
    assert sweep_count == reduction_count
    assert answer == (sweep_count > 0)
