"""One workload, one run, in a fresh interpreter (started by ``run.py``).

Untraced (``--trace 0``): set-up is done ``SETUP_REPEATS`` times (its
median is ``setup_s``), the last state serves the timed closed loop, and
every answer is checked afterwards, off the clock.  Times are corrected
for the host's slow phases (see ``hostclock.py``); the uncorrected ones
are printed beside them.  Traced
(``--trace 1``): the same op list is replayed twice for a fixed number
of ops — once bare, once with spans recorded around each layer — then
each layer is probed directly and the reads are replayed at the session,
pool and wire depths.

The result goes to ``--result`` as JSON; ``run.py`` prints it once this
process and everything it started are gone.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
from collections import Counter
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np
from hostclock import HostClock, slowdown
from layers import probe_depths, probe_layers
from paper_check import paper_check
from tracing import ROOT_LAYER, Recorder, installed
from workloads import WORKLOADS, Workload, delta_of, run_pass

from repro.core.reduction_cache import ReductionCache

SETUP_REPEATS = 3
#: the timed loop is cut into this many rounds, with a burst of the host
#: clock at every cut
ROUNDS = 8


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def end_to_end(executed: list[tuple], setups: list[float], workload: Workload):
    latencies = [latency for _, latency, _ in executed]
    return {
        "setup_s": median(setups),
        "ops_per_s": workload.mix_ops_per_s(executed),
        "latency_p50_ms": float(np.percentile(latencies, 50)) * 1e3,
        "latency_p90_ms": float(np.percentile(latencies, 90)) * 1e3,
    }


def untraced(workload: Workload, workdir: Path, seconds: float, max_ops):
    """The end-to-end metrics of one workload.  Each set-up sits between
    two bursts of the host clock, the timed loop is cut into rounds with
    a burst at every cut, and the times are divided by the slowdown the
    bursts show (see ``hostclock.py``)."""
    clock = HostClock()
    setups, raw_setups = [], []
    state = None
    for attempt in range(SETUP_REPEATS):
        if state is not None:
            workload.e2e_teardown(state)
            shutil.rmtree(workdir / f"setup{attempt - 1}")
        (workdir / f"setup{attempt}").mkdir()
        samples = clock.burst()
        started = perf_counter()
        state = workload.e2e_setup(workdir / f"setup{attempt}")
        raw_setups.append(perf_counter() - started)
        setups.append(raw_setups[-1] / slowdown(samples + clock.burst()))
    raw: list[tuple] = []
    rounds = 1 if max_ops is not None else ROUNDS
    try:
        counters = workload.e2e_counters(state)
        samples = clock.burst()
        for _ in range(rounds):
            raw.extend(
                workload.e2e_pass(state, seconds / rounds, max_ops, first=len(raw))
            )
            samples += clock.burst()
        delta = delta_of(workload.e2e_counters(state), counters)
    finally:
        workload.e2e_teardown(state)
    slow = slowdown(samples)
    executed = [(op, latency / slow, answer) for op, latency, answer in raw]
    usage = [
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ]
    metrics = end_to_end(executed, setups, workload)
    metrics["peak_rss_mb"] = sum(usage) / 1024.0
    info = {
        "latency_samples": len(executed),
        "host_slowdown": slow,
        "uncorrected": end_to_end(raw, raw_setups, workload),
    }
    return executed, delta, metrics, info


def traced(workload: Workload, workdir: Path, ops: int, expected, trace_out):
    """The per-layer metrics of one workload."""
    for name in ("bare", "traced", "probe", "depth"):
        (workdir / name).mkdir()
    clock = HostClock()
    state = workload.setup(workdir / "bare")
    try:
        samples = clock.burst()
        bare = run_pass(workload, state, max_ops=ops)
        bare_slow = slowdown(samples + clock.burst())
    finally:
        workload.teardown(state)
    recorder = Recorder()
    state = workload.setup(workdir / "traced")
    try:
        before = workload.counters(state)
        samples = clock.burst()
        with installed(recorder):
            executed = run_pass(workload, state, max_ops=ops, recorder=recorder)
        traced_slow = slowdown(samples + clock.burst())
        delta = delta_of(workload.counters(state), before)
        cache_bytes = (
            ReductionCache(state.cache_dir).size_bytes() if state.cache_dir else 0
        )
    finally:
        workload.teardown(state)
    if trace_out:
        recorder.write(trace_out)

    own = recorder.self_seconds()
    calls = Counter(span[1] for span in recorder.spans)
    counts = recorder.counts
    op_wall = sum(
        end - start
        for layer, _, start, end, _, _ in recorder.spans
        if layer == ROOT_LAYER
    )
    metrics = {
        "sql.plan_hit_ratio": ratio(
            delta["sql_plan_hits"], delta["sql_plan_hits"] + calls["plan_disjunct"]
        ),
        "session.self_s": own["session"],
        "session.answer_hit_ratio": ratio(
            delta["hits"], delta["hits"] + delta["misses"]
        ),
        "session.reductions": delta["reductions"],
        "session.persistent_hits": delta["persistent_hits"],
        "session.delta_patches": delta["delta_patches"],
        "session.invalidations": delta["invalidations"],
        "session.patch_ratio": ratio(
            delta["delta_patches"], delta["delta_patches"] + delta["reductions"]
        ),
        "cache.io_s": own["cache"],
        "cache.hit_ratio": ratio(
            delta["cache.hits"], delta["cache.hits"] + delta["cache.misses"]
        ),
        "cache.bytes_on_disk": cache_bytes,
        "cache.bytes_per_input_tuple": ratio(cache_bytes, workload.input_tuples()),
        "reduction.reduce_s": own["reduction"],
        "reduction.domain_changed_ratio": ratio(
            counts["reduction.domain_changed"], calls["apply_delta"]
        ),
        "reduction.output_rows": counts["reduction.output_rows"],
        "reduction.blowup": ratio(
            counts["reduction.output_rows"], counts["reduction.input_tuples"]
        ),
        "reduction.disjuncts": counts["reduction.disjuncts"],
        "engine.evaluate_s": own["engine"],
        "engine.disjuncts_evaluated": calls["evaluate_ej"] + calls["count_ej"],
        "sql.self_s": own["sql"],
        # per op, not wall over wall: both passes replay the same ops
        # from the same state, and the median ignores a host stall; the
        # host clock takes out a slow phase that covers one pass only
        "trace.overhead_ratio": median(
            with_spans / without
            for (_, with_spans, _), (_, without, _) in zip(executed, bare)
        )
        * bare_slow
        / traced_slow,
        "trace.spans": len(recorder.spans),
        "trace.attributed_ratio": ratio(
            sum(s for layer, s in own.items() if layer != ROOT_LAYER), op_wall
        ),
    }
    metrics.update(probe_layers(workload, workdir / "probe"))
    depth_metrics, probed, probed_wrong = probe_depths(
        workload, workdir / "depth", expected
    )
    metrics.update(depth_metrics)
    wrong = (
        workload.verify(bare, expected)
        + workload.verify(executed, expected)
        + probed_wrong
    )
    return len(bare) + len(executed) + probed, wrong, delta, len(executed), metrics


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, required=True, choices=(0, 1))
    parser.add_argument("--ops", type=int)
    parser.add_argument("--reduced", action="store_true")
    parser.add_argument("--trace-out")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--benchmark-json", type=Path, required=True)
    args = parser.parse_args()

    declared = json.loads(args.benchmark_json.read_text())
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[section]}

    workload = WORKLOADS[args.workload](args.seed, reduced=args.reduced)
    expected = workload.expected_answers()  # the oracle, off the clock
    info = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "valid": not args.reduced and args.ops is None,
        "oplist_sha256": workload.oplist_sha256(),
        "oplist_len": len(workload.ops),
        "sizes": workload.sizes,
        "input_tuples": workload.input_tuples(),
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
    }
    if args.trace:
        ops = args.ops or max(
            1, round(workload.trace_ops * args.seconds / declared["run_seconds"])
        )
        attempted, failed, delta, checked_ops, metrics = traced(
            workload, args.workdir, ops, expected, args.trace_out
        )
        if workload.name == "cold_reduce" and not args.reduced:
            info["paper"] = paper_check(workload.sizes["n"], args.seed)
    else:
        executed, delta, metrics, extra = untraced(
            workload, args.workdir, args.seconds, args.ops
        )
        info.update(extra)
        attempted = checked_ops = len(executed)
        failed = workload.verify(executed, expected)
    violations = workload.structure_violations(delta, checked_ops)
    if set(metrics) != set(units):
        violations.append(
            f"metrics emitted != declared: {sorted(set(metrics) ^ set(units))}"
        )
    info["violations"] = violations
    result = {
        "correct": failed == 0 and not violations,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(value), "unit": units.get(name, "?")}
            for name, value in sorted(metrics.items())
        },
    }
    args.result.write_text(json.dumps({"info": info, "result": result}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
