"""A seconds-long check of the benchmark itself (not of the program).

    python3 benchmarks/e2e/selfcheck.py

Runs every workload at the reduced sizes (results labelled
``"valid": false``) and asserts the contract of ``BENCHMARK.json``:

* the last line of output has exactly ``correct``, ``attempted``,
  ``failed`` and ``metrics``; the metrics are exactly the declared ones,
  each with its declared unit, untraced and traced, for every workload;
* the op list is a pure function of ``--seed`` (``oplist_sha256`` is
  identical across two runs and differs for another seed);
* count-type layer metrics repeat exactly between two runs, and the
  layers' self times account for at least 90% of the traced op time;
* after every command — normal exit, failed command, wall-limit kill,
  SIGTERM — no process started by it is left running or defunct.  This
  script makes itself the sub-reaper, so anything ``run.py`` leaves
  behind is re-parented here and seen by ``waitpid``.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from run import ROOT, become_subreaper

RUN = [sys.executable, str(Path(__file__).resolve().parent / "run.py")]
#: metrics that must repeat exactly between two traced runs of one seed
EXACT = (
    "session.reductions",
    "session.persistent_hits",
    "session.delta_patches",
    "session.invalidations",
    "session.answer_hit_ratio",
    "cache.bytes_on_disk",
    "reduction.output_rows",
    "reduction.disjuncts",
    "engine.disjuncts_evaluated",
    "server.requests",
    "trace.spans",
)


def assert_no_descendants(context: str) -> None:
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    raise AssertionError(f"{context}: left a process behind (waitpid -> {pid})")


def finish(process: subprocess.Popen, context: str) -> tuple[int, list[str]]:
    out, _ = process.communicate(timeout=300)
    assert_no_descendants(context)
    assert not (ROOT / ".bench_tmp").exists(), f"{context}: scratch files left"
    return process.returncode, out.splitlines()


def start(*args: str) -> subprocess.Popen:
    return subprocess.Popen(
        RUN + list(args), stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True
    )


def run_ok(workload: str, seed: int, trace: int, declared: dict) -> tuple[dict, dict]:
    context = f"{workload} seed={seed} trace={trace}"
    code, lines = finish(
        start(
            "--workload", workload, "--seed", str(seed), "--seconds", "1",
            "--trace", str(trace), "--reduced", "--ops", "12",
        ),
        context,
    )
    assert code == 0, f"{context}: exit code {code}"
    info, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, context
    assert result["correct"] is True and result["failed"] == 0, context
    assert result["attempted"] >= 1 and info["valid"] is False, context
    units = {
        m["name"]: m["unit"]
        for m in declared["per_layer" if trace else "end_to_end"]
    }
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == units, f"{context}: {set(emitted) ^ set(units)}"
    return info, {name: m["value"] for name, m in result["metrics"].items()}


def main() -> int:
    become_subreaper()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in declared["workloads"]):
        started = time.monotonic()
        run_ok(workload, 1, 0, declared)
        info_a, first = run_ok(workload, 1, 1, declared)
        info_b, second = run_ok(workload, 1, 1, declared)
        info_c, _ = run_ok(workload, 2, 1, declared)
        assert info_a["oplist_sha256"] == info_b["oplist_sha256"], workload
        assert info_a["oplist_sha256"] != info_c["oplist_sha256"], workload
        for name in EXACT:
            assert first[name] == second[name], (workload, name, first[name], second[name])
        assert first["trace.attributed_ratio"] >= 0.9, (
            workload, first["trace.attributed_ratio"],
        )
        print(f"ok  {workload}  ({time.monotonic() - started:.0f}s)")

    code, lines = finish(
        start("--workload", "no_such", "--seed", "1", "--seconds", "1"), "bad workload"
    )
    assert code not in (0, 1) and not lines, ("failed command", code, lines)
    print("ok  failed command: non-zero exit, no result, nothing left")

    code, lines = finish(
        start(
            "--workload", "serve_hot", "--seed", "1", "--seconds", "60",
            "--reduced", "--wall-limit", "4",
        ),
        "wall limit",
    )
    assert code == 124 and not lines, ("wall limit", code, lines)
    print("ok  wall-limit kill: exit 124, no result, nothing left")

    process = start("--workload", "serve_hot", "--seed", "1", "--seconds", "60", "--reduced")
    time.sleep(4)  # pool and server are up by now
    process.send_signal(signal.SIGTERM)
    code, lines = finish(process, "SIGTERM")
    assert code == 128 + signal.SIGTERM and not lines, ("SIGTERM", code, lines)
    print("ok  SIGTERM: exit 143, no result, nothing left")
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
