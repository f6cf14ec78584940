"""The benchmark command: a supervisor that leaves no process behind.

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

runs one workload in a fresh interpreter (``bench.py``), so process-global
memos start empty and numbers do not depend on run order, and prints the
result as the last line of standard output:

    {"correct": true, "attempted": 172, "failed": 0, "metrics": {...}}

Why a supervisor: any use of ``WorkerPool`` (``spawn``) starts a
``multiprocessing.resource_tracker`` child that outlives ``pool.close()``;
when the benchmark process exits it is orphaned and lingers.  This process
makes itself the sub-reaper of its descendants, runs the benchmark in its own
session, and after it ends reaps every orphan, kills the group on a wall
limit or on SIGTERM/SIGINT, and fails the run if any process of that group
is still in ``/proc``.  All scratch files live under ``.bench_tmp/`` in the
checkout and are removed before exit.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WALL_LIMIT_S = 170.0
REAP_LIMIT_S = 10.0
PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> None:
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    libc.prctl.restype = ctypes.c_int
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")


def group_members(pgid: int) -> list[int]:
    """Pids in ``/proc`` whose process group is ``pgid`` (zombies too)."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue  # exited while we looked
        # the command name may contain spaces; fields resume after ")"
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[2]) == pgid:
            members.append(int(entry))
    return members


def kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def reap_all(pgid: int) -> None:
    """Wait for every child, adopted orphans included; past the limit,
    kill what is left of the group and keep reaping."""
    deadline = time.monotonic() + REAP_LIMIT_S
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            if time.monotonic() > deadline:
                kill_group(pgid)
                deadline = float("inf")
            time.sleep(0.005)


def supervise(command: list[str], env: dict, limit_s: float) -> int:
    """Run ``command`` in its own session; return its exit code once it
    and all its descendants are gone (125 if any survived it)."""
    child = subprocess.Popen(
        command, env=env, stdout=sys.stderr, start_new_session=True
    )

    def on_signal(signum, _frame):
        kill_group(child.pid)
        raise SystemExit(128 + signum)

    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, on_signal)
    try:
        try:
            code = child.wait(timeout=limit_s)
        except subprocess.TimeoutExpired:
            print(f"wall limit of {limit_s:.0f}s exceeded", file=sys.stderr)
            kill_group(child.pid)
            child.wait()
            code = 124
    finally:
        reap_all(child.pid)
    survivors = group_members(child.pid)
    if survivors:
        print(f"processes left behind: {survivors}", file=sys.stderr)
        kill_group(child.pid)
        reap_all(child.pid)
        return 125
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, help="exactly N ops instead of --seconds")
    parser.add_argument(
        "--reduced", action="store_true", help="selfcheck sizes (numbers not valid)"
    )
    parser.add_argument("--trace-out", help="write the spans here (JSON lines)")
    parser.add_argument("--wall-limit", type=float, default=WALL_LIMIT_S)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark under {ROOT / 'src'}", file=sys.stderr)
        return 2
    become_subreaper()

    workdir = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    result_path = workdir / "result.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(workdir)
    command = [
        sys.executable,
        str(HERE / "bench.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--workdir", str(workdir),
        "--result", str(result_path),
        "--benchmark-json", str(ROOT / "BENCHMARK.json"),
    ]
    if args.ops is not None:
        command += ["--ops", str(args.ops)]
    if args.reduced:
        command.append("--reduced")
    if args.trace_out:
        command += ["--trace-out", os.path.abspath(args.trace_out)]
    try:
        code = supervise(command, env, args.wall_limit)
        payload = (
            json.loads(result_path.read_text()) if result_path.is_file() else None
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run's scratch is still there
    if payload is None or code not in (0, 1):
        return code or 3
    print(json.dumps(payload["info"]))
    print(json.dumps(payload["result"]))
    return code


if __name__ == "__main__":
    sys.exit(main())
