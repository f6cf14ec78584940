"""CI pipeline sanity: the workflow file must stay parseable and keep
its jobs (tests / fuzz / lint / bench smoke / service smoke / router
smoke / distributed smoke / coverage gate / e2e smoke), and the
packaging metadata must stay consistent with it."""

import json
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
WORKFLOW = REPO / ".github" / "workflows" / "ci.yml"
PYPROJECT = REPO / "pyproject.toml"


@pytest.fixture(scope="module")
def workflow():
    yaml = pytest.importorskip("yaml")
    with WORKFLOW.open() as handle:
        return yaml.safe_load(handle)


class TestWorkflow:
    def test_file_exists(self):
        assert WORKFLOW.is_file()

    def test_parses_and_has_trigger(self, workflow):
        assert isinstance(workflow, dict)
        # YAML 1.1 parses the `on:` key as the boolean True
        trigger = workflow.get("on", workflow.get(True))
        assert trigger is not None
        assert "pull_request" in trigger and "push" in trigger

    def test_jobs_present(self, workflow):
        jobs = workflow["jobs"]
        assert {
            "tests", "fuzz", "lint", "bench-smoke", "service-smoke",
            "e2e-smoke", "router-smoke", "distributed-smoke", "coverage",
        } <= set(jobs)

    def test_tests_job_matrix_covers_310_to_313(self, workflow):
        matrix = workflow["jobs"]["tests"]["strategy"]["matrix"]
        assert matrix["python-version"] == ["3.10", "3.11", "3.12", "3.13"]

    def test_tests_job_installs_package_and_runs_pytest(self, workflow):
        steps = workflow["jobs"]["tests"]["steps"]
        runs = " ".join(step.get("run", "") for step in steps)
        assert 'pip install -e ".[dev]"' in runs
        # the suite's wall time is a row worth watching, and so is the
        # line count of src/ printed right after it
        (tier1,) = [s["run"] for s in steps if "--durations=15" in s.get("run", "")]
        assert "pytest -x -q --durations=15" in tier1
        assert "find src -name '*.py'" in tier1 and "wc -l" in tier1

    def test_sql_smoke_reaches_the_ej_rule(self, workflow):
        """Binary joins are planned ``naive`` / ``sweep``; only a cyclic,
        reduction-planned statement consults ``engine.ej.plan_ej`` — one
        per head, the count checked against the naive oracle."""
        steps = workflow["jobs"]["tests"]["steps"]
        (smoke,) = [s["run"] for s in steps if s.get("name", "").startswith("sql-smoke")]
        smoke = " ".join(smoke.replace("\\\n", " ").split())
        triangle = (
            "FROM R r, S s, T t WHERE r.a OVERLAPS t.a "
            "AND r.b OVERLAPS s.b AND s.c OVERLAPS t.c"
        )
        assert f'"SELECT COUNT(*) {triangle}" --n 40 --seed 3 --check' in smoke
        assert f'"SELECT EXISTS {triangle}" --n 40 --explain' in smoke

    def test_fuzz_job_covers_seed_matrix(self, workflow):
        """Acceptance criterion: 3 seeds x py3.10/3.12, steered through
        REPRO_FUZZ_SEED into the differential suite."""
        job = workflow["jobs"]["fuzz"]
        matrix = job["strategy"]["matrix"]
        assert matrix["python-version"] == ["3.10", "3.12"]
        assert matrix["seed"] == [1, 2, 3]
        run_steps = [step for step in job["steps"] if "run" in step]
        fuzz_steps = [
            step
            for step in run_steps
            if "tests/test_differential_cache.py" in step["run"]
        ]
        assert len(fuzz_steps) == 1
        assert "REPRO_FUZZ_SEED" in fuzz_steps[0].get("env", {})
        # the explicit file list: the cache fuzz, the array-native
        # delta-patch differentials, the columnar bag-kernel
        # differentials, the point-only / wide-key / big-count
        # regressions, the column-encoding differential and the delta-
        # frame chain ≡ live ≡ naive scripts all ride the same matrix
        assert [
            word for word in fuzz_steps[0]["run"].split() if word.startswith("tests/")
        ] == [
            "tests/test_differential_cache.py",
            "tests/test_delta_maintenance.py",
            "tests/test_columnar_bags.py",
            "tests/test_one_engine.py",
            "tests/test_column_encodings.py",
            "tests/test_delta_frames.py",
        ]

    def test_lint_job_runs_ruff(self, workflow):
        steps = workflow["jobs"]["lint"]["steps"]
        runs = " ".join(step.get("run", "") for step in steps)
        assert "ruff check" in runs

    def test_bench_smoke_runs_every_benchmark_quick(self, workflow):
        steps = workflow["jobs"]["bench-smoke"]["steps"]
        runs = " ".join(step.get("run", "") for step in steps)
        assert "benchmarks/bench_*.py" in runs
        assert "--quick" in runs
        # the factored encoding is an ablation: its reducer lives beside
        # the two benches that compare it with the product's encoding,
        # under a name the glob does not collect
        benchmarks = REPO / "benchmarks"
        assert (benchmarks / "factored_encoding.py").is_file()
        for bench in ("bench_encoding_ablation.py", "bench_counting.py"):
            source = (benchmarks / bench).read_text()
            assert "from factored_encoding import" in source, bench
            assert "repro.reduction.factored" not in source, bench

    def test_bench_smoke_uploads_json_results(self, workflow):
        steps = workflow["jobs"]["bench-smoke"]["steps"]
        uploads = [
            step
            for step in steps
            if str(step.get("uses", "")).startswith(
                "actions/upload-artifact@"
            )
        ]
        assert uploads
        assert "benchmarks/results" in uploads[0]["with"]["path"]

    def test_service_smoke_runs_suite_and_uploads_artifact(self, workflow):
        """Satellite: CI runs the service differential smoke (server +
        2 workers + mixed requests, asserted in tests/test_service.py),
        a --quick throughput bench, and uploads the JSON artifact."""
        steps = workflow["jobs"]["service-smoke"]["steps"]
        runs = " ".join(step.get("run", "") for step in steps)
        assert "tests/test_service.py" in runs
        assert "benchmarks/bench_service_throughput.py --quick" in runs
        uploads = [
            step
            for step in steps
            if str(step.get("uses", "")).startswith("actions/upload-artifact@")
        ]
        assert uploads
        assert (
            "benchmarks/results/service_throughput.json"
            in uploads[0]["with"]["path"]
        )

    def test_e2e_smoke_runs_all_four_workloads_as_a_correctness_gate(
        self, workflow
    ):
        """The only judge of speed is BENCHMARK.json's alternating
        pairs; CI runs its four workloads once at reduced size for the
        non-zero exit on a wrong answer or structural violation, and
        uploads the result lines.  No timing gate, no baseline file."""
        steps = workflow["jobs"]["e2e-smoke"]["steps"]
        runs = " ".join(str(step.get("run", "")) for step in steps)
        assert (
            'python3 benchmarks/e2e/run.py --workload "$w" --seed 1 '
            "--seconds 2 --reduced --trace 0"
        ) in runs
        declared = json.loads((REPO / "BENCHMARK.json").read_text())
        for workload in declared["workloads"]:
            assert workload["name"] in runs
        assert "|| status=1" in runs and 'exit "$status"' in runs
        uploads = [
            step
            for step in steps
            if str(step.get("uses", "")).startswith("actions/upload-artifact@")
        ]
        assert uploads
        assert "e2e-smoke.jsonl" in uploads[0]["with"]["path"]
        # ... and once more traced, so every name tracing.py rebinds and
        # layers.py probes is exercised, not just resolved
        # (tests/test_benchmark_bindings.py)
        assert (
            'python3 benchmarks/e2e/run.py --workload "$w" --seed 1 '
            "--seconds 2 --reduced --trace 1"
        ) in runs
        assert (REPO / "tests" / "test_benchmark_bindings.py").is_file()
        all_runs = " ".join(
            str(step.get("run", ""))
            for job in workflow["jobs"].values()
            for step in job["steps"]
        )
        assert "check_perf_regression" not in all_runs
        assert not (REPO / "benchmarks" / "baselines").exists()

    def test_router_smoke_is_a_matrix_with_differential_suite_and_artifact(
        self, workflow
    ):
        """Satellite: the router-smoke job proves the sharded tier on a
        CI matrix — 2-shard ring, two tenants, mixed loadgen traffic
        differentially checked, one shard killed (all asserted inside
        tests/test_router.py) — and uploads the loadgen JSON report."""
        job = workflow["jobs"]["router-smoke"]
        versions = job["strategy"]["matrix"]["python-version"]
        assert len(versions) >= 2  # more than one interpreter proves it
        runs = " ".join(step.get("run", "") for step in job["steps"])
        assert "tests/test_router.py" in runs
        # test_protocol.py carries the structural guard that keeps the
        # `if op == "..."` chains from growing back, so this job must
        # keep running it
        assert "tests/test_protocol.py" in runs
        assert (
            "def test_no_dispatcher_compares_an_op_against_a_verb_literal"
            in (REPO / "tests" / "test_protocol.py").read_text()
        )
        # local and remote shards share every admin path, so the matrix
        # also runs test_remote.py's process-free remote-mode classes
        (remote,) = [
            step["run"]
            for step in job["steps"]
            if "tests/test_remote.py" in step.get("run", "")
        ]
        process_free = (
            "TestRemoteRouterEdges",
            "TestClientDirectRouting",
            "TestShardConnection",
            "TestRemoteShardPoolExactlyOnce",
            "TestDetachRaceRegression",
            "TestRemoteReload",
        )
        selected = remote.split(" -k ", 1)[1].strip().strip('"').split(" or ")
        assert sorted(" ".join(selected).split()) == sorted(process_free)
        source = (REPO / "tests" / "test_remote.py").read_text()
        for name in process_free:
            assert f"class {name}" in source
        assert "TestDistributedSmoke" not in remote
        uploads = [
            step
            for step in job["steps"]
            if str(step.get("uses", "")).startswith("actions/upload-artifact@")
        ]
        assert uploads
        assert (
            "benchmarks/results/router_smoke.json"
            in uploads[0]["with"]["path"]
        )

    def test_distributed_smoke_runs_remote_suite_and_uploads_report(
        self, workflow
    ):
        """Satellite: the distributed-smoke job spawns real shard OS
        processes with per-node cache directories, drives differential
        loadgen traffic with a mid-run shard kill and a warm join (all
        asserted inside tests/test_remote.py), and uploads the JSON
        report."""
        job = workflow["jobs"]["distributed-smoke"]
        runs = " ".join(step.get("run", "") for step in job["steps"])
        assert "tests/test_remote.py" in runs
        uploads = [
            step
            for step in job["steps"]
            if str(step.get("uses", "")).startswith("actions/upload-artifact@")
        ]
        assert uploads
        assert (
            "benchmarks/results/distributed_smoke.json"
            in uploads[0]["with"]["path"]
        )

    def test_coverage_job_enforces_a_committed_floor(self, workflow):
        """Satellite: tier-1 runs under coverage, a committed
        ``--fail-under`` floor gates the build, and the HTML report is
        uploaded as an artifact."""
        job = workflow["jobs"]["coverage"]
        runs = " ".join(step.get("run", "") for step in job["steps"])
        assert "coverage run -m pytest" in runs
        floors = [int(m) for m in re.findall(r"--fail-under=(\d+)", runs)]
        assert len(floors) == 1
        assert 50 <= floors[0] <= 99  # a committed, non-vacuous floor
        assert "coverage html" in runs
        uploads = [
            step
            for step in job["steps"]
            if str(step.get("uses", "")).startswith("actions/upload-artifact@")
        ]
        assert uploads
        assert "htmlcov" in uploads[0]["with"]["path"]

    def test_every_job_checks_out_and_sets_up_python(self, workflow):
        for name, job in workflow["jobs"].items():
            uses = [step.get("uses", "") for step in job["steps"]]
            assert any(u.startswith("actions/checkout@") for u in uses), name
            assert any(
                u.startswith("actions/setup-python@") for u in uses
            ), name

    def test_every_setup_python_step_caches_pip(self, workflow):
        """Satellite: every job restores the pip cache (keyed on
        pyproject.toml) instead of re-downloading the toolchain."""
        for name, job in workflow["jobs"].items():
            setups = [
                step
                for step in job["steps"]
                if str(step.get("uses", "")).startswith(
                    "actions/setup-python@"
                )
            ]
            assert setups, name
            for step in setups:
                assert step["with"].get("cache") == "pip", name
                assert (
                    step["with"].get("cache-dependency-path")
                    == "pyproject.toml"
                ), name


class TestPyproject:
    def test_parses_with_required_sections(self):
        tomllib = pytest.importorskip("tomllib")  # stdlib from 3.11
        with PYPROJECT.open("rb") as handle:
            data = tomllib.load(handle)
        assert data["project"]["name"] == "repro-intersection-joins"
        assert data["project"]["requires-python"] == ">=3.10"
        dev = data["project"]["optional-dependencies"]["dev"]
        assert any(d.startswith("pytest") for d in dev)
        assert any(d.startswith("ruff") for d in dev)
        assert any(d.startswith("coverage") for d in dev)
        assert data["tool"]["setuptools"]["packages"]["find"]["where"] == [
            "src"
        ]
        # the coverage job measures the installed package, not the repo
        assert data["tool"]["coverage"]["run"]["source"] == ["repro"]
        # one version: the package's, which the build reads
        import repro

        assert "version" not in data["project"]
        assert data["project"]["dynamic"] == ["version"]
        assert data["tool"]["setuptools"]["dynamic"]["version"] == {
            "attr": "repro.__version__"
        }
        assert repro.__version__ == "1.1.0"

    def test_every_third_party_import_under_tests_is_declared(self):
        """``pip install -e ".[dev]"`` followed by ``pytest`` must be
        able to *collect* on a clean runner: every module imported
        under ``tests/`` is stdlib, first-party, or a declared
        dependency (regression: ``hypothesis`` was not)."""
        import ast
        import sys

        tomllib = pytest.importorskip("tomllib")
        with PYPROJECT.open("rb") as handle:
            project = tomllib.load(handle)["project"]
        declared = {
            re.split(r"[<>=!~ \[;]", requirement, maxsplit=1)[0].lower()
            for requirement in project["dependencies"]
            + project["optional-dependencies"]["dev"]
        }
        distribution = {"yaml": "pyyaml"}  # import name -> project name
        tests = REPO / "tests"
        first_party = {"repro"} | {
            path.stem if path.is_file() else path.name
            for path in tests.iterdir()
        }
        undeclared = set()
        for path in tests.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    modules = [node.module]
                else:
                    continue
                for module in modules:
                    top = module.split(".")[0]
                    if top in sys.stdlib_module_names or top in first_party:
                        continue
                    if distribution.get(top, top).lower() not in declared:
                        undeclared.add((top, path.name))
        assert undeclared == set()

    def test_setup_py_is_gone(self):
        assert not (REPO / "setup.py").exists()


class TestRepoHygiene:
    def test_no_bytecode_artifacts_are_tracked(self):
        """Compiled bytecode must never be committed: a stale tracked
        ``.pyc`` shadows source edits in subtle ways, and ``__pycache__``
        directories bloat every checkout."""
        import subprocess

        listing = subprocess.run(
            ["git", "ls-files"],
            cwd=REPO,
            capture_output=True,
            text=True,
        )
        if listing.returncode != 0:  # not a git checkout (e.g. sdist)
            pytest.skip("git ls-files unavailable")
        offenders = [
            path
            for path in listing.stdout.splitlines()
            if path.endswith(".pyc") or "__pycache__" in path
        ]
        assert offenders == []

    def test_gitignore_covers_bytecode(self):
        ignore = (REPO / ".gitignore").read_text()
        assert "__pycache__" in ignore
