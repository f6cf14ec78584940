"""The end-to-end benchmark's binding surface, as a tier-1 fact.

``benchmarks/e2e/`` attributes wall time to layers by rebinding the
names through which ``src/`` *calls* its own public functions
(``tracing.PATCHES``), and ``layers.py`` imports the functions it probes
by name.  Neither file may change with the code it measures, so a
rename under ``src/`` must fail here — not in a later ``--trace 1`` run.
"""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

E2E = Path(__file__).resolve().parent.parent / "benchmarks" / "e2e"


@pytest.fixture(scope="module")
def e2e():
    """``tracing`` and ``layers``, imported read-only off ``sys.path``
    the way ``bench.py`` imports them, and unloaded again afterwards
    (their module names are too generic to leave behind)."""
    before = set(sys.modules)
    sys.path.insert(0, str(E2E))
    try:
        yield importlib.import_module("tracing"), importlib.import_module("layers")
    finally:
        sys.path.remove(str(E2E))
        for name in set(sys.modules) - before:
            origin = getattr(sys.modules[name], "__file__", None) or ""
            if origin.startswith(str(E2E)):
                del sys.modules[name]


def test_every_traced_name_resolves_to_a_callable(e2e):
    tracing, _ = e2e
    assert len(tracing.PATCHES) >= 20
    for layer, name, owner, attribute, _ in tracing.PATCHES:
        assert callable(getattr(owner, attribute, None)), (layer, name)


def test_the_session_calls_through_the_names_rebound_in_its_module(e2e):
    """A span is recorded only if the session looks the function up in
    its own module globals at call time: an import that is no longer
    called (or is called through another module) traces nothing."""
    tracing, _ = e2e
    session_module = tracing.session_module
    called: set[str] = set()
    for _, member in inspect.getmembers(session_module.QuerySession):
        code = getattr(member, "__code__", None)
        if code is not None:
            called.update(code.co_names)
    for layer, name, owner, attribute, _ in tracing.PATCHES:
        if owner is session_module:
            assert attribute in called, (layer, name)


#: The counters ``bench.py`` and ``workloads.py`` read out of a
#: ``Counter`` — where a renamed or dropped key reads as 0, not as an
#: error: the session's, and its cache's under ``cache.``.
SESSION_COUNTERS = (
    "hits",
    "misses",
    "reductions",
    "persistent_hits",
    "delta_patches",
    "invalidations",
    "sql_plan_hits",
)
CACHE_COUNTERS = ("hits", "misses")


def test_every_counter_the_benchmark_reads_is_emitted(tmp_path):
    from repro.core import ReductionCache, SessionStats

    source = "".join(
        (E2E / name).read_text() for name in ("bench.py", "workloads.py")
    )
    emitted = SessionStats().as_dict()
    for name in SESSION_COUNTERS:
        assert f'delta["{name}"]' in source, name
        assert name in emitted, name
    emitted = ReductionCache(tmp_path).stats()
    for name in CACHE_COUNTERS:
        assert f'delta["cache.{name}"]' in source, name
        assert name in emitted, name
