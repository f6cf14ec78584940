"""Spans recorded from the benchmark's own files.

Nothing under ``src/`` knows about tracing.  For the traced pass the
names through which each layer's public functions are *called* are
rebound to wrappers (``installed``), and restored afterwards; a span is
``(layer, name, start, end, parent, op)``, kept in memory and written
out at the end (``--trace-out``).  A layer's self time is its spans'
durations minus the part their child spans cover, so the self times of
all layers add up to the wall time of the traced ops.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import repro.core.disjunct_eval as disjunct_eval
import repro.core.reduction_cache as reduction_cache
import repro.core.session as session_module
import repro.sql as sql_package
import repro.sql.cost as sql_cost
from repro.core import QuerySession
from repro.core.reduction_cache import ReductionCache
from repro.reduction.forward import DomainChanged, ForwardReductionResult

ROOT_LAYER = "op"


class Recorder:
    """In-memory span store with a parent stack."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [layer, name, start, end, parent, op]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op: int | None = None

    def begin(self, layer: str, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([layer, name, perf_counter(), None, parent, self._op])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, index: int) -> None:
        self.spans[index][3] = perf_counter()
        self._stack.pop()

    @contextmanager
    def op(self, op_id: int):
        """The root span of one benchmark op."""
        self._op = op_id
        index = self.begin(ROOT_LAYER, "op")
        try:
            yield
        finally:
            self.end(index)
            self._op = None

    def self_seconds(self) -> Counter:
        """Self time summed per layer."""
        own = [end - start for _, _, start, end, _, _ in self.spans]
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        totals: Counter = Counter()
        for span, seconds in zip(self.spans, own):
            totals[span[0]] += seconds
        return totals

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for layer, name, start, end, parent, op in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "layer": layer,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "op": op,
                        }
                    )
                    + "\n"
                )


def _note_reduction(counts: Counter, args, result) -> None:
    query, db = args[0], args[1]
    counts["reduction.calls"] += 1
    counts["reduction.output_rows"] += result.database.size
    counts["reduction.input_tuples"] += sum(
        len(db[name]) for name in query.relations
    )
    counts["reduction.disjuncts"] += len(result.encoded_queries)


#: (layer, span name, owner, attribute, count hook).  The owner is the
#: namespace the *caller* resolves the name in — ``session.py`` imported
#: ``forward_reduce`` into its own globals, so that is where it is rebound.
PATCHES = [
    ("session", "QuerySession.__init__", QuerySession, "__init__", None),
    ("session", "QuerySession.evaluate", QuerySession, "evaluate", None),
    ("session", "QuerySession.count", QuerySession, "count", None),
    ("session", "QuerySession.sql", QuerySession, "sql", None),
    ("session", "canonical_form", session_module, "canonical_form", None),
    ("sql", "compile_sql", sql_package, "compile_sql", None),
    ("sql", "run_program", sql_package, "run_program", None),
    ("sql", "plan_disjunct", sql_cost, "plan_disjunct", None),
    ("cache", "database_digests", session_module, "database_digests", None),
    ("cache", "ReductionCache.get", ReductionCache, "get", None),
    ("cache", "ReductionCache.put", ReductionCache, "put", None),
    ("cache", "serialize_result", reduction_cache, "serialize_result", None),
    ("cache", "load_result", reduction_cache, "load_result", None),
    ("reduction", "forward_reduce", session_module, "forward_reduce", _note_reduction),
    ("reduction", "shift_distinct_left", session_module, "shift_distinct_left", None),
    ("reduction", "apply_delta", ForwardReductionResult, "apply_delta", None),
    ("engine", "evaluate_disjunction", session_module, "evaluate_disjunction", None),
    ("engine", "count_disjunction", session_module, "count_disjunction", None),
    ("engine", "evaluate_ej", disjunct_eval, "evaluate_ej", None),
    ("engine", "count_ej", disjunct_eval, "count_ej", None),
]


def _traced(recorder: Recorder, layer: str, name: str, fn, note):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = recorder.begin(layer, name)
        try:
            result = fn(*args, **kwargs)
        except DomainChanged:
            recorder.counts["reduction.domain_changed"] += 1
            raise
        finally:
            recorder.end(index)
        if note is not None:
            note(recorder.counts, args, result)
        return result

    return wrapper


@contextmanager
def installed(recorder: Recorder):
    """Rebind every name in :data:`PATCHES` to a span wrapper for the
    duration of the block."""
    originals = []
    try:
        for layer, name, owner, attribute, note in PATCHES:
            fn = getattr(owner, attribute)
            originals.append((owner, attribute, fn))
            setattr(owner, attribute, _traced(recorder, layer, name, fn, note))
        yield recorder
    finally:
        for owner, attribute, fn in reversed(originals):
            setattr(owner, attribute, fn)
