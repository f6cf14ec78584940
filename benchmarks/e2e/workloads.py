"""The four frozen workloads of the end-to-end benchmark.

Every workload is a pure function of ``--seed``: the databases, the op
list and (through the naive oracle) the expected answers.  The sizes
below were calibrated once on the 2-core reference box (see README.md)
and are frozen; ``REDUCED`` is the seconds-long variant ``selfcheck.py``
uses, and its numbers are labelled ``"valid": false``.

A workload owns its *in-process* path (``setup`` / ``run_op`` /
``teardown``); the wire path of ``serve_hot`` lives in ``depths.py``
because the traced run of every workload replays reads at the same
three depths.
"""

from __future__ import annotations

import gc
import hashlib
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import NamedTuple

from depths import Failure, WireService

from repro.core import QuerySession, naive_count, naive_evaluate
from repro.engine import Database
from repro.intervals.interval import Interval
from repro.queries import parse_query
from repro.queries.catalog import (
    cycle_ij,
    figure9e_ij,
    figure9f_ij,
    path_ij,
    star_ij,
    triangle_ij,
)
from repro.queries.query import Query
from repro.service.protocol import query_text
from repro.sql import compile_sql, naive_program
from repro.workloads import isomorphic_variants, random_database

#: ``n`` is tuples per relation.  ``dbs`` lists the ``domain / n`` factor
#: of each database built per query: 4 is dense (thousands of
#: witnesses), 40+ is sparse (mostly ``False`` / zero counts), so both
#: answers occur and are checked.
SIZES = {
    "cold_reduce": {"n": 60, "dbs": (4, 12, 40), "blocks": 12},
    "warm_restart": {"triangle_n": 20, "cycle_n": 12, "blocks": 30},
    "mutate_mix": {"n": 24, "domain": 12, "periods": 20},
    "serve_hot": {"n": 100, "domain": 12, "variants": 8, "blocks": 10},
}
REDUCED = {
    "cold_reduce": {"n": 16, "dbs": (4, 40), "blocks": 2},
    "warm_restart": {"triangle_n": 10, "cycle_n": 8, "blocks": 2},
    "mutate_mix": {"n": 14, "domain": 12, "periods": 1},
    "serve_hot": {"n": 48, "domain": 12, "variants": 3, "blocks": 1},
}


class Op(NamedTuple):
    """One operation of a frozen op list.

    ``read`` indexes :attr:`Workload.reads` (the distinct base reads the
    oracle answers); ``query`` is the — possibly renamed and shuffled —
    query object actually submitted; ``mutation`` is applied to the
    database immediately before the read that must observe it.
    """

    kind: str  # "evaluate" | "count" | "sql"
    db: int
    read: int
    query: Query | None = None
    sql: str | None = None
    mutation: tuple | None = None  # (kind, relation, tuple)
    slot: int = 0  # position in the workload's mutation script

    def cost_class(self) -> tuple:
        """Ops of one class do the same work on statistically the same
        data: same base read at the same point of the mutation script."""
        return (self.read, self.slot)

    def render(self) -> str:
        what = self.sql if self.query is None else query_text(self.query)
        return f"{self.kind}|{self.db}|{what}|{self.mutation!r}"


class Read(NamedTuple):
    """A distinct (kind, database, base query) the oracle answers."""

    kind: str
    db: int
    query: Query | None = None
    sql: str | None = None


def session_counters(session: QuerySession) -> Counter:
    """A session's counters, with its cache's under ``cache.``."""
    counts = Counter(session.stats.as_dict())
    if session.cache is not None:
        counts.update({f"cache.{k}": v for k, v in session.cache.stats().items()})
    return counts


def wrong_answer(answer, truth) -> bool:
    """Exact comparison: ``True`` is not ``1`` and a :class:`Failure`
    equals nothing."""
    return type(answer) is not type(truth) or answer != truth


def delta_of(after: Counter, before: Counter) -> Counter:
    """``after - before`` keeping zero and negative entries."""
    return Counter({name: after[name] - before[name] for name in after})


def overlap_sql(query: Query, head: str) -> str:
    """A SQL program over ``query``'s relations: every variable shared
    by two atoms becomes a chain of pairwise ``OVERLAPS`` predicates
    (columns are named after the base query's variables, as
    :func:`random_database` lays them out)."""
    alias = {atom.label: f"t{i}" for i, atom in enumerate(query.atoms)}
    tables = ", ".join(f"{a.relation} {alias[a.label]}" for a in query.atoms)
    predicates = []
    for v in query.variables:
        atoms = query.atoms_containing(v.name)
        for left, right in zip(atoms, atoms[1:]):
            predicates.append(
                f"{alias[left.label]}.{v.name} OVERLAPS "
                f"{alias[right.label]}.{v.name}"
            )
    return f"SELECT {head} FROM {tables} WHERE {' AND '.join(predicates)}"


def _merged(parts: list[Database]) -> Database:
    db = Database()
    for part in parts:
        for relation in part:
            db.add(relation)
    return db


class Workload:
    """Base: inputs from a seed, an oracle, and the in-process path."""

    name = ""
    #: ops replayed by each pass of a traced run at ``run_seconds``
    trace_ops = 0
    #: closed-loop users of the end-to-end path
    users = 1

    def __init__(self, seed: int, reduced: bool = False):
        self.sizes = (REDUCED if reduced else SIZES)[self.name]
        self.rng = random.Random(f"{self.name}:{seed}")
        self.databases: list[Database] = []
        self.reads: list[Read] = []
        self.ops: list[Op] = []
        self.build()

    # -- inputs --------------------------------------------------------

    def build(self) -> None:
        raise NotImplementedError

    def subseed(self) -> int:
        return self.rng.randrange(1 << 30)

    def extend_shuffled(self, block: list[Op]) -> None:
        """``sizes["blocks"]`` shuffles of ``block``: every block has
        exactly the intended mix, so any prefix of the list has it too."""
        for _ in range(self.sizes["blocks"]):
            self.rng.shuffle(block)
            self.ops.extend(block)

    def add_read(self, kind: str, db: int, query=None, sql=None) -> int:
        self.reads.append(Read(kind, db, query, sql))
        return len(self.reads) - 1

    def oplist_sha256(self) -> str:
        digest = hashlib.sha256()
        for op in self.ops:
            digest.update(op.render().encode())
            digest.update(b"\n")
        return digest.hexdigest()

    def input_tuples(self) -> int:
        return sum(db.size for db in self.databases)

    # -- oracle --------------------------------------------------------

    def answer_read(self, read: Read, db: Database):
        """The naive-search answer of one read (never touches the
        reduction, the kernels or any cache)."""
        if read.kind == "sql":
            return naive_program(compile_sql(read.sql, db), db)
        if read.kind == "count":
            return naive_count(read.query, db)
        return naive_evaluate(read.query, db)

    def expected_answers(self) -> list:
        return [self.answer_read(r, self.databases[r.db]) for r in self.reads]

    def verify(self, executed: list[tuple], expected: list) -> int:
        """Number of executed ``(op, latency, answer)`` whose answer is
        wrong."""
        return sum(
            wrong_answer(answer, expected[op.read]) for op, _, answer in executed
        )

    # -- the in-process path -------------------------------------------

    def setup(self, workdir: Path):
        """Build the serving state (caches pre-populated, warm-up pass
        done).  Timed as ``setup_s``."""
        raise NotImplementedError

    def run_op(self, state, op: Op):
        raise NotImplementedError

    def teardown(self, state) -> None:
        pass

    def counters(self, state) -> Counter:
        """Cumulative session / cache counters of ``state``: the
        long-lived session's, or the tally of the per-op sessions."""
        if state.session is None:
            return Counter(state.tally)
        return session_counters(state.session)

    def structure_violations(self, delta: Counter, ops: int) -> list[str]:
        """What makes the workload mean what it says, checked on the
        counter deltas of the timed pass."""
        return []

    def warm_up(self, state) -> None:
        """Every distinct op once, untimed."""
        for op in dict.fromkeys(self.ops):
            self.run_op(state, op)

    def read_op(self, index: int) -> Op:
        read = self.reads[index]
        return Op(read.kind, read.db, index, read.query, read.sql)

    # -- the end-to-end path (the in-process one unless overridden) ----

    def e2e_setup(self, workdir: Path):
        return self.setup(workdir)

    def e2e_pass(self, state, seconds=None, max_ops=None, first=0):
        return run_pass(self, state, seconds, max_ops, first=first)

    def e2e_counters(self, state) -> Counter:
        return self.counters(state)

    def e2e_teardown(self, state) -> None:
        self.teardown(state)

    def between_ops(self) -> None:
        """Untimed hook after every in-process op."""

    def mix_ops_per_s(self, executed: list[tuple]) -> float:
        """Closed-loop throughput of the frozen mix: ``users`` over the
        mean op latency, where each class of op (same read, same point
        of the mutation script) weighs its share of the *op list* and costs its
        *median* latency.  Unlike ops / wall this does not move when a
        run happens to end mid-cycle or the host stalls for a moment."""
        shares = Counter(op.cost_class() for op in self.ops)
        samples: dict[tuple, list[float]] = {}
        for op, latency, _ in executed:
            samples.setdefault(op.cost_class(), []).append(latency)
        seen = sum(shares[c] for c in samples)
        mean = sum(shares[c] / seen * median(v) for c, v in samples.items())
        return self.users / mean


class FreshSessionWorkload(Workload):
    """Workloads whose every op opens a new session, standing for a new
    process.  A real restart begins with an empty heap, so the cyclic
    garbage of the previous op's session is collected off the clock
    instead of taxing a later op at a random moment."""

    def between_ops(self) -> None:
        gc.collect()


def run_pass(workload, state, seconds=None, max_ops=None, recorder=None, first=0):
    """The in-process closed loop: the op list in order from op
    ``first``, cyclically, for ``seconds`` or exactly ``max_ops`` ops.
    Returns the executed ``(op, latency_s, answer)`` triples."""
    executed = []
    ops = workload.ops
    started = perf_counter()
    while True:
        op = ops[(first + len(executed)) % len(ops)]
        sent = perf_counter()
        try:
            if recorder is None:
                answer = workload.run_op(state, op)
            else:
                with recorder.op(first + len(executed)):
                    answer = workload.run_op(state, op)
        except Exception as error:  # counted as a failed op
            answer = Failure(error)
        now = perf_counter()
        executed.append((op, now - sent, answer))
        workload.between_ops()
        if max_ops is not None:
            if len(executed) >= max_ops:
                break
        elif perf_counter() - started >= seconds:
            break
    return executed


@dataclass
class State:
    tally: Counter = field(default_factory=Counter)
    cache_dir: Path | None = None
    session: QuerySession | None = None


def run_read(session: QuerySession, op: Op):
    if op.kind == "evaluate":
        return session.evaluate(op.query, strategy="reduction")
    if op.kind == "count":
        return session.count(op.query)
    return session.sql(op.sql)


class ColdReduce(FreshSessionWorkload):
    name = "cold_reduce"
    trace_ops = 60

    def build(self) -> None:
        # (query, copies per block): star3 ops are 40% of the list and
        # the slowest query, fig9e, 20%, so the median op is a star3
        # reduction and the 90th percentile a fig9e one for every seed —
        # with equal shares both percentiles would sit on the boundary
        # between two queries and jump with the data
        queries = [
            (figure9f_ij(), 1),
            (path_ij(3), 1),
            (star_ij(3), 2),
            (figure9e_ij(), 1),
        ]
        n = self.sizes["n"]
        block = []
        for query, copies in queries:
            for factor in self.sizes["dbs"]:
                self.databases.append(
                    random_database(
                        query, n, seed=self.subseed(), domain=float(factor * n)
                    )
                )
                db = len(self.databases) - 1
                for kind in ("evaluate", "count"):
                    read = self.add_read(kind, db, query)
                    block.extend([Op(kind, db, read, query)] * copies)
        self.extend_shuffled(block)

    def setup(self, workdir: Path) -> State:
        state = State()
        self.warm_up(state)
        return state

    def run_op(self, state: State, op: Op):
        session = QuerySession(self.databases[op.db])
        answer = run_read(session, op)
        state.tally.update(session_counters(session))
        return answer

    def structure_violations(self, delta: Counter, ops: int) -> list[str]:
        if delta["reductions"] != ops:
            return [f"expected one reduction per op, got {delta['reductions']}/{ops}"]
        return []


class WarmRestart(FreshSessionWorkload):
    name = "warm_restart"
    trace_ops = 80

    #: (kind, query, domain / n) -> copies per block of 20 ops: 80%
    #: evaluate / 20% count.  A dense database (factor 4) answers
    #: ``True`` at an early disjunct (fast, data-dependent); a sparse
    #: one (200) answers ``False`` after every disjunct (slow, steady);
    #: counts always visit every disjunct and run on a medium density
    #: (8), where their cost varies least from seed to seed.
    #: The shares put the median in the middle of the sparse-triangle
    #: evaluate mode (percentiles 30-80) and the 90th percentile in the
    #: middle of the triangle count mode (80-100) on every seed; with
    #: even shares both would sit between two modes and jump with the data.
    MIX = {
        ("evaluate", "triangle", 4): 3,
        ("evaluate", "cycle4", 4): 3,
        ("evaluate", "triangle", 200): 10,
        ("count", "triangle", 8): 4,
    }

    def build(self) -> None:
        shapes = {
            "triangle": (triangle_ij(), self.sizes["triangle_n"]),
            "cycle4": (cycle_ij(4), self.sizes["cycle_n"]),
        }
        db_of = {}
        for _, shape, factor in self.MIX:
            query, n = shapes[shape]
            self.databases.append(
                random_database(
                    query, n, seed=self.subseed(), domain=float(factor * n)
                )
            )
            db_of[shape, factor] = len(self.databases) - 1
        block = []
        for (kind, shape, factor), copies in self.MIX.items():
            query, db = shapes[shape][0], db_of[shape, factor]
            op = Op(kind, db, self.add_read(kind, db, query), query)
            block.extend([op] * copies)
        self.extend_shuffled(block)

    def setup(self, workdir: Path) -> State:
        state = State(cache_dir=workdir / "cache")
        for index, read in enumerate(self.reads):
            session = QuerySession(
                self.databases[read.db], cache_dir=state.cache_dir
            )
            run_read(session, self.read_op(index))
        self.warm_up(state)
        state.tally.clear()  # pre-population reduced; the passes must not
        return state

    def run_op(self, state: State, op: Op):
        session = QuerySession(self.databases[op.db], cache_dir=state.cache_dir)
        answer = run_read(session, op)
        state.tally.update(session_counters(session))
        return answer

    def structure_violations(self, delta: Counter, ops: int) -> list[str]:
        problems = []
        if delta["reductions"] != 0:
            problems.append(f"reductions == {delta['reductions']}, expected 0")
        if delta["persistent_hits"] != ops:
            problems.append(
                f"persistent_hits == {delta['persistent_hits']}, expected {ops}"
            )
        return problems


class MutateMix(Workload):
    name = "mutate_mix"
    trace_ops = 100

    #: One period of the mutation script of one query: 5 groups of
    #: [insert with new endpoints (-> ``DomainChanged`` rebuild), 2
    #: inserts recombining the columns of original tuples (every
    #: endpoint already in the segment trees -> ``apply_delta`` patch),
    #: 3 deletes of the group's inserts], so 1/3 of the inserts bring
    #: new endpoints and the database is back at its start after every
    #: period.  ``COUNT_SLOTS`` are the 6 of 30 reads (20%) that count.
    #: The script and the relation each insert goes to (round-robin)
    #: are fixed and only the tuples come from the seed, because what a
    #: patch costs depends on the relation and on what happened since
    #: the last rebuild: a random order would make runs incomparable.
    GROUP = ("new", "old", "old", "delete", "delete", "delete")
    GROUPS = 5
    COUNT_SLOTS = frozenset({2, 9, 16, 23, 24, 29})
    #: whose turn it is (index into the two queries): path3 gets two ops
    #: in three, so the median op is a path3 patch and the 90th
    #: percentile a fig9e one whatever the data
    TURNS = (1, 1, 0)

    def build(self) -> None:
        n, factor = self.sizes["n"], self.sizes["domain"]
        queries = [figure9e_ij(), path_ij(3)]  # disjoint relation names
        domain = float(factor * n)
        self.databases.append(
            _merged(
                [
                    random_database(q, n, seed=self.subseed(), domain=domain)
                    for q in queries
                ]
            )
        )
        db = self.databases[0]
        reads = {
            (kind, i): self.add_read(kind, 0, q)
            for i, q in enumerate(queries)
            for kind in ("evaluate", "count")
        }
        original = {r.name: sorted(r.tuples, key=repr) for r in db}
        present = {r.name: set(r.tuples) for r in db}
        period = len(self.GROUP) * self.GROUPS
        live: list[list[tuple[str, tuple]]] = [[] for _ in queries]
        done = [0] * len(queries)  # ops so far, per query
        inserts = [0] * len(queries)
        for index in range(self.sizes["periods"] * period * len(self.TURNS)):
            which = self.TURNS[index % len(self.TURNS)]
            slot = done[which] % period
            done[which] += 1
            step = self.GROUP[slot % len(self.GROUP)]
            if step == "delete":
                relation, t = live[which].pop(0)
                present[relation].discard(t)
                mutation = ("delete", relation, t)
            else:
                names = sorted(queries[which].relations)
                relation = names[inserts[which] % len(names)]
                inserts[which] += 1
                t = self._fresh_tuple(
                    step, original[relation], present[relation], domain
                )
                present[relation].add(t)
                live[which].append((relation, t))
                mutation = ("insert", relation, t)
            kind = "count" if slot in self.COUNT_SLOTS else "evaluate"
            self.ops.append(
                Op(kind, 0, reads[kind, which], queries[which], None, mutation, slot)
            )

    def _fresh_tuple(self, step: str, originals: list, present: set, domain: float):
        while True:
            if step == "old":
                a, b = self.rng.sample(originals, 2)
                t = (a[0],) + b[1:]
            else:
                t = tuple(
                    Interval(left, left + self.rng.expovariate(0.1))
                    for left in (
                        self.rng.uniform(0.0, domain) for _ in originals[0]
                    )
                )
            if t not in present:
                return t

    def setup(self, workdir: Path) -> State:
        db = self.databases[0].clone()
        session = QuerySession(db, cache_dir=workdir / "cache")
        state = State(cache_dir=workdir / "cache", session=session)
        for index in range(len(self.reads)):
            run_read(session, self.read_op(index))
        return state

    def run_op(self, state: State, op: Op):
        kind, relation, t = op.mutation
        db = state.session.db
        (db.insert if kind == "insert" else db.delete)(relation, t)
        return run_read(state.session, op)

    def verify(self, executed: list[tuple], expected: list) -> int:
        """Replay the mutations on a snapshot copy and re-derive every
        read with the naive search (cheap at this size)."""
        db = self.databases[0].clone()
        wrong = 0
        for op, _, answer in executed:
            kind, relation, t = op.mutation
            (db.insert if kind == "insert" else db.delete)(relation, t)
            wrong += wrong_answer(answer, self.answer_read(self.reads[op.read], db))
        return wrong

    def structure_violations(self, delta: Counter, ops: int) -> list[str]:
        problems = []
        if delta["delta_patches"] <= 0:
            problems.append("no apply_delta patch happened")
        if delta["reductions"] <= 0:
            problems.append("no post-mutation rebuild happened")
        if delta["invalidations"] != ops:
            problems.append(
                f"{delta['invalidations']} invalidations for {ops} mutations"
            )
        return problems


class ServeHot(Workload):
    name = "serve_hot"
    trace_ops = 600
    #: one request outstanding each: the box has 2 cores, and the worker
    #: process needs one of them
    users = 2

    def build(self) -> None:
        n, factor = self.sizes["n"], self.sizes["domain"]
        bases = [
            parse_query("Ea([A],[B]) ∧ Eb([A],[C]) ∧ Ec([C],[D]) ∧ Ed([C],[E])"),
            parse_query("Pa([X0],[X1]) ∧ Pb([X1],[X2]) ∧ Pc([X2],[X3])"),
            parse_query("Sa([X],[Y1]) ∧ Sb([X],[Y2]) ∧ Sc([X],[Y3])"),
        ]
        self.databases.append(
            _merged(
                [
                    random_database(
                        q, n, seed=self.subseed(), domain=float(factor * n)
                    )
                    for q in bases
                ]
            )
        )
        by_kind: dict[str, list[Op]] = {"evaluate": [], "count": [], "sql": []}
        for base in bases:
            variants = isomorphic_variants(
                base, self.sizes["variants"], seed=self.subseed()
            )
            for kind in ("evaluate", "count"):
                read = self.add_read(kind, 0, base)
                by_kind[kind].extend(Op(kind, 0, read, v) for v in variants)
            for head in ("EXISTS", "COUNT(*)"):
                text = overlap_sql(base, head)
                by_kind["sql"].append(
                    Op("sql", 0, self.add_read("sql", 0, sql=text), sql=text)
                )
        # 50% evaluate / 20% count / 30% sql in every block of 60
        for _ in range(self.sizes["blocks"]):
            block = [
                op
                for kind, copies in (("evaluate", 30), ("count", 12), ("sql", 18))
                for op in self.rng.choices(by_kind[kind], k=copies)
            ]
            self.rng.shuffle(block)
            self.ops.extend(block)

    # the in-process depth (traced passes and the depth probe); the wire
    # depth that the untraced run measures is depths.WireService

    def setup(self, workdir: Path) -> State:
        session = QuerySession(self.databases[0], cache_dir=workdir / "cache")
        state = State(cache_dir=workdir / "cache", session=session)
        self.warm_up(state)
        return state

    def run_op(self, state: State, op: Op):
        return run_read(state.session, op)

    def structure_violations(self, delta: Counter, ops: int) -> list[str]:
        problems = []
        if delta["misses"] != 0 or delta["hits"] < ops:
            problems.append(
                f"not every request was an answer-cache hit: "
                f"hits={delta['hits']} misses={delta['misses']} ops={ops}"
            )
        for name in ("server.errors", "server.overload_rejections"):
            if delta[name]:
                problems.append(f"{name} == {delta[name]}")
        return problems

    # the wire depth: what the untraced run measures

    def e2e_setup(self, workdir: Path) -> WireService:
        service = WireService(self.databases[0], workdir / "cache")
        try:
            distinct = list(dict.fromkeys(self.ops))
            service.drive(distinct, connections=1, max_ops=len(distinct))
        except BaseException:
            service.close()
            raise
        return service

    def e2e_pass(self, service: WireService, seconds=None, max_ops=None, first=0):
        return service.drive(self.ops, self.users, seconds, max_ops, first)

    def e2e_counters(self, service: WireService) -> Counter:
        counters = Counter(service.worker_counters())
        counters.update(
            {f"server.{k}": v for k, v in service.server.counters.items()}
        )
        return counters

    def e2e_teardown(self, service: WireService) -> None:
        service.close()


WORKLOADS = {w.name: w for w in (ColdReduce, WarmRestart, MutateMix, ServeHot)}
