"""The freshness protocol: how a :class:`QuerySession` learns that its
database changed.

There is one protocol — every relation carries a monotone ``version``
that any content mutation advances, and the database logs its own
mutations — so the session compares ``{name: (relation, version)}`` in
O(#relations), patches a changed relation's reductions when the log's
tuple-level deltas account for its whole version gap, and rebuilds them
otherwise.  Two pins:

* a Hypothesis state machine drives every mutation channel (the logged
  API, direct ``.tuples`` mutation in all its spellings, a second
  ``Database`` sharing the relation object, a trimmed log) and checks,
  after every step, session ≡ naive *and* that the step was handled the
  way the protocol says: logged in-domain tuple deltas patch, anything
  else rebuilds, no change is a cache hit — for the Boolean and the
  count read alike, since both read the query's one artifact;
* a deterministic test that the hot path reads no tuple and that a
  session without a ``cache_dir`` never computes a digest.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    precondition,
    rule,
)

import repro.core.reduction_cache as reduction_cache
from repro.core import QuerySession, naive_count, naive_evaluate
from repro.engine import Database, Relation
from repro.intervals import Interval
from repro.queries import parse_query
from repro.sql import compile_sql, naive_program

QUERY = parse_query("R([A],[B]) ∧ S([B],[C])")
#: columns are named after the interval variable they feed: one segment
#: tree, hence one endpoint domain, per variable
SCHEMAS = {"R": ("A", "B"), "S": ("B", "C")}
#: each relation's atom position in the canonical query (atoms sort by
#: relation), which is its left endpoints' G.1 slot; right endpoints
#: all take slot ``N``
SLOTS = {"R": 1, "S": 2}
N = len(SLOTS)

names = st.sampled_from(sorted(SCHEMAS))
intervals = st.tuples(st.integers(0, 4), st.integers(0, 4)).map(
    lambda ends: Interval(min(ends), max(ends))
)
rows = st.tuples(intervals, intervals)
row_sets = st.sets(rows, max_size=4)

PATCH, REBUILD, UNCHANGED = "patch", "rebuild", "unchanged"


class FreshnessMachine(RuleBasedStateMachine):
    """The model is the database itself (answers come from the naive
    oracle) plus, per interval variable, the endpoint domain of the
    session's cached artifact in the G.1-shifted space: ``(endpoint,
    slot)`` pairs, the slot being the atom's position for a left
    endpoint and ``N`` for a right one.  It is recomputed exactly when
    the artifact is rebuilt, and an insert patches only inside it."""

    @initialize(r=row_sets, s=row_sets)
    def open_session(self, r, s):
        self.db = Database(
            [Relation("R", SCHEMAS["R"], r), Relation("S", SCHEMAS["S"], s)]
        )
        # a short log: a step of more than three logged deltas is
        # trimmed past the session's last sync
        self.db.CHANGE_LOG_MAX = 3
        self.session = QuerySession(self.db)
        self.session.evaluate(QUERY, strategy="reduction")
        self.session.count(QUERY)
        self.synced = self.db.version
        self._reduced()

    # -- the model -----------------------------------------------------

    @staticmethod
    def _shifted(name: str, x) -> set:
        return {(x.left, SLOTS[name]), (x.right, N)}

    def _reduced(self) -> None:
        self.domain: dict[str, set] = {v: set() for v in "ABC"}
        for name, variables in SCHEMAS.items():
            for t in self.db[name].tuples:
                for variable, x in zip(variables, t):
                    self.domain[variable] |= self._shifted(name, x)

    def _in_domain(self, name: str, t: tuple) -> bool:
        return all(
            self._shifted(name, x) <= self.domain[variable]
            for variable, x in zip(SCHEMAS[name], t)
        )

    def _check(self, expected: str) -> None:
        """Read after a step: the answers are the oracle's, and the
        counters of both reads together say the step went down the
        expected path."""
        stats = self.session.stats
        before = stats.as_dict()
        assert self.session.evaluate(
            QUERY, strategy="reduction"
        ) == naive_evaluate(QUERY, self.db)
        assert self.session.count(QUERY) == naive_count(QUERY, self.db)
        reduced = stats.reductions - before["reductions"]
        patched = stats.delta_patches - before["delta_patches"]
        invalidated = stats.invalidations - before["invalidations"]
        if expected == PATCH:
            assert (reduced, invalidated) == (0, 1) and patched > 0, before
        elif expected == REBUILD:
            assert (reduced, patched, invalidated) == (1, 0, 1), before
            self._reduced()
        else:
            assert (reduced, patched, invalidated) == (0, 0, 0), before
            assert stats.hits == before["hits"] + 2
        self.synced = self.db.version

    # -- the logged API ------------------------------------------------

    @rule(name=names, t=rows)
    def insert(self, name, t):
        patchable = self._in_domain(name, t)
        if self.db.insert(name, t) is None:
            self._check(UNCHANGED)
        else:
            self._check(PATCH if patchable else REBUILD)

    @precondition(lambda self: any(len(r) for r in self.db))
    @rule(name=names, index=st.integers(0, 64))
    def delete(self, name, index):
        present = sorted(self.db[name].tuples)
        if not present:
            return
        assert self.db.delete(name, present[index % len(present)])
        self._check(PATCH)

    @rule(name=names, t=rows)
    def net_zero_insert_and_delete(self, name, t):
        """Contents end where they began, but the session is told of two
        changes: it patches both (or rebuilds when the inserted tuple is
        outside the domain) instead of concluding nothing happened."""
        patchable = self._in_domain(name, t)
        if t in self.db[name]:
            assert self.db.delete(name, t) and self.db.insert(name, t)
            self._check(PATCH)
        else:
            assert self.db.insert(name, t) and self.db.delete(name, t)
            self._check(PATCH if patchable else REBUILD)

    @rule(name=names, t=rows)
    def burst_past_the_retained_log(self, name, t):
        """Four logged, individually patchable deltas — one more than
        the log retains, so it can no longer account for the gap."""
        toggles = (
            (self.db.delete, self.db.insert)
            if t in self.db[name]
            else (self.db.insert, self.db.delete)
        )
        for mutate in toggles * 2:
            assert mutate(name, t)
        assert self.db.changes_since(self.synced) is None
        self._check(REBUILD)

    @rule(name=names, fresh=row_sets)
    def replace(self, name, fresh):
        self.db.replace(Relation(name, SCHEMAS[name], fresh))
        self._check(REBUILD)

    @rule(name=names, fresh=row_sets)
    def remove_and_add(self, name, fresh):
        self.db.remove(name)
        self.db.add(Relation(name, SCHEMAS[name], fresh))
        self._check(REBUILD)

    @rule(name=names)
    def remove_and_add_the_same_object(self, name):
        relation = self.db[name]
        self.db.remove(name)
        self.db.add(relation)
        self._check(UNCHANGED)

    # -- the unlogged channel: detected by type, rebuilt -----------------

    @rule(name=names, t=rows)
    def direct_add(self, name, t):
        self.db[name].tuples.add(t)
        self._check(REBUILD)

    @rule(name=names, t=rows)
    def direct_discard(self, name, t):
        self.db[name].tuples.discard(t)
        self._check(REBUILD)

    @rule(name=names)
    def direct_clear(self, name):
        self.db[name].tuples.clear()
        self._check(REBUILD)

    @rule(name=names, extra=row_sets)
    def direct_union_in_place(self, name, extra):
        self.db[name].tuples |= extra
        self._check(REBUILD)

    @rule(name=names, fresh=row_sets)
    def direct_assignment(self, name, fresh):
        self.db[name].tuples = fresh
        self._check(REBUILD)

    @rule(name=names, index=st.integers(0, 64), direct=rows)
    def logged_and_direct_in_one_step(self, name, index, direct):
        """The log explains one advance of the version (a delete, which
        alone would patch), not the second."""
        present = sorted(self.db[name].tuples)
        if present:
            assert self.db.delete(name, present[index % len(present)])
        self.db[name].tuples.add(direct)
        self._check(REBUILD)

    @rule(name=names, t=rows)
    def mutation_through_a_second_database(self, name, t):
        """Another database sharing the relation object logs the change
        in *its* log; ours cannot account for the version gap."""
        other = Database([self.db[name]])
        if other.insert(name, t) is None:
            self._check(UNCHANGED)
        else:
            self._check(REBUILD)


FreshnessMachine.TestCase.settings = settings(
    max_examples=50, stateful_step_count=20, deadline=None
)
TestFreshnessMachine = FreshnessMachine.TestCase


# ----------------------------------------------------------------------
# the hot path reads nothing
# ----------------------------------------------------------------------


def _database() -> Database:
    return Database(
        [
            Relation(
                name,
                schema,
                [(Interval(i, i + 2), Interval(i + 1, i + 3)) for i in range(6)],
            )
            for name, schema in SCHEMAS.items()
        ]
    )


def test_a_hot_hit_reads_no_tuple_and_no_cache_dir_means_no_digest(
    monkeypatch, tmp_path
):
    tuple_reads: list[str] = []
    digested: list[str] = []
    tuples = Relation.tuples
    digest = reduction_cache.relation_digest

    def counted_tuples(relation):
        tuple_reads.append(relation.name)
        return tuples.fget(relation)

    def counted_digest(relation):
        digested.append(relation.name)
        return digest(relation)

    monkeypatch.setattr(
        Relation, "tuples", property(counted_tuples, tuples.fset)
    )
    monkeypatch.setattr(reduction_cache, "relation_digest", counted_digest)

    sql = (
        "SELECT COUNT(*) FROM R r, S s "
        f"WHERE r.{SCHEMAS['R'][1]} OVERLAPS s.{SCHEMAS['S'][0]}"
    )

    def reads(session):
        return (
            session.evaluate(QUERY, strategy="reduction"),
            session.count(QUERY),
            session.sql(sql),
        )

    def hot(session, cold):
        tuple_reads.clear()
        digested.clear()
        before = session.stats.as_dict()
        assert reads(session) == cold
        assert session.stats.hits == before["hits"] + 3
        assert session.stats.misses == before["misses"]
        assert tuple_reads == [] and digested == []

    # without a cache directory nothing ever asks for a digest — not
    # opening, not reducing, not absorbing a mutation
    db = _database()
    session = QuerySession(db)
    assert tuple_reads == [] and digested == []
    hot(session, reads(session))
    db.insert("R", (Interval(0, 2), Interval(2, 4)))
    db["S"].tuples.add((Interval(9, 9), Interval(9, 9)))
    changed = reads(session)
    assert changed == (
        naive_evaluate(QUERY, db),
        naive_count(QUERY, db),
        naive_program(compile_sql(sql, db), db),
    )
    assert digested == []
    hot(session, changed)

    # with one, digests are computed when a cache key is first needed —
    # not at open — and once per relation version: a restarted session
    # over the same relation objects derives its keys without a scan
    db = _database()
    tuple_reads.clear()
    session = QuerySession(db, cache_dir=tmp_path)
    assert tuple_reads == [] and digested == []
    cold = reads(session)
    assert sorted(set(digested)) == ["R", "S"]
    hot(session, cold)
    restarted = QuerySession(db, cache_dir=tmp_path)
    assert restarted.evaluate(QUERY, strategy="reduction") == cold[0]
    assert restarted.count(QUERY) == cold[1]
    assert restarted.stats.persistent_hits == 1
    assert tuple_reads == []
