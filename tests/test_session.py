"""QuerySession: canonicalization, reduction caching, batching,
invalidation — the amortized Theorem 4.15 pipeline."""

import inspect
import random

import pytest

from repro.core import (
    IntersectionJoinEngine,
    QuerySession,
    canonical_form,
    database_fingerprint,
    evaluate_ij,
    naive_count,
    naive_evaluate,
)
from repro.core import session as session_module
from repro.engine import Database, Relation
from repro.hypergraph import are_isomorphic
from repro.hypergraph.isomorphism import SHAPE_MEMO_SIZE
from repro.intervals import Interval
from repro.queries import catalog, parse_query
from repro.sql import cost as sql_cost
from repro.workloads import isomorphic_variants, random_database

TRIANGLE = "R([A],[B]) ∧ S([B],[C]) ∧ T([A],[C])"


def small_db(query, n=8, seed=0):
    return random_database(query, n, seed=seed)


class TestCanonicalForm:
    def test_isomorphic_queries_share_a_key(self):
        q = parse_query(TRIANGLE)
        for variant in isomorphic_variants(q, 10, seed=1):
            assert canonical_form(variant).key == canonical_form(q).key

    def test_key_is_position_sensitive(self):
        """Hypergraph-isomorphic queries whose atoms bind different
        argument positions must NOT share a reduction."""
        a = parse_query("R([A],[B]) ∧ S([B],[C])")
        b = parse_query("R([A],[B]) ∧ S([C],[B])")
        assert are_isomorphic(a.hypergraph(), b.hypergraph())
        assert canonical_form(a).key != canonical_form(b).key

    def test_key_distinguishes_relations(self):
        a = parse_query("R([A],[B]) ∧ S([B],[C])")
        b = parse_query("R([A],[B]) ∧ R2([B],[C])")
        assert canonical_form(a).key != canonical_form(b).key

    def test_canonical_query_is_semantically_equal(self):
        rng = random.Random(5)
        q = parse_query(TRIANGLE)
        form = canonical_form(q)
        for trial in range(6):
            db = small_db(q, n=rng.randint(2, 6), seed=trial)
            assert naive_evaluate(form.query, db) == naive_evaluate(q, db)
            assert naive_count(form.query, db) == naive_count(q, db)

    def test_label_map_round_trips(self):
        q = parse_query(TRIANGLE)
        form = canonical_form(q)
        canonical_labels = {a.label for a in form.query.atoms}
        assert {c for c, _ in form.label_map} == canonical_labels
        assert {o for _, o in form.label_map} == {a.label for a in q.atoms}


class TestAnswerCorrectness:
    @pytest.mark.parametrize("name", ["triangle", "fig9e", "fig9f"])
    def test_matches_naive(self, name):
        rng = random.Random(sum(name.encode()) % 100)
        q = catalog.PAPER_IJ_QUERIES[name]()
        for trial in range(6):
            db = small_db(q, n=rng.randint(1, 6), seed=trial)
            session = QuerySession(db)
            assert session.evaluate(q) == naive_evaluate(q, db), trial
            assert session.count(q) == naive_count(q, db), trial

    def test_strategies_agree(self):
        q = parse_query(TRIANGLE)
        db = small_db(q, n=6, seed=4)
        expected = naive_evaluate(q, db)
        for strategy in ["auto", "naive", "reduction"]:
            assert QuerySession(db).evaluate(q, strategy=strategy) == expected

    def test_an_unknown_strategy_raises_instead_of_running(self):
        """A misspelt strategy is an error — never a reduction run and
        cached under the strategy-agnostic key, nor served from it."""
        q = parse_query(TRIANGLE)
        db = small_db(q, n=6, seed=4)
        session = QuerySession(db)
        for head in (session.evaluate, session.count):
            with pytest.raises(ValueError, match="bogus"):
                head(q, strategy="bogus")
        assert session.stats.misses == 0
        assert session.evaluate(q) == naive_evaluate(q, db)
        with pytest.raises(ValueError, match="bogus"):
            session.evaluate(q, strategy="bogus")
        # count keeps its documented fallback from sweep to the reduction
        assert session.count(q, strategy="sweep") == naive_count(q, db)

    def test_witnesses_keep_original_labels(self):
        q = parse_query(TRIANGLE)
        db = small_db(q, n=5, seed=11)
        session = QuerySession(db)
        expected = {
            tuple(sorted(w.items())) for w in session.witnesses(q)
        }
        from repro.core import witnesses_ij

        direct = {tuple(sorted(w.items())) for w in witnesses_ij(q, db)}
        assert expected == direct
        for witness in session.witnesses(q, limit=1):
            assert set(witness) == {"R", "S", "T"}


class TestReductionSharing:
    def test_two_evaluates_one_forward_reduce(self, monkeypatch):
        """Regression for the engine docstring: 'reduces once per
        database' must be literally true."""
        calls = []
        real = session_module.forward_reduce

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(session_module, "forward_reduce", counting)
        q = parse_query(TRIANGLE)
        db = small_db(q, n=6, seed=2)
        engine = IntersectionJoinEngine(q)
        first = engine.evaluate(db)
        second = engine.evaluate(db)
        assert first == second == naive_evaluate(q, db)
        assert len(calls) == 1

    def test_isomorphic_engines_share_the_session_reduction(
        self, monkeypatch
    ):
        calls = []
        real = session_module.forward_reduce

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(session_module, "forward_reduce", counting)
        q = parse_query(TRIANGLE)
        db = small_db(q, n=6, seed=8)
        variant = isomorphic_variants(q, 1, seed=2)[0]
        assert IntersectionJoinEngine(q).evaluate(db) == (
            IntersectionJoinEngine(variant).evaluate(db)
        )
        assert len(calls) == 1

    def test_evaluate_many_twenty_isomorphic_one_reduction(self):
        """Acceptance criterion: a 20-query isomorphic batch performs
        exactly one forward reduction."""
        q = parse_query("R([A],[B]) ∧ S([B],[C]) ∧ T([C],[D])")
        queries = isomorphic_variants(q, 20, seed=6)
        db = small_db(q, n=10, seed=6)
        session = QuerySession(db)
        answers = session.evaluate_many(queries, strategy="reduction")
        assert len(answers) == 20
        assert set(answers) == {naive_evaluate(q, db)}
        assert session.stats.reductions == 1
        assert session.stats.misses == 1
        assert session.stats.hits == 19

    def test_engine_reduction_keeps_original_labels(self):
        """engine.reduction(db) must expose the reduction of the query
        *as written* — original atom labels in tuple_order and original
        label prefixes in the transformed relation names — even though
        evaluation internally shares canonicalized reductions."""
        q = parse_query(TRIANGLE)
        db = small_db(q, n=4, seed=1)
        result = IntersectionJoinEngine(q).reduction(db)
        assert set(result.tuple_order) == {"R", "S", "T"}
        assert any(
            name.startswith("R~")
            for name in result.database.relation_names
        )

    def test_count_many_shares_the_disjoint_reduction(self):
        q = parse_query(TRIANGLE)
        queries = isomorphic_variants(q, 5, seed=9)
        db = small_db(q, n=5, seed=9)
        session = QuerySession(db)
        counts = session.count_many(queries)
        assert counts == [naive_count(q, db)] * 5
        assert session.stats.reductions == 1


class TestAnswerCacheLRU:
    """The answer cache is bounded by ``ANSWER_CACHE_SIZE`` and evicts
    least-recently-used."""

    @pytest.fixture(autouse=True)
    def two_slots(self, monkeypatch):
        monkeypatch.setattr(session_module, "ANSWER_CACHE_SIZE", 2)

    def _db(self):
        return Database(
            [
                Relation(name, ("A",), [(Interval(0, 1),)])
                for name in ("R", "S", "T")
            ]
        )

    def _queries(self):
        return [parse_query(f"{name}([A])") for name in ("R", "S", "T")]

    def test_capacity_bounds_the_cache(self):
        qr, qs, qt = self._queries()
        session = QuerySession(self._db())
        for q in (qr, qs, qt):
            session.evaluate(q)
        assert len(session._answers) == 2
        assert session.stats.evictions == 1

    def test_eviction_order_is_lru_not_fifo(self):
        qr, qs, qt = self._queries()
        session = QuerySession(self._db())
        session.evaluate(qr)  # miss
        session.evaluate(qs)  # miss
        session.evaluate(qr)  # hit -> R becomes most recent
        session.evaluate(qt)  # miss, evicts S (LRU), not R (FIFO victim)
        assert session.stats.misses == 3
        session.evaluate(qr)
        assert session.stats.misses == 3  # R survived
        session.evaluate(qs)
        assert session.stats.misses == 4  # S was the one evicted

    def test_evicted_answers_are_recomputed_correctly(self, monkeypatch):
        monkeypatch.setattr(session_module, "ANSWER_CACHE_SIZE", 1)
        qr, qs, qt = self._queries()
        db = self._db()
        session = QuerySession(db)
        for _ in range(2):
            for q in (qr, qs, qt):
                assert session.evaluate(q) == naive_evaluate(q, db)
        assert session.stats.evictions >= 4

    def test_count_and_eval_share_the_bound(self):
        qr, qs, _ = self._queries()
        db = self._db()
        session = QuerySession(db)
        session.evaluate(qr)
        session.count(qr)
        session.evaluate(qs)  # evicts ("eval", R) — the oldest entry
        assert len(session._answers) == 2
        session.count(qr)
        assert session.stats.hits == 1  # the count entry survived


class TestCanonMemoLRU:
    """``canonical_form`` is an LRU of ``SHAPE_MEMO_SIZE`` queries."""

    def _fill(self, count):
        for i in range(count):
            canonical_form(parse_query(f"F{i}([A])"))

    def test_memo_evicts_least_recently_used(self):
        canonical_form.cache_clear()
        q1 = parse_query("R([A])")
        q2 = parse_query("S([A])")
        canonical_form(q1)
        canonical_form(q2)
        canonical_form(q1)  # refresh q1: q2 becomes the LRU victim
        self._fill(SHAPE_MEMO_SIZE - 1)
        assert canonical_form.cache_info().currsize == SHAPE_MEMO_SIZE
        before = canonical_form.cache_info()
        canonical_form(q1)
        canonical_form(q2)
        after = canonical_form.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses + 1)

    def test_eviction_preserves_correctness(self):
        q = parse_query(TRIANGLE)
        first = canonical_form(q).key
        self._fill(SHAPE_MEMO_SIZE)  # evicts the triangle
        misses = canonical_form.cache_info().misses
        assert canonical_form(q).key == first
        assert canonical_form.cache_info().misses == misses + 1


class TestIncrementalInvalidation:
    def _two_disjoint_queries(self):
        q1 = parse_query("R([A],[B]) ∧ S([B],[C])")
        q2 = parse_query("T2([A],[B]) ∧ U([B],[C])")
        db = Database()
        for rel in random_database(q1, 5, seed=1):
            db.add(rel)
        for rel in random_database(q2, 5, seed=2):
            db.add(rel)
        return q1, q2, db

    def test_mutation_re_reduces_only_touching_disjuncts(self):
        """Acceptance criterion: mutating one relation re-reduces only
        the queries referencing it; the rest stay warm."""
        q1, q2, db = self._two_disjoint_queries()
        session = QuerySession(db)
        session.evaluate(q1, strategy="reduction")
        session.evaluate(q2, strategy="reduction")
        assert session.stats.reductions == 2
        db["U"].tuples.add((Interval(0, 1), Interval(0, 1)))
        a1 = session.evaluate(q1, strategy="reduction")
        assert session.stats.reductions == 2  # q1 untouched: cache intact
        assert session.stats.hits == 1       # even its answer survived
        a2 = session.evaluate(q2, strategy="reduction")
        assert session.stats.reductions == 3  # only q2 re-reduced
        assert a1 == naive_evaluate(q1, db)
        assert a2 == naive_evaluate(q2, db)
        assert session.stats.invalidations == 1

    def test_count_artifacts_follow_the_same_rule(self):
        q1, q2, db = self._two_disjoint_queries()
        session = QuerySession(db)
        session.count(q1)
        session.count(q2)
        assert session.stats.reductions == 2
        db["S"].tuples.add((Interval(0, 1), Interval(0, 1)))
        assert session.count(q2) == naive_count(q2, db)
        assert session.stats.reductions == 2  # q2's pipeline untouched
        assert session.count(q1) == naive_count(q1, db)
        assert session.stats.reductions == 3

    def test_overlapping_queries_both_invalidate(self):
        """A query sharing the mutated relation is invalidated even if
        it also reads unchanged relations."""
        q1 = parse_query("R([A],[B]) ∧ S([B],[C])")
        q2 = parse_query("S([A],[B]) ∧ T2([B],[C])")
        db = Database()
        for rel in random_database(q1, 4, seed=3):
            db.add(rel)
        for rel in random_database(q2, 4, seed=4):
            if rel.name not in db:
                db.add(rel)
        session = QuerySession(db)
        session.evaluate(q1, strategy="reduction")
        session.evaluate(q2, strategy="reduction")
        assert session.stats.reductions == 2
        db["S"].tuples.add((Interval(2, 3), Interval(2, 3)))
        assert session.evaluate(q1, strategy="reduction") == naive_evaluate(
            q1, db
        )
        assert session.evaluate(q2, strategy="reduction") == naive_evaluate(
            q2, db
        )
        assert session.stats.reductions == 4  # both touched S

    def test_explicit_invalidate_still_drops_everything(self):
        q1, q2, db = self._two_disjoint_queries()
        session = QuerySession(db)
        session.evaluate(q1, strategy="reduction")
        session.evaluate(q2, strategy="reduction")
        session.invalidate()
        assert not session._reductions and not session._answers
        session.evaluate(q1, strategy="reduction")
        assert session.stats.reductions == 3


class TestDigestsFollowTheQuery:
    def test_a_read_digests_only_the_relations_its_query_mentions(
        self, tmp_path, monkeypatch
    ):
        """ROADMAP 4(c): a mutation of ``T`` must not be re-hashed on
        behalf of a query over ``R, S`` — its cache key never commits
        to ``T``."""
        from repro.core import reduction_cache

        everything = parse_query(TRIANGLE)
        db = small_db(everything, n=6)
        session = QuerySession(db, cache_dir=tmp_path)
        session.evaluate(parse_query("R([A],[B]) ∧ S([B],[C])"), strategy="reduction")
        hashed = []
        original = reduction_cache.relation_digest

        def recording(relation):
            memo = relation._digest
            if memo is None or memo[0] != relation.version:
                hashed.append(relation.name)
            return original(relation)

        monkeypatch.setattr(reduction_cache, "relation_digest", recording)
        assert db.insert("T", (Interval(1, 2), Interval(1, 2))) is not None
        # a query not reduced yet, so its address has to be computed
        unseen = parse_query("R([A],[B]) ∧ S([A],[B])")
        assert session.evaluate(unseen, strategy="reduction") == naive_evaluate(
            unseen, db
        )
        assert session.stats.reductions == 2
        assert hashed == []  # R and S are memoized, T was never asked for
        assert db["T"]._digest is None
        # ... and T's is computed exactly when a query reads T
        session.evaluate(everything, strategy="reduction")
        assert hashed == ["T"]

    def test_database_digests_takes_a_restriction(self):
        from repro.core import database_digests

        db = small_db(parse_query(TRIANGLE), n=4)
        assert set(database_digests(db)) == {"R", "S", "T"}
        assert database_digests(db, ["S"]) == {
            "S": database_digests(db)["S"]
        }
        with pytest.raises(KeyError):
            database_digests(db, ["Z"])


class TestInvalidation:
    def test_mutation_between_evaluates_is_seen(self):
        q = parse_query(TRIANGLE)
        db = Database(
            [
                Relation("R", ("A", "B"), [(Interval(0, 1), Interval(0, 1))]),
                Relation("S", ("B", "C"), [(Interval(5, 6), Interval(0, 1))]),
                Relation("T", ("A", "C"), [(Interval(0, 1), Interval(0, 1))]),
            ]
        )
        session = QuerySession(db)
        assert session.evaluate(q) is False
        assert session.count(q) == 0
        # overlap S's B-interval with R's: the query becomes true
        db["S"].tuples.add((Interval(0, 1), Interval(0, 1)))
        assert session.evaluate(q) is True
        assert session.evaluate(q) == naive_evaluate(q, db)
        assert session.count(q) == naive_count(q, db) > 0
        assert session.stats.invalidations >= 1

    def test_fingerprint_ignores_enumeration_order(self):
        tuples = [
            (Interval(i, i + 1), Interval(2 * i, 2 * i + 1)) for i in range(6)
        ]
        a = Database([Relation("R", ("A", "B"), tuples)])
        b = Database([Relation("R", ("A", "B"), list(reversed(tuples)))])
        assert database_fingerprint(a) == database_fingerprint(b)

    def test_fingerprint_sees_content_change(self):
        db = Database([Relation("R", ("A",), [(Interval(0, 1),)])])
        before = database_fingerprint(db)
        db["R"].tuples.add((Interval(3, 4),))
        assert database_fingerprint(db) != before


class TestPlannerIntegration:
    def test_execute_with_session_matches_stateless(self):
        rng = random.Random(13)
        for text in [TRIANGLE, "R([A],[B]) ∧ S([B],[C])", "R([A]) ∧ S([A])"]:
            q = parse_query(text)
            for trial in range(3):
                db = small_db(q, n=rng.randint(2, 8), seed=trial)
                session = QuerySession(db)
                assert session.evaluate(q) == evaluate_ij(q, db)
                assert (
                    session.plan(q).strategy
                    == QuerySession(db).plan(q).strategy
                )

    def test_execute_uses_the_session_budget_by_default(self, monkeypatch):
        q = parse_query(TRIANGLE)
        db = small_db(q, n=4, seed=2)
        assert QuerySession(db).plan(q).strategy == "naive"
        monkeypatch.setattr(sql_cost, "DEFAULT_NAIVE_BUDGET", 0.0)
        session = QuerySession(db)
        assert session.plan(q).strategy != "naive"
        # SQL execution plans under the same budget
        text = "SELECT COUNT(*) FROM R, S WHERE R.B OVERLAPS S.B"
        assert session.sql(text) == naive_count(
            parse_query("R([A],[B]) ∧ S([B],[C])"), db
        )
        assert session.stats.reductions == 1

    def test_plan_is_cached(self):
        q = parse_query(TRIANGLE)
        db = small_db(q, n=4, seed=0)
        session = QuerySession(db)
        assert session.plan(q) is session.plan(q)


class TestAnswerAdmission:
    """The answer cache admits every answer, however few input tuples
    its reduction reads."""

    def _db(self):
        q_cheap = parse_query("C([A],[B])")
        return random_database(q_cheap, 2, seed=2), q_cheap

    def test_counts_follow_the_same_policy(self):
        db, q_cheap = self._db()
        session = QuerySession(db)
        for _ in range(2):
            assert session.count(q_cheap) == naive_count(q_cheap, db)
        assert (session.stats.misses, session.stats.hits) == (1, 1)

    def test_default_admits_everything(self):
        db, q_cheap = self._db()
        session = QuerySession(db)
        session.evaluate(q_cheap)
        session.evaluate(q_cheap)
        assert session.stats.hits == 1
        assert not any(
            key.startswith("admission") for key in session.stats.as_dict()
        )


class TestSessionOptions:
    def test_the_session_takes_deployment_settings_only(self):
        assert list(inspect.signature(QuerySession).parameters) == [
            "db",
            "cache_dir",
            "cache_max_bytes",
            "cache_namespace",
        ]

    def test_cache_max_bytes_without_a_cache_dir_is_refused(self, tmp_path):
        db = small_db(parse_query(TRIANGLE), n=4)
        with pytest.raises(ValueError, match="cache_dir"):
            QuerySession(db, cache_max_bytes=1000)
        bounded = QuerySession(db, cache_dir=tmp_path, cache_max_bytes=1000)
        assert bounded.cache.max_bytes == 1000
        # a namespace alone stays legal: a router names its tenants
        # whether or not it has a cache directory
        assert QuerySession(db, cache_namespace="acme").cache is None


class TestSharedRegistry:
    def test_for_database_is_one_session_per_db(self):
        q = parse_query(TRIANGLE)
        db = small_db(q, n=4, seed=3)
        assert QuerySession.for_database(db) is QuerySession.for_database(db)
        other = small_db(q, n=4, seed=4)
        assert QuerySession.for_database(db) is not QuerySession.for_database(
            other
        )
