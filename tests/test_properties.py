"""Cross-cutting property-based tests: implementations vs brute force.

These tests pit the optimized implementations against tiny brute-force
oracles on randomly generated inputs — the strongest correctness evidence
short of proofs for the query engine, the MaxSat solver, and the parser's
structural invariants.
"""

from __future__ import annotations

import itertools

from hypothesis import given, settings, strategies as st

from repro.kb import Entity, Pattern, Query, Relation, Triple, TripleStore, Var
from repro.nlp import analyze
from repro.reasoning import WeightedMaxSat
from repro.reasoning.maxsat import HARD

_entities = st.integers(0, 5).map(lambda i: Entity(f"e:{i}"))
_relations = st.integers(0, 2).map(lambda i: Relation(f"r:{i}"))
_triples = st.builds(Triple, _entities, _relations, _entities)


def _brute_force_query(triples, patterns):
    """Evaluate a conjunctive query by full enumeration."""
    solutions = []

    def extend(binding, remaining):
        if not remaining:
            solutions.append(dict(binding))
            return
        pattern = remaining[0]
        for triple in triples:
            candidate = dict(binding)
            consistent = True
            for slot, value in (
                (pattern.subject, triple.subject),
                (pattern.predicate, triple.predicate),
                (pattern.object, triple.object),
            ):
                if isinstance(slot, Var):
                    if slot.name in candidate and candidate[slot.name] != value:
                        consistent = False
                        break
                    candidate[slot.name] = value
                elif slot != value:
                    consistent = False
                    break
            if consistent:
                extend(candidate, remaining[1:])

    extend({}, patterns)
    return solutions


class TestQueryVsBruteForce:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(_triples, min_size=1, max_size=25),
        st.sampled_from(["svo", "chain", "star"]),
    )
    def test_join_results_match(self, triples, shape):
        store = TripleStore(triples)
        distinct = list({t.spo(): t for t in triples}.values())
        r0, r1 = Relation("r:0"), Relation("r:1")
        if shape == "svo":
            patterns = [Pattern(Var("x"), r0, Var("y"))]
        elif shape == "chain":
            patterns = [
                Pattern(Var("x"), r0, Var("y")),
                Pattern(Var("y"), r1, Var("z")),
            ]
        else:
            patterns = [
                Pattern(Var("x"), r0, Var("y")),
                Pattern(Var("x"), r1, Var("z")),
            ]
        engine_results = Query(patterns).run(store)
        brute_results = _brute_force_query(distinct, patterns)

        def canon(results):
            return sorted(
                tuple(sorted((k, str(v)) for k, v in b.items())) for b in results
            )

        assert canon(engine_results) == canon(brute_results)


def _brute_force_maxsat(clauses, variables):
    """The optimal (hard violations, soft cost) by full enumeration."""
    best = None
    for values in itertools.product((False, True), repeat=len(variables)):
        assignment = dict(zip(variables, values))
        hard = 0
        soft = 0.0
        for literals, weight in clauses:
            satisfied = any(assignment[v] == pol for v, pol in literals)
            if not satisfied:
                if weight == HARD:
                    hard += 1
                else:
                    soft += weight
        key = (hard, soft)
        if best is None or key < best:
            best = key
    return best


_literal = st.tuples(st.integers(0, 4).map(lambda i: f"v{i}"), st.booleans())
_soft_clause = st.tuples(
    st.lists(_literal, min_size=1, max_size=3, unique_by=lambda l: l[0]),
    st.floats(0.1, 2.0),
)


class TestMaxSatVsBruteForce:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(_soft_clause, min_size=1, max_size=8), st.data())
    def test_solver_reaches_optimum(self, soft_clauses, data):
        problem = WeightedMaxSat()
        clause_list = []
        for literals, weight in soft_clauses:
            weight = round(weight, 3)
            problem.add_clause(literals, weight)
            clause_list.append((literals, weight))
        # Optionally add one hard exclusion clause.
        if data.draw(st.booleans()):
            hard = [("v0", False), ("v1", False)]
            problem.add_hard(hard)
            clause_list.append((hard, HARD))
        variables = problem.variables
        optimal = _brute_force_maxsat(clause_list, variables)
        result = problem.solve(seed=1, restarts=4, max_flips=4000)
        assert result.hard_violations == optimal[0]
        assert result.soft_cost <= optimal[1] + 1e-6


_sentence_texts = st.sampled_from(
    [
        "Alan Weber founded Nimbus Systems in 1976.",
        "Nimbus Systems was founded by Alan Weber.",
        "The capital of Arvandia is Corvain.",
        "In 1955, Julia Weber was born in Lorvik.",
        "Julia Weber and Marco Santos married in 1981.",
        "Mara Santos is the CEO of Orbital Corp.",
        "He praised the new Nova 3 repeatedly.",
        "Many scientists, including Alan Weber, attended the meeting.",
        "Corvain lies in Arvandia.",
        "She has worked at Helio Labs since 1988.",
    ]
)


class TestParserInvariants:
    @settings(max_examples=30, deadline=None)
    @given(_sentence_texts)
    def test_single_root_and_total_attachment(self, text):
        parse = analyze(text).parse
        roots = [i for i, h in enumerate(parse.heads) if h == -1]
        assert len(roots) == 1
        n = len(parse.heads)
        for head in parse.heads:
            assert -1 <= head < n

    @settings(max_examples=30, deadline=None)
    @given(_sentence_texts)
    def test_no_self_loops_or_cycles(self, text):
        parse = analyze(text).parse
        for i, head in enumerate(parse.heads):
            assert head != i
        # Walking up from any token terminates at the root.
        for start in range(len(parse.heads)):
            seen = set()
            node = start
            while node != -1:
                assert node not in seen
                seen.add(node)
                node = parse.heads[node]

    @settings(max_examples=30, deadline=None)
    @given(_sentence_texts, _sentence_texts)
    def test_path_symmetric_existence(self, text_a, text_b):
        parse = analyze(text_a).parse
        n = len(parse.heads)
        if n < 2:
            return
        forward = parse.path(0, n - 1, max_length=n)
        backward = parse.path(n - 1, 0, max_length=n)
        assert (forward is None) == (backward is None)


_confident_triples = st.builds(
    Triple,
    _entities,
    _relations,
    _entities,
    st.floats(0.0, 1.0).map(lambda c: round(c, 3)),
)
_operations = st.lists(
    st.tuples(st.sampled_from(["add", "remove"]), _confident_triples),
    max_size=60,
)


#: An operation sequence plus the point at which the store is first
#: queried by pattern (0 = before any operation, len = after the last).
_operations_and_first_query = _operations.flatmap(
    lambda operations: st.tuples(
        st.just(operations), st.integers(0, len(operations))
    )
)
_INDEX_NAMES = ("_by_s", "_by_p", "_by_o", "_by_sp", "_by_po")


class TestTripleStoreInvariants:
    """After any add/remove sequence, every index agrees with ``_by_spo``,
    wherever in the sequence the lazily built indexes came into being."""

    @staticmethod
    def _first_query(store: TripleStore) -> None:
        """A pattern query: the first one builds the secondary indexes."""
        store.count(None, Relation("r:0"), None)
        assert store.engine.indexed

    @staticmethod
    def _assert_indexes_consistent(store: TripleStore) -> None:
        engine = store.engine
        keys = set(engine.keys())
        index_views = {name: getattr(engine, name) for name in _INDEX_NAMES}
        # 1. Every index entry points at a live key; no empty buckets linger.
        for name, index in index_views.items():
            for bucket_key, bucket in index.items():
                assert bucket, f"{name}[{bucket_key!r}] is an empty bucket"
                assert set(bucket) <= keys, f"{name} holds dead keys"
        # 2. Every live key is present in all five indexes, in the right
        #    bucket.
        for s, p, o in keys:
            assert (s, p, o) in engine._by_s[s]
            assert (s, p, o) in engine._by_p[p]
            assert (s, p, o) in engine._by_o[o]
            assert (s, p, o) in engine._by_sp[(s, p)]
            assert (s, p, o) in engine._by_po[(p, o)]
        # 3. Index cardinalities add up: each index partitions the key set.
        for name, index in index_views.items():
            total = sum(len(bucket) for bucket in index.values())
            assert total == len(keys), f"{name} cardinality mismatch"

    @settings(max_examples=120, deadline=None)
    @given(_operations_and_first_query)
    def test_indexes_agree_after_any_operation_sequence(self, drawn):
        operations, first_query_at = drawn
        store = TripleStore()
        # The reference keeps its indexes from before its first add.
        eager = TripleStore()
        self._first_query(eager)
        oracle: dict[tuple, Triple] = {}
        for position, (action, triple) in enumerate(operations):
            if position == first_query_at:
                self._first_query(store)
            for target in (store, eager):
                if action == "add":
                    target.add(triple)
                else:
                    target.remove(triple)
            if action == "add":
                existing = oracle.get(triple.spo())
                if existing is None or triple.confidence > existing.confidence:
                    oracle[triple.spo()] = triple
            else:
                oracle.pop(triple.spo(), None)
        assert store.engine.indexed == (first_query_at < len(operations))
        if first_query_at == len(operations):
            self._first_query(store)
        self._assert_indexes_consistent(store)
        assert set(store.engine.keys()) == set(oracle)
        # 4. Every bucket iterates in the order the eagerly indexed store's
        #    does (bucket order feeds match() results and so KB output).
        for name in _INDEX_NAMES:
            lazy = {k: list(b) for k, b in getattr(store.engine, name).items()}
            reference = {
                k: list(b) for k, b in getattr(eager.engine, name).items()
            }
            assert lazy == reference, f"{name} bucket order differs"

    @settings(max_examples=80, deadline=None)
    @given(_operations)
    def test_higher_confidence_witness_wins(self, operations):
        store = TripleStore()
        oracle: dict[tuple, Triple] = {}
        for action, triple in operations:
            if action == "add":
                store.add(triple)
                existing = oracle.get(triple.spo())
                if existing is None or triple.confidence > existing.confidence:
                    oracle[triple.spo()] = triple
            else:
                store.remove(triple)
                oracle.pop(triple.spo(), None)
        for key, expected in oracle.items():
            stored = store.get(*key)
            assert stored is not None
            assert stored.confidence == expected.confidence

    @settings(max_examples=40, deadline=None)
    @given(st.lists(_confident_triples, max_size=40))
    def test_match_agrees_with_scan_after_load(self, triples):
        store = TripleStore(triples)
        everything = list(store)
        for s, p, o in {t.spo() for t in everything}:
            assert store.contains_fact(s, p, o)
            assert {t.spo() for t in store.match(subject=s)} == {
                t.spo() for t in everything if t.subject == s
            }
            assert {t.spo() for t in store.match(predicate=p, obj=o)} == {
                t.spo() for t in everything
                if t.predicate == p and t.object == o
            }


class TestWorldDeterminism:
    def test_same_seed_same_everything(self):
        from repro.corpus import CorpusConfig, build_wiki, synthesize
        from repro.world import WorldConfig, generate_world

        def fingerprint():
            world = generate_world(WorldConfig(seed=99, n_people=40))
            wiki = build_wiki(world)
            documents = synthesize(world, CorpusConfig(seed=98))
            return (
                sorted(str(t) for t in world.facts),
                sorted(wiki.pages),
                [s.text for d in documents for s in d.sentences],
            )

        assert fingerprint() == fingerprint()
