"""TermDictionary behaviour and id stability across graphs and versions."""

import pytest

from repro.kb.graph import Graph
from repro.kb.interning import TermDictionary
from repro.kb.namespaces import EX, RDF_TYPE, RDFS_CLASS
from repro.kb.ntriples import parse_graph, serialize
from repro.kb.terms import IRI, Literal
from repro.kb.triples import Triple
from repro.kb.version import VersionedKnowledgeBase


def _t(i: int) -> Triple:
    return Triple(EX[f"s{i}"], EX.p, EX[f"o{i}"])


class TestTermDictionary:
    def test_intern_assigns_dense_stable_ids(self):
        d = TermDictionary()
        ids = [d.intern(EX[f"c{i}"]) for i in range(5)]
        assert ids == [0, 1, 2, 3, 4]
        assert [d.intern(EX[f"c{i}"]) for i in range(5)] == ids

    def test_equal_terms_share_an_id(self):
        d = TermDictionary()
        assert d.intern(IRI("http://example.org/x")) == d.intern(
            IRI("http://example.org/x")
        )
        assert d.intern(Literal("v", datatype=EX.t)) == d.intern(
            Literal("v", datatype=EX.t)
        )

    def test_term_round_trips(self):
        d = TermDictionary()
        for term in (EX.a, Literal("hello", language="en"), EX.b):
            assert d.term(d.intern(term)) == term

    def test_id_of_unknown_term_is_none(self):
        d = TermDictionary()
        assert d.id_of(EX.never_seen) is None
        assert EX.never_seen not in d

    def test_key_of_is_none_when_any_term_unknown(self):
        d = TermDictionary()
        d.intern_triple(_t(0))
        assert d.key_of(_t(0)) == (0, 1, 2)
        assert d.key_of(_t(1)) is None

    def test_intern_triple_pools_the_triple_object(self):
        d = TermDictionary()
        triple = _t(0)
        key = d.intern_triple(triple)
        assert d.materialize(key) is triple

    def test_materialize_constructs_valid_pooled_triples(self):
        d = TermDictionary()
        key = d.intern_triple(_t(3))
        d.triple_cache.clear()  # force the unchecked construction path
        rebuilt = d.materialize(key)
        assert rebuilt == _t(3)
        assert hash(rebuilt) == hash(_t(3))
        assert d.materialize(key) is rebuilt

    def test_len_counts_distinct_terms(self):
        d = TermDictionary()
        d.intern_triple(Triple(EX.a, EX.p, EX.a))  # subject == object
        assert len(d) == 2


class TestSharedInterning:
    def test_graph_copy_shares_the_dictionary(self):
        g = Graph([_t(0), _t(1)])
        assert g.copy().dictionary is g.dictionary

    def test_union_shares_the_dictionary(self):
        g = Graph([_t(0)])
        h = Graph([_t(1)], dictionary=g.dictionary)
        assert g.union(h).dictionary is g.dictionary

    def test_parse_graph_accepts_a_dictionary(self):
        g = Graph([_t(0)])
        parsed = parse_graph(serialize(iter(g)), dictionary=g.dictionary)
        assert parsed.dictionary is g.dictionary
        assert parsed == g

    def test_version_chain_shares_one_dictionary(self):
        kb = VersionedKnowledgeBase("d")
        kb.commit(Graph([_t(0)]), version_id="v1")
        kb.commit_changes(added=[_t(1)], version_id="v2")
        # A graph interned elsewhere is re-encoded onto the chain dictionary.
        kb.commit(Graph([_t(0), _t(1), _t(2)]), version_id="v3")
        dictionaries = {id(v.graph.dictionary) for v in kb}
        assert len(dictionaries) == 1

    def test_ids_stay_stable_as_versions_accumulate(self):
        kb = VersionedKnowledgeBase("d")
        kb.commit(Graph([_t(0)]), version_id="v1")
        shared = kb.first().graph.dictionary
        id_before = shared.id_of(EX.s0)
        for step in range(1, 6):
            kb.commit_changes(added=[_t(step)], version_id=f"v{step + 1}")
        assert shared.id_of(EX.s0) == id_before
        assert kb.latest().graph.dictionary.id_of(EX.s0) == id_before

    def test_match_yields_pooled_triple_objects(self):
        g = Graph([_t(0)])
        first = next(g.match(None, EX.p, None))
        second = next(g.match(EX.s0, None, None))
        assert first is second

    def test_committed_parsed_triples_are_pooled_with_canonical_terms(self):
        """A commit of a parser's triples pools them over the dictionary's own terms.

        Every triple below has terms equal to interned ones, but the parser
        built them as other objects; ``_t(1)`` is new only as a combination.
        """
        kb = VersionedKnowledgeBase("canonical")
        label = Triple(EX.s0, EX.label, Literal("zero", language="en"))
        kb.commit(Graph([_t(0), _t(1), label]), version_id="v1")
        recombined = [
            Triple(EX.s0, EX.p, EX.o1),
            Triple(EX.s1, EX.label, Literal("zero", language="en")),
            Triple(EX.s2, EX.p, EX.o0),
        ]
        parsed = list(parse_graph(serialize(recombined)))
        kb.commit_changes(added=parsed, deleted=[_t(1)], version_id="v2")
        dictionary = kb.latest().graph.dictionary
        for triple in kb.latest().graph.match(None, None, None):
            for term in (triple.subject, triple.predicate, triple.object):
                assert term is dictionary.term(dictionary.id_of(term))


class TestDeltaChaining:
    def _chain(self) -> VersionedKnowledgeBase:
        kb = VersionedKnowledgeBase("chain")
        kb.commit(Graph([_t(0), _t(1)]), version_id="v1")
        kb.commit_changes(added=[_t(2)], deleted=[_t(0)], version_id="v2")
        kb.commit_changes(added=[_t(3)], version_id="v3")
        return kb

    def test_commit_records_delta_from_parent(self):
        kb = self._chain()
        delta = kb.version("v2").delta_from_parent()
        assert delta.added == frozenset([_t(2)])
        assert delta.deleted == frozenset([_t(0)])
        assert kb.first().delta_from_parent() is None

    def test_compact_drops_middle_snapshots_only(self):
        kb = self._chain()
        assert kb.compact() == 1
        assert kb.first().is_materialized
        assert kb.latest().is_materialized
        assert not kb.version("v2").is_materialized

    def test_compacted_version_rematerializes_identically(self):
        kb = self._chain()
        expected = kb.version("v2").graph.sorted_triples()
        kb.compact()
        rebuilt = kb.version("v2").graph
        assert rebuilt.sorted_triples() == expected
        assert kb.version("v2").is_materialized  # cached again after access

    def test_compact_survives_multiple_dropped_links(self):
        kb = VersionedKnowledgeBase("long")
        kb.commit(Graph([_t(0)]), version_id="v1")
        for step in range(1, 5):
            kb.commit_changes(added=[_t(step)], version_id=f"v{step + 1}")
        expected = {v.version_id: v.graph.sorted_triples() for v in kb}
        assert kb.compact() == 3
        # Rebuilding v4 replays v2..v4 from the root in one pass.
        for version_id, triples in expected.items():
            assert kb.version(version_id).graph.sorted_triples() == triples

    def test_compacted_len_does_not_rematerialize(self):
        kb = self._chain()
        sizes = {v.version_id: len(v) for v in kb}
        kb.compact()
        assert {v.version_id: len(v) for v in kb} == sizes
        assert not kb.version("v2").is_materialized

    def test_root_version_is_never_droppable(self):
        kb = self._chain()
        assert not kb.first().drop_graph_cache()


class TestGraphCountShapes:
    """The (subject, None, object) shape resolves via the OSP index."""

    def test_subject_object_count(self):
        g = Graph(
            [
                Triple(EX.s, EX.p1, EX.o),
                Triple(EX.s, EX.p2, EX.o),
                Triple(EX.s, EX.p3, EX.other),
            ]
        )
        assert g.count(EX.s, None, EX.o) == 2
        assert g.count(EX.s, None, EX.other) == 1
        assert g.count(EX.s, None, EX.unseen) == 0

    @pytest.mark.parametrize(
        "pattern",
        [
            (None, None, None),
            ("s", None, None),
            (None, "p", None),
            (None, None, "o"),
            ("s", "p", None),
            ("s", None, "o"),
            (None, "p", "o"),
            ("s", "p", "o"),
        ],
    )
    def test_every_shape_agrees_with_match(self, pattern):
        g = Graph([_t(i) for i in range(4)] + [Triple(EX.s0, RDF_TYPE, RDFS_CLASS)])
        bind = {"s": EX.s0, "p": EX.p, "o": EX.o0}
        subject, predicate, obj = (bind.get(x) for x in pattern)
        assert g.count(subject, predicate, obj) == sum(
            1 for _ in g.match(subject, predicate, obj)
        )
