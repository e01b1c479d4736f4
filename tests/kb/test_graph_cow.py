"""Copy-on-write graph snapshots.

:meth:`Graph.copy` shares every second-level index dict and leaf set with
its source, and whichever graph first writes to a shared container copies
it.  The property test grows a family of up to four graphs, each new
member a copy of an existing one, applies random writes to any member
(sources after they were copied included), and after every step requires
each member to answer exactly like its own reference model, a plain set of
triples.  The threaded test reads a committed snapshot while a writer
derives twenty children from it through ``commit_changes``: the
snapshot's answers never change.
"""

import random
import sys
import threading
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kb.graph import Graph
from repro.kb.interning import TermDictionary
from repro.kb.namespaces import EX
from repro.kb.triples import Triple
from repro.kb.version import VersionedKnowledgeBase

#: Few terms, so members share containers and often empty one.  The same
#: terms serve as subjects and objects.
TERMS = [EX[f"t{i}"] for i in range(3)]
PREDICATES = [EX[f"p{i}"] for i in range(2)]
TRIPLES = [Triple(s, p, o) for s in TERMS for p in PREDICATES for o in TERMS]
MAX_FAMILY = 4

_triple = st.sampled_from(TRIPLES)
_member = st.integers(0, MAX_FAMILY - 1)
_copy = st.tuples(st.just("copy"), _member)
_add = st.tuples(st.just("add"), _member, _triple)
_operation = st.one_of(
    # Copies and single adds count twice: an add into a leaf still shared
    # with a copy is the write a commit makes most.
    _copy,
    _copy,
    _add,
    _add,
    st.tuples(st.just("remove"), _member, _triple),
    st.tuples(st.just("add_all"), _member, st.lists(_triple, max_size=6)),
    st.tuples(st.just("remove_all"), _member, st.lists(_triple, max_size=6)),
    # add_all's same-dictionary fast path: another member as the source.
    st.tuples(st.just("add_graph"), _member, _member),
    # Removes every triple with one term in one position: the last triple
    # under a (possibly shared) subject, predicate or object goes.
    st.tuples(st.just("remove_term"), _member, st.integers(0, 2), st.integers(0, 2)),
)


def _bound(triple, s, p, o):
    return (
        (s is None or triple.subject == s)
        and (p is None or triple.predicate == p)
        and (o is None or triple.object == o)
    )


def _distinct(values):
    values = list(values)
    assert len(values) == len(set(values)), values
    return set(values)


def _assert_answers_like(graph, model):
    """Every query of ``graph`` answers like the triple set ``model``."""
    assert len(graph) == len(model)
    assert _distinct(graph) == model
    assert graph == Graph(model, dictionary=graph.dictionary)
    for s in [None, *TERMS]:
        for p in [None, *PREDICATES]:
            for o in [None, *TERMS]:
                expected = {t for t in model if _bound(t, s, p, o)}
                assert _distinct(graph.match(s, p, o)) == expected, (s, p, o)
                assert graph.count(s, p, o) == len(expected), (s, p, o)
                for t in expected:
                    assert t in graph
    for p in [None, *PREDICATES]:
        for o in [None, *TERMS]:
            expected = {t.subject for t in model if _bound(t, None, p, o)}
            assert _distinct(graph.subjects(p, o)) == expected
    for s in [None, *TERMS]:
        for p in [None, *PREDICATES]:
            expected = {t.object for t in model if _bound(t, s, p, None)}
            assert _distinct(graph.objects(s, p)) == expected
        for o in [None, *TERMS]:
            expected = {t.predicate for t in model if _bound(t, s, None, o)}
            assert _distinct(graph.predicates(s, o)) == expected


def _assert_family(family, models):
    for graph, model in zip(family, models):
        _assert_answers_like(graph, model)
    for graph, model in zip(family, models):
        for other, other_model in zip(family, models):
            assert (graph == other) == (model == other_model)
            assert graph.difference(other) == model - other_model


def _apply(family, models, operation):
    kind, index, *args = operation
    index %= len(family)
    graph, model = family[index], models[index]
    if kind == "copy":
        if len(family) < MAX_FAMILY:
            family.append(graph.copy())
            models.append(set(model))
    elif kind == "add":
        assert graph.add(args[0]) == (args[0] not in model)
        model.add(args[0])
    elif kind == "remove":
        assert graph.remove(args[0]) == (args[0] in model)
        model.discard(args[0])
    elif kind == "add_all":
        assert graph.add_all(args[0]) == len(set(args[0]) - model)
        model.update(args[0])
    elif kind == "remove_all":
        assert graph.remove_all(args[0]) == len(set(args[0]) & model)
        model.difference_update(args[0])
    elif kind == "add_graph":
        source = args[0] % len(family)
        assert graph.add_all(family[source]) == len(models[source] - model)
        model.update(models[source])
    else:
        position, term = args
        choices = PREDICATES if position == 1 else TERMS
        pattern = [None, None, None]
        pattern[position] = choices[term % len(choices)]
        doomed = list(graph.match(*pattern))
        assert graph.remove_all(doomed) == len(doomed)
        model.difference_update(doomed)


@settings(max_examples=200, deadline=None)
@given(
    initial=st.sets(_triple, max_size=12),
    bulk=st.booleans(),
    operations=st.lists(_operation, max_size=20),
)
def test_a_copy_family_answers_like_its_reference_models(initial, bulk, operations):
    if bulk:
        dictionary = TermDictionary()
        keys = [dictionary.intern_triple(t) for t in initial]
        root = Graph.from_interned_keys(dictionary, keys)
    else:
        root = Graph(initial)
    family, models = [root], [set(initial)]
    _assert_family(family, models)
    for operation in operations:
        _apply(family, models, operation)
        _assert_family(family, models)


def test_a_source_written_after_its_copy_leaves_the_copy_alone():
    source = Graph(TRIPLES)
    clone = source.copy()
    source.remove_all([t for t in TRIPLES if t.subject == TERMS[0]])
    source.add(Triple(TERMS[1], PREDICATES[0], EX.fresh))
    grandchild = clone.copy()
    clone.remove(TRIPLES[-1])
    _assert_answers_like(grandchild, set(TRIPLES))
    _assert_answers_like(clone, set(TRIPLES[:-1]))


# -- a committed snapshot read while its children are committed ----------------

N_CHILDREN = 20


def _universe():
    subjects = [EX[f"s{i}"] for i in range(30)]
    predicates = [EX[f"q{i}"] for i in range(4)]
    objects = subjects[:10] + [EX[f"o{i}"] for i in range(20)]
    return [Triple(s, p, o) for s in subjects for p in predicates for o in objects]


def _patterns(triples):
    """Every pattern shape bound from the snapshot's own triples."""
    patterns = {(None, None, None)}
    for t in triples:
        for mask in range(1, 8):
            patterns.add(
                (
                    t.subject if mask & 4 else None,
                    t.predicate if mask & 2 else None,
                    t.object if mask & 1 else None,
                )
            )
    return sorted(patterns, key=repr)


def _answers(graph, patterns):
    return [
        (
            frozenset(graph.match(*pattern)),
            graph.count(*pattern),
            frozenset(graph.objects(pattern[0], pattern[1])),
            frozenset(graph.subjects(pattern[1], pattern[2])),
            frozenset(graph.predicates(pattern[0], pattern[2])),
        )
        for pattern in patterns
    ]


def test_snapshot_answers_hold_while_children_are_committed():
    rng = random.Random(5)
    universe = _universe()
    kb = VersionedKnowledgeBase("cow")
    kb.commit(Graph(rng.sample(universe, 900)), version_id="v1")
    kb.commit_changes(added=rng.sample(universe, 60), version_id="v2")
    snapshot = kb.latest().graph
    patterns = _patterns(rng.sample(sorted(snapshot, key=repr), 120))
    expected = _answers(snapshot, patterns)
    errors, passes = [], []
    done = threading.Event()

    def read():
        count = 0
        try:
            while not done.is_set() or count < 2:
                if _answers(snapshot, patterns) != expected:
                    errors.append("snapshot answers changed")
                count += 1
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)
        passes.append(count)

    readers = [threading.Thread(target=read, daemon=True) for _ in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, to widen every race window
    try:
        for reader in readers:
            reader.start()
        for index in range(N_CHILDREN):
            head = sorted(kb.latest().graph, key=repr)
            # Empty one subject entirely, and touch many shared leaves.
            victim = rng.choice(head).subject
            deleted = [t for t in head if t.subject == victim] + rng.sample(head, 20)
            added = rng.sample(universe, 40)
            kb.commit_changes(
                added=[t for t in added if t not in set(deleted)],
                deleted=set(deleted),
                version_id=f"c{index}",
            )
            time.sleep(0.002)
    finally:
        done.set()
        for reader in readers:
            reader.join(timeout=120)
        sys.setswitchinterval(interval)
    assert not any(reader.is_alive() for reader in readers)
    assert not errors, errors[:3]
    assert len(passes) == len(readers)
    assert _answers(snapshot, patterns) == expected
    assert len(kb) == 2 + N_CHILDREN
