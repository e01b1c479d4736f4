"""Term interning: the dictionary-encoding layer under :class:`~repro.kb.graph.Graph`.

Columnar triple stores dictionary-encode their terms: every distinct IRI,
blank node or literal is assigned a dense integer id once, and all indexes,
set operations and joins run over machine integers instead of composite
Python objects.  :class:`TermDictionary` is that layer for this library.

Two further caches ride on the dictionary:

* a **triple cache** mapping each interned ``(s, p, o)`` id-triple to its
  materialised :class:`~repro.kb.triples.Triple` object, so pattern matching
  yields pooled triples with a dictionary lookup instead of constructing
  (and re-validating) a fresh dataclass per match;
* the id maps themselves, which make graph-to-graph set algebra
  (:meth:`Graph.difference`, delta computation, equality) pure C-speed
  integer-set operations whenever both graphs share one dictionary.

Sharing is the point: :meth:`Graph.copy` and the version chain of
:class:`~repro.kb.version.VersionedKnowledgeBase` propagate one dictionary
across all derived graphs, so ids are stable across versions -- the id of a
term in ``v1`` is its id in ``v47``.  Dictionaries only ever grow (interning
is append-only); memory is bounded by the distinct terms and triples ever
seen by the chain, which the synthetic workloads keep well in hand.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.kb.terms import Term
from repro.kb.triples import Triple

#: An interned triple: three dense term ids ``(subject, predicate, object)``.
TripleKey = Tuple[int, int, int]


class TermDictionary:
    """Append-only bijection between RDF terms and dense integer ids.

    >>> from repro.kb.namespaces import EX
    >>> d = TermDictionary()
    >>> d.intern(EX.Person)
    0
    >>> d.intern(EX.Person)  # stable: interning is idempotent
    0
    >>> d.term(0)
    IRI('http://example.org/Person')
    """

    __slots__ = ("_ids", "_terms", "_triples", "_n3")

    def __init__(self) -> None:
        self._ids: Dict[Term, int] = {}
        self._terms: List[Term] = []
        self._triples: Dict[TripleKey, Triple] = {}
        # id -> n3() string, grown lazily; the bulk serializer's per-term
        # render-once cache (see repro.kb.ntriples.serialize_interned).
        self._n3: List[Optional[str]] = []

    # -- term interning -----------------------------------------------------

    def intern(self, term: Term) -> int:
        """The id of ``term``, assigning the next dense id on first sight."""
        ids = self._ids
        tid = ids.get(term)
        if tid is None:
            tid = len(self._terms)
            ids[term] = tid
            self._terms.append(term)
        return tid

    def intern_many(self, terms: Iterable[Term]) -> List[int]:
        """Intern a whole batch of terms; returns their ids in input order.

        The bulk-codec primitive (:func:`repro.kb.ntriples.parse_interned`
        deduplicates tokens first, so every element here is typically a
        *distinct* term): one tight loop over the id map, no per-call
        method dispatch.
        """
        ids = self._ids
        table = self._terms
        out: List[int] = []
        append = out.append
        get = ids.get
        for term in terms:
            tid = get(term)
            if tid is None:
                tid = len(table)
                ids[term] = tid
                table.append(term)
            append(tid)
        return out

    def n3_of(self, tid: int) -> str:
        """The cached N-Triples rendering of term ``tid`` (rendered once).

        Interning is append-only, so a rendered string can never go stale;
        the cache list grows lazily to the dictionary's current size.
        """
        cache = self._n3
        if tid >= len(cache):
            cache.extend([None] * (len(self._terms) - len(cache)))
        value = cache[tid]
        if value is None:
            value = cache[tid] = self._terms[tid].n3()
        return value

    def id_of(self, term: Term) -> Optional[int]:
        """The id of ``term``, or None if it was never interned."""
        return self._ids.get(term)

    def term(self, tid: int) -> Term:
        """The term with id ``tid`` (raises ``IndexError`` for unknown ids)."""
        return self._terms[tid]

    @property
    def terms(self) -> List[Term]:
        """The live id -> term list (read-only by convention).

        Exposed so id-level derivations (:class:`~repro.kb.schema.SchemaView`)
        can turn ids back into terms with a plain list index.
        """
        return self._terms

    # -- triple interning ----------------------------------------------------

    def intern_triple(self, triple: Triple) -> TripleKey:
        """Intern all three terms of ``triple``; returns its id-triple.

        The first triple seen for a key is pooled, so later materialisations
        of the key return it without constructing a new :class:`Triple`.
        The pool holds only canonical terms (the dictionary's own objects):
        a triple whose terms are equal to interned ones but are other
        objects, such as a parser's, is pooled as a copy built from the
        canonical terms, so dict and set hits on pooled triples' terms
        compare by identity.
        """
        s = self.intern(triple.subject)
        p = self.intern(triple.predicate)
        o = self.intern(triple.object)
        key = (s, p, o)
        if key not in self._triples:
            terms = self._terms
            subject, predicate, obj = terms[s], terms[p], terms[o]
            if (
                subject is not triple.subject
                or predicate is not triple.predicate
                or obj is not triple.object
            ):
                triple = Triple._interned(subject, predicate, obj, hash(triple))
            self._triples[key] = triple
        return key

    def key_of(self, triple: Triple) -> Optional[TripleKey]:
        """The id-triple of ``triple`` without interning; None if any term is unknown."""
        ids = self._ids
        s = ids.get(triple.subject)
        if s is None:
            return None
        p = ids.get(triple.predicate)
        if p is None:
            return None
        o = ids.get(triple.object)
        if o is None:
            return None
        return (s, p, o)

    def materialize(self, key: TripleKey) -> Triple:
        """The pooled :class:`Triple` for ``key``, constructing it at most once.

        Construction uses the unchecked fast path -- terms coming out of the
        dictionary were validated when their triple was first interned.
        """
        triple = self._triples.get(key)
        if triple is None:
            terms = self._terms
            triple = Triple._interned(terms[key[0]], terms[key[1]], terms[key[2]])
            self._triples[key] = triple
        return triple

    @property
    def triple_cache(self) -> Dict[TripleKey, Triple]:
        """The live key -> Triple pool (read-only by convention).

        Exposed so :class:`~repro.kb.graph.Graph` hot loops can yield pooled
        triples with a plain dict index; every key held by a graph on this
        dictionary is guaranteed present (graphs only add keys through
        :meth:`intern_triple`).
        """
        return self._triples

    # -- container protocol --------------------------------------------------

    def __len__(self) -> int:
        return len(self._terms)

    def __contains__(self, term: object) -> bool:
        return term in self._ids

    def __repr__(self) -> str:
        return f"TermDictionary(<{len(self._terms)} terms, {len(self._triples)} triples>)"
