"""The triple: the atomic statement of the knowledge base."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.kb.errors import TermError
from repro.kb.terms import BNode, IRI, Literal, Term, is_resource

# Captured once so the unchecked constructor can bypass the frozen-dataclass
# __setattr__ even though the class has a field literally named ``object``.
_OBJECT_NEW = object.__new__
_OBJECT_SETATTR = object.__setattr__


@dataclass(frozen=True, order=False)
class Triple:
    """An RDF triple ``(subject, predicate, object)``.

    Subjects must be IRIs or blank nodes, predicates must be IRIs, objects may
    be any term.  Triples are immutable, hashable and ordered by the term
    order, so sets of triples have a canonical sorted serialisation.

    >>> from repro.kb.namespaces import EX, RDF_TYPE, RDFS_CLASS
    >>> Triple(EX.Person, RDF_TYPE, RDFS_CLASS).n3()
    '<http://example.org/Person> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://www.w3.org/2000/01/rdf-schema#Class> .'
    """

    subject: Term
    predicate: IRI
    object: Term

    def __hash__(self) -> int:
        return self._cached_hash  # type: ignore[attr-defined]

    def __post_init__(self) -> None:
        if not is_resource(self.subject):
            raise TermError(
                f"triple subject must be an IRI or blank node, got {type(self.subject).__name__}"
            )
        if not isinstance(self.predicate, IRI):
            raise TermError(
                f"triple predicate must be an IRI, got {type(self.predicate).__name__}"
            )
        if not isinstance(self.object, (IRI, BNode, Literal)):
            raise TermError(
                f"triple object must be an RDF term, got {type(self.object).__name__}"
            )
        # Triples live in graph-difference sets and delta frozensets that are
        # hashed wholesale; the term hashes are already cached, so the tuple
        # hash is cheap enough to precompute eagerly (as IRI does).
        _OBJECT_SETATTR(
            self, "_cached_hash", hash((self.subject, self.predicate, self.object))
        )

    @classmethod
    def _interned(
        cls, subject: Term, predicate: IRI, obj: Term, cached_hash: int | None = None
    ) -> "Triple":
        """Unchecked construction for terms already validated by interning.

        :class:`~repro.kb.interning.TermDictionary` only hands back terms
        that entered through a validated ``Triple``, so materialisation can
        skip ``__init__``/``__post_init__`` entirely.  ``cached_hash`` is
        the hash of an equal triple, when the caller has one.
        """
        triple = _OBJECT_NEW(cls)
        _OBJECT_SETATTR(triple, "subject", subject)
        _OBJECT_SETATTR(triple, "predicate", predicate)
        _OBJECT_SETATTR(triple, "object", obj)
        if cached_hash is None:
            cached_hash = hash((subject, predicate, obj))
        _OBJECT_SETATTR(triple, "_cached_hash", cached_hash)
        return triple

    def n3(self) -> str:
        """One N-Triples line (with trailing ``.``)."""
        return f"{self.subject.n3()} {self.predicate.n3()} {self.object.n3()} ."

    def terms(self) -> Iterator[Term]:
        """Iterate subject, predicate, object."""
        yield self.subject
        yield self.predicate
        yield self.object

    def mentions(self, term: Term) -> bool:
        """True if ``term`` appears in any position of this triple."""
        return term == self.subject or term == self.predicate or term == self.object

    def _sort_key(self) -> tuple:
        return (
            self.subject._sort_key(),
            self.predicate._sort_key(),
            self.object._sort_key(),
        )

    def __lt__(self, other: object) -> bool:
        if not isinstance(other, Triple):
            return NotImplemented
        return self._sort_key() < other._sort_key()

    def __repr__(self) -> str:
        return f"Triple({self.subject!r}, {self.predicate!r}, {self.object!r})"
