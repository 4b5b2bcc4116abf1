"""RDF-style terms: entities, relations, and literals.

Today's knowledge bases represent their data mostly in RDF-style SPO
(subject-predicate-object) triples (Suchanek & Weikum, VLDB 2014, section 2).
This module defines the three kinds of term that can appear in such triples:

* :class:`Entity` — a named individual (``yago:Steve_Jobs``),
* :class:`Relation` — a predicate (``yago:wasBornIn``),
* :class:`Literal` — a typed value (``"1955"^^xsd:integer``, ``"Paris"@fr``).

Terms are immutable and hashable, so they can be used directly as dictionary
keys in the triple-store indexes.  Each term computes its hash once, at
construction, and keeps it in a slot that equality and ``repr`` ignore:
store inserts and lookups hash their terms many times, and the dataclass
hash would rebuild a tuple on every call.  The cached number is exactly the
dataclass hash (``hash((id,))``, ``hash((value, datatype, lang))``), so set
and dict iteration orders are the same as without the cache.  str hashes
are salted per process, so a term is pickled (and copied) by rebuilding it
through its constructor, never by shipping the cached number.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union


@dataclass(frozen=True, slots=True)
class Entity:
    """A named individual, identified by a namespaced identifier.

    The identifier is an opaque string such as ``"world:Steve_Jobs"``.  Two
    entities are the same iff their identifiers are equal; human-readable
    names live in ``rdfs:label`` triples, not in the identifier.
    """

    id: str
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("Entity id must be a non-empty string")
        object.__setattr__(self, "_hash", hash((self.id,)))  # det: allow-unordered -- cached in-process

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (Entity, (self.id,))

    @property
    def local_name(self) -> str:
        """The identifier without its namespace prefix."""
        __, __, local = self.id.rpartition(":")
        return local or self.id

    def __str__(self) -> str:
        return self.id

    def __repr__(self) -> str:
        return f"Entity({self.id!r})"


@dataclass(frozen=True, slots=True)
class Relation:
    """A binary predicate connecting a subject to an object.

    Relations may declare a *domain* and *range* class (used by the
    consistency reasoner) and whether they are *functional* (at most one
    object per subject, e.g. ``wasBornIn``).  These attributes are carried as
    schema triples in the store; the dataclass itself is just the identifier.
    """

    id: str
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("Relation id must be a non-empty string")
        object.__setattr__(self, "_hash", hash((self.id,)))  # det: allow-unordered -- cached in-process

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (Relation, (self.id,))

    @property
    def local_name(self) -> str:
        """The identifier without its namespace prefix."""
        __, __, local = self.id.rpartition(":")
        return local or self.id

    def __str__(self) -> str:
        return self.id

    def __repr__(self) -> str:
        return f"Relation({self.id!r})"


@dataclass(frozen=True, slots=True)
class Literal:
    """A typed literal value, optionally carrying a language tag.

    ``value`` is stored as a plain string; ``datatype`` names the lexical
    space (``"string"``, ``"integer"``, ``"decimal"``, ``"date"``, ``"year"``).
    Use :meth:`to_python` to obtain the native Python value.
    """

    value: str
    datatype: str = "string"
    lang: str | None = None
    _hash: int = field(init=False, repr=False, compare=False)

    _KNOWN_DATATYPES = frozenset({"string", "integer", "decimal", "date", "year"})

    def __post_init__(self) -> None:
        if self.datatype not in self._KNOWN_DATATYPES:
            raise ValueError(f"unknown literal datatype: {self.datatype!r}")
        if self.lang is not None and self.datatype != "string":
            raise ValueError("language tags are only valid on string literals")
        object.__setattr__(
            self,
            "_hash",
            hash((self.value, self.datatype, self.lang)),  # det: allow-unordered -- cached in-process
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (Literal, (self.value, self.datatype, self.lang))

    def to_python(self) -> Union[str, int, float]:
        """Convert the lexical value to its native Python representation."""
        if self.datatype == "integer" or self.datatype == "year":
            return int(self.value)
        if self.datatype == "decimal":
            return float(self.value)
        return self.value

    def __str__(self) -> str:
        if self.lang:
            return f'"{self.value}"@{self.lang}'
        if self.datatype != "string":
            return f'"{self.value}"^^{self.datatype}'
        return f'"{self.value}"'

    def __repr__(self) -> str:
        return f"Literal({self.value!r}, {self.datatype!r}, lang={self.lang!r})"


#: Anything that may appear in the object position of a triple.
Term = Union[Entity, Relation, Literal]
#: Anything that may appear in the subject position of a triple.
Resource = Union[Entity, Relation]


def string_literal(value: str, lang: str | None = None) -> Literal:
    """Create a string literal, optionally language-tagged."""
    return Literal(value, "string", lang)


def integer_literal(value: int) -> Literal:
    """Create an integer literal."""
    return Literal(str(int(value)), "integer")


def year_literal(value: int) -> Literal:
    """Create a year literal (a calendar year, possibly negative for BCE)."""
    return Literal(str(int(value)), "year")


def decimal_literal(value: float) -> Literal:
    """Create a decimal literal."""
    return Literal(repr(float(value)), "decimal")
