"""Class taxonomy and schema reasoning over a triple store.

Every entity in a KB belongs to one or multiple classes, and those classes
are organized into a taxonomy where more special classes are subsumed by more
general ones (tutorial section 2).  :class:`Taxonomy` materializes that view
from ``rdf:type`` / ``rdfs:subClassOf`` triples and answers subsumption,
instance, and disjointness questions; it also exposes relation signatures
(domain, range, functionality) to the consistency reasoner of section 3.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Optional

from . import ns
from .terms import Entity, Relation
from .store import TripleStore


class Taxonomy:
    """A class hierarchy plus relation signatures, derived from a store.

    The taxonomy is a snapshot: build it once after the schema triples are
    loaded.  Cycles in ``subClassOf`` are tolerated (each class simply ends
    up subsuming the others in its cycle).  Because nothing changes after
    construction, transitive closures are memoized per instance as
    ``frozenset``s; every query returns a fresh ``set``, so a caller that
    mutates a result cannot change the next one.
    """

    def __init__(self, store: TripleStore) -> None:
        self._parents: dict[Entity, set[Entity]] = defaultdict(set)
        self._children: dict[Entity, set[Entity]] = defaultdict(set)
        self._instances: dict[Entity, set[Entity]] = defaultdict(set)
        self._types: dict[Entity, set[Entity]] = defaultdict(set)
        self._domain: dict[Relation, Entity] = {}
        self._range: dict[Relation, Entity] = {}
        self._functional: set[Relation] = set()
        self._disjoint_relations: set[frozenset[Relation]] = set()
        self._disjoint_classes: set[frozenset[Entity]] = set()
        self._superclass_memo: dict[Entity, frozenset[Entity]] = {}
        self._subclass_memo: dict[Entity, frozenset[Entity]] = {}
        self._types_memo: dict[Entity, frozenset[Entity]] = {}
        self._load(store)

    def _load(self, store: TripleStore) -> None:
        for t in store.match(None, ns.SUBCLASS_OF, None):
            if isinstance(t.subject, Entity) and isinstance(t.object, Entity):
                self._parents[t.subject].add(t.object)
                self._children[t.object].add(t.subject)
        for t in store.match(None, ns.TYPE, None):
            if isinstance(t.subject, Entity) and isinstance(t.object, Entity):
                self._instances[t.object].add(t.subject)
                self._types[t.subject].add(t.object)
        for t in store.match(None, ns.DOMAIN, None):
            if isinstance(t.subject, Relation) and isinstance(t.object, Entity):
                self._domain[t.subject] = t.object
        for t in store.match(None, ns.RANGE, None):
            if isinstance(t.subject, Relation) and isinstance(t.object, Entity):
                self._range[t.subject] = t.object
        for t in store.match(None, ns.FUNCTIONAL, None):
            if isinstance(t.subject, Relation):
                self._functional.add(t.subject)
        for t in store.match(None, ns.DISJOINT_WITH, None):
            if isinstance(t.subject, Relation) and isinstance(t.object, Relation):
                self._disjoint_relations.add(frozenset((t.subject, t.object)))
        for t in store.match(None, ns.DISJOINT_CLASS_WITH, None):
            if isinstance(t.subject, Entity) and isinstance(t.object, Entity):
                self._disjoint_classes.add(frozenset((t.subject, t.object)))

    # -------------------------------------------------------------- hierarchy

    def classes(self) -> set[Entity]:
        """Every class mentioned in the hierarchy or as a type."""
        found = set(self._parents) | set(self._children) | set(self._instances)
        for parents in self._parents.values():
            found |= parents
        return found

    def superclasses(self, cls: Entity, include_self: bool = False) -> set[Entity]:
        """The transitive superclasses of ``cls`` (BFS over subClassOf)."""
        closure = self._memo(cls, self._parents, self._superclass_memo)
        return set(closure) | {cls} if include_self else set(closure)

    def subclasses(self, cls: Entity, include_self: bool = False) -> set[Entity]:
        """The transitive subclasses of ``cls``."""
        closure = self._memo(cls, self._children, self._subclass_memo)
        return set(closure) | {cls} if include_self else set(closure)

    def _memo(
        self,
        start: Entity,
        edges: dict[Entity, set[Entity]],
        memo: dict[Entity, frozenset[Entity]],
    ) -> frozenset[Entity]:
        """The memoized exclusive closure of ``start`` along ``edges``."""
        closure = memo.get(start)
        if closure is None:
            closure = memo[start] = frozenset(self._closure(start, edges, False))
        return closure

    @staticmethod
    def _closure(start: Entity, edges: dict[Entity, set[Entity]], include_self: bool) -> set[Entity]:
        """The uncached BFS the memoized closures are built from."""
        seen: set[Entity] = {start} if include_self else set()
        queue = deque(edges.get(start, ()))
        visited = {start}
        while queue:
            node = queue.popleft()
            if node in visited:
                continue
            visited.add(node)
            seen.add(node)
            queue.extend(edges.get(node, ()))
        return seen

    def is_subclass_of(self, sub: Entity, sup: Entity) -> bool:
        """True if ``sub`` is ``sup`` or a transitive subclass of it."""
        return (
            sub == sup
            or sup == ns.THING
            or sup in self._memo(sub, self._parents, self._superclass_memo)
        )

    # -------------------------------------------------------------- instances

    def types_of(self, entity: Entity, transitive: bool = True) -> set[Entity]:
        """The classes an entity belongs to (transitive closure by default)."""
        if not transitive:
            return set(self._types.get(entity, ()))
        return set(self._all_types(entity))

    def _all_types(self, entity: Entity) -> frozenset[Entity]:
        """The memoized transitive types of an entity."""
        full = self._types_memo.get(entity)
        if full is None:
            direct = self._types.get(entity, ())
            closure = set(direct)
            for cls in direct:  # det: allow-unordered -- set union commutes
                closure |= self._memo(cls, self._parents, self._superclass_memo)
            full = self._types_memo[entity] = frozenset(closure)
        return full

    def instances_of(self, cls: Entity, transitive: bool = True) -> set[Entity]:
        """The entities of a class (including subclass instances by default)."""
        found = set(self._instances.get(cls, ()))
        if transitive:
            for sub in self.subclasses(cls):
                found |= self._instances.get(sub, set())
        return found

    def is_instance_of(self, entity: Entity, cls: Entity) -> bool:
        """True if the entity is a (transitive) instance of the class."""
        if cls == ns.THING:
            return True
        return cls in self._all_types(entity)

    # ---------------------------------------------------------------- schema

    def domain_of(self, relation: Relation) -> Optional[Entity]:
        """The declared domain class of a relation, if any."""
        return self._domain.get(relation)

    def range_of(self, relation: Relation) -> Optional[Entity]:
        """The declared range class of a relation, if any."""
        return self._range.get(relation)

    def is_functional(self, relation: Relation) -> bool:
        """True if the relation admits at most one object per subject."""
        return relation in self._functional

    def are_disjoint_relations(self, r1: Relation, r2: Relation) -> bool:
        """True if the two relations were declared mutually exclusive."""
        return frozenset((r1, r2)) in self._disjoint_relations

    def relations_with_disjointness(self) -> frozenset[Relation]:
        """Every relation that appears in some declared-disjoint pair.

        The consistency reasoner's pre-filter: facts of any other relation
        can never participate in a disjointness clause, so their (s, o)
        groups need no pairwise expansion.
        """
        members: set[Relation] = set()
        for pair in self._disjoint_relations:  # det: allow-unordered -- commutative union
            members |= pair
        return frozenset(members)

    def are_disjoint_classes(self, c1: Entity, c2: Entity) -> bool:
        """True if some declared-disjoint pair subsumes (c1, c2)."""
        ancestors1 = self.superclasses(c1, include_self=True)
        ancestors2 = self.superclasses(c2, include_self=True)
        for pair in self._disjoint_classes:  # det: allow-unordered -- symmetric membership test
            a, b = tuple(pair) if len(pair) == 2 else (next(iter(pair)),) * 2
            if (a in ancestors1 and b in ancestors2) or (b in ancestors1 and a in ancestors2):
                return True
        return False

    def type_violations(self, store: TripleStore) -> list:
        """Triples whose subject/object types violate domain/range declarations.

        Entities with *no* known type are not flagged (open-world reading).
        """
        violations = []
        for triple in store:
            relation = triple.predicate
            if not isinstance(relation, Relation):
                continue
            domain = self._domain.get(relation)
            if domain is not None and isinstance(triple.subject, Entity):
                types = self.types_of(triple.subject)
                if types and domain not in types and domain != ns.THING:
                    violations.append(triple)
                    continue
            rng = self._range.get(relation)
            if rng is not None and isinstance(triple.object, Entity):
                types = self.types_of(triple.object)
                if types and rng not in types and rng != ns.THING:
                    violations.append(triple)
        return violations


def schema_triples(
    relation: Relation,
    domain: Optional[Entity] = None,
    range_: Optional[Entity] = None,
    functional: bool = False,
) -> list:
    """Build the schema triples declaring a relation's signature."""
    from .triple import Triple
    from .terms import Literal

    triples = []
    if domain is not None:
        triples.append(Triple(relation, ns.DOMAIN, domain))
    if range_ is not None:
        triples.append(Triple(relation, ns.RANGE, range_))
    if functional:
        triples.append(Triple(relation, ns.FUNCTIONAL, Literal("true")))
    return triples
