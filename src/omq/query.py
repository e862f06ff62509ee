"""Query classification and rolling up.

An ontology-mediated query pairs a normalized TBox, the closed-predicate
set and a conjunctive query.  A variable is a *c-variable* when every
model is forced to map it to a named individual: it is an answer
variable, or it occurs in a role atom whose role is subsumed by a closed
role, or in a concept atom over a closed concept.

Queries where every variable is a c-variable evaluate over individuals
directly (c-safe).  Queries that become acyclic once the role atoms
between two c-variables are dropped, with exactly one c-variable per
remaining component, are c-acyclic: each component folds into a single
concept (the query concept of its c-variable) and a fresh marker name,
yielding a c-safe query with the same certain answers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

from .normalize import NormalTBox, normalize
from .parser import ConceptAtom, ConjunctiveQuery, QueryAtom, RoleAtom
from .syntax import (Assertion, Concept, ConceptAssert, ConceptIncl, Exists,
                     KnowledgeBase, Name, OmqError, RoleAssert, RoleExpr,
                     conjoin, subsumed_by_closed, tbox_names)

ROLLUP_PREFIX = "_QT"


@dataclass(frozen=True)
class OMQ:
    tbox: NormalTBox
    sigma: frozenset[str]
    query: ConjunctiveQuery

    @property
    def arity(self) -> int:
        return len(self.query.answer_vars)


@dataclass(frozen=True)
class CSafe:
    pass


@dataclass(frozen=True)
class CAcyclic:
    pass


@dataclass(frozen=True)
class Unsupported:
    reason: str


QueryClass = Union[CSafe, CAcyclic, Unsupported]


def build_omq(kb: KnowledgeBase, query: ConjunctiveQuery,
              allow_extra_abox_names: bool = False) -> OMQ:
    """Normalize a KB and attach a query.

    Names that occur only in the query extend the signature as if declared
    by vacuous axioms, so instance queries over otherwise unconstrained
    predicates work.  ABox names unknown to the TBox are an error unless
    ``allow_extra_abox_names`` downgrades them to the same treatment.
    """
    q_concepts = {a.concept for a in query.atoms if isinstance(a, ConceptAtom)}
    q_roles = {a.role for a in query.atoms if isinstance(a, RoleAtom)}
    extra_c, extra_r = set(q_concepts), set(q_roles)

    # normalize adds only fresh _X<n> names, which no parsed name can be
    known_c, known_r, _ = tbox_names(kb.tbox)
    bad: list[str] = []
    for a in kb.abox:
        if isinstance(a, ConceptAssert):
            if a.concept not in known_c | extra_c:
                bad.append(a.concept)
                extra_c.add(a.concept)
        elif a.role not in known_r | extra_r:
            bad.append(a.role)
            extra_r.add(a.role)
    if bad and not allow_extra_abox_names:
        raise OmqError(
            "ABox uses name(s) not occurring in the TBox: " + ", ".join(sorted(set(bad))))

    ntbox = normalize(kb.tbox, extra_concept_names=extra_c, extra_role_names=extra_r)
    unknown_sigma = [s for s in sorted(kb.sigma)
                     if s not in ntbox.concept_names and s not in ntbox.role_names]
    if unknown_sigma:
        raise OmqError(
            "closed predicate(s) not occurring in the TBox: " + ", ".join(unknown_sigma))
    return OMQ(ntbox, kb.sigma, query)


def c_variables(omq: OMQ) -> frozenset[str]:
    out = set(omq.query.answer_vars)
    for atom in omq.query.atoms:
        if isinstance(atom, ConceptAtom):
            if atom.concept in omq.sigma:
                out.add(atom.var)
        elif subsumed_by_closed(RoleExpr(atom.role), omq.tbox.hierarchy, omq.sigma):
            out.update((atom.subject, atom.object))
    return frozenset(out)


def _reduced_edges(omq: OMQ, cvars: frozenset[str]) -> list[RoleAtom]:
    """Role atoms that survive dropping c-variable-to-c-variable atoms."""
    return [a for a in omq.query.atoms
            if isinstance(a, RoleAtom)
            and not (a.subject in cvars and a.object in cvars)]


def _components(variables: set[str], edges: list[RoleAtom]) -> list[set[str]]:
    adj: dict[str, set[str]] = {v: set() for v in variables}
    for e in edges:
        adj[e.subject].add(e.object)
        adj[e.object].add(e.subject)
    seen: set[str] = set()
    comps: list[set[str]] = []
    for v in sorted(variables):
        if v in seen:
            continue
        comp = {v}
        stack = [v]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in comp:
                    comp.add(y)
                    stack.append(y)
        seen |= comp
        comps.append(comp)
    return comps


def classify(omq: OMQ) -> QueryClass:
    cvars = c_variables(omq)
    variables = omq.query.variables()
    if variables <= cvars:
        return CSafe()

    edges = _reduced_edges(omq, cvars)
    for e in edges:
        if e.subject == e.object:
            return Unsupported(f"self-loop {e} on a non-c-variable")
    by_pair: dict[frozenset[str], int] = {}
    for e in edges:
        by_pair[frozenset((e.subject, e.object))] = \
            by_pair.get(frozenset((e.subject, e.object)), 0) + 1
    for pair, n in sorted(by_pair.items(), key=lambda kv: sorted(kv[0])):
        if n > 1:
            x, y = sorted(pair)
            return Unsupported(f"{n} parallel role atoms between {x} and {y}")

    comps = _components(variables, edges)
    for comp in comps:
        comp_edges = sum(1 for p in by_pair if p <= comp)
        if comp_edges != len(comp) - 1:
            return Unsupported(
                "cycle among variables " + ", ".join(sorted(comp)))
        roots = sorted(comp & cvars)
        if not roots:
            return Unsupported(
                "component {" + ", ".join(sorted(comp)) + "} has no c-variable")
        if len(roots) > 1:
            return Unsupported(
                "component {" + ", ".join(sorted(comp)) + "} has "
                f"{len(roots)} c-variables ({', '.join(roots)})")
    return CAcyclic()


def query_concept(atoms: Iterable[QueryAtom], root: str) -> Concept:
    """Fold a connected acyclic query into a concept rooted at ``root``.

    A role atom towards a child contributes an existential along the atom's
    role (inverted when the atom points at the parent); concept atoms stay
    as conjuncts; the empty conjunction is top.
    """
    atoms = list(atoms)
    concept_atoms: dict[str, list[str]] = {}
    adj: dict[str, list[tuple[str, RoleExpr]]] = {}
    variables: set[str] = set()
    edge_count: dict[frozenset[str], int] = {}
    for a in atoms:
        if isinstance(a, ConceptAtom):
            concept_atoms.setdefault(a.var, []).append(a.concept)
            variables.add(a.var)
        else:
            if a.subject == a.object:
                raise OmqError(f"query graph is cyclic at {a}; cannot fold it")
            pair = frozenset((a.subject, a.object))
            edge_count[pair] = edge_count.get(pair, 0) + 1
            if edge_count[pair] > 1:
                raise OmqError(
                    "query graph is cyclic (parallel role atoms between "
                    f"{' and '.join(sorted(pair))}); cannot fold it")
            variables.update((a.subject, a.object))
            adj.setdefault(a.subject, []).append((a.object, RoleExpr(a.role)))
            adj.setdefault(a.object, []).append((a.subject, RoleExpr(a.role, True)))
    if root not in variables:
        raise OmqError(f"root {root!r} does not occur in the query atoms")

    def build(x: str, parent: str | None, seen: set[str]) -> Concept:
        if x in seen:
            raise OmqError("query graph is cyclic; cannot fold it into a concept")
        seen = seen | {x}
        parts: list[Concept] = [Name(n) for n in sorted(concept_atoms.get(x, []))]
        for (child, role) in sorted(adj.get(x, []), key=lambda t: (t[0], t[1])):
            if child == parent:
                continue
            parts.append(Exists(role, build(child, x, seen)))
        return conjoin(parts)

    return build(root, None, set())


def rollup(omq: OMQ) -> OMQ:
    """Fold every acyclic component into a fresh marker concept, leaving a
    query over c-variables only (same certain answers by construction)."""
    cls = classify(omq)
    if isinstance(cls, Unsupported):
        raise OmqError(f"query not supported: {cls.reason}")
    if isinstance(cls, CSafe):
        return omq

    cvars = c_variables(omq)
    edges = _reduced_edges(omq, cvars)
    comps = _components(omq.query.variables(), edges)
    comps.sort(key=lambda comp: min(comp))

    new_axioms: list[ConceptIncl] = []
    new_atoms: list[QueryAtom] = []
    from .syntax import Top
    for n, comp in enumerate(comps, start=1):
        root = next(iter(sorted(comp & cvars)))
        comp_atoms: list[QueryAtom] = [
            a for a in omq.query.atoms
            if (isinstance(a, ConceptAtom) and a.var in comp)
            or (isinstance(a, RoleAtom) and a in edges and a.subject in comp)]
        folded = query_concept(comp_atoms, root) if comp_atoms else Top()
        marker = f"{ROLLUP_PREFIX}{n}"
        new_axioms.append(ConceptIncl(folded, Name(marker)))
        new_atoms.append(ConceptAtom(marker, root))
    for a in omq.query.atoms:
        if isinstance(a, RoleAtom) and a.subject in cvars and a.object in cvars:
            new_atoms.append(a)

    ntbox = normalize(omq.tbox.as_axioms() + list(new_axioms),
                      extra_concept_names=omq.tbox.concept_names,
                      extra_role_names=omq.tbox.role_names)
    query = ConjunctiveQuery(omq.query.answer_vars, frozenset(new_atoms))
    return OMQ(ntbox, omq.sigma, query)


def individuals_of(omq: OMQ, abox: Iterable[Assertion]) -> tuple[str, ...]:
    """Named individuals of the instance: TBox nominals plus ABox constants."""
    out = set(omq.tbox.nominals)
    for a in abox:
        if isinstance(a, ConceptAssert):
            out.add(a.individual)
        elif isinstance(a, RoleAssert):
            out.update((a.subject, a.object))
    return tuple(sorted(out))
