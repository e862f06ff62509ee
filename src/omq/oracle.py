"""Two independent desk-scale oracles.

``bounded_model_search`` looks for a finite countermodel directly under
the DL semantics: it enumerates per-element types (with symmetry breaking
over the anonymous elements) and closes the roles maximally, which is
complete for a fixed type assignment because universal and hierarchy
axioms only ever forbid edges while witnesses only ever need them.

``core_enumeration_decide`` decides certainty over the cores of the
instance's individuals and tests extendability through the marking
fixpoint.  The walk picks the individuals' types, then the edges between
them, then each individual's fringe on its own.  One edge filter (role
inclusions, universals, the ABox's edges) serves both kinds of edge, and
one witness check serves both steps.  Types and edges that falsify the
query refute the tuple when every individual has a witnessed fringe
choice over the fringe types the marking leaves unmarked.
Neither path touches the Datalog rewriting, so both can arbitrate it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement, product
from typing import Iterator, Sequence

from .normalize import NormalTBox
from .parser import ConceptAtom, ConjunctiveQuery
from .query import OMQ, CSafe, classify, individuals_of
from .syntax import Assertion, ConceptAssert, Name, OmqError, RoleAssert, RoleExpr
from .typespace import Core, FringeId, ResourceRefused, TypeContext, TypeVec, mark_types


@dataclass(frozen=True)
class FiniteInterp:
    """A finite interpretation; individuals are interpreted as themselves."""

    domain: tuple[str, ...]
    concept_ext: dict[str, frozenset[str]]
    role_ext: dict[str, frozenset[tuple[str, str]]]

    def in_concept(self, name: str, e: str) -> bool:
        return e in self.concept_ext.get(name, frozenset())

    def pairs(self, role: RoleExpr) -> frozenset[tuple[str, str]]:
        base = self.role_ext.get(role.name, frozenset())
        if role.inverted:
            return frozenset((b, a) for (a, b) in base)
        return base


@dataclass(frozen=True)
class NormalKB:
    """A normalized KB with closed predicates plus its data."""

    tbox: NormalTBox
    sigma: frozenset[str]
    abox: tuple[Assertion, ...]

    @property
    def individuals(self) -> tuple[str, ...]:
        out = set(self.tbox.nominals)
        for a in self.abox:
            if isinstance(a, ConceptAssert):
                out.add(a.individual)
            else:
                out.update((a.subject, a.object))
        return tuple(sorted(out))


# ---------------------------------------------------------------------------
# Bounded countermodel search

MAX_ASSIGNMENTS = 2_000_000  # type assignments tried over all domain sizes


def bounded_model_search(kb: NormalKB, goal: Assertion | None,
                         max_size: int) -> FiniteInterp | None:
    """Search domains of growing size for a model of the KB falsifying the
    goal atom (or any model when the goal is None).  A returned
    interpretation is a sound witness; None is inconclusive beyond the
    bound.  Goals must be single ground atoms."""
    ctx = TypeContext(kb.tbox, kb.sigma)
    inds = kb.individuals
    hierarchy = kb.tbox.hierarchy

    fact_c = {(a.concept, a.individual) for a in kb.abox if isinstance(a, ConceptAssert)}
    fact_r = {(a.role, a.subject, a.object) for a in kb.abox if isinstance(a, RoleAssert)}

    if isinstance(goal, RoleAssert):
        # An ABox edge whose hierarchy closure reaches the goal atom makes
        # the goal hold in every model: nothing to search for.
        for (p, x, y) in fact_r:
            if _edge_implies(hierarchy, p, x, y, goal):
                return None
    if isinstance(goal, ConceptAssert) and goal.concept in kb.sigma and \
            (goal.concept, goal.individual) not in fact_c:
        goal = None  # a closed concept without the fact is false everywhere

    def goal_mask(e: str) -> int:
        if isinstance(goal, ConceptAssert) and goal.individual == e \
                and Name(goal.concept) in ctx.bit_of:
            return 1 << ctx.bit_of[Name(goal.concept)]
        return 0

    ind_candidates = [ctx.types_of(e, fact_c, goal_mask(e)) for e in inds]
    anon_candidates = ctx.types_of(None, fact_c)

    budget = MAX_ASSIGNMENTS
    for size in range(max(1, len(inds)), max_size + 1):
        m = size - len(inds)
        anon = [f"_a{j + 1}" for j in range(m)]
        elements = list(inds) + anon
        for assignment in product(*ind_candidates) if ind_candidates else [()]:
            for anon_types in combinations_with_replacement(anon_candidates, m):
                budget -= 1
                if budget < 0:
                    raise ResourceRefused(
                        f"countermodel search exceeded {MAX_ASSIGNMENTS} type assignments")
                types = dict(zip(inds, assignment))
                types.update(zip(anon, anon_types))
                interp = _close_roles(kb, ctx, elements, types, goal, fact_r)
                if interp is not None:
                    return interp
    return None


def _edge_implies(hierarchy, p: str, x: str, y: str, goal: RoleAssert) -> bool:
    for s in hierarchy.subsumers(RoleExpr(p)):
        if s.name != goal.role:
            continue
        (u, v) = (y, x) if s.inverted else (x, y)
        if (u, v) == (goal.subject, goal.object):
            return True
    return False


def _close_roles(kb: NormalKB, ctx: TypeContext, elements: list[str],
                 types: dict[str, TypeVec], goal: Assertion | None,
                 fact_r: set[tuple[str, str, str]]) -> FiniteInterp | None:
    """Maximal role extensions compatible with the type assignment, minus
    the edges that would imply the goal; None if the axioms cannot hold."""
    hierarchy = kb.tbox.hierarchy

    def edge_ok(p: str, d: str, e: str) -> bool:
        for ax in kb.tbox.universals:
            if hierarchy.subsumed(RoleExpr(p), ax.role):
                if ctx.has(types[d], ax.lhs) and not ctx.has(types[e], ax.filler):
                    return False
            if hierarchy.subsumed(RoleExpr(p, True), ax.role):
                if ctx.has(types[e], ax.lhs) and not ctx.has(types[d], ax.filler):
                    return False
        for s in hierarchy.subsumers(RoleExpr(p)):
            if s.name in kb.sigma:
                (u, v) = (e, d) if s.inverted else (d, e)
                if (s.name, u, v) not in fact_r:
                    return False
        return True

    def blocked(p: str, d: str, e: str) -> bool:
        return isinstance(goal, RoleAssert) and _edge_implies(hierarchy, p, d, e, goal)

    role_ext: dict[str, frozenset[tuple[str, str]]] = {}
    for p in kb.tbox.role_names:
        if p in kb.sigma:
            pairs = {(x, y) for (q, x, y) in fact_r if q == p}
            if any(not edge_ok(p, x, y) or blocked(p, x, y) for (x, y) in pairs):
                return None
            role_ext[p] = frozenset(pairs)
        else:
            facts = {(x, y) for (q, x, y) in fact_r if q == p}
            pairs = {(d, e) for d in elements for e in elements
                     if edge_ok(p, d, e) and not blocked(p, d, e)}
            if not facts <= pairs:
                return None
            role_ext[p] = frozenset(pairs)

    interp = FiniteInterp(tuple(elements), ctx.extensions(types), role_ext)
    for ax in kb.tbox.existentials:
        succ = interp.pairs(ax.role)
        for e in elements:
            if ctx.has(types[e], ax.lhs) and \
                    not any(ctx.has(types[y], ax.filler) for (x, y) in succ if x == e):
                return None
    return interp


# ---------------------------------------------------------------------------
# Core enumeration

MAX_CORE_NODES = 5_000_000  # search nodes of one walk over the core space
MAX_FREE_BITS = 40  # individual-level guess bits of one core space

Slot = tuple[str, bool]  # an open role and its direction on one edge
_Types = dict[str, TypeVec]  # each individual's type
_Edges = dict[str, set[tuple[str, str]]]  # each role's edges between individuals
_Fringe = dict[FringeId, tuple[TypeVec, frozenset[Slot]]]  # each fringe element's type, slots


class _CoreSpace:
    """Backtracking enumeration of all valid cores of an instance, as the
    product of two walks: ``parts`` picks the individual-level part (the
    individuals' types, then the edges between them), and ``fringes`` picks
    one individual's fringe elements over a given list of fringe types."""

    def __init__(self, ctx: TypeContext, abox: Sequence[Assertion],
                 individuals: Sequence[str]):
        self.nodes = 0
        self.ctx = ctx
        self.inds = tuple(individuals)
        ntbox = ctx.ntbox
        self.open_roles = [p for p in ntbox.role_names if p not in ctx.sigma]
        fact_c = {(a.concept, a.individual) for a in abox if isinstance(a, ConceptAssert)}
        self.fact_r = {(a.role, a.subject, a.object) for a in abox
                       if isinstance(a, RoleAssert)}
        self.n_exist = len(ntbox.existentials)

        # The budget counts the individual-level guess bits (fringe slots
        # are enumerated structurally with witness-aware pruning).
        free_bits = len(self.open_roles) * len(self.inds) ** 2
        for e in self.inds:
            free_bits += sum(1 for a in ntbox.concept_names
                             if a not in ctx.sigma and (a, e) not in fact_c)
        if free_bits > MAX_FREE_BITS:
            raise ResourceRefused(
                f"core space of {free_bits} free individual bits exceeds "
                f"the budget of {MAX_FREE_BITS}")

        self.ind_types = [ctx.types_of(e, fact_c) for e in self.inds]
        # A fringe element takes no c-type: no nominal, no closed concept,
        # and (c3.4) no trigger of an existential over a closed role.
        self.fringe_types = [t for t in ctx.valid_types if not t & ctx.ctype_mask]
        # Each existential as (trigger bit, filler bit, role name, inverted),
        # the form the witness check reads.
        bit = ctx.bit_of
        self.existentials = [(1 << bit[ax.lhs], 1 << bit[ax.filler], ax.role.name,
                              ax.role.inverted) for ax in ntbox.existentials]
        # The existentials no fringe element can witness: over a closed role
        # (no fringe edges), or with a nominal or closed filler.
        self.named_only = [spec for spec, ax in zip(self.existentials, ntbox.existentials)
                           if ax.role.name in ctx.sigma or ctx.role_closed(ax.role)
                           or not isinstance(ax.filler, Name) or ax.filler.name in ctx.sigma]

    def _tick(self) -> None:
        self.nodes += 1
        if self.nodes > MAX_CORE_NODES:
            raise ResourceRefused(
                f"core enumeration exceeded {MAX_CORE_NODES} search nodes; "
                "instance too large")

    def cores(self) -> Iterator[Core]:
        def complete(idx: int, fringe: _Fringe) -> Iterator[Core]:
            if idx == len(self.inds):
                yield self._core(types, edges, fringe)
                return
            for own in self.fringes(self.inds[idx], types, edges, self.fringe_types):
                yield from complete(idx + 1, {**fringe, **own})

        for types, edges in self.parts():
            yield from complete(0, {})

    def parts(self) -> Iterator[tuple[_Types, _Edges]]:
        """Each individual-level part whose named-only existentials have
        named witnesses; its dicts are reused, so read them before resuming."""
        yield from self._assign_types(0, {})

    def _assign_types(self, idx: int, types: _Types) -> Iterator[tuple[_Types, _Edges]]:
        self._tick()
        if idx == len(self.inds):
            yield from self._assign_roles(types)
            return
        e = self.inds[idx]
        for t in self.ind_types[idx]:
            types[e] = t
            yield from self._assign_types(idx + 1, types)
        types.pop(e, None)

    def _edge_sets(self, td: TypeVec, te: TypeVec, same: bool,
                   asserted: set[Slot]) -> list[frozenset[Slot]]:
        """The sets of open-role slots on the edge between elements d and e,
        of types td and te, under which the role inclusions and universals
        hold.  A slot (p, True) is a p-edge from d to e, (p, False) one from
        e to d; when d and e are one element, only forward slots exist.
        ``asserted`` holds the slots the ABox gives, over any role: an open
        one must be chosen, and a closed one is an edge exactly when it is
        asserted (so never at the fringe)."""
        ctx = self.ctx
        dirs = (True,) if same else (True, False)
        slots = [(p, fwd) for fwd in dirs for p in self.open_roles]
        required = [s for s in slots if s in asserted]

        def edge(chosen: frozenset[Slot], r: RoleExpr, fwd: bool) -> bool:
            slot = (r.name, fwd != r.inverted or same)
            return slot in (asserted if r.name in ctx.sigma else chosen)

        out = []
        for mask in range(1 << len(slots)):
            chosen = frozenset(slots[j] for j in range(len(slots)) if mask >> j & 1)
            if not chosen.issuperset(required):
                continue
            if any(edge(chosen, ax.lhs, fwd) and not edge(chosen, ax.rhs, fwd)
                   for ax in ctx.ntbox.role_incls for fwd in dirs):
                continue
            if any(edge(chosen, ax.role, fwd) and ctx.has(td if fwd else te, ax.lhs)
                   and not ctx.has(te if fwd else td, ax.filler)
                   for ax in ctx.ntbox.universals for fwd in dirs):
                continue
            out.append(chosen)
        return out

    def _witnessed(self, types: _Types, edges: _Edges, fringe: _Fringe,
                   axioms: list[tuple[int, int, str, bool]], inds: Sequence[str]) -> bool:
        """Does every existential of ``axioms`` that an individual of ``inds``
        triggers have a witness: a named successor over ``edges``, or one of
        the individual's elements in ``fringe``?"""
        for (lhs, filler, role, inverted) in axioms:
            pairs = edges.get(role, ())
            if inverted:
                witnessed = {y for (x, y) in pairs if types[x] & filler}
            else:
                witnessed = {x for (x, y) in pairs if types[y] & filler}
            if fringe:
                slot = (role, not inverted)
                witnessed.update(f.parent for f, (ftype, chosen) in fringe.items()
                                 if slot in chosen and ftype & filler)
            for e in inds:
                if types[e] & lhs and e not in witnessed:
                    return False
        return True

    def _assign_roles(self, types: _Types) -> Iterator[tuple[_Types, _Edges]]:
        pairs = [(d, e) for i, d in enumerate(self.inds) for e in self.inds[i:]]
        choices = []
        for (d, e) in pairs:
            # The ABox's edges between d and e, as slots.
            asserted = {(p, x == d) for (p, x, y) in self.fact_r
                        if (x, y) == (d, e) or (y, x) == (d, e)}
            choices.append(self._edge_sets(types[d], types[e], d == e, asserted))

        def rec(j: int, edges: _Edges) -> Iterator[tuple[_Types, _Edges]]:
            self._tick()
            if j == len(pairs):
                if self._witnessed(types, edges, {}, self.named_only, self.inds):
                    yield types, edges
                return
            d, e = pairs[j]
            for chosen in choices[j]:
                added = []
                for (p, fwd) in chosen:
                    pair = (d, e) if fwd else (e, d)
                    edges.setdefault(p, set()).add(pair)
                    added.append((p, pair))
                yield from rec(j + 1, edges)
                for (p, pair) in added:
                    edges[p].discard(pair)

        # The closed roles' edges are the ABox's, from the start.
        yield from rec(0, {p: {(x, y) for (q, x, y) in self.fact_r if q == p}
                           for p in self.ctx.ntbox.role_names if p in self.ctx.sigma})

    def fringes(self, e: str, types: _Types, edges: _Edges,
                ftypes: Sequence[TypeVec]) -> Iterator[_Fringe]:
        """Each choice of e's fringe elements, typed from ``ftypes``, that
        witnesses what e triggers along with e's named successors; the dict
        is reused, so read it before resuming."""
        options = [(ftype, chosen) for ftype in ftypes
                   for chosen in self._edge_sets(types[e], ftype, False, set())]
        fringe: _Fringe = {}

        def per_slot(i: int) -> Iterator[_Fringe]:
            self._tick()
            if i == self.n_exist:
                if self._witnessed(types, edges, fringe, self.existentials, (e,)):
                    yield fringe
                return
            fid = FringeId(e, i)
            yield from per_slot(i + 1)  # absent
            for opt in options:
                fringe[fid] = opt
                yield from per_slot(i + 1)
                del fringe[fid]

        return per_slot(0)

    def _core(self, types, edges, fringe) -> Core:
        """The core that the types, the edges between individuals and the
        fringe choices spell out; with no fringe, its individual part."""
        typed: dict = dict(types)
        role_ext: dict[str, set] = {p: set(edges.get(p, ())) for p in self.ctx.ntbox.role_names}
        for fid, (ftype, chosen) in fringe.items():
            typed[fid] = ftype
            for (p, fwd) in chosen:
                role_ext[p].add((fid.parent, fid) if fwd else (fid, fid.parent))
        return Core(self.inds, frozenset(fringe), self.ctx.extensions(typed),
                    {p: frozenset(s) for p, s in role_ext.items()})


def iter_cores(omq: OMQ, abox: Sequence[Assertion]) -> Iterator[Core]:
    """Every valid core of the instance, within the free-bit budget on the
    individual-level guesses and a search-node budget on the whole walk."""
    ctx = TypeContext(omq.tbox, omq.sigma)
    inds = individuals_of(omq, abox)
    space = _CoreSpace(ctx, abox, inds)
    return space.cores()


def cq_matches(core: Core, query: ConjunctiveQuery,
               answers: tuple[str, ...]) -> bool:
    """Does the core satisfy the query with its answer variables bound?"""
    binding: dict[str, object] = dict(zip(query.answer_vars, answers))
    atoms = sorted(query.atoms, key=str)
    domain = core.domain()

    def match(i: int, env: dict) -> bool:
        if i == len(atoms):
            return True
        a = atoms[i]
        if isinstance(a, ConceptAtom):
            if a.var in env:
                return core.in_concept(a.concept, env[a.var]) and match(i + 1, env)
            for e in domain:
                if core.in_concept(a.concept, e):
                    env2 = dict(env)
                    env2[a.var] = e
                    if match(i + 1, env2):
                        return True
            return False
        pairs = core.pairs(RoleExpr(a.role))
        for (x, y) in pairs:
            if a.subject in env and env[a.subject] != x:
                continue
            if a.object in env and env[a.object] != y:
                continue
            env2 = dict(env)
            env2[a.subject] = x
            env2[a.object] = y
            if match(i + 1, env2):
                return True
        return False

    return match(0, binding)


def core_enumeration_decide(omq: OMQ, abox: Sequence[Assertion],
                            answers: tuple[str, ...]) -> bool:
    """Certainty by exhaustion: the tuple is NOT certain exactly when some
    valid core falsifies the query and survives the marking fixpoint."""
    if not isinstance(classify(omq), CSafe):
        raise OmqError("core enumeration requires a c-safe query (fold it first)")
    ctx = TypeContext(omq.tbox, omq.sigma)
    space = _CoreSpace(ctx, abox, individuals_of(omq, abox))
    unmarked: dict[frozenset[TypeVec], list[TypeVec]] = {}
    # Each individual-level part is decided on its own: the c-safe query maps
    # every variable to an individual, so a core falsifies it when its part
    # does; the marking reads only the types the individuals realize; and a
    # fringe element touches only its parent, whose witness check reads only
    # its own fringe.  So a part has a surviving core exactly when every
    # individual has a witnessed fringe choice over the unmarked types.
    for types, edges in space.parts():
        if cq_matches(space._core(types, edges, {}), omq.query, answers):
            continue
        realized = frozenset(types.values())
        if realized not in unmarked:
            marked = mark_types(ctx, realized).marked
            unmarked[realized] = [t for t in space.fringe_types if t not in marked]
        if all(any(True for _ in space.fringes(e, types, edges, unmarked[realized]))
               for e in space.inds):
            return False
    return True
