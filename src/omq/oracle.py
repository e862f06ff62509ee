"""Two independent desk-scale oracles.

``bounded_model_search`` looks for a finite countermodel directly under
the DL semantics: it enumerates per-element types (with symmetry breaking
over the anonymous elements) and closes the roles maximally, which is
complete for a fixed type assignment because universal and hierarchy
axioms only ever forbid edges while witnesses only ever need them.

``core_enumeration_decide`` decides certainty by enumerating every core
over the instance's individuals bit by bit, pruning with the core
conditions, and testing extendability through the marking fixpoint.
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
from .typespace import (Core, FringeId, ResourceRefused, TypeContext, TypeVec,
                        mark_types, realized_types, type_of)


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


class _CoreSpace:
    """Backtracking enumeration of all valid cores of an instance.

    With a goal (query plus answer binding), subtrees whose individual-level
    part already satisfies the query are pruned: every completion would
    satisfy it too, and the goal asks for falsifying cores only."""

    goal: tuple[ConjunctiveQuery, tuple[str, ...]] | None = None

    def __init__(self, ctx: TypeContext, abox: Sequence[Assertion],
                 individuals: Sequence[str], max_bits: int):
        self.nodes = 0
        self.ctx = ctx
        self.abox = tuple(abox)
        self.inds = tuple(individuals)
        ntbox = ctx.ntbox
        self.open_concepts = [a for a in ntbox.concept_names if a not in ctx.sigma]
        self.open_roles = [p for p in ntbox.role_names if p not in ctx.sigma]
        self.fact_c = {(a.concept, a.individual) for a in self.abox
                       if isinstance(a, ConceptAssert)}
        self.fact_r = {(a.role, a.subject, a.object) for a in self.abox
                       if isinstance(a, RoleAssert)}
        self.n_exist = len(ntbox.existentials)

        # The budget counts the individual-level guess bits (fringe slots
        # are enumerated structurally with witness-aware pruning).
        free_bits = 0
        for e in self.inds:
            free_bits += sum(1 for a in self.open_concepts if (a, e) not in self.fact_c)
        free_bits += len(self.open_roles) * len(self.inds) ** 2
        self.free_bits = free_bits
        if free_bits > max_bits:
            raise ResourceRefused(
                f"core space of {free_bits} free individual bits exceeds "
                f"the budget of {max_bits}")

        self.ind_types = [ctx.types_of(e, self.fact_c) for e in self.inds]
        # A fringe element takes no c-type: no nominal, no closed concept,
        # and (c3.4) no trigger of an existential over a closed role.
        self.fringe_types = [t for t in ctx.valid_types if not t & ctx.ctype_mask]
        # The existentials no fringe element can witness: over a closed role
        # (no fringe edges), or with a nominal or closed filler.
        self.named_only = [ax for ax in ntbox.existentials
                           if ax.role.name in ctx.sigma or ctx.role_closed(ax.role)
                           or not isinstance(ax.filler, Name) or ax.filler.name in ctx.sigma]

    def _tick(self) -> None:
        self.nodes += 1
        if self.nodes > MAX_CORE_NODES:
            raise ResourceRefused(
                f"core enumeration exceeded {MAX_CORE_NODES} search nodes; "
                "instance too large")

    def cores(self) -> Iterator[Core]:
        yield from self._assign_types(0, {})

    def _assign_types(self, idx: int, types: dict[str, TypeVec]) -> Iterator[Core]:
        self._tick()
        if idx == len(self.inds):
            yield from self._assign_roles(types)
            return
        e = self.inds[idx]
        for t in self.ind_types[idx]:
            types[e] = t
            yield from self._assign_types(idx + 1, types)
        types.pop(e, None)

    def _assign_roles(self, types: dict[str, TypeVec]) -> Iterator[Core]:
        ctx = self.ctx
        pairs = []
        for i, d in enumerate(self.inds):
            for e in self.inds[i:]:
                pairs.append((d, e))

        def vectors_for(d: str, e: str) -> list[frozenset[tuple[str, bool]]]:
            same = d == e
            ntbox = ctx.ntbox
            slots = [(p, True) for p in self.open_roles]
            if not same:
                slots += [(p, False) for p in self.open_roles]
            out = []
            for mask in range(1 << len(slots)):
                chosen = {slots[j] for j in range(len(slots)) if mask >> j & 1}

                def edge(r: RoleExpr, fwd: bool) -> bool:
                    want = fwd if not r.inverted else not fwd
                    (u, v) = (d, e) if want else (e, d)
                    if r.name in ctx.sigma:
                        return (r.name, u, v) in self.fact_r
                    if same:
                        return (r.name, True) in chosen
                    return (r.name, want) in chosen

                ok = True
                for p in self.open_roles:  # ABox facts must be present
                    if (p, d, e) in self.fact_r and (p, True) not in chosen:
                        ok = False
                    if not same and (p, e, d) in self.fact_r and (p, False) not in chosen:
                        ok = False
                if ok:
                    for ax in ntbox.role_incls:
                        for fwd in ((True,) if same else (True, False)):
                            if edge(ax.lhs, fwd) and not edge(ax.rhs, fwd):
                                ok = False
                                break
                        if not ok:
                            break
                if ok:
                    for ax in ntbox.universals:
                        for fwd in ((True,) if same else (True, False)):
                            (u, v) = (d, e) if fwd else (e, d)
                            if edge(ax.role, fwd) and self.ctx.has(types[u], ax.lhs) \
                                    and not self.ctx.has(types[v], ax.filler):
                                ok = False
                                break
                        if not ok:
                            break
                if ok:
                    out.append(chosen)
            return out

        choices = [vectors_for(d, e) for (d, e) in pairs]

        def rec(j: int, edges: dict[str, set[tuple[str, str]]]) -> Iterator[Core]:
            self._tick()
            if j == len(pairs):
                if self._named_witnesses_ok(types, edges) and \
                        not self._goal_already_matched(types, edges):
                    yield from self._assign_fringe(types, edges)
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

        yield from rec(0, {})

    def _expr_pairs(self, edges: dict[str, set[tuple[str, str]]],
                    role: RoleExpr) -> Iterator[tuple]:
        if role.name in self.ctx.sigma:
            base = ((x, y) for (q, x, y) in self.fact_r if q == role.name)
        else:
            base = iter(edges.get(role.name, ()))
        if role.inverted:
            return ((y, x) for (x, y) in base)
        return base

    def _goal_already_matched(self, types: dict[str, TypeVec],
                              edges: dict[str, set[tuple[str, str]]]) -> bool:
        if self.goal is None:
            return False
        query, answers = self.goal
        partial = self._core(types, edges, {})
        return cq_matches(partial, query, answers)

    def _core(self, types, edges, fringe) -> Core:
        """The core that the types, the edges between individuals and the
        fringe choices spell out; with no fringe, its individual part."""
        ctx = self.ctx
        typed: dict = dict(types)
        role_ext: dict[str, set] = {p: set() for p in ctx.ntbox.role_names}
        for p, pairs in edges.items():
            role_ext[p].update(pairs)
        for (p, x, y) in self.fact_r:
            if p in ctx.sigma and p in role_ext:
                role_ext[p].add((x, y))
        for fid, (ftype, chosen) in fringe.items():
            typed[fid] = ftype
            for (p, fwd) in chosen:
                role_ext[p].add((fid.parent, fid) if fwd else (fid, fid.parent))
        return Core(self.inds, frozenset(fringe), ctx.extensions(typed),
                    {p: frozenset(s) for p, s in role_ext.items()})

    def _named_witnesses_ok(self, types: dict[str, TypeVec],
                            edges: dict[str, set[tuple[str, str]]]) -> bool:
        """Prune role assignments that already doom an existential whose
        witness must be a named individual."""
        for ax in self.named_only:
            for e in self.inds:
                if not self.ctx.has(types[e], ax.lhs):
                    continue
                if not any(x == e and self.ctx.has(types[y], ax.filler)
                           for (x, y) in self._expr_pairs(edges, ax.role)):
                    return False
        return True

    def _assign_fringe(self, types: dict[str, TypeVec],
                       edges: dict[str, set[tuple[str, str]]]) -> Iterator[Core]:
        ctx = self.ctx
        ntbox = ctx.ntbox

        def fringe_options(parent: str) -> list[tuple[TypeVec, frozenset[tuple[str, bool]]]]:
            ptype = types[parent]
            dirs = [(p, True) for p in self.open_roles] + \
                   [(p, False) for p in self.open_roles]
            out = []
            for ftype in self.fringe_types:
                for mask in range(1 << len(dirs)):
                    chosen = {dirs[j] for j in range(len(dirs)) if mask >> j & 1}

                    def edge(r: RoleExpr, fwd: bool) -> bool:
                        # fwd: parent -> fringe; else fringe -> parent
                        want = fwd if not r.inverted else not fwd
                        if r.name in ctx.sigma:
                            return False
                        return (r.name, want) in chosen

                    ok = True
                    for ax in ntbox.role_incls:
                        for fwd in (True, False):
                            if edge(ax.lhs, fwd) and not edge(ax.rhs, fwd):
                                ok = False
                                break
                        if not ok:
                            break
                    if ok:
                        for ax in ntbox.universals:
                            for fwd in (True, False):
                                (tu, tv) = (ptype, ftype) if fwd else (ftype, ptype)
                                if edge(ax.role, fwd) and self.ctx.has(tu, ax.lhs) \
                                        and not self.ctx.has(tv, ax.filler):
                                    ok = False
                                    break
                            if not ok:
                                break
                    if ok:
                        out.append((ftype, frozenset(chosen)))
            return out

        options_by_parent = {e: fringe_options(e) for e in sorted(set(self.inds))}

        def witnesses_ok(e: str, fringe: dict[FringeId, tuple[TypeVec, frozenset]]) -> bool:
            """Every existential triggered at the individual e is witnessed,
            by a named successor or one of e's own fringe elements."""
            for ax in ntbox.existentials:
                if not self.ctx.has(types[e], ax.lhs):
                    continue
                if any(x == e and self.ctx.has(types[y], ax.filler)
                       for (x, y) in self._expr_pairs(edges, ax.role)):
                    continue
                if ax in self.named_only:
                    return False
                found = False
                for i in range(self.n_exist):
                    opt = fringe.get(FringeId(e, i))
                    if opt is None:
                        continue
                    ftype, chosen = opt
                    want = True if not ax.role.inverted else False
                    if (ax.role.name, want) in chosen and self.ctx.has(ftype, ax.filler):
                        found = True
                        break
                if not found:
                    return False
            return True

        def per_slot(e: str, i: int,
                     fringe: dict[FringeId, tuple[TypeVec, frozenset]]) -> Iterator[None]:
            self._tick()
            if i == self.n_exist:
                if witnesses_ok(e, fringe):
                    yield None
                return
            fid = FringeId(e, i)
            yield from per_slot(e, i + 1, fringe)  # absent
            for opt in options_by_parent[e]:
                fringe[fid] = opt
                yield from per_slot(e, i + 1, fringe)
                del fringe[fid]

        def rec(idx: int, fringe: dict[FringeId, tuple[TypeVec, frozenset]]) -> Iterator[Core]:
            if idx == len(self.inds):
                core = self._build_core(types, edges, fringe)
                if core is not None:
                    yield core
                return
            for _ in per_slot(self.inds[idx], 0, fringe):
                yield from rec(idx + 1, fringe)

        yield from rec(0, {})

    def _build_core(self, types, edges, fringe) -> Core | None:
        core = self._core(types, edges, fringe)
        # (c5)/(c3.4): every individual must witness every existential.
        for ax in self.ctx.ntbox.existentials:
            succ = core.pairs(ax.role)
            for e in self.inds:
                if core.satisfies_basic(ax.lhs, e) and \
                        not any(core.satisfies_basic(ax.filler, y)
                                for (x, y) in succ if x == e):
                    return None
        return core


def iter_cores(omq: OMQ, abox: Sequence[Assertion], max_bits: int = 40) -> Iterator[Core]:
    """Every valid core of the instance, within the free-bit budget on the
    individual-level guesses and a search-node budget on the whole walk."""
    ctx = TypeContext(omq.tbox, omq.sigma)
    inds = individuals_of(omq, abox)
    space = _CoreSpace(ctx, abox, inds, max_bits)
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
                            answers: tuple[str, ...], max_bits: int = 40) -> bool:
    """Certainty by exhaustion: the tuple is NOT certain exactly when some
    valid core falsifies the query and survives the marking fixpoint."""
    if not isinstance(classify(omq), CSafe):
        raise OmqError("core enumeration requires a c-safe query (fold it first)")
    ctx = TypeContext(omq.tbox, omq.sigma)
    mark_memo: dict[frozenset[TypeVec], frozenset[TypeVec]] = {}

    space = _CoreSpace(ctx, abox, individuals_of(omq, abox), max_bits)
    space.goal = (omq.query, answers)
    for core in space.cores():
        if cq_matches(core, omq.query, answers):
            continue
        realized = realized_types(core, ctx)
        marked = mark_memo.get(realized)
        if marked is None:
            marked = mark_types(ctx, realized).marked
            mark_memo[realized] = marked
        if all(type_of(f, core, ctx) not in marked for f in core.fringe):
            return False
    return True


def count_cores(omq: OMQ, abox: Sequence[Assertion], max_bits: int = 40) -> int:
    return sum(1 for _ in iter_cores(omq, abox, max_bits))
