"""Independent references that only the tests read.

``ground_full`` grounds by every substitution, and
``stable_models_bruteforce`` enumerates every subset of the head atoms;
the tests check ``omq.datalog.ground`` and the engine against them at desk
scale.  ``models_kb`` checks a finite interpretation against a normalized
KB under the DL semantics, and ``core_extends`` searches a core's
extensions directly; the tests check the oracles and the marking
fixpoint against them.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from typing import Iterable, Iterator

from omq.datalog import Const, DAtom, DProgram, DRule, DTerm, Var, _or_mask, _require_ground
from omq.oracle import FiniteInterp, NormalKB
from omq.syntax import Basic, ConceptAssert, Name, RoleExpr
from omq.typespace import Core, ResourceRefused, TypeContext, type_of

# Atom budget of ``stable_models_bruteforce``, which searches subsets of atoms.
MAX_BRUTEFORCE_ATOMS = 24


def ground_full(p: DProgram, facts: Iterable[DAtom]) -> DProgram:
    """Textbook grounding: every substitution of variables by the constants
    of the program and facts.  Exponential; only for cross-checks."""
    constants: set[Const] = set()
    for f in facts:
        constants.update(t for t in f.args if isinstance(t, Const))
    for r in p.rules:
        for a in r.head + r.body_pos + r.body_neg:
            constants.update(t for t in a.args if isinstance(t, Const))
    consts = sorted(constants)
    out: dict[DRule, None] = {}
    for rule in p.rules:
        variables = sorted(rule.variables())
        def assignments(i: int, subst: dict[str, Const]) -> Iterator[dict[str, Const]]:
            if i == len(variables):
                yield dict(subst)
                return
            for c in consts:
                subst[variables[i]] = c
                yield from assignments(i + 1, subst)
            subst.pop(variables[i], None)
        for subst in assignments(0, {}):
            def value(t: DTerm) -> Const:
                return subst[t.name] if isinstance(t, Var) else t
            if any(value(x) == value(y) for (x, y) in rule.body_neq):
                continue
            out[DRule(*(tuple(DAtom(a.pred, tuple(map(value, a.args))) for a in atoms)
                        for atoms in (rule.head, rule.body_pos, rule.body_neg)))] = None
    return DProgram(tuple(out), dict(p.arities))




def stable_models_bruteforce(p: DProgram) -> list[frozenset[DAtom]]:
    """All stable models of a ground program, by enumerating candidate
    subsets of the head atoms.  Refuses programs beyond the atom budget.

    Candidates are bitmasks over the interned base; atoms that occur only
    in bodies can never be in a stable model, so positive literals outside
    the base make a rule vacuous and negative ones are dropped."""
    _require_ground(p)
    base = sorted({h for r in p.rules for h in r.head})
    if len(base) > MAX_BRUTEFORCE_ATOMS:
        raise ResourceRefused(
            f"Herbrand base of {len(base)} atoms exceeds the budget of {MAX_BRUTEFORCE_ATOMS}")
    index = {a: j for j, a in enumerate(base)}
    rules = []
    disjunctive = False
    for r in p.rules:
        if any(b not in index for b in r.body_pos):
            continue  # a body atom no rule can derive: never fires
        if any(x == y for (x, y) in r.body_neq):
            continue
        pos = _or_mask(1 << index[b] for b in r.body_pos)
        neg = _or_mask(1 << index[b] for b in r.body_neg if b in index)
        head = _or_mask(1 << index[h] for h in r.head)
        rules.append((pos, neg, head))
        disjunctive = disjunctive or len(r.head) > 1

    out: list[frozenset[DAtom]] = []
    for m in range(1 << len(base)):
        reduct = [(pos, head) for (pos, neg, head) in rules if not neg & m]
        if any((m & pos) == pos and not head & m for (pos, head) in reduct):
            continue  # not even a model
        if not disjunctive:
            lfp = 0
            changed = True
            while changed:
                changed = False
                for (pos, head) in reduct:
                    if head and not head & lfp and (lfp & pos) == pos:
                        lfp |= head
                        changed = True
            if lfp != m:
                continue
        elif m:
            # reject when some proper subset models the reduct
            eff = [(pos, head & m) for (pos, head) in reduct]
            sub = (m - 1) & m
            minimal = True
            while True:
                if all((sub & pos) != pos or sub & head for (pos, head) in eff):
                    minimal = False
                    break
                if sub == 0:
                    break
                sub = (sub - 1) & m
            if not minimal:
                continue
        out.append(frozenset(base[j] for j in range(len(base)) if m >> j & 1))
    return out


def _holds(i: FiniteInterp, b: Basic, e: str) -> bool:
    if isinstance(b, Name):
        return i.in_concept(b.name, e)
    return e == b.individual


def models_kb(i: FiniteInterp, kb: NormalKB) -> bool:
    """Model check under the DL semantics: TBox axioms, ABox facts, and
    exact extensions for the closed predicates."""
    if not i.domain:
        return False
    dom = set(i.domain)
    if any(ind not in dom for ind in kb.individuals):
        return False
    for ax in kb.tbox.clauses:
        for e in i.domain:
            if all(_holds(i, b, e) for b in ax.lhs) and \
                    not any(_holds(i, b, e) for b in ax.rhs):
                return False
    for ax in kb.tbox.existentials:
        succ = i.pairs(ax.role)
        for e in i.domain:
            if _holds(i, ax.lhs, e) and \
                    not any(_holds(i, ax.filler, y) for (x, y) in succ if x == e):
                return False
    for ax in kb.tbox.universals:
        for (x, y) in i.pairs(ax.role):
            if _holds(i, ax.lhs, x) and not _holds(i, ax.filler, y):
                return False
    for ax in kb.tbox.role_incls:
        if not i.pairs(ax.lhs) <= i.pairs(ax.rhs):
            return False
    asserted_c = set()
    asserted_r = set()
    for a in kb.abox:
        if isinstance(a, ConceptAssert):
            asserted_c.add((a.concept, a.individual))
            if not i.in_concept(a.concept, a.individual):
                return False
        else:
            asserted_r.add((a.role, a.subject, a.object))
            if (a.subject, a.object) not in i.role_ext.get(a.role, frozenset()):
                return False
    for name in kb.sigma:
        for e in i.concept_ext.get(name, frozenset()):
            if (name, e) not in asserted_c:
                return False
        for (x, y) in i.role_ext.get(name, frozenset()):
            if (name, x, y) not in asserted_r:
                return False
    return True


def core_extends(kb: NormalKB, core: Core, extra: int) -> bool:
    """Does the core extend to a model of the KB?

    Extension semantics: concept memberships are frozen on the whole core
    domain, role edges between named individuals are frozen, and closed
    predicates gain nothing; edges touching a fringe element may still be
    added (that is how fringe elements reach their witnesses, nominal
    witnesses included).  The search adds up to ``extra`` anonymous
    elements, assigns them types and closes the new edges maximally, which
    is complete for a fixed type assignment by the same argument as the
    countermodel search."""
    ctx = TypeContext(kb.tbox, kb.sigma)
    core_elems = list(core.domain())
    core_types = {e: type_of(e, core, ctx) for e in core_elems}
    anon_candidates = ctx.types_of(None, ())
    hierarchy = kb.tbox.hierarchy

    for m in range(extra + 1):
        anon = [f"_a{j + 1}" for j in range(m)]
        for anon_types in combinations_with_replacement(anon_candidates, m):
            types: dict = dict(core_types)
            types.update(zip(anon, anon_types))
            elements = core_elems + anon

            def edge_ok(p: str, d, e) -> bool:
                if p in kb.sigma:
                    return False  # closed predicates gain no new pairs
                for ax in kb.tbox.universals:
                    if hierarchy.subsumed(RoleExpr(p), ax.role):
                        if ctx.has(types[d], ax.lhs) and not ctx.has(types[e], ax.filler):
                            return False
                    if hierarchy.subsumed(RoleExpr(p, True), ax.role):
                        if ctx.has(types[e], ax.lhs) and not ctx.has(types[d], ax.filler):
                            return False
                for s in hierarchy.subsumers(RoleExpr(p)):
                    if s.name in kb.sigma:
                        return False
                return True

            named = set(core.individuals)
            role_ext = {}
            for p in kb.tbox.role_names:
                pairs = set(core.role_ext.get(p, frozenset()))
                if p not in kb.sigma:
                    for d in elements:
                        for e in elements:
                            if d in named and e in named:
                                continue  # individual-to-individual edges are frozen
                            if edge_ok(p, d, e):
                                pairs.add((d, e))
                role_ext[p] = pairs

            ok = True
            for ax in kb.tbox.existentials:
                if not ok:
                    break
                pname, inverted = ax.role.name, ax.role.inverted
                for e in elements:
                    if not ctx.has(types[e], ax.lhs):
                        continue
                    found = False
                    for (x, y) in role_ext[pname]:
                        (u, v) = (y, x) if inverted else (x, y)
                        if u == e and ctx.has(types[v], ax.filler):
                            found = True
                            break
                    if not found:
                        ok = False
                        break
            if ok:
                return True
    return False
