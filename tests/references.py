"""Independent references that only the tests read.

``ground_full`` grounds by every substitution, ``ground_scan`` decides
which grounding rules to run again by rescanning row counts,
``search_clauses`` builds the search's clauses from the full grounding of
the guess layer, and ``stable_models_bruteforce`` enumerates every subset
of the head atoms; the tests check ``omq.evaluate.ground`` and the engine
against them at desk scale.  ``models_kb`` checks a finite
interpretation against a normalized KB under the DL semantics, and
``core_extends`` searches a core's
extensions directly; the tests check the oracles and the marking
fixpoint against them.  ``emit_text`` renders a program with a call per
term, and the tests check ``omq.datalog.emit_text`` against it.  ``is_normal`` and ``lc_check`` state the
normal form and local consistency that the tests check the normalizer
and the type space against, and ``decide_by_cores`` states over whole
cores the certainty decision that ``core_enumeration_decide`` makes one
individual at a time.
"""

from __future__ import annotations

import re
from itertools import combinations_with_replacement
from types import SimpleNamespace
from typing import Iterable, Iterator, Sequence

from omq.datalog import Const, DAtom, DProgram, DRule, DTerm, Var, fact_of
from omq.evaluate import Grounding, _Ids, _load, _or_mask, _require_ground, ground
from omq.normalize import _flatten
from omq.oracle import FiniteInterp, NormalKB, cq_matches, iter_cores
from omq.query import OMQ
from omq.syntax import (And, Assertion, Axiom, Basic, Bot, ConceptAssert, Exists, Forall,
                        Name, Nominal, Or, RoleExpr, RoleIncl, Top)
from omq.typespace import (Core, ResourceRefused, TypeContext, TypeVec, is_c_type,
                           mark_types, realized_types, satisfies_clauses, type_of)

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


def ground_scan(p: DProgram, facts: Iterable[DAtom]) -> Grounding:
    """``omq.evaluate.ground`` driven by a scan instead of ``p.readers``:
    rounds over the rules in program order, each rule run when the row
    counts of its positive body's relations differ from when it last
    started, until a round runs no join that derives a new row.  It runs
    the same plans (``p.plans``) and must run the same joins in the same
    order."""
    inputs = list(map(fact_of, facts))
    ids = _Ids((f, i) for i, f in enumerate(dict.fromkeys(inputs)))
    given = len(ids)
    db = _load(p.arities, inputs)
    instances: dict = {}
    seen: list = [None] * len(p.rules)
    changed = True
    while changed:
        changed = False
        for n, (rule, plan) in enumerate(zip(p.rules, p.plans)):
            sizes = tuple(len(db[a.pred].rows) for a in rule.body_pos)
            if sizes == seen[n]:
                continue
            seen[n] = sizes
            if plan.join(db, plan.keys, (instances, ids, n)):
                changed = True
    return Grounding(tuple([lits for (lits, _) in instances]), tuple(instances.values()),
                     ids, given, p)


def grounding_trace(grounder, p: DProgram, facts: Iterable[DAtom]) -> tuple:
    """What ``grounder`` (``omq.evaluate.ground`` or ``ground_scan``)
    returns on ``p`` and ``facts``, as the instances, their rules, the
    atoms in order of their ids and the number of inputs, followed by the
    rule index of each join it runs, in order, logged through a copy of
    ``p`` whose plans log their calls."""
    log: list[int] = []

    def logged(n, plan):
        def join(db, keys, out):
            log.append(n)
            return plan.join(db, keys, out)
        return SimpleNamespace(join=join, keys=plan.keys)
    copy = DProgram(p.rules, p.arities)
    copy.__dict__["plans"] = [logged(n, plan) for n, plan in enumerate(p.plans)]
    g = grounder(copy, facts)
    return g.rules, g.origins, list(g.ids), g.inputs, log


def search_clauses(out, abox: Sequence[Assertion]) -> SimpleNamespace:
    """The clauses, choice families and propagated root that
    ``omq.engine._Searcher`` builds for ``out`` over ``abox``, built from
    the full grounding of the guess layer, each instance read back as a
    triple (heads, positive body, negated body) of atom ids.  Each family
    is exactly one of its pair when its guard holds and neither otherwise,
    and its guess rules' instances are left to it; each other instance is
    a clause by its rule's role, and each derived atom gets its supports
    and its completion, through an auxiliary atom per support of two or
    more atoms.  The root holds the input facts, leaves the family atoms
    and supported atoms open, makes every other atom false, and is closed
    under unit propagation by rescanning every clause until none fires."""
    from omq.engine import CLAUSE, FALSE, GUESS, SUPPORT, TRUE, UNKNOWN, _input_facts
    form = out.evaluation
    grounding = ground(form.layered.p1, _input_facts(out, abox))
    aid = grounding.ids
    families = []
    for (pred, row) in list(aid):
        if pred in form.choices:
            neg, guard = form.choices[pred]
            families.append((aid[pred, row], aid[neg, row],
                             None if guard is None else aid[guard, row]))
    facts = list(aid)
    families.sort(key=lambda f: facts[f[0]])
    clauses: list[tuple[int, ...]] = []
    for (p, n, g) in families:
        clauses.append((2 * p + 1, 2 * n + 1))
        if g is None:
            clauses.append((2 * p, 2 * n))
        else:
            clauses += [(2 * g + 1, 2 * p, 2 * n), (2 * p + 1, 2 * g), (2 * n + 1, 2 * g)]
    supports: dict[int, list[tuple[int, ...]]] = {}
    for lits, n in zip(grounding.rules, grounding.origins):
        rule, role = form.layered.p1.rules[n], form.roles[n]
        h, b = len(rule.head), len(rule.head) + len(rule.body_pos)
        head, pos, neg = ([lit >> 1 for lit in part] for part in (lits[:h], lits[h:b], lits[b:]))
        if role == SUPPORT:
            supports.setdefault(head[0], []).append(pos)
        elif role != GUESS:
            body = tuple([2 * a + 1 for a in pos] + [2 * a for a in neg])
            clauses.append(body if role == CLAUSE else body + (2 * head[0],))
    atoms = len(facts)
    for d, bodies in supports.items():
        some_support = [2 * d + 1]
        for body in bodies:
            clauses.append(tuple([2 * a + 1 for a in body] + [2 * d]))
            if len(body) == 1:
                some_support.append(2 * body[0])
            else:
                clauses += [(2 * atoms + 1, 2 * a) for a in body]
                some_support.append(2 * atoms)
                atoms += 1
        clauses.append(tuple(some_support))
    root = bytearray([FALSE]) * len(facts) + bytearray(atoms - len(facts))
    for a in [*supports, *(x for (p, n, _) in families for x in (p, n))]:
        root[a] = UNKNOWN
    root[:grounding.inputs] = bytes([TRUE]) * grounding.inputs
    conflict, fired = False, True
    while fired and not conflict:
        fired = False
        for clause in clauses:
            values = [root[lit >> 1] for lit in clause]
            if any(v == TRUE + (lit & 1) for v, lit in zip(values, clause)):
                continue
            open_lits = [lit for v, lit in zip(values, clause) if v == UNKNOWN]
            if not open_lits:
                conflict = True
                break
            if len(open_lits) == 1:
                root[open_lits[0] >> 1] = TRUE + (open_lits[0] & 1)
                fired = True
    return SimpleNamespace(clauses=clauses, families=[(p, g) for (p, _, g) in families],
                           root=root, conflict=conflict)


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


_PLAIN_CONST = re.compile(r"[a-z][A-Za-z0-9_]*|\d+")


def _term_text(t: DTerm) -> str:
    if isinstance(t, Var):
        return t.name
    if _PLAIN_CONST.fullmatch(t.symbol):
        return t.symbol
    return '"%s"' % t.symbol.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _atom_text(a: DAtom) -> str:
    if not a.args:
        return a.pred
    return f"{a.pred}({','.join(_term_text(t) for t in a.args)})"


def _rule_text(r: DRule) -> str:
    head = " | ".join(_atom_text(a) for a in r.head)
    body = [_atom_text(a) for a in r.body_pos]
    body += [f"not {_atom_text(a)}" for a in r.body_neg]
    body += [f"{_term_text(x)} != {_term_text(y)}" for (x, y) in r.body_neq]
    if not body:
        return f"{head}."
    if not head:
        return f":- {', '.join(body)}."
    return f"{head} :- {', '.join(body)}."


def emit_text(p: DProgram) -> str:
    """ASP-Core-2 text of ``p``, one rule a line: a constant is bare when it
    is an identifier or a number, and otherwise quoted, with backslash,
    quote and newline escaped."""
    return "\n".join(_rule_text(r) for r in p.rules) + "\n"


def is_normal(axiom: Axiom) -> bool:
    """Syntactic normal-form check on a plain axiom."""
    if isinstance(axiom, RoleIncl):
        return True
    lhs, rhs = axiom.lhs, axiom.rhs
    basic = (Name, Nominal, Top, Bot)
    if isinstance(rhs, (Exists, Forall)):
        return isinstance(lhs, (Name, Nominal)) and isinstance(rhs.filler, (Name, Nominal))
    for part in _flatten(lhs, And):
        if not isinstance(part, basic):
            return False
    for part in _flatten(rhs, Or):
        if not isinstance(part, basic):
            return False
    return True


def lc_check(t: TypeVec, core: Core, ctx: TypeContext) -> bool:
    """Local consistency: all clauses hold, and a type that only individuals
    can realize must actually be realized by an individual of the core."""
    if not satisfies_clauses(t, ctx):
        return False
    if is_c_type(t, ctx) and t not in realized_types(core, ctx):
        return False
    return True


def decide_by_cores(omq: OMQ, abox: Sequence[Assertion], answers: tuple[str, ...]) -> bool:
    """Certainty by walking every core from ``iter_cores``: the tuple is not
    certain exactly when some core falsifies the query and no fringe
    element of it has a type that the marking fixpoint over the core's
    realized types marks."""
    ctx = TypeContext(omq.tbox, omq.sigma)
    marks: dict[frozenset[TypeVec], frozenset[TypeVec]] = {}
    for core in iter_cores(omq, abox):
        if cq_matches(core, omq.query, answers):
            continue
        realized = realized_types(core, ctx)
        if realized not in marks:
            marks[realized] = mark_types(ctx, realized).marked
        if all(type_of(f, core, ctx) not in marks[realized] for f in core.fringe):
            return False
    return True
