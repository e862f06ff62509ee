"""Independent references that only the tests read.

``ground_full`` grounds by every substitution, and
``stable_models_bruteforce`` enumerates every subset of the head atoms;
the tests check ``omq.datalog.ground`` and the engine against them at desk
scale.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from omq.datalog import Const, DAtom, DProgram, DRule, DTerm, Var, _or_mask, _require_ground
from omq.typespace import ResourceRefused

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
