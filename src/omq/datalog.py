"""Datalog with disjunction, stable negation and built-in inequality.

The rewriting targets this IR.  Grounding is relevance-driven: rule
instances are produced by joining positive body atoms over the atoms
derivable when negation is ignored, which keeps the ground program
proportional to the derivable atoms instead of the full substitution
space.  Inequality literals are decided during instantiation; because
rule safety bounds both sides by positive atoms, the built-in's
occurrence semantics coincides with plain constant distinctness.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Iterator, Mapping, Sequence, Union

from .syntax import OmqError
from .typespace import ResourceRefused


@dataclass(frozen=True, order=True)
class Var:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, order=True)
class Const:
    symbol: str

    def __str__(self) -> str:
        return self.symbol


DTerm = Union[Var, Const]


@dataclass(frozen=True, order=True)
class DAtom:
    pred: str
    args: tuple[DTerm, ...] = ()

    def __str__(self) -> str:
        if not self.args:
            return self.pred
        return f"{self.pred}({','.join(map(str, self.args))})"


@dataclass(frozen=True)
class DRule:
    head: tuple[DAtom, ...] = ()
    body_pos: tuple[DAtom, ...] = ()
    body_neg: tuple[DAtom, ...] = ()
    body_neq: tuple[tuple[DTerm, DTerm], ...] = ()

    @property
    def is_fact(self) -> bool:
        return len(self.head) == 1 and not (self.body_pos or self.body_neg or self.body_neq)

    def variables(self) -> set[str]:
        out: set[str] = set()
        for a in self.head + self.body_pos + self.body_neg:
            out.update(t.name for t in a.args if isinstance(t, Var))
        for (x, y) in self.body_neq:
            out.update(t.name for t in (x, y) if isinstance(t, Var))
        return out

    def is_ground(self) -> bool:
        return not self.variables()

    def check_safety(self) -> None:
        bound = {t.name for a in self.body_pos for t in a.args if isinstance(t, Var)}
        loose = self.variables() - bound
        if loose:
            raise OmqError(
                f"unsafe rule: variable(s) {', '.join(sorted(loose))} not bound "
                f"by a positive body atom in {rule_text(self)!r}")

    def __str__(self) -> str:
        return rule_text(self)


HerbrandInterp = frozenset[DAtom]


@dataclass(frozen=True)
class DProgram:
    rules: tuple[DRule, ...]
    arities: Mapping[str, int] = field(default_factory=dict)

    @staticmethod
    def of(rules: Iterable[DRule]) -> "DProgram":
        rules = tuple(rules)
        arities: dict[str, int] = {}
        for r in rules:
            r.check_safety()
            for a in r.head + r.body_pos + r.body_neg:
                got = arities.setdefault(a.pred, len(a.args))
                if got != len(a.args):
                    raise OmqError(
                        f"predicate {a.pred} used with arities {got} and {len(a.args)}")
        return DProgram(rules, arities)

    def is_disjunctive(self) -> bool:
        return any(len(r.head) > 1 for r in self.rules)

    def has_negation(self) -> bool:
        return any(r.body_neg for r in self.rules)


# ---------------------------------------------------------------------------
# Grounding


def _unify(atom: DAtom, fact: DAtom, subst: dict[str, Const]) -> dict[str, Const] | None:
    if atom.pred != fact.pred or len(atom.args) != len(fact.args):
        return None
    out = dict(subst)
    for (t, c) in zip(atom.args, fact.args):
        assert isinstance(c, Const)
        if isinstance(t, Const):
            if t != c:
                return None
        else:
            bound = out.get(t.name)
            if bound is None:
                out[t.name] = c
            elif bound != c:
                return None
    return out


def _substitute(atom: DAtom, subst: Mapping[str, Const]) -> DAtom:
    return DAtom(atom.pred, tuple(
        subst[t.name] if isinstance(t, Var) else t for t in atom.args))


def _matches(body: Sequence[DAtom], by_pred: Mapping[str, list[DAtom]],
             known: set[DAtom], subst: dict[str, Const]) -> Iterator[dict[str, Const]]:
    if not body:
        yield subst
        return
    # Pick the most-bound atom next; fully bound ones are set lookups.
    def unbound(a: DAtom) -> int:
        return sum(1 for t in a.args if isinstance(t, Var) and t.name not in subst)
    idx = min(range(len(body)), key=lambda j: unbound(body[j]))
    first = body[idx]
    rest = body[:idx] + body[idx + 1:]
    if unbound(first) == 0:
        if _substitute(first, subst) in known:
            yield from _matches(rest, by_pred, known, subst)
        return
    for fact in by_pred.get(first.pred, ()):
        s = _unify(first, fact, subst)
        if s is not None:
            yield from _matches(rest, by_pred, known, s)


def ground(p: DProgram, facts: Iterable[DAtom]) -> DProgram:
    """Relevance-driven grounding of ``p`` against ``facts``.

    Produces the rule instances whose positive bodies are satisfiable over
    the atoms derivable when negated literals are ignored; the result has
    the same stable models as the textbook full grounding (together with
    the facts).  Inequality literals are evaluated away.

    Atoms are only ever appended to ``by_pred``, so a rule whose body
    predicates have the same atom counts as when it last started can
    derive nothing new and is not run again.
    """
    by_pred: dict[str, list[DAtom]] = {}
    derivable: set[DAtom] = set()

    def add_atom(a: DAtom) -> bool:
        if a in derivable:
            return False
        derivable.add(a)
        by_pred.setdefault(a.pred, []).append(a)
        return True

    for f in facts:
        add_atom(f)

    instances: dict[DRule, None] = {}
    seen: list[tuple[int, ...] | None] = [None] * len(p.rules)
    changed = True
    while changed:
        changed = False
        for n, rule in enumerate(p.rules):
            sizes = tuple(len(by_pred.get(a.pred, ())) for a in rule.body_pos)
            if sizes == seen[n]:
                continue
            seen[n] = sizes
            for subst in _matches(rule.body_pos, by_pred, derivable, {}):
                ok = True
                for (x, y) in rule.body_neq:
                    xv = subst[x.name] if isinstance(x, Var) else x
                    yv = subst[y.name] if isinstance(y, Var) else y
                    if xv == yv:
                        ok = False
                        break
                if not ok:
                    continue
                g = DRule(
                    head=tuple(_substitute(a, subst) for a in rule.head),
                    body_pos=tuple(_substitute(a, subst) for a in rule.body_pos),
                    body_neg=tuple(_substitute(a, subst) for a in rule.body_neg),
                )
                instances.setdefault(g, None)
                for h in g.head:
                    if add_atom(h):
                        changed = True
    return DProgram(tuple(instances), dict(p.arities))


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
            ok = True
            for (x, y) in rule.body_neq:
                xv = subst[x.name] if isinstance(x, Var) else x
                yv = subst[y.name] if isinstance(y, Var) else y
                if xv == yv:
                    ok = False
                    break
            if not ok:
                continue
            out[DRule(
                head=tuple(_substitute(a, subst) for a in rule.head),
                body_pos=tuple(_substitute(a, subst) for a in rule.body_pos),
                body_neg=tuple(_substitute(a, subst) for a in rule.body_neg),
            )] = None
    return DProgram(tuple(out), dict(p.arities))


# ---------------------------------------------------------------------------
# Stable-model semantics on ground programs


def _or_mask(bits) -> int:
    out = 0
    for b in bits:
        out |= b
    return out


def _require_ground(p: DProgram) -> None:
    for r in p.rules:
        if not r.is_ground():
            raise OmqError(f"expected a ground program, found variables in {r}")


def gl_reduct(p: DProgram, interp: Iterable[DAtom]) -> DProgram:
    """Delete every rule whose negated body intersects the interpretation,
    then strip the remaining negated literals."""
    _require_ground(p)
    i = frozenset(interp)
    out = []
    for r in p.rules:
        if any(a in i for a in r.body_neg):
            continue
        out.append(DRule(head=r.head, body_pos=r.body_pos))
    return DProgram(tuple(out), dict(p.arities))


def closure(rules: Sequence[tuple[Hashable, Sequence[Hashable]]],
            seed: Iterable[Hashable] = ()) -> set:
    """Least superset of ``seed`` closed under the definite ground rules
    ``(head, body)``: ``head`` holds once every atom of ``body`` holds.
    Atoms may be anything hashable (``DAtom``s or interned ids)."""
    true = set(seed)
    changed = True
    while changed:
        changed = False
        for (head, body) in rules:
            if head not in true and all(b in true for b in body):
                true.add(head)
                changed = True
    return true


def least_model(p: DProgram) -> frozenset[DAtom]:
    """Least model of the definite part of a positive non-disjunctive ground
    program (constraints are ignored here; check them separately)."""
    _require_ground(p)
    return frozenset(closure([(r.head[0], r.body_pos)
                              for r in p.rules if len(r.head) == 1]))


def models_program(p: DProgram, interp: frozenset[DAtom]) -> bool:
    for r in p.rules:
        if all(b in interp for b in r.body_pos) and \
                not any(a in interp for a in r.body_neg):
            if not any(h in interp for h in r.head):
                return False
    return True


def is_stable_model(p: DProgram, interp: Iterable[DAtom],
                    max_minimality_atoms: int = 22) -> bool:
    """Stability check: the interpretation must be a minimal model of its
    GL-reduct.  Within subsets of the interpretation only the reduct rules
    whose body lies inside it can fire, with their heads cut to it; when
    each keeps at most one head they are definite and minimality is the
    least-model comparison.  Otherwise proper subsets are searched, which
    is refused beyond a desk-scale atom budget."""
    _require_ground(p)
    i = frozenset(interp)
    reduct = gl_reduct(p, i)
    if not models_program(reduct, i):
        return False
    rules = [([h for h in r.head if h in i], r.body_pos) for r in reduct.rules
             if all(b in i for b in r.body_pos)]
    if all(len(heads) <= 1 for heads, _ in rules):
        return i == closure([(heads[0], body) for heads, body in rules if heads])
    atoms = sorted(i)
    if len(atoms) > max_minimality_atoms:
        raise ResourceRefused(
            f"minimality search over {len(atoms)} atoms exceeds the budget "
            f"of {max_minimality_atoms}")
    index = {a: n for n, a in enumerate(atoms)}
    masks = [(_or_mask(1 << index[b] for b in body), _or_mask(1 << index[h] for h in heads))
             for heads, body in rules]
    full = (1 << len(atoms)) - 1
    sub = (full - 1) & full
    while True:
        if all((sub & body) != body or (sub & head) for (body, head) in masks):
            return False  # proper submodel found
        if sub == 0:
            return True
        sub = (sub - 1) & full


def stable_models_bruteforce(p: DProgram, max_atoms: int = 24) -> list[HerbrandInterp]:
    """All stable models of a ground program, by enumerating candidate
    subsets of the head atoms.  Refuses programs beyond the atom budget.

    Candidates are bitmasks over the interned base; atoms that occur only
    in bodies can never be in a stable model, so positive literals outside
    the base make a rule vacuous and negative ones are dropped."""
    _require_ground(p)
    base = sorted({h for r in p.rules for h in r.head})
    if len(base) > max_atoms:
        raise ResourceRefused(
            f"Herbrand base of {len(base)} atoms exceeds the budget of {max_atoms}")
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

    out: list[HerbrandInterp] = []
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


# ---------------------------------------------------------------------------
# Text emission (ASP-Core-2 compatible)


_PLAIN_CONST = re.compile(r"[a-z][A-Za-z0-9_]*$|\d+$")


def _term_text(t: DTerm) -> str:
    if isinstance(t, Var):
        return t.name
    if _PLAIN_CONST.match(t.symbol):
        return t.symbol
    return '"%s"' % t.symbol.replace('"', '\\"')


def _atom_text(a: DAtom) -> str:
    if not a.args:
        return a.pred
    return f"{a.pred}({','.join(_term_text(t) for t in a.args)})"


def rule_text(r: DRule) -> str:
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
    return "\n".join(rule_text(r) for r in p.rules) + "\n"


_ATOM_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)(?:\(([^()]*)\))?")


def parse_ground_atoms(text: str) -> list[DAtom]:
    """Parse space-separated ground atoms, e.g. ``ind(a) tt(1) q(a,b)``."""
    out: list[DAtom] = []
    for token in text.split():
        m = _ATOM_RE.fullmatch(token)
        if not m:
            raise OmqError(f"cannot parse atom {token!r}")
        pred, args = m.group(1), m.group(2)
        if not args:
            out.append(DAtom(pred))
        else:
            out.append(DAtom(pred, tuple(Const(s.strip()) for s in args.split(","))))
    return out
