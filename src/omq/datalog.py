"""Datalog with disjunction, stable negation and built-in inequality.

The rewriting targets this IR.  One join core matches rule bodies: each
rule is compiled once into a plan of nested loops over relations of rows
(tuples of constant symbols), each step probing a hash index on the
positions already bound.  Two evaluators run on it:

* ``ground`` is relevance-driven: rule instances are produced by joining
  positive body atoms over the atoms derivable when negation is ignored,
  which keeps the ground program proportional to the derivable atoms
  instead of the full substitution space; the instances are tuples of
  ``(predicate, row)`` facts, and ``DRule``s are built only on request;
* ``Layer`` evaluates a layer of definite rules whose negation reads only
  the base below it, by semi-naive rounds that join each rule once per
  body position against the previous round's new rows, without building
  any rule instance.

Inequality literals are decided during matching; because rule safety
bounds both sides by positive atoms, the built-in's occurrence semantics
coincides with plain constant distinctness.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence, Union

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


@dataclass(frozen=True)
class DProgram:
    rules: tuple[DRule, ...]
    arities: Mapping[str, int] = field(default_factory=dict)

    @staticmethod
    def of(rules: Iterable[DRule]) -> "DProgram":
        """A program of new rules: each must be safe, and each predicate
        keeps one arity."""
        rules = tuple(rules)
        for r in rules:
            r.check_safety()
        return DProgram.of_safe(rules)

    @staticmethod
    def of_safe(rules: Iterable[DRule]) -> "DProgram":
        """A program of rules already checked for safety, such as the rules
        of other programs; only the arities are checked."""
        rules = tuple(rules)
        arities: dict[str, int] = {}
        for r in rules:
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
# Joins
#
# Rule bodies are matched over relations of rows, tuples of constant
# symbols.  A partial match is one flat tuple: the rule's constants followed
# by the rows matched so far, so every term of the rule is an index into it.

Row = tuple[str, ...]
Fact = tuple[str, Row]


def fact_of(a: DAtom) -> Fact:
    """The ``(predicate, row)`` form of a ground atom."""
    return a.pred, tuple(t.symbol for t in a.args)


def atom_of(f: Fact) -> DAtom:
    return DAtom(f[0], tuple(map(Const, f[1])))


class _Relation:
    """The rows of one predicate in insertion order, with a member set and
    hash indexes on argument positions.  An index is built on first use and
    extended on every insert, each bucket in insertion order, so a loop over
    a bucket sees rows added while it runs, as a loop over ``rows`` does."""

    __slots__ = ("rows", "members", "indexes")

    def __init__(self, rows: Sequence[Row] = ()) -> None:
        self.rows: list[Row] = list(rows)
        self.members: set[Row] = set(rows)
        self.indexes: dict[tuple[int, ...], tuple[itemgetter, dict]] = {}

    def add(self, row: Row) -> bool:
        if row in self.members:
            return False
        self.extend((row,))
        return True

    def extend(self, rows: Sequence[Row]) -> None:
        """Add rows that are not in the relation yet."""
        self.members.update(rows)
        self.rows += rows
        for key, index in self.indexes.values():
            for row in rows:
                index.setdefault(key(row), []).append(row)

    def index(self, positions: tuple[int, ...]) -> dict:
        got = self.indexes.get(positions)
        if got is None:
            key, index = itemgetter(*positions), {}
            for row in self.rows:
                index.setdefault(key(row), []).append(row)
            self.indexes[positions] = got = (key, index)
        return got[1]


def _row_getter(refs: tuple[int, ...]) -> Callable[[tuple], Row]:
    """The tuple of the flat match's entries at ``refs``."""
    if len(refs) == 1:
        i = refs[0]
        return lambda flat: (flat[i],)
    if not refs:
        return lambda flat: ()
    return itemgetter(*refs)


def _checks_hold(flat: tuple, same: Sequence[tuple[int, int]],
                 differ: Sequence[tuple[int, int]]) -> bool:
    return all(flat[i] == flat[j] for (i, j) in same) and \
        all(flat[i] != flat[j] for (i, j) in differ)


def _loop(source, positions, key, same, differ, nxt):
    """Extend the match by each row of ``source`` that agrees with it on
    ``positions`` (all rows when there are none) and passes the checks."""
    checked = bool(same or differ)

    def run(db, flat, out):
        rel = db[source]
        for row in rel.index(positions).get(key(flat), ()) if positions else rel.rows:
            f = flat + row
            if not checked or _checks_hold(f, same, differ):
                nxt(db, f, out)
    return run


def _test(source, row, present, nxt):
    """Go on when the fully bound ``row`` is (or, negated, is not) in ``source``."""
    def run(db, flat, out):
        if (row(flat) in db[source].members) == present:
            nxt(db, flat, out)
    return run


def _emit(db, flat, out):
    out(flat)


def _never(db, flat, out):
    pass


DELTA = "+"


class _Plan:
    """A rule body compiled to nested loops.  The positive atoms are matched
    in a fixed order: ``first`` if given, then repeatedly the atom with the
    fewest unbound variable occurrences, ties to the earliest.  An atom with
    bound positions loops over the index bucket of their values, a fully
    bound one is a membership test, and ``!=`` is tested as soon as both
    sides are bound; with ``negation`` the negated atoms are tested last.
    ``run(db, consts, out)`` calls ``out`` with every flat match over
    ``db``, which maps a source to its ``_Relation``: a predicate, or
    ``(DELTA, predicate)`` for the atom at ``first``."""

    def __init__(self, rule: DRule, first: int | None = None, negation: bool = False):
        terms = [t for a in rule.head + rule.body_pos + rule.body_neg for t in a.args]
        terms += [t for pair in rule.body_neq for t in pair]
        self._consts: dict[str, int] = {}
        for t in terms:
            if isinstance(t, Const):
                self._consts.setdefault(t.symbol, len(self._consts))
        self.consts: Row = tuple(self._consts)
        self._slot: dict[str, int] = {}
        self.run = _never
        if any(isinstance(x, Const) and x == y for (x, y) in rule.body_neq):
            return
        differ = [(x, y) for (x, y) in rule.body_neq if not
                  (isinstance(x, Const) and isinstance(y, Const))]
        width = len(self.consts)
        steps = []
        todo = list(range(len(rule.body_pos)))
        while todo:
            j = first if not steps and first is not None else min(
                todo, key=lambda j: sum(1 for t in rule.body_pos[j].args
                                        if isinstance(t, Var) and t.name not in self._slot))
            todo.remove(j)
            atom = rule.body_pos[j]
            bound, same, new = [], [], {}
            for pos, t in enumerate(atom.args):
                ref = self._ref(t)
                if ref is not None:
                    bound.append((pos, ref))
                elif t.name in new:
                    same.append((width + new[t.name], width + pos))
                else:
                    new[t.name] = pos
            if j == first:  # the delta rows are scanned, not indexed
                same += [(width + pos, ref) for (pos, ref) in bound]
                bound = []
            elif not new:
                steps.append((_test, atom.pred, self.row(atom), True))
                continue
            self._slot.update((name, width + pos) for (name, pos) in new.items())
            width += len(atom.args)
            now = [(self._ref(x), self._ref(y)) for (x, y) in differ]
            differ = [d for (d, refs) in zip(differ, now) if None in refs]
            steps.append((_loop, (DELTA, atom.pred) if j == first else atom.pred,
                          tuple(pos for (pos, _) in bound),
                          bound and itemgetter(*(ref for (_, ref) in bound)),
                          same, [refs for refs in now if None not in refs]))
        if negation:
            steps += [(_test, a.pred, self.row(a), False) for a in rule.body_neg]
        self.run = _emit
        for (build, *args) in reversed(steps):
            self.run = build(*args, self.run)

    def _ref(self, t: DTerm) -> int | None:
        if isinstance(t, Const):
            return self._consts[t.symbol]
        return self._slot.get(t.name)

    def row(self, atom: DAtom) -> Callable[[tuple], Row]:
        """The row of ``atom`` under the match so far."""
        return _row_getter(tuple(self._ref(t) for t in atom.args))


def _load(arities: Mapping[str, int], facts: Iterable[Fact]) -> dict[str, _Relation]:
    """Relations for the predicates of ``arities``; facts of other
    predicates, or of another arity, can match no atom and are dropped."""
    db = {pred: _Relation() for pred in arities}
    for (pred, row) in facts:
        if arities.get(pred) == len(row):
            db[pred].add(row)
    return db


# ---------------------------------------------------------------------------
# Grounding


GroundRule = tuple[tuple[Fact, ...], tuple[Fact, ...], tuple[Fact, ...]]


def rule_of(rule: GroundRule) -> DRule:
    """The ``DRule`` of a ground rule given as (heads, positive body,
    negated body) fact tuples."""
    return DRule(*(tuple(map(atom_of, part)) for part in rule))


@dataclass(frozen=True)
class Grounding:
    """A ground program in fact form: each rule instance is a triple of fact
    tuples (heads, positive body, negated body)."""
    rules: tuple[GroundRule, ...]
    arities: Mapping[str, int]

    def program(self) -> DProgram:
        """The same instances as a program of ``DRule``s."""
        return DProgram(tuple(map(rule_of, self.rules)), dict(self.arities))


def ground(p: DProgram, facts: Iterable[DAtom]) -> Grounding:
    """Relevance-driven grounding of ``p`` against ``facts``.

    Produces the rule instances whose positive bodies are satisfiable over
    the atoms derivable when negated literals are ignored; the result has
    the same stable models as the textbook full grounding (together with
    the facts).  Inequality literals are evaluated away.  Each instance is
    recorded as fact tuples, once, in the order first derived; no rule or
    atom objects are built (``Grounding.program`` builds them).

    Rows are only ever appended to a relation, so a rule whose body
    predicates have the same row counts as when it last started can derive
    nothing new and is not run again.
    """
    db = _load(p.arities, map(fact_of, facts))
    plans = [_Plan(r) for r in p.rules]

    instances: dict[GroundRule, None] = {}
    seen: list[tuple[int, ...] | None] = [None] * len(p.rules)
    changed = True
    while changed:
        changed = False
        for n, (rule, plan) in enumerate(zip(p.rules, plans)):
            sizes = tuple(len(db[a.pred].rows) for a in rule.body_pos)
            if sizes == seen[n]:
                continue
            seen[n] = sizes
            parts = [[(a.pred, plan.row(a)) for a in atoms]
                     for atoms in (rule.head, rule.body_pos, rule.body_neg)]

            def instance(flat, parts=parts):
                nonlocal changed
                head, pos, neg = [tuple([(pred, row(flat)) for (pred, row) in part])
                                  for part in parts]
                instances.setdefault((head, pos, neg), None)
                for (pred, row) in head:
                    if db[pred].add(row):
                        changed = True
            plan.run(db, plan.consts, instance)
    return Grounding(tuple(instances), dict(p.arities))


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


# ---------------------------------------------------------------------------
# Layer evaluation


class Layer:
    """A layer of definite rules and constraints whose negated and ``!=``
    literals read only the base interpretation below it.

    The rules are compiled once: a plan per rule, and one more per body
    atom of a predicate the layer derives, with that atom matched first.
    ``model`` runs semi-naive rounds over a base: the first round joins
    every rule over the base; each later round joins, per body position,
    only the rows the previous round added there.  Its result equals the
    closure of ``gl_reduct(ground(p, base).program(), base)`` over the
    base, and its constraint verdict the scan of that reduct's constraints.
    """

    def __init__(self, p: DProgram):
        derived = {a.pred for r in p.rules for a in r.head}
        self.arities = dict(p.arities)
        self.full: list[tuple[str, _Plan, Callable]] = []
        self.deltas: list[tuple[str, tuple[str, _Plan, Callable]]] = []
        self.constraints: list[_Plan] = []
        for rule in p.rules:
            if len(rule.head) > 1:
                raise OmqError(f"layer rule {rule} has a disjunctive head")
            own = sorted({a.pred for a in rule.body_neg} & derived)
            if own:
                raise OmqError(f"layer rule {rule} negates {', '.join(own)}, "
                               f"which its own layer derives")
            if not rule.head:
                self.constraints.append(_Plan(rule, negation=True))
                continue
            head = rule.head[0]
            plan = _Plan(rule, negation=True)
            self.full.append((head.pred, plan, plan.row(head)))
            for j, a in enumerate(rule.body_pos):
                if a.pred in derived:
                    plan = _Plan(rule, j, negation=True)
                    self.deltas.append((a.pred, (head.pred, plan, plan.row(head))))

    def model(self, base: Iterable[Fact],
              keep: Iterable[str]) -> tuple[frozenset[Fact], bool]:
        """The facts of the ``keep`` predicates in the least model over
        ``base`` (base facts included), and whether every constraint holds
        there."""
        db: dict = _load(self.arities, base)
        added = self._round(db, self.full)
        while added:
            for pred, rows in added.items():
                db[pred].extend(rows)
                db[DELTA, pred] = _Relation(rows)
            added = self._round(db, [v for (pred, v) in self.deltas if pred in added])
        violated: list[tuple] = []
        for plan in self.constraints:
            plan.run(db, plan.consts, violated.append)
            if violated:
                break
        facts = frozenset((pred, row) for pred in keep if pred in db
                          for row in db[pred].rows)
        return facts, not violated

    @staticmethod
    def _round(db: dict, variants) -> dict[str, list[Row]]:
        """The head rows that one run of each variant adds, per predicate."""
        added: dict[str, dict[Row, None]] = {}
        for (head, plan, row) in variants:
            known = db[head].members
            new = added.setdefault(head, {})

            def derive(flat, row=row, known=known, new=new):
                r = row(flat)
                if r not in known:
                    new[r] = None
            plan.run(db, plan.consts, derive)
        return {pred: list(rows) for pred, rows in added.items() if rows}


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
    return _reduct(p, frozenset(interp))


def _reduct(p: DProgram, i: frozenset[DAtom]) -> DProgram:
    """``gl_reduct`` of a program already known to be ground."""
    out = [DRule(head=r.head, body_pos=r.body_pos) for r in p.rules
           if not any(a in i for a in r.body_neg)]
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


# Atom budgets of the two checks below that search subsets of atoms.
MAX_MINIMALITY_ATOMS = 22
MAX_BRUTEFORCE_ATOMS = 24


def models_program(p: DProgram, interp: frozenset[DAtom]) -> bool:
    for r in p.rules:
        if all(b in interp for b in r.body_pos) and \
                not any(a in interp for a in r.body_neg):
            if not any(h in interp for h in r.head):
                return False
    return True


def is_stable_model(p: DProgram, interp: Iterable[DAtom]) -> bool:
    """Stability check: the interpretation must be a minimal model of its
    GL-reduct.  Within subsets of the interpretation only the reduct rules
    whose body lies inside it can fire, with their heads cut to it; when
    each keeps at most one head they are definite and minimality is the
    least-model comparison.  Otherwise proper subsets are searched, which
    is refused beyond a desk-scale atom budget."""
    _require_ground(p)
    i = frozenset(interp)
    reduct = _reduct(p, i)
    if not models_program(reduct, i):
        return False
    rules = [([h for h in r.head if h in i], r.body_pos) for r in reduct.rules
             if all(b in i for b in r.body_pos)]
    if all(len(heads) <= 1 for heads, _ in rules):
        return i == closure([(heads[0], body) for heads, body in rules if heads])
    atoms = sorted(i)
    if len(atoms) > MAX_MINIMALITY_ATOMS:
        raise ResourceRefused(
            f"minimality search over {len(atoms)} atoms exceeds the budget "
            f"of {MAX_MINIMALITY_ATOMS}")
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
    """Parse space-separated ground atoms, e.g. ``ind(a) tt(1) q(a,b)``; an
    empty argument, as in ``q(a,,b)``, is an error."""
    out: list[DAtom] = []
    for token in text.split():
        m = _ATOM_RE.fullmatch(token)
        if not m:
            raise OmqError(f"cannot parse atom {token!r}")
        pred, args = m.group(1), m.group(2)
        if not args:
            out.append(DAtom(pred))
            continue
        terms = tuple(Const(s.strip()) for s in args.split(","))
        if not all(c.symbol for c in terms):
            raise OmqError(f"empty argument in atom {token!r}")
        out.append(DAtom(pred, terms))
    return out
