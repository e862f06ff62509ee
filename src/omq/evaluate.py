"""Evaluation of the Datalog IR of ``datalog``: joins, grounding, layers
and the stable-model checks on ground programs.

One join core matches rule bodies: each rule is compiled once into a plan,
generated Python source with a nested ``for`` per positive atom over
relations of rows (tuples of constant symbols), each probing a hash index
on the positions already bound, with the membership and ``!=`` tests
inline.  An index catches up when a join asks for it, taking in the rows
added since it was last asked for, so a row enters only the indexes that a
join probes after it arrived.  No program symbol enters the source, so
rules of one shape share one function.  Two evaluators run on it:

* ``ground`` is relevance-driven: rule instances are produced by joining
  positive body atoms over the atoms derivable when negation is ignored,
  which keeps the ground program proportional to the derivable atoms
  instead of the full substitution space; each fact is numbered in an id
  table when first met, each instance is the tuple of literals of the
  clause it states (heads positive, body negated), which a searcher takes
  as it is, and ``DRule``s are built only on request; a rule runs again
  only after a rule it reads from derived a new row, and a program keeps
  its plans and the rules that read each head (``DProgram.plans``,
  ``DProgram.readers``) for the next grounding;
* ``Layer`` evaluates a layer of definite rules whose negation reads only
  the base below it, by semi-naive rounds that join each rule once per
  body position against the previous round's new rows, building and
  recording each head row in the innermost loop, without building any
  rule instance; it keeps one relation per predicate from call to call,
  empty between calls; ``unfold`` rewrites a layer before it is compiled,
  substituting its helper predicates into the rules that read them, so
  that their rows are never stored.

Inequality literals are decided during matching; because rule safety
bounds both sides by positive atoms, the built-in's occurrence semantics
coincides with plain constant distinctness.
"""

from __future__ import annotations

import weakref
import zlib
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Hashable, Iterable, Mapping, Sequence

from .datalog import (Const, DAtom, DProgram, DRule, DTerm, Fact, Row, Var, atom_of,
                      fact_of)
from .syntax import OmqError
from .typespace import ResourceRefused


# ---------------------------------------------------------------------------
# Joins
#
# Rule bodies are matched over relations of rows, tuples of constant
# symbols.  Each plan is the source of one Python function, in which every
# variable of the rule is a local bound by a loop over rows.


class _Relation:
    """The rows of one predicate in insertion order, with a member set and
    hash indexes on argument positions, each bucket in insertion order.

    An index is built on first use and catches up when next asked for: it
    counts the rows it holds and takes in the rows added since, so a row
    enters an index only if a join asks for that index after the row
    arrived.  ``extend`` leaves the indexes behind; it runs between
    semi-naive rounds, and a generated join asks for its indexes once, at
    the top.  ``add`` brings every index up to date, so a loop over a
    bucket sees rows added while it runs, as a loop over ``rows`` does."""

    __slots__ = ("rows", "members", "indexes")

    def __init__(self, rows: Iterable[Row] = ()) -> None:
        self.rows: list[Row] = list(dict.fromkeys(rows))
        self.members: set[Row] = set(self.rows)
        # positions -> [key, buckets, number of rows taken in]
        self.indexes: dict[tuple[int, ...], list] = {}

    def add(self, row: Row) -> bool:
        if row in self.members:
            return False
        self.members.add(row)
        self.rows.append(row)
        for positions in self.indexes:
            self.index(positions)
        return True

    def extend(self, rows: Sequence[Row]) -> None:
        """Add rows that are not in the relation yet."""
        self.members.update(rows)
        self.rows += rows

    def clear(self) -> None:
        """Drop every row, and every index with them."""
        self.rows.clear()
        self.members.clear()
        self.indexes.clear()

    def index(self, positions: tuple[int, ...]) -> dict:
        entry = self.indexes.get(positions)
        if entry is None:
            entry = self.indexes[positions] = [itemgetter(*positions), {}, 0]
        key, buckets, done = entry
        if done < len(self.rows):
            for row in self.rows[done:]:
                buckets.setdefault(key(row), []).append(row)
            entry[2] = len(self.rows)
        return buckets


# CPython refuses more than 20 statically nested blocks in one function;
# a plan with more loops goes on in a further generated function.
_MAX_LOOPS = 16

# What a match does, by evaluator: lines run before the loops, the return
# line, and how a further function of the same plan is called.
_INSTANCE = (["ch = 0"], ["return ch"], ["ch |= {}"])
_DERIVE = ([], [], ["{}"])
_VIOLATION = ([], ["return False"], ["if {}:", "    return True"])

# Generated join functions by source, shared while some plan holds them.
_JOINS: "weakref.WeakValueDictionary[str, Callable]" = weakref.WeakValueDictionary()


def _tuple(items: Sequence[str]) -> str:
    """The source of a tuple of the expressions ``items``."""
    return f"({items[0]},)" if len(items) == 1 else f"({', '.join(items)})"


def _compile(source: str) -> Callable:
    join = _JOINS.get(source)
    if join is None:
        # A file name per source keeps profiles and tracebacks of the
        # generated functions apart.
        name = f"<join {zlib.crc32(source.encode()):08x}>"
        scope: dict = {}
        exec(compile(source, name, "exec"), scope)
        join = _JOINS[source] = scope["join"]
    return join


DELTA = "+"


class _Plan:
    """A rule body compiled to one generated function, called as
    ``plan.join(db, plan.keys, out)``, where ``db`` maps a predicate to its
    ``_Relation``, and ``(DELTA, predicate)`` to the plain list of rows the
    atom at ``first`` ranges over.

    The positive atoms are matched in a fixed order: ``first`` if given,
    then repeatedly the atom with the fewest unbound variable occurrences,
    ties to the earliest.  Each is one nested ``for``: over the index bucket
    of the values at its bound positions, or over all its rows when none is
    bound; a fully bound atom is a membership test instead, and ``!=`` is
    tested as soon as both sides are bound.  Relations, indexes and member
    sets are looked up once, at the top.  No program symbol enters the
    source: the constants and sources are ``keys``, so rules of one shape
    share one function.  At each match:

    * for ``ground`` (``layer`` false) ``out`` is ``(instances, ids, n)``:
      the instance, its tuple of literals over the atom ids of the id table
      ``ids`` (as in ``Grounding``) paired with its head count, is put in
      the dict ``instances`` with value ``n``, and its heads are added to
      ``db``; the call returns a mask with bit ``i`` set when head ``i``
      was new at some match;
    * for a ``Layer`` rule the negated atoms are tested against ``db``,
      then the head row is put in the dict ``out`` unless ``db`` has it;
    * for a ``Layer`` constraint the negated atoms are tested, and the call
      returns True at the first match (False if there is none).
    """

    __slots__ = ("join", "keys")

    def __init__(self, rule: DRule, layer: bool = False, first: int | None = None):
        keys: list = []
        local: dict[DTerm, str] = {}   # a bound term's name in the source
        preamble: list[str] = []

        def key(obj) -> str:
            keys.append(obj)
            return f"k{len(keys) - 1}"

        def ref(t: DTerm) -> str | None:
            if isinstance(t, Const) and t not in local:
                local[t] = key(t.symbol)
            return local.get(t)

        def row(atom: DAtom) -> str:
            return _tuple([ref(t) for t in atom.args])

        def hoist(expr: str) -> str:
            preamble.append(f"h{len(preamble)} = {expr}")
            return f"h{len(preamble) - 1}"

        if any(isinstance(x, Const) and x == y for (x, y) in rule.body_neq):
            self.join, self.keys = _compile("def join(db, K, out):\n    return False"), ()
            return
        differ = [(x, y) for (x, y) in rule.body_neq if not
                  (isinstance(x, Const) and isinstance(y, Const))]
        steps: list[tuple[str, str, tuple[str, ...]]] = []   # (for|if, text, vars bound)
        conds: list[str] = []
        source: dict[int, str] = {}

        def flush() -> None:
            if conds:
                steps.append(("if", " and ".join(conds), ()))
                conds.clear()

        todo = list(range(len(rule.body_pos)))
        while todo:
            j = first if first is not None and len(todo) == len(rule.body_pos) else min(
                todo, key=lambda j: sum(1 for t in rule.body_pos[j].args
                                        if isinstance(t, Var) and t not in local))
            todo.remove(j)
            atom, delta = rule.body_pos[j], j == first
            source[j] = key((DELTA, atom.pred) if delta else atom.pred)
            target, checks, new, positions, values = [], [], {}, [], []
            for pos, t in enumerate(atom.args):
                r = ref(t)
                if r is None and t not in new:
                    new[t] = f"v{len(local) + len(new)}"
                    target.append(new[t])
                elif r is not None and not delta:
                    target.append("_")
                    positions.append(str(pos))
                    values.append(r)
                else:  # a repeated variable, or a bound position of the delta rows
                    target.append(f"t{pos}")
                    checks.append(f"t{pos} == {r or new[t]}")
            if not new and not delta:
                conds.append(f"{_tuple(values)} in {hoist(f'db[{source[j]}].members')}")
                continue
            flush()
            if positions:
                index = hoist(f"db[{source[j]}].index({_tuple(positions)})")
                rows = f"{index}.get({values[0] if len(values) == 1 else _tuple(values)}, ())"
            else:
                rows = hoist(f"db[{source[j]}]" if delta else f"db[{source[j]}].rows")
            steps.append(("for", f"{_tuple(target)} in {rows}", tuple(new.values())))
            local.update(new)
            conds += checks
            for (x, y) in list(differ):
                if ref(x) is not None and ref(y) is not None:
                    conds.append(f"{ref(x)} != {ref(y)}")
                    differ.remove((x, y))
        if layer:
            conds += [f"{row(a)} not in {hoist(f'db[{key(a.pred)}].members')}"
                      for a in rule.body_neg]
        flush()

        if not layer:
            kind = _INSTANCE
            heads = [key(a.pred) for a in rule.head]
            ids = hoist("out[1]")
            sink = [f"f{i} = {row(a)}" for i, a in enumerate(rule.head)]
            lits = ([f"2 * {ids}[{k}, f{i}]" for i, k in enumerate(heads)]
                    + [f"2 * {ids}[{source[j]}, {row(a)}] + 1"
                       for j, a in enumerate(rule.body_pos)]
                    + [f"2 * {ids}[{key(a.pred)}, {row(a)}]" for a in rule.body_neg])
            sink.append(f"{hoist('out[0].setdefault')}"
                        f"(({_tuple(lits)}, {len(rule.head)}), {hoist('out[2]')})")
            for i, k in enumerate(heads):
                sink += [f"if {hoist(f'db[{k}].add')}(f{i}):", f"    ch |= {1 << i}"]
        elif rule.head:
            kind = _DERIVE
            known = hoist(f"db[{key(rule.head[0].pred)}].members")
            sink = [f"r = {row(rule.head[0])}", f"if r not in {known}:", "    out[r] = None"]
        else:
            kind = _VIOLATION
            sink = ["return True"]
        if keys:
            preamble.insert(0, f"{', '.join(f'k{i}' for i in range(len(keys)))}, = K")
        self.join = _compile(_render(preamble, steps, sink, kind))
        self.keys = tuple(keys)


def _render(preamble: list[str], steps: list[tuple[str, str, tuple[str, ...]]],
            sink: list[str], kind: tuple[list[str], list[str], list[str]]) -> str:
    """The source of ``join`` running ``steps`` nested, then ``sink``.  Past
    ``_MAX_LOOPS`` loops, ``join`` calls ``join1`` with the variables bound
    so far, and so on; the source lists the last of them first."""
    start, end, call = kind
    functions = []
    n, first, params = 0, 0, ()
    while first is not None:
        lines, depth, loops, bound = [*preamble, *start], 0, 0, params
        for i in range(first, len(steps)):
            op, text, names = steps[i]
            if op == "for" and loops == _MAX_LOOPS:
                further = f"join{n + 1}(db, K, out{''.join(', ' + v for v in bound)})"
                lines += ["    " * depth + line.format(further) for line in call]
                first = i
                break
            lines.append("    " * depth + f"{op} {text}:")
            depth, loops, bound = depth + 1, loops + (op == "for"), bound + names
        else:
            lines += ["    " * depth + line for line in sink]
            first = None
        lines += end
        signature = f"def join{n or ''}(db, K, out{''.join(', ' + v for v in params)}):"
        functions.append("\n".join([signature, *("    " + line for line in lines)]))
        n, params = n + 1, bound
    return "\n\n".join(reversed(functions))


def _load(arities: Mapping[str, int], facts: Iterable[Fact]) -> dict[str, _Relation]:
    """Relations for the predicates of ``arities``; facts of other
    predicates, or of another arity, can match no atom and are dropped."""
    rows: dict[str, list[Row]] = {pred: [] for pred in arities}
    for (pred, row) in facts:
        if arities.get(pred) == len(row):
            rows[pred].append(row)
    return {pred: _Relation(part) for pred, part in rows.items()}


# ---------------------------------------------------------------------------
# Grounding


class _Ids(dict):
    """Atom ids by fact: looking up a new fact gives it the next id."""

    def __missing__(self, fact: Fact) -> int:
        i = self[fact] = len(self)
        return i


@dataclass(frozen=True)
class Grounding:
    """A ground program over numbered atoms: ``ids`` maps each fact to its
    atom id, in order of the ids (so ``list(ids)`` is the fact of each id),
    and the first ``inputs`` atoms are the input facts.  Each rule instance
    is one tuple of literals ``2 * atom + negated``, read as the clause it
    states: its heads positive, then its positive body negated, then its
    negated body positive.  ``origins[n]`` is the index in ``source`` of the
    rule that instance ``n`` instantiates, whose head and body lengths split
    the tuple back into a rule."""
    rules: tuple[tuple[int, ...], ...]
    origins: tuple[int, ...]
    ids: dict[Fact, int]
    inputs: int
    source: DProgram

    def program(self) -> DProgram:
        """The same instances as a program of ``DRule``s."""
        atoms = [atom_of(f) for f in self.ids]
        out = []
        for lits, n in zip(self.rules, self.origins):
            r = self.source.rules[n]
            h, b = len(r.head), len(r.head) + len(r.body_pos)
            out.append(DRule(*(tuple(atoms[lit >> 1] for lit in part)
                               for part in (lits[:h], lits[h:b], lits[b:]))))
        return DProgram(tuple(out), dict(self.source.arities))


def ground(p: DProgram, facts: Iterable[DAtom]) -> Grounding:
    """Relevance-driven grounding of ``p`` against ``facts``.

    Produces the rule instances whose positive bodies are satisfiable over
    the atoms derivable when negated literals are ignored; the result has
    the same stable models as the textbook full grounding (together with
    the facts).  Inequality literals are evaluated away.  Each instance is
    recorded once, in the order first derived, as a tuple of literals over
    atom ids: the input facts are numbered first, then each fact where it
    first occurs (heads, then positive body, then negated body).  No rule
    or atom objects are built (``Grounding.program`` builds them).  The
    rules are compiled once per program, into ``p.plans``.

    Every rule runs once, in program order, and again only after a rule
    it reads from derived a new row of a predicate its positive body
    reads: rows are only ever appended to a relation, so a rule whose
    body relations have not grown since it last started can derive
    nothing new.  A join reports which of its heads got a new row, and
    ``p.readers`` lists, per head, the rules to run again.  Rounds go
    over the rules in program order until one derives no new row, so a
    rule runs exactly when its body's row counts differ from when it last
    started.
    """
    inputs = list(map(fact_of, facts))
    ids = _Ids((f, i) for i, f in enumerate(dict.fromkeys(inputs)))
    given = len(ids)
    db = _load(p.arities, inputs)
    # (literals, head count) -> rule index: the head count tells the heads
    # from the negated body where there is no positive body between them
    instances: dict[tuple[tuple[int, ...], int], int] = {}
    plans, readers = p.plans, p.readers
    due = bytearray([1]) * len(plans)
    changed = True
    while changed:
        changed = False
        for n, plan in enumerate(plans):
            if not due[n]:
                continue
            due[n] = 0
            grew = plan.join(db, plan.keys, (instances, ids, n))
            if grew:
                changed = True
                for rules in readers[n]:
                    if grew & 1:
                        for m in rules:
                            due[m] = 1
                    grew >>= 1
    return Grounding(tuple([lits for (lits, _) in instances]), tuple(instances.values()),
                     ids, given, p)


# ---------------------------------------------------------------------------
# Layer evaluation


def unfold(p: DProgram, keep: Iterable[str]) -> DProgram:
    """``p`` with its helper predicates unfolded into the rules that read
    them.  A predicate is unfolded when it is not in ``keep``, its own rules
    do not read it, its heads are distinct variables, and some rule reads
    it, each such rule once and positively: each reader is replaced by one
    rule per defining rule, whose body takes the atom's place with the head
    variables bound to the atom's terms and the other variables renamed
    apart from the reader's.  Candidates go by descending head arity, ties
    in order of first definition, and a predicate that a rule produced by
    an earlier unfolding reads stays, so no rule is unfolded twice and the
    rules grow at most by a factor per unfolding.  Unfolding keeps the least
    model over a base without facts of ``p``'s heads on every predicate
    that stays (Tamaki & Sato, ICLP 1984), and the predicates ``p`` reads
    from below."""
    keep = set(keep)
    rules: list[tuple[DRule, bool]] = [(r, False) for r in p.rules]   # (rule, produced)
    heads = dict.fromkeys(r.head[0].pred for r in p.rules if r.head)
    for pred in sorted((h for h in heads if h not in keep), key=lambda h: -p.arities[h]):
        defs = [r for r, _ in rules if r.head and r.head[0].pred == pred]
        readers = {n for n, (r, _) in enumerate(rules)
                   if any(a.pred == pred for a in r.body_pos + r.body_neg)}
        if not readers or not all(
                not made and r not in defs and not any(a.pred == pred for a in r.body_neg)
                and sum(a.pred == pred for a in r.body_pos) == 1
                for r, made in map(rules.__getitem__, readers)):
            continue
        if not all(all(isinstance(t, Var) for t in args) and len(set(args)) == len(args)
                   for args in (d.head[0].args for d in defs)):
            continue
        rules = [out for n, (r, made) in enumerate(rules) if r not in defs for out in (
            [(_unfold_into(r, pred, d), True) for d in defs] if n in readers else [(r, made)])]
    return DProgram.of_safe(r for r, _ in rules)


def _unfold_into(reader: DRule, pred: str, d: DRule) -> DRule:
    """``reader`` with the body of ``d``, a rule defining ``pred``, in
    place of its atom of ``pred``."""
    j = next(j for j, a in enumerate(reader.body_pos) if a.pred == pred)
    subst: dict[DTerm, DTerm] = dict(zip(d.head[0].args, reader.body_pos[j].args))
    taken = reader.variables()
    for name in sorted(d.variables() - {t.name for t in d.head[0].args}):
        new, n = name, 0
        while new in taken:
            n += 1
            new = f"{name}_{n}"
        taken.add(new)
        subst[Var(name)] = Var(new)

    def atoms(part: tuple[DAtom, ...]) -> tuple[DAtom, ...]:
        return tuple(DAtom(a.pred, tuple(subst.get(t, t) for t in a.args)) for a in part)
    return DRule(reader.head, reader.body_pos[:j] + atoms(d.body_pos) + reader.body_pos[j + 1:],
                 reader.body_neg + atoms(d.body_neg),
                 reader.body_neq + tuple((subst.get(x, x), subst.get(y, y))
                                         for (x, y) in d.body_neq))


class Layer:
    """A layer of definite rules and constraints whose negated and ``!=``
    literals read only the base interpretation below it.  It stores every
    row its rules derive; a caller that needs only some predicates
    compiles ``unfold(p, keep)``, whose helper predicates are never stored.

    The rules are compiled once: a plan per rule, and one more per body
    atom of a predicate the layer derives, with that atom matched first,
    listed under that predicate.  The relations are made once too, one per
    predicate.  ``model`` fills them from a base and runs semi-naive rounds:
    the first round joins each rule whose body's derived predicates all
    have rows already (every rule that reads none); each later round joins,
    per predicate, the variants that match the rows the previous round
    added to it first.  A rule left out of the first round can match
    nothing there, and its first match uses some row added later.  Then it
    scans the constraints over the fixpoint, and empties the relations
    before it returns or raises, so no row outlives a call.  Its result
    equals the closure of ``gl_reduct(ground(p, base).program(), base)``
    over the base, and its verdict the scan of that reduct's constraints.
    Both depend only on the base facts of ``reads``, the predicates below
    the layer that its rules and constraints read, so a caller can memoize
    them on just those facts.  Since its relations are its own, a ``Layer``
    is not re-entrant: one ``model`` call at a time.
    """

    def __init__(self, p: DProgram):
        derived = self.derived = {a.pred for r in p.rules for a in r.head}
        self.arities = dict(p.arities)
        # (head, plan, the derived predicates its body reads)
        self.full: list[tuple[str, _Plan, tuple[str, ...]]] = []
        self.deltas: dict[str, list[tuple[str, _Plan]]] = {}
        self.constraints: list[_Plan] = []
        for rule in p.rules:
            if len(rule.head) > 1:
                raise OmqError(f"layer rule {rule} has a disjunctive head")
            own = sorted({a.pred for a in rule.body_neg} & derived)
            if own:
                raise OmqError(f"layer rule {rule} negates {', '.join(own)}, "
                               f"which its own layer derives")
            if not rule.head:
                self.constraints.append(_Plan(rule, layer=True))
                continue
            head = rule.head[0].pred
            needs = tuple(dict.fromkeys(a.pred for a in rule.body_pos if a.pred in derived))
            self.full.append((head, _Plan(rule, layer=True), needs))
            for j, a in enumerate(rule.body_pos):
                if a.pred in derived:
                    plan = _Plan(rule, layer=True, first=j)
                    self.deltas.setdefault(a.pred, []).append((head, plan))
        self.reads = frozenset(a.pred for r in p.rules for a in r.body_pos + r.body_neg) - derived
        self.db: dict = {pred: _Relation() for pred in self.arities}

    def model(self, base: Iterable[Fact], keep: Iterable[str]) -> tuple[frozenset[Fact], bool]:
        """The facts of the ``keep`` predicates in the least model over
        ``base`` (base facts included), and whether every constraint holds
        there."""
        db, arities = self.db, self.arities
        try:
            for (pred, row) in base:
                rel = db.get(pred)
                if rel is not None and arities[pred] == len(row) and row not in rel.members:
                    rel.members.add(row)
                    rel.rows.append(row)
            added = self._round(db, [(head, plan) for (head, plan, needs) in self.full
                                     if all([db[pred].rows for pred in needs])])
            while added:
                for pred, rows in added.items():
                    db[pred].extend(rows)
                    db[DELTA, pred] = rows
                added = self._round(db, [v for pred in added for v in self.deltas.get(pred, ())])
            facts = frozenset((pred, row) for pred in keep if pred in db
                              for row in db[pred].rows)
            return facts, not any(plan.join(db, plan.keys, None) for plan in self.constraints)
        finally:
            for pred in self.derived:
                db.pop((DELTA, pred), None)
            for rel in db.values():
                if rel.rows:
                    rel.clear()

    @staticmethod
    def _round(db: dict, variants) -> dict[str, list[Row]]:
        """The head rows that one run of each variant adds, per predicate."""
        added: dict[str, dict[Row, None]] = {}
        for (head, plan) in variants:
            plan.join(db, plan.keys, added.setdefault(head, {}))
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


# Atom budget of the minimality search of ``is_stable_model``.
MAX_MINIMALITY_ATOMS = 22


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
