"""Layered stable-model evaluation of rewritten programs.

The rewriting declares a layer per predicate: a guess layer over the
named individuals (at most two variables per rule), the realized-type
layer, the marking layer and the fringe filter.  Lower layers never
depend on higher ones, and negation in a layer only mentions predicates
settled below it.  The guess layer is ground once, straight to
``(predicate, row)`` facts; these are interned to ints and compiled into
clauses: one group per choice family, the constraints, and the
completion of its derived atoms (the answer atoms ``q`` among them).
Evaluation backtracks over the choice atoms with unit propagation over
those clauses, from a root propagated once, and reads each leaf's model
off the value array.  The upper layers are compiled once into
``datalog.Layer`` join plans and evaluated semi-naively, in order, over
each leaf's model, each one over the facts it reads and memoized on
them; a branch whose upper layers violate a constraint is discarded.
Only the guess layer is ever ground.
Certain answers are the tuples reported by every surviving branch, found
by cautious enumeration on one searcher: the candidates start as the
answer tuples of the first surviving branch, each further search adds the
clause that some remaining candidate's answer atom is false, and every
branch it finds drops the candidates it falsifies, until a search finds
no branch.  The answer tuples are read off each branch's value array;
``DRule`` and ``DAtom`` objects are built only at the edge, for the
callers that ask for rules or models.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice, product
from typing import Iterable, Iterator, Sequence

# ``ground``, ``gl_reduct`` and ``stratify`` are looked up through this module
# by tracers that wrap them (perfbench/spans.py); keep the names here.
from .datalog import (DAtom, DProgram, DRule, Fact, Layer, atom_of, fact_of,
                      gl_reduct, ground, is_stable_model, rule_of)
from .query import individuals_of, OMQ
from .rewrite import RewriteOutput, abox_facts, db_constant_facts
from .syntax import Assertion, OmqError
from .typespace import ResourceRefused

UNKNOWN, TRUE, FALSE = 0, 1, 2

# Search-node budget of ``enumerate_guess_models``, which walks every branch.
ENUMERATION_BRANCH_LIMIT = 2_000_000


class StratifyError(OmqError):
    """The program does not match the layered shape of this rewriting."""


@dataclass(frozen=True)
class LayeredProgram:
    p1: DProgram
    p2: DProgram
    p3: DProgram
    p4: DProgram


@dataclass(frozen=True)
class AnswerReport:
    answers: frozenset[tuple[str, ...]]
    inconsistent: bool
    models_explored: int
    searches: int = 0


def stratify(out: RewriteOutput) -> LayeredProgram:
    """Partition the program into its four layers and verify the layering
    invariants; fails loudly on programs not produced by this rewriter."""
    layer_of = out.ctx.table.layer
    parts: dict[int, list[DRule]] = {1: [], 2: [], 3: [], 4: []}
    for rule in out.program.rules:
        preds = [a.pred for a in rule.head + rule.body_pos + rule.body_neg]
        unknown = [p for p in preds if p not in layer_of]
        if unknown:
            raise StratifyError(
                f"predicate(s) {', '.join(sorted(set(unknown)))} not part of this rewriting")
        if rule.head:
            lay = max(layer_of[a.pred] for a in rule.head)
            head_layers = {layer_of[a.pred] for a in rule.head}
            if len(head_layers) != 1:
                raise StratifyError(f"rule {rule} mixes layers in its head")
        else:
            lay = max((layer_of[p] for p in preds), default=1)
        body_max = max((layer_of[a.pred] for a in rule.body_pos + rule.body_neg),
                       default=1)
        if rule.head and body_max > lay:
            raise StratifyError(f"rule {rule} uses a higher layer than it defines")
        for a in rule.body_neg:
            if layer_of[a.pred] >= lay and lay > 1:
                raise StratifyError(
                    f"rule {rule} negates a predicate of its own layer")
        parts[lay].append(rule)
    return LayeredProgram(*(DProgram.of_safe(parts[i]) for i in (1, 2, 3, 4)))


def _input_facts(out: RewriteOutput, abox: Sequence[Assertion]) -> list[DAtom]:
    """The ABox facts, plus the two bit-constant facts under --db-constants."""
    facts = abox_facts(out.ctx, abox)
    if out.ctx.db_constants:
        inds = individuals_of(OMQ(out.ctx.ntbox, out.ctx.sigma, out.query), abox)
        facts += db_constant_facts(out.ctx, inds)
    return facts


# ---------------------------------------------------------------------------
# Ground search over the guess layer


class _Searcher:
    """Backtracking enumeration of the guess layer's stable models, each
    checked against the upper layers.

    The grounder's facts are interned in order of first occurrence:
    ``facts[i]`` is the fact of atom ``i`` and ``aid`` maps it back.  The
    ground guess layer is compiled once into clauses over int literals
    ``2 * atom + negated``; the value array ``val`` holds one of UNKNOWN,
    TRUE and FALSE per atom (and per auxiliary atom past ``facts``), so
    literal ``l`` is true when ``val[l >> 1] == TRUE + (l & 1)``."""

    def __init__(self, out: RewriteOutput, abox: Sequence[Assertion],
                 branch_limit: int = 500_000):
        self.ctx = out.ctx
        layered = stratify(out)
        self.branch_limit = branch_limit
        self.leaves = 0
        self.nodes = 0
        self.searches = 0

        inputs = _input_facts(out, abox)
        facts = list(map(fact_of, inputs))
        rules = ground(layered.p1, inputs).rules

        # Intern every ground fact in sight, in order of first occurrence.
        self.facts: list[Fact] = list(dict.fromkeys(
            chain(facts, chain.from_iterable(chain.from_iterable(rules)))))
        self.aid: dict[Fact, int] = {f: i for i, f in enumerate(self.facts)}

        specs = out.ctx.table.families
        spec_by_pos = {pos: (neg, guard) for (pos, neg, guard) in specs}
        spec_preds = set(spec_by_pos) | {n for (_, n, _) in specs}

        # Choice families (pos, neg, guard) present in the grounding; a
        # guard is the fringe-presence atom the pair depends on.
        families = []
        for (pred, row) in self.facts[:]:
            if pred in spec_by_pos:
                neg_pred, guard_pred = spec_by_pos[pred]
                families.append((self.aid[pred, row], self._intern((neg_pred, row)),
                                 None if guard_pred is None
                                 else self._intern((guard_pred, row))))
        families.sort(key=lambda f: self.facts[f[0]])
        self.families = [(p, g) for (p, _, g) in families]

        # Clauses.  A family is exactly one of its pair when its guard holds
        # and neither otherwise; guess rules are absorbed into the families.
        clauses: list[tuple[int, ...]] = []
        for (p, n, g) in families:
            clauses.append((2 * p + 1, 2 * n + 1))
            if g is None:
                clauses.append((2 * p, 2 * n))
            else:
                clauses += [(2 * g + 1, 2 * p, 2 * n), (2 * p + 1, 2 * g), (2 * n + 1, 2 * g)]
        # Headless rules and rules forcing a choice atom are plain clauses;
        # every other rule is a support of a derived atom.
        supports: dict[int, list[tuple[int, ...]]] = {}
        aid = self.aid
        for rule in rules:
            head, pos, neg = rule
            if len(head) == 1 and head[0][0] in spec_preds and \
                    any(f[0] in spec_preds for f in neg):
                continue  # even-loop guess rule
            if len(head) == 2 and head[0][0] in spec_preds:
                continue  # disjunctive guess rule (positive mode)
            body = tuple([2 * aid[f] + 1 for f in pos] + [2 * aid[f] for f in neg])
            if not head:
                clauses.append(body)
            elif head[0][0] in spec_preds:
                clauses.append(body + (2 * aid[head[0]],))
            elif neg:
                raise StratifyError(f"unexpected negation in support rule {rule_of(rule)}")
            else:
                supports.setdefault(aid[head[0]], []).append(tuple([aid[f] for f in pos]))
        # Completion of a derived atom d: each support implies d, and d
        # implies some support, through an auxiliary atom per support of
        # two or more atoms.  The derived predicates are not recursive, so
        # once the choices are settled every derived atom is settled too.
        n_vars = len(self.facts)
        for d, bodies in supports.items():
            some_support = [2 * d + 1]
            for body in bodies:
                clauses.append(tuple(2 * b + 1 for b in body) + (2 * d,))
                if len(body) == 1:
                    some_support.append(2 * body[0])
                else:
                    clauses += [(2 * n_vars + 1, 2 * b) for b in body]
                    some_support.append(2 * n_vars)
                    n_vars += 1
            clauses.append(tuple(some_support))
        self.clauses = clauses
        self.occurs: list[list[int]] = [[] for _ in range(2 * n_vars)]
        for c, clause in enumerate(clauses):
            for lit in clause:
                self.occurs[lit].append(c)
        # At the root facts hold, and atoms with no fact, no family and no
        # support never do (for instance closed predicates beyond their ABox
        # facts).  The root is propagated once; every search starts from a
        # copy.  A root in conflict conflicts again when rescanned.
        fact_ids = {aid[f] for f in facts}
        live = fact_ids | set(supports) | {a for f in families for a in f[:2]}
        self.root = bytearray(n_vars)
        for i in range(len(self.facts)):
            self.root[i] = TRUE if i in fact_ids else UNKNOWN if i in live else FALSE
        every = range(len(clauses))
        self.root_todo = [] if self._propagate(self.root, list(every)) else list(every)

        # Each upper layer is evaluated over the facts its rule bodies read
        # and hands up those of its own facts that a higher layer reads.
        uppers = (layered.p2, layered.p3, layered.p4)
        reads = [{a.pred for r in p.rules for a in r.body_pos + r.body_neg} for p in uppers]
        self.layers: list[tuple[Layer, set[str], tuple[str, ...]]] = []
        for i, p in enumerate(uppers):
            own = {a.pred for r in p.rules for a in r.head}
            keep = tuple(sorted(own & set().union(*reads[i + 1:])))
            self.layers.append((Layer(p), reads[i], keep))
        self.memo: dict[tuple[int, frozenset[Fact]], tuple[frozenset[Fact], bool]] = {}

    def _intern(self, f: Fact) -> int:
        i = self.aid.get(f)
        if i is None:
            i = self.aid[f] = len(self.facts)
            self.facts.append(f)
        return i

    # -- unit propagation --------------------------------------------------

    def _propagate(self, val: bytearray, todo: list[int]) -> bool:
        """Unit propagation of the clauses in ``todo`` and of every clause
        a propagated literal falsifies; returns False on conflict."""
        clauses, occurs = self.clauses, self.occurs
        while todo:
            unit = -1
            for lit in clauses[todo.pop()]:
                v = val[lit >> 1]
                if v == UNKNOWN:
                    if unit >= 0:
                        break  # two open literals
                    unit = lit
                elif v == TRUE + (lit & 1):
                    break  # satisfied
            else:
                if unit < 0:
                    return False
                val[unit >> 1] = TRUE + (unit & 1)
                todo.extend(occurs[unit ^ 1])
        return True

    # -- search ------------------------------------------------------------

    def branches(self, goals: Sequence[tuple[str, ...]] = (),
                 with_marking: bool = True) -> Iterator[bytearray]:
        """Enumerate the value arrays of the surviving branches; with goals,
        only branches whose answer atoms omit at least one goal tuple: the
        clause ``not q(goal_1) or ... or not q(goal_m)``, which holds by
        itself when some ``q(goal_i)`` was not ground at all.  The clause is
        added for this search only, so searches must not interleave."""
        self.searches += 1
        val, todo = bytearray(self.root), list(self.root_todo)
        answer = self.ctx.table.answer
        qs = [self.aid.get((answer, t)) for t in goals]
        if not qs or None in qs:
            yield from self._dfs(val, todo, with_marking)
            return
        clause, goal = tuple(2 * q + 1 for q in qs), len(self.clauses)
        self.clauses.append(clause)
        for lit in clause:
            self.occurs[lit].append(goal)
        try:
            yield from self._dfs(val, todo + [goal], with_marking)
        finally:
            self.clauses.pop()
            for lit in clause:
                self.occurs[lit].pop()

    def first_branch(self, goals: Sequence[tuple[str, ...]] = (),
                     with_marking: bool = True) -> bytearray | None:
        """The value array of the first surviving branch, if any."""
        search = self.branches(goals, with_marking)
        try:
            return next(search, None)
        finally:
            search.close()

    def model_of(self, val: bytearray) -> frozenset[DAtom]:
        """The TRUE atoms of a branch."""
        return frozenset(map(atom_of, self._true(val)))

    def models(self, goals: Sequence[tuple[str, ...]] = (),
               with_marking: bool = True) -> Iterator[frozenset[DAtom]]:
        """The TRUE atoms of each surviving branch."""
        return map(self.model_of, self.branches(goals, with_marking))

    def find_model(self, goals: Sequence[tuple[str, ...]] = (),
                   with_marking: bool = True) -> frozenset[DAtom] | None:
        val = self.first_branch(goals, with_marking)
        return None if val is None else self.model_of(val)

    def _dfs(self, val: bytearray, todo: list[int],
             with_marking: bool) -> Iterator[bytearray]:
        """Depth-first over the open families, FALSE before TRUE, on an
        explicit stack of (value array, clauses to propagate, first family
        still open) triples."""
        stack = [(val, todo, 0)]
        while stack:
            val, todo, start = stack.pop()
            self.nodes += 1
            if self.nodes > self.branch_limit:
                raise ResourceRefused(
                    f"branch limit of {self.branch_limit} nodes exceeded; result undecided")
            if not self._propagate(val, todo):
                continue
            start, pos = self._pick(val, start)
            if pos is None:
                self.leaves += 1
                if not with_marking or self._upper_layers_ok(self._true(val)):
                    yield val
                continue
            for lit in (2 * pos, 2 * pos + 1):  # FALSE is pushed last, so explored first
                child = bytearray(val)
                child[pos] = TRUE + (lit & 1)
                stack.append((child, list(self.occurs[lit ^ 1]), start))

    def _pick(self, val: bytearray, start: int) -> tuple[int, int | None]:
        """The positive atom of the first open family from ``start`` whose
        guard is settled (None at a leaf), and the first family from
        ``start`` still open at all, where the children's scan starts: values
        only settle further down, but a family passed over for an UNKNOWN
        guard may become pickable there."""
        first = None
        for i in range(start, len(self.families)):
            pos, guard = self.families[i]
            if val[pos] != UNKNOWN:
                continue
            if first is None:
                first = i
            if guard is None or val[guard] != UNKNOWN:
                return first, pos
        return len(self.families) if first is None else first, None

    def _true(self, val: bytearray) -> list[Fact]:
        """The TRUE facts of a leaf, where every atom is settled: the least
        model of the guess layer over the chosen atoms."""
        return [f for f, v in zip(self.facts, val) if v == TRUE]

    # -- upper layers ------------------------------------------------------

    def _upper_layers_ok(self, facts: list[Fact]) -> bool:
        """Whether the guess-layer model ``facts`` extends through the upper
        layers, in order, without violating a constraint.  Each layer runs
        over the facts it reads, from the guess layer and from the facts the
        layers below hand up; its result is memoized on those facts."""
        for i, (layer, reads, keep) in enumerate(self.layers):
            base = frozenset(f for f in facts if f[0] in reads)
            result = self.memo.get((i, base))
            if result is None:
                result = self.memo[i, base] = layer.model(base, keep)
            handed_up, ok = result
            if not ok:
                return False
            facts = [*facts, *handed_up]
        return True


# ---------------------------------------------------------------------------
# Public entry points


def certain_answers(out: RewriteOutput, abox: Iterable[Assertion],
                    branch_limit: int = 500_000) -> AnswerReport:
    """Intersection of the answer atoms over all surviving branches, by
    cautious enumeration on one searcher.

    The candidates start as the tuples whose answer atom the first
    surviving branch makes true.  Each further search asks for a branch
    falsifying the answer atom of some remaining candidate, and drops the
    candidates that branch falsifies; the first search that finds no branch
    leaves the certain answers.  So there are at most 2 + |first branch's
    tuples| - |answers| searches.  An inconsistent knowledge base (no
    surviving branch at all) reports every tuple over the named individuals
    as an answer."""
    abox = tuple(abox)
    searcher = _Searcher(out, abox, branch_limit)
    inds = individuals_of(OMQ(out.ctx.ntbox, out.ctx.sigma, out.query), abox)
    arity = len(out.query.answer_vars)
    candidates = list(product(inds, repeat=arity))

    val = searcher.first_branch()
    if val is None:
        return AnswerReport(frozenset(candidates), True, searcher.leaves,
                            searcher.searches)
    answer, aid = out.ctx.table.answer, searcher.aid
    remaining = [t for t in candidates if (answer, t) in aid]
    while val is not None:
        remaining = [t for t in remaining if val[aid[answer, t]] == TRUE]
        val = searcher.first_branch(remaining) if remaining else None
    return AnswerReport(frozenset(remaining), False, searcher.leaves,
                        searcher.searches)


def enumerate_guess_models(out: RewriteOutput, abox: Iterable[Assertion],
                           with_marking: bool = True,
                           limit: int | None = None) -> list[frozenset[DAtom]]:
    """Surviving guess-layer branches (optionally without the marking
    filter), for correspondence counting against core enumeration; with a
    limit, enumeration stops once that many branches are collected."""
    searcher = _Searcher(out, tuple(abox), ENUMERATION_BRANCH_LIMIT)
    return list(islice(searcher.models(with_marking=with_marking), limit))


def core_of_model(out: RewriteOutput, model: Iterable[DAtom]):
    """Project a guess-layer stable model onto the core it encodes."""
    from .typespace import Core, FringeId
    t = out.ctx.table
    concept_rev = {v: k for k, v in t.concept.items()}
    concept_fr_rev = {v: k for k, v in t.concept_fr.items()}
    role_rev = {v: k for k, v in t.role.items()}
    dir_rev = {v: k for k, v in t.role_dir.items()}
    in_rev = {v: k for k, v in t.in_pred.items()}

    individuals: set[str] = set()
    fringe: set[FringeId] = set()
    concept_ext: dict[str, set] = {a: set() for a in out.ctx.ntbox.concept_names}
    role_ext: dict[str, set] = {p: set() for p in out.ctx.ntbox.role_names}
    model = list(model)
    for a in model:
        if a.pred == t.ind:
            individuals.add(a.args[0].symbol)
        elif a.pred in in_rev:
            fringe.add(FringeId(a.args[0].symbol, in_rev[a.pred]))
    for a in model:
        if a.pred in concept_rev:
            concept_ext[concept_rev[a.pred]].add(a.args[0].symbol)
        elif a.pred in concept_fr_rev:
            name, i = concept_fr_rev[a.pred]
            concept_ext[name].add(FringeId(a.args[0].symbol, i))
        elif a.pred in role_rev:
            role_ext[role_rev[a.pred]].add(
                (a.args[0].symbol, a.args[1].symbol))
        elif a.pred in dir_rev:
            p, i, d = dir_rev[a.pred]
            f = FringeId(a.args[0].symbol, i)
            role_ext[p].add((a.args[0].symbol, f) if d == "fw" else (f, a.args[0].symbol))
    return Core(
        individuals=tuple(sorted(individuals)),
        fringe=frozenset(fringe),
        concept_ext={k: frozenset(v) for k, v in concept_ext.items()},
        role_ext={k: frozenset(v) for k, v in role_ext.items()},
    )


def verify_model(out: RewriteOutput, abox: Iterable[Assertion],
                 model: Iterable[DAtom]) -> bool:
    """Check an externally produced answer set against the grounding of the
    full program plus the ABox facts.  An atom of a predicate the rewriting
    does not know, or of another arity than the program's, is an error."""
    model = frozenset(model)
    known = set(out.ctx.table.layer)
    unknown = {a.pred for a in model} - known
    if unknown:
        raise OmqError(
            "model uses predicate(s) unknown to this rewriting: "
            + ", ".join(sorted(unknown)))
    arity = out.program.arities
    wrong = sorted(a for a in model if arity.get(a.pred, len(a.args)) != len(a.args))
    if wrong:
        raise OmqError("model atom(s) of the wrong arity: " + ", ".join(
            f"{a} (expected {arity[a.pred]} arguments)" for a in wrong))
    facts = _input_facts(out, tuple(abox))
    gp = ground(out.program, facts + sorted(model)).program()
    return is_stable_model(DProgram.of_safe(gp.rules + tuple(DRule((a,)) for a in facts)),
                           model)


def ground_guess_layer(out: RewriteOutput, abox: Iterable[Assertion]) -> DProgram:
    """The grounding of the guess layer over the given data (for --emit-ground)."""
    return ground(stratify(out).p1, _input_facts(out, tuple(abox))).program()
