"""Layered stable-model evaluation of rewritten programs.

The rewriting splits into three layers: a guess layer over the named
individuals (at most two variables per rule), the realized-type layer,
and the marking/filter layer.  Lower layers never depend on higher ones,
and negation in a layer only mentions predicates settled below it.  The
ground guess layer is compiled once into clauses: one group per choice
family, the constraints, and the completion of its derived atoms (the
answer atoms ``q`` among them).  Evaluation backtracks over the choice
atoms with unit propagation over those clauses and reads each leaf's
model off the value array.  The two upper layers are compiled once into
``datalog.Layer`` join plans and evaluated semi-naively over each leaf's
model (the marking layer once per set of realized types); a branch whose
upper layers violate a constraint is discarded.  Only the guess layer is
ever ground.
Certain answers are the tuples reported by every surviving branch; per
tuple the goal is the unit clause ``not q(tuple)``, so one surviving
branch refutes certainty.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, product
from typing import Iterable, Iterator, Sequence

# ``ground``, ``gl_reduct`` and ``stratify`` are looked up through this module
# by tracers that wrap them (perfbench/spans.py); keep the names here.
from .datalog import (Const, DAtom, DProgram, DRule, Fact, Layer, fact_of,
                      gl_reduct, ground, is_stable_model)
from .query import individuals_of, OMQ
from .rewrite import RewriteOutput, abox_facts, db_constant_facts
from .syntax import Assertion, OmqError
from .typespace import ResourceRefused

UNKNOWN, TRUE, FALSE = 0, 1, 2


class StratifyError(OmqError):
    """The program does not match the layered shape of this rewriting."""


@dataclass(frozen=True)
class LayeredProgram:
    p1: DProgram
    p2: DProgram
    p3: DProgram
    choice_specs: tuple[tuple[str, str, str | None], ...]


@dataclass(frozen=True)
class AnswerReport:
    answers: frozenset[tuple[str, ...]]
    inconsistent: bool
    models_explored: int


def stratify(out: RewriteOutput) -> LayeredProgram:
    """Partition the program into its three layers and verify the layering
    invariants; fails loudly on programs not produced by this rewriter."""
    layer_of = out.ctx.table.layer
    parts: dict[int, list[DRule]] = {1: [], 2: [], 3: []}
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
    return LayeredProgram(
        DProgram.of(parts[1]), DProgram.of(parts[2]), DProgram.of(parts[3]),
        tuple(out.ctx.table.families))


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
    checked against the realized-type and marking layers.

    The ground guess layer is compiled once into clauses over int literals
    ``2 * atom + negated``; the value array ``val`` holds one of UNKNOWN,
    TRUE and FALSE per atom, so literal ``l`` is true when
    ``val[l >> 1] == TRUE + (l & 1)``."""

    def __init__(self, out: RewriteOutput, abox: Sequence[Assertion],
                 branch_limit: int = 500_000):
        self.ctx = out.ctx
        layered = stratify(out)
        self.layered = layered
        self.branch_limit = branch_limit
        self.leaves = 0
        self.nodes = 0

        facts = _input_facts(out, abox)
        p1g = ground(layered.p1, facts)

        # Intern every ground atom in sight.
        self.atoms: list[DAtom] = []
        self.aid: dict[DAtom, int] = {}
        for a in facts:
            self._intern(a)
        for r in p1g.rules:
            for a in r.head + r.body_pos + r.body_neg:
                self._intern(a)

        spec_by_pos = {pos: (neg, guard) for (pos, neg, guard) in layered.choice_specs}
        spec_preds = set(spec_by_pos) | {n for (_, n, _) in layered.choice_specs}

        # Choice families (pos, neg, guard) present in the grounding; a
        # guard is the fringe-presence atom the pair depends on.
        families = []
        for a in list(self.atoms):
            if a.pred in spec_by_pos:
                neg_pred, guard_pred = spec_by_pos[a.pred]
                families.append((self.aid[a], self._intern(DAtom(neg_pred, a.args)),
                                 None if guard_pred is None
                                 else self._intern(DAtom(guard_pred, a.args))))
        families.sort(key=lambda f: self.atoms[f[0]])
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
        for r in p1g.rules:
            if len(r.head) == 1 and r.head[0].pred in spec_preds and \
                    any(a.pred in spec_preds for a in r.body_neg):
                continue  # even-loop guess rule
            if len(r.head) == 2 and r.head[0].pred in spec_preds:
                continue  # disjunctive guess rule (positive mode)
            body = tuple(2 * self.aid[a] + 1 for a in r.body_pos) + \
                tuple(2 * self.aid[a] for a in r.body_neg)
            if not r.head:
                clauses.append(body)
            elif r.head[0].pred in spec_preds:
                clauses.append(body + (2 * self.aid[r.head[0]],))
            elif r.body_neg:
                raise StratifyError(f"unexpected negation in support rule {r}")
            else:
                supports.setdefault(self.aid[r.head[0]], []).append(
                    tuple(self.aid[a] for a in r.body_pos))
        # Completion of a derived atom d: each support implies d, and d
        # implies some support, through an auxiliary atom per support of
        # two or more atoms.  The derived predicates are not recursive, so
        # once the choices are settled every derived atom is settled too.
        n_vars = len(self.atoms)
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
        # Facts hold; atoms with no fact, no family and no support never
        # do (for instance closed predicates beyond their ABox facts).
        fact_ids = {self.aid[a] for a in facts}
        clauses += [(2 * i,) for i in sorted(fact_ids)]
        live = fact_ids | set(supports) | {a for f in families for a in f[:2]}
        clauses += [(2 * i + 1,) for i in range(len(self.atoms)) if i not in live]

        self.n_vars = n_vars
        self.clauses = clauses
        self.occurs: list[list[int]] = [[] for _ in range(2 * n_vars)]
        for c, clause in enumerate(clauses):
            for lit in clause:
                self.occurs[lit].append(c)
        self.facts = [fact_of(a) for a in self.atoms]
        p3_mark, p3_fringe = self._split_p3()
        self._p2, self._p3_mark, self._p3_fringe = map(Layer, (layered.p2, p3_mark, p3_fringe))
        self._mark_memo: dict[frozenset[Fact], tuple[frozenset[Fact], bool]] = {}

    def _intern(self, a: DAtom) -> int:
        i = self.aid.get(a)
        if i is None:
            i = len(self.atoms)
            self.aid[a] = i
            self.atoms.append(a)
        return i

    def _split_p3(self) -> tuple[DProgram, DProgram]:
        t = self.ctx.table
        fringe_preds = {t.fringetype}
        for i in range(len(self.ctx.ntbox.existentials)):
            for i2 in range(self.ctx.k + 1):
                fringe_preds.add(t.hastype_fr(i2, i))
        mark_rules, fringe_rules = [], []
        for r in self.layered.p3.rules:
            preds = {a.pred for a in r.head + r.body_pos + r.body_neg}
            if preds & fringe_preds:
                fringe_rules.append(r)
            else:
                mark_rules.append(r)
        return DProgram.of(mark_rules), DProgram.of(fringe_rules)

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

    def models(self, goal: tuple[str, ...] | None = None,
               with_marking: bool = True) -> Iterator[frozenset[DAtom]]:
        """Enumerate surviving branches; with a goal, only branches whose
        answer atoms omit the goal tuple: the unit clause ``not q(goal)``,
        asserted at the root when that atom was ground at all."""
        val = bytearray(self.n_vars)
        if goal is not None:
            q = self.aid.get(DAtom(self.ctx.table.answer, tuple(Const(s) for s in goal)))
            if q is not None:
                val[q] = FALSE
        yield from self._dfs(val, list(range(len(self.clauses))), with_marking)

    def find_model(self, goal: tuple[str, ...] | None = None,
                   with_marking: bool = True) -> frozenset[DAtom] | None:
        for m in self.models(goal, with_marking):
            return m
        return None

    def _dfs(self, val: bytearray, todo: list[int],
             with_marking: bool) -> Iterator[frozenset[DAtom]]:
        """Depth-first over the open families, FALSE before TRUE, on an
        explicit stack of (value array, clauses to propagate) pairs."""
        stack = [(val, todo)]
        while stack:
            val, todo = stack.pop()
            self.nodes += 1
            if self.nodes > self.branch_limit:
                raise ResourceRefused(
                    f"branch limit of {self.branch_limit} nodes exceeded; result undecided")
            if not self._propagate(val, todo):
                continue
            pos = self._pick(val)
            if pos is None:
                model = self._finalize(val, with_marking)
                if model is not None:
                    yield model
                continue
            for lit in (2 * pos, 2 * pos + 1):  # FALSE is pushed last, so explored first
                child = bytearray(val)
                child[pos] = TRUE + (lit & 1)
                stack.append((child, list(self.occurs[lit ^ 1])))

    def _pick(self, val: bytearray) -> int | None:
        for (pos, guard) in self.families:
            if val[pos] != UNKNOWN:
                continue
            if guard is not None and val[guard] == UNKNOWN:
                continue  # its guard family comes up on its own
            return pos
        return None

    def _finalize(self, val: bytearray, with_marking: bool) -> frozenset[DAtom] | None:
        """At a leaf every atom is settled, and the TRUE ones are the least
        model of the guess layer over the chosen atoms."""
        self.leaves += 1
        true = [i for i, v in enumerate(val[:len(self.atoms)]) if v == TRUE]
        if with_marking and not self._upper_layers_ok([self.facts[i] for i in true]):
            return None
        return frozenset(self.atoms[i] for i in true)

    # -- realized-type and marking layers ----------------------------------

    def _upper_layers_ok(self, i1: list[Fact]) -> bool:
        """Whether the guess-layer model ``i1`` extends through the
        realized-type layer, the marking layer (once per set of realized
        types) and the fringe filter without violating a constraint.  Of
        layer 2, layer 3 reads only ``realizedtype`` and ``hastype<k>``."""
        t = self.ctx.table
        realized, ok = self._p2.model(i1, (t.realizedtype, t.hastype(self.ctx.k)))
        if not ok:
            return False
        memo = self._mark_memo.get(realized)
        if memo is None:
            bits = [f for f in i1 if f[0] in (t.tt, t.ff)]
            memo = self._p3_mark.model(chain(realized, bits), (t.marked,))
            self._mark_memo[realized] = memo
        marked, ok = memo
        return ok and self._p3_fringe.model(chain(i1, realized, marked), ())[1]


# ---------------------------------------------------------------------------
# Public entry points


def certain_answers(out: RewriteOutput, abox: Iterable[Assertion],
                    branch_limit: int = 500_000) -> AnswerReport:
    """Intersection of the answer atoms over all surviving branches.

    Per candidate tuple, the search adds the unit clause ``not q(tuple)``
    and looks for one surviving branch under unit propagation; the tuple
    is a certain answer exactly when none exists.  An inconsistent knowledge base (no surviving branch at all)
    reports every tuple over the named individuals as an answer."""
    abox = tuple(abox)
    searcher = _Searcher(out, abox, branch_limit)
    inds = individuals_of(OMQ(out.ctx.ntbox, out.ctx.sigma, out.query), abox)
    arity = len(out.query.answer_vars)
    candidates = list(product(inds, repeat=arity))

    if searcher.find_model() is None:
        return AnswerReport(frozenset(candidates), True, searcher.leaves)

    answers = [t for t in candidates if searcher.find_model(goal=t) is None]
    return AnswerReport(frozenset(answers), False, searcher.leaves)


def enumerate_guess_models(out: RewriteOutput, abox: Iterable[Assertion],
                           with_marking: bool = True, limit: int | None = None,
                           branch_limit: int = 2_000_000) -> list[frozenset[DAtom]]:
    """Surviving guess-layer branches (optionally without the marking
    filter), for correspondence counting against core enumeration; with a
    limit, enumeration stops once that many branches are collected."""
    searcher = _Searcher(out, tuple(abox), branch_limit)
    models = []
    for m in searcher.models(with_marking=with_marking):
        models.append(m)
        if limit is not None and len(models) >= limit:
            break
    return models


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
    full program plus the ABox facts."""
    model = frozenset(model)
    known = set(out.ctx.table.layer)
    unknown = {a.pred for a in model} - known
    if unknown:
        raise OmqError(
            "model uses predicate(s) unknown to this rewriting: "
            + ", ".join(sorted(unknown)))
    facts = _input_facts(out, tuple(abox))
    gp = ground(out.program, list(facts) + sorted(model))
    rules = list(gp.rules) + [DRule((a,)) for a in facts]
    return is_stable_model(DProgram.of(rules), model)


def ground_guess_layer(out: RewriteOutput, abox: Iterable[Assertion]) -> DProgram:
    """The grounding of the guess layer over the given data (for --emit-ground)."""
    return ground(stratify(out).p1, _input_facts(out, tuple(abox)))
