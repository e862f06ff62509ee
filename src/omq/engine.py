"""Layered stable-model evaluation of rewritten programs.

The rewriting splits into three layers: a guess layer over the named
individuals (at most two variables per rule), the realized-type layer,
and the marking/filter layer.  Lower layers never depend on higher ones,
and negation in a layer only mentions predicates settled below it, so
evaluation proceeds by backtracking over the guess layer's choice atoms
with constraint propagation, then computing the least models of the
reducts of the two upper layers and discarding branches that violate a
constraint.  Certain answers are the tuples reported by every surviving
branch; per-tuple goal constraints prune the search to branches that
falsify the tuple, so one surviving branch refutes certainty.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .datalog import (Const, DAtom, DProgram, DRule, closure, ground, gl_reduct,
                      is_stable_model)
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


@dataclass
class _Family:
    pos: int
    neg: int
    guard: int | None  # atom id of the fringe-presence guard, if any


class _Searcher:
    """Backtracking enumeration of the guess layer's stable models, each
    checked against the realized-type and marking layers."""

    def __init__(self, out: RewriteOutput, abox: Sequence[Assertion],
                 branch_limit: int = 500_000):
        self.out = out
        self.ctx = out.ctx
        layered = stratify(out)
        self.layered = layered
        self.branch_limit = branch_limit
        self.leaves = 0
        self.nodes = 0

        facts = _input_facts(out, abox)
        self.p1g = ground(layered.p1, facts)

        # Intern every ground atom in sight.
        self.atoms: list[DAtom] = []
        self.aid: dict[DAtom, int] = {}
        for a in facts:
            self._intern(a)
        for r in self.p1g.rules:
            for a in r.head + r.body_pos + r.body_neg:
                self._intern(a)

        self.fact_ids: set[int] = {self.aid[a] for a in facts}
        spec_by_pos = {pos: (neg, guard) for (pos, neg, guard) in layered.choice_specs}
        spec_preds = set(spec_by_pos) | {n for (_, n, _) in layered.choice_specs}

        # Choice families present in the grounding.
        fams: dict[int, _Family] = {}
        self.family_of_atom: dict[int, tuple[int, bool]] = {}
        for a in list(self.atoms):
            if a.pred in spec_by_pos:
                neg_pred, guard_pred = spec_by_pos[a.pred]
                pos_id = self.aid[a]
                neg_id = self._intern(DAtom(neg_pred, a.args))
                guard_id = self._intern(DAtom(guard_pred, a.args)) \
                    if guard_pred is not None else None
                fams[pos_id] = _Family(pos_id, neg_id, guard_id)
        self.families = [fams[p] for p in sorted(fams, key=lambda p: self.atoms[p])]
        for idx, f in enumerate(self.families):
            self.family_of_atom[f.pos] = (idx, True)
            self.family_of_atom[f.neg] = (idx, False)

        # Classify ground rules: guesses are absorbed into the families;
        # rules deriving ordinary atoms become definite support rules;
        # rules with choice heads act as constraints requiring their head;
        # headless rules are constraints.
        self.derived_rules: dict[int, list[tuple[int, ...]]] = {}
        self.constraints: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
        self.q_instances: list[tuple[tuple[str, ...], tuple[int, ...]]] = []
        answer = self.ctx.table.answer
        for r in self.p1g.rules:
            head_ids = tuple(self.aid[a] for a in r.head)
            pos_ids = tuple(self.aid[a] for a in r.body_pos)
            neg_ids = tuple(self.aid[a] for a in r.body_neg)
            if len(r.head) == 1 and r.head[0].pred in spec_preds and \
                    any(self.atoms[n].pred in spec_preds for n in neg_ids):
                continue  # even-loop guess rule
            if len(r.head) == 2 and r.head[0].pred in spec_preds:
                continue  # disjunctive guess rule (positive mode)
            if not r.head:
                self.constraints.append((pos_ids, neg_ids))
                continue
            if r.head[0].pred == answer:
                args = tuple(t.symbol for t in r.head[0].args
                             if isinstance(t, Const))
                self.q_instances.append((args, pos_ids))
                continue
            if r.head[0].pred in spec_preds:
                # definite rule forcing a choice atom: body implies head
                self.constraints.append((pos_ids, head_ids))
                continue
            if neg_ids:
                raise StratifyError(f"unexpected negation in support rule {r}")
            self.derived_rules.setdefault(head_ids[0], []).append(pos_ids)

        self.derived_ids = set(self.derived_rules)
        self.supports = [(d, body) for d, bodies in self.derived_rules.items()
                         for body in bodies]
        self._mark_memo: dict[frozenset[DAtom], tuple[frozenset[DAtom], bool]] = {}
        self._p3_mark, self._p3_fringe = self._split_p3()

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

    # -- three-valued propagation over a value array -----------------------

    def _propagate(self, val: bytearray,
                   extra: Sequence[tuple[tuple[int, ...], tuple[int, ...]]]) -> bool:
        """Unit propagation; returns False on conflict."""
        all_constraints = self.constraints + list(extra)

        def set_val(i: int, v: int) -> bool:
            if val[i] == v:
                return True
            if val[i] != UNKNOWN:
                return False
            val[i] = v
            return True

        changed = True
        while changed:
            changed = False
            snapshot = bytes(val)

            for f in self.families:
                g = TRUE if f.guard is None else val[f.guard]
                p, n = val[f.pos], val[f.neg]
                if p == TRUE and n == TRUE:
                    return False
                if g == FALSE:
                    if not set_val(f.pos, FALSE) or not set_val(f.neg, FALSE):
                        return False
                elif g == TRUE:
                    if p == TRUE and not set_val(f.neg, FALSE):
                        return False
                    if n == TRUE and not set_val(f.pos, FALSE):
                        return False
                    if p == FALSE and not set_val(f.neg, TRUE):
                        return False
                    if n == FALSE and not set_val(f.pos, TRUE):
                        return False
                else:
                    if (p == TRUE or n == TRUE) and not set_val(f.guard, TRUE):
                        return False
                    if p == FALSE and n == FALSE and not set_val(f.guard, FALSE):
                        return False

            if not self._eval_derived(val):
                return False

            for (pos, neg) in all_constraints:
                status = self._constraint_status(val, pos, neg)
                if status == "violated":
                    return False
                if type(status) is tuple:
                    lit_sign, lit_atom = status
                    if not self._require(val, lit_atom, FALSE if lit_sign else TRUE):
                        return False

            if bytes(val) != snapshot:
                changed = True
        return True

    def _constraint_status(self, val, pos, neg):
        """'ok', 'violated', or the single undecided literal (sign, atom)."""
        unknown: tuple[bool, int] | None = None
        for a in pos:
            v = val[a]
            if v == FALSE:
                return "ok"
            if v == UNKNOWN:
                if unknown is not None:
                    return "open"
                unknown = (True, a)
        for a in neg:
            v = val[a]
            if v == TRUE:
                return "ok"
            if v == UNKNOWN:
                if unknown is not None:
                    return "open"
                unknown = (False, a)
        if unknown is None:
            return "violated"
        return unknown

    def _eval_derived(self, val: bytearray) -> bool:
        """Three-valued view of the definite atoms: derivable from true
        atoms, impossible when every support contains a false atom.
        Settled atoms keep their value (both bounds are monotone)."""
        unknowns = [d for d in self.derived_ids if val[d] == UNKNOWN]
        if not unknowns:
            return True
        derived_ids = self.derived_ids

        possible: set[int] = set()
        changed = True
        while changed:
            changed = False
            for d in unknowns:
                if d in possible:
                    continue
                for body in self.derived_rules[d]:
                    ok = True
                    for b in body:
                        v = val[b]
                        if v == FALSE or (v == UNKNOWN and b in derived_ids
                                          and b not in possible):
                            ok = False
                            break
                    if ok:
                        possible.add(d)
                        changed = True
                        break

        true: set[int] = set()
        changed = True
        while changed:
            changed = False
            for d in unknowns:
                if d in true:
                    continue
                for body in self.derived_rules[d]:
                    if all(val[b] == TRUE or b in true for b in body):
                        true.add(d)
                        changed = True
                        break

        for d in unknowns:
            if d in true:
                val[d] = TRUE
            elif d not in possible:
                val[d] = FALSE
        return True

    def _require(self, val: bytearray, atom: int, v: int) -> bool:
        """Force an atom's value where unambiguous; derived atoms propagate
        through a unique viable support."""
        if val[atom] == v:
            return True
        if val[atom] != UNKNOWN:
            return False
        if atom in self.derived_ids:
            bodies = self.derived_rules[atom]
            viable = [b for b in bodies if all(val[x] != FALSE for x in b)]
            if v == TRUE:
                if not viable:
                    return False
                if len(viable) == 1:
                    return all(self._require(val, x, TRUE) for x in viable[0])
                return True  # defer
            for b in viable:
                unknowns = [x for x in b if val[x] == UNKNOWN]
                if not unknowns:
                    return False  # body already true: atom cannot be false
                if len(unknowns) == 1 and not self._require(val, unknowns[0], FALSE):
                    return False
            return True
        if atom in self.fact_ids and v == FALSE:
            return False
        val[atom] = v
        return True

    # -- search ------------------------------------------------------------

    def models(self, goal: tuple[str, ...] | None = None,
               with_marking: bool = True) -> Iterator[frozenset[DAtom]]:
        """Enumerate surviving branches; with a goal, only branches whose
        answer atoms omit the goal tuple."""
        extra: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
        if goal is not None:
            for (args, body) in self.q_instances:
                if args == goal:
                    extra.append((body, ()))

        # Atoms with no fact, no guess and no support rule can never hold
        # (for instance closed predicates beyond their ABox facts).
        live = self.fact_ids | set(self.family_of_atom) | self.derived_ids
        val = bytearray(len(self.atoms))
        for i in range(len(self.atoms)):
            if i not in live:
                val[i] = FALSE
        for i in self.fact_ids:
            val[i] = TRUE
        yield from self._dfs(val, tuple(extra), with_marking)

    def find_model(self, goal: tuple[str, ...] | None = None,
                   with_marking: bool = True) -> frozenset[DAtom] | None:
        for m in self.models(goal, with_marking):
            return m
        return None

    def _dfs(self, val: bytearray, extra, with_marking: bool) -> Iterator[frozenset[DAtom]]:
        """Depth-first over the open families, FALSE before TRUE, on an
        explicit stack of value arrays (the depth grows with the data)."""
        stack = [val]
        while stack:
            val = stack.pop()
            self.nodes += 1
            if self.nodes > self.branch_limit:
                raise ResourceRefused(
                    f"branch limit of {self.branch_limit} nodes exceeded; result undecided")
            if not self._propagate(val, extra):
                continue
            fam = self._pick(val)
            if fam is None:
                model = self._finalize(val, extra, with_marking)
                if model is not None:
                    yield model
                continue
            for v in (TRUE, FALSE):  # FALSE is pushed last, so explored first
                child = bytearray(val)
                child[fam.pos] = v
                stack.append(child)

    def _pick(self, val: bytearray) -> _Family | None:
        for f in self.families:
            if val[f.pos] != UNKNOWN:
                continue
            if f.guard is not None and val[f.guard] == UNKNOWN:
                continue  # its guard family comes up on its own
            return f
        return None

    def _finalize(self, val: bytearray, extra, with_marking: bool) -> frozenset[DAtom] | None:
        self.leaves += 1
        true = closure(self.supports, (i for i in range(len(self.atoms))
                                       if val[i] == TRUE and i not in self.derived_ids))
        for (pos, neg) in list(self.constraints) + list(extra):
            if all(p in true for p in pos) and not any(n in true for n in neg):
                return None
        model = frozenset(self.atoms[i] for i in true)
        q_atoms = frozenset(DAtom(self.ctx.table.answer,
                                  tuple(Const(s) for s in args))
                            for (args, body) in self.q_instances
                            if all(b in true for b in body))
        model |= q_atoms
        if not with_marking:
            return model
        return model if self._upper_layers_ok(model) else None

    # -- realized-type and marking layers ----------------------------------

    def _upper_layers_ok(self, i1: frozenset[DAtom]) -> bool:
        i2, ok = _layer_model(self.layered.p2, i1)
        if not ok:
            return False
        t = self.ctx.table
        key = frozenset(a for a in i2
                        if a.pred in (t.realizedtype, t.hastype(self.ctx.k)))
        memo = self._mark_memo.get(key)
        if memo is None:
            bits = frozenset(a for a in i2 if a.pred in (t.tt, t.ff))
            marked, mok = _layer_model(self._p3_mark, key | bits)
            memo = (frozenset(a for a in marked if a.pred == t.marked), mok)
            self._mark_memo[key] = memo
        marked_atoms, mok = memo
        if not mok:
            return False
        _, fok = _layer_model(self._p3_fringe, i2 | marked_atoms)
        return fok


def _layer_model(p: DProgram, base: frozenset[DAtom]) -> tuple[frozenset[DAtom], bool]:
    """Least model of the layer's reduct w.r.t. the base interpretation,
    together with whether its constraints hold."""
    if not p.rules:
        return base, True
    red = gl_reduct(ground(p, base), base)
    model = frozenset(closure([(r.head[0], r.body_pos) for r in red.rules if r.head],
                              base))
    ok = not any(not r.head and all(b in model for b in r.body_pos) for r in red.rules)
    return model, ok


# ---------------------------------------------------------------------------
# Public entry points


def certain_answers(out: RewriteOutput, abox: Iterable[Assertion],
                    branch_limit: int = 500_000) -> AnswerReport:
    """Intersection of the answer atoms over all surviving branches.

    Per candidate tuple, the search looks for one surviving branch that
    falsifies the tuple; the tuple is a certain answer exactly when none
    exists.  An inconsistent knowledge base (no surviving branch at all)
    reports every tuple over the named individuals as an answer."""
    abox = tuple(abox)
    searcher = _Searcher(out, abox, branch_limit)
    inds = individuals_of(OMQ(out.ctx.ntbox, out.ctx.sigma, out.query), abox)
    arity = len(out.query.answer_vars)
    candidates = list(_tuples(inds, arity))

    if searcher.find_model() is None:
        return AnswerReport(frozenset(candidates), True, searcher.leaves)

    answers = [t for t in candidates if searcher.find_model(goal=t) is None]
    return AnswerReport(frozenset(answers), False, searcher.leaves)


def _tuples(inds: Sequence[str], arity: int) -> Iterator[tuple[str, ...]]:
    if arity == 0:
        yield ()
        return
    def rec(prefix: tuple[str, ...]) -> Iterator[tuple[str, ...]]:
        if len(prefix) == arity:
            yield prefix
            return
        for i in inds:
            yield from rec(prefix + (i,))
    yield from rec(())


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
