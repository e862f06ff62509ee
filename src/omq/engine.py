"""Layered stable-model evaluation of rewritten programs.

The rewriting declares a layer per predicate: a guess layer over the
named individuals (at most two variables per rule), the realized-type
layer, the marking layer and the fringe filter.  Lower layers never
depend on higher ones, and negation in a layer only mentions predicates
settled below it.  The guess layer is ground once, straight into clauses
over numbered atoms: the grounder numbers each fact as it first meets it
and records each instance as its clause (body implies head).  The role of
each rule, settled once by the rewriting's ``Evaluation``, says how: the
guess rules are left out, as their choice families stand in for them;
constraints and the rules that force a choice atom are taken as they are;
and a derived atom (the answer atoms ``q`` among them) gets its supports
and its completion: it holds only if one of them does (Clark, 1978).
Evaluation backtracks over the choice atoms with unit propagation over
those clauses, from a root propagated once, and reads each leaf's model
off the value array.  The upper layers are compiled into ``evaluate.Layer``
join plans and evaluated semi-naively, in order, over each leaf's model;
a branch whose upper layers violate a constraint is discarded.  Each is
unfolded first (``evaluate.unfold``): the predicates that only its own
rules read are substituted into their readers where that is safe, so
their rows are never stored.  Chief among them are the marking layer's
``markedone_e<i>`` pairs ("type Y is no witness for X"), up to 4^k rows
per existential: a cold call on the k=6 chain stores 2,503 rows in its
layers instead of 17,901.  The emitted program keeps them.  Every
constraint over the upper layers sits in the last one: in stable mode no
fringe element takes a marked type, in positive mode no realized type is
marked.  A layer's facts handed up and its verdict are memoized together,
on the facts it reads.  Layer 2, and layer 4 in stable mode, read
individuals, so their memo lasts one call.  The others read no
guess-layer fact but the bit constants, and their memos are kept with
the rewriting: the marking layer runs once per set of realized types a
call meets that an earlier call did not (in positive mode its rules read
just the bit constants), and the positive filter once per set of realized
and marked types.  When no upper rule has negation (the positive
rewriting), the upper layers are monotone in the guess-layer facts, and a
failing leaf becomes a learned clause: a deletion filter shrinks the
leaf's facts to a subset that still fails, and no later branch may make
all of them true.  Only the guess layer is ever ground.  The layering,
the guess layer's plans and rule roles, the ``Layer``s and the memos
kept with the rewriting form its ``Evaluation``, built on the first
evaluation and kept on the ``RewriteOutput``, so later calls on the same
rewriting stratify and compile nothing.  One rewriting is not meant for
concurrent calls.
Certain answers are the tuples reported by every surviving branch, found
by cautious enumeration in one search: the candidates start as the
answer tuples of the first surviving branch, every branch drops the
candidates it falsifies, and after each branch the search goes on from
its stack under the clause that some remaining candidate's answer atom is
false, until no candidate remains or no branch is left.  The answer
tuples are read off each branch's value array; ``DRule`` and ``DAtom``
objects are built only at the edge, for the callers that ask for rules
or models.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice, product
from typing import Iterable, Iterator, Sequence

# ``ground``, ``gl_reduct`` and ``stratify`` are looked up through this module
# by tracers that wrap them (perfbench/spans.py); keep the names here.
from .datalog import DAtom, DProgram, DRule, Fact, Row, atom_of
from .evaluate import Layer, gl_reduct, ground, is_stable_model, unfold
from .query import individuals_of, OMQ
from .rewrite import RewriteOutput, abox_facts, db_constant_facts
from .syntax import Assertion, OmqError
from .typespace import ResourceRefused

UNKNOWN, TRUE, FALSE = 0, 1, 2

# Search-node budget of ``enumerate_guess_models``, which walks every branch,
# and the number of branches it may collect: each is a set of atoms, about
# 12 KB on a two-individual KB, and the largest test collects 7,090.
ENUMERATION_BRANCH_LIMIT = 2_000_000
ENUMERATION_MODEL_LIMIT = 20_000

# The entries a layer memo kept on the rewriting holds before it drops the
# least recently used.  Its keys are sets of realized types (and of marked
# types), and under --db-constants they also name the two individuals that
# stand for the bit constants, so a rewriting that serves many ABoxes would
# otherwise grow them without bound.  A marking fixpoint holds about 8 KB
# at k=6 and 29 KB at k=8, so a full memo stays within about 8 MB at k=8.
LAYER_MEMO_LIMIT = 256

# Roles of the guess layer's rules in ``_Searcher``'s clauses: a guess rule,
# absorbed into its choice family; a plain clause; a clause that forces a
# choice atom; a support of a derived atom.
GUESS, CLAUSE, FORCE, SUPPORT = range(4)


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
    learned: int = 0
    fixpoints: int = field(default=0, compare=False)  # Layer.model runs
    nodes: int = field(default=0, compare=False)  # search nodes popped


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
        else:  # a constraint over the upper layers goes last
            lay = 1 if all(layer_of[p] == 1 for p in preds) else 4
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


class Evaluation:
    """The evaluation form of a rewriting: its layers, whose guess layer
    keeps the join plans of its first grounding (``DProgram.plans``), and
    per upper layer, in ``layers``, its ``evaluate.Layer``, those of its own
    predicates that a higher layer reads, which it hands up, and its memo.
    Each ``Layer`` is compiled from its layer unfolded around what it hands
    up (``evaluate.unfold``), which keeps the facts handed up, the verdict
    and the predicates read, so the memos are those of the layer as
    written, while the marking layer stores about a seventh of the rows.
    ``reads`` are the predicates some upper layer reads, and ``monotone``
    says whether no upper rule has negation, so that more guess-layer facts
    can only add upper-layer facts and constraint violations.  ``choices``
    maps the positive predicate of each choice family to its negative one
    and its guard, and ``roles`` gives the role of each guess-layer rule in
    the searcher's clauses (``GUESS``, ``CLAUSE``, ``FORCE`` or
    ``SUPPORT``); a support with negation is a ``StratifyError``.  It
    depends on the rewriting only, plus the memo of each upper layer that
    reads no guess-layer predicate but ``tt`` and ``ff``: it maps the facts
    the layer reads to its ``Layer.model``, a pure function of them that
    names no individual but the bit constants, so the memo serves every
    later call, on any ABox, and holds at most ``LAYER_MEMO_LIMIT`` entries
    (``_Recent``).  A layer that reads individuals has no memo here
    (``None``); each call keeps its own.  ``RewriteOutput.evaluation``
    builds it on first use and keeps it for the rewriting's lifetime.  One
    rewriting is not meant for concurrent calls: they would share the
    memos and each ``Layer``'s relations unguarded."""

    def __init__(self, out: RewriteOutput):
        t = out.ctx.table
        self.layered = stratify(out)
        self.choices = {pos: (neg, guard) for (pos, neg, guard) in t.families}
        self.roles = _roles(self.layered.p1, set(self.choices) | {n for (_, n, _) in t.families})
        individual = {pred for pred, lay in t.layer.items() if lay == 1} - {t.tt, t.ff}
        uppers = (self.layered.p2, self.layered.p3, self.layered.p4)
        self.layers: list[tuple[Layer, tuple[str, ...], _Recent | None]] = []
        above: frozenset[str] = frozenset()   # what the layers compiled so far read
        for p in reversed(uppers):
            keep = tuple(sorted(above & {a.pred for r in p.rules for a in r.head}))
            layer = Layer(unfold(p, keep))
            self.layers.insert(0, (layer, keep, None if layer.reads & individual else _Recent()))
            above |= layer.reads
        self.reads = above
        self.monotone = not any(r.body_neg for p in uppers for r in p.rules)


def _roles(p1: DProgram, choice: set[str]) -> list[int]:
    """The role of each rule of the guess layer, from its predicates:
    ``choice`` holds both predicates of every choice family.  A guess rule
    is an even loop (stable mode) or a disjunction (positive mode)."""
    roles = []
    for rule in p1.rules:
        head = [a.pred for a in rule.head]
        if head and head[0] in choice:
            loop = len(head) == 1 and any(a.pred in choice for a in rule.body_neg)
            roles.append(GUESS if loop or len(head) == 2 else FORCE)
        elif not head:
            roles.append(CLAUSE)
        elif rule.body_neg:
            raise StratifyError(f"unexpected negation in support rule {rule}")
        else:
            roles.append(SUPPORT)
    return roles


class _Recent(dict):
    """A memo of at most ``LAYER_MEMO_LIMIT`` entries, in order of last
    use: ``get`` moves a hit to the end, and storing a new key in a full
    memo first drops the entry at the front, the least recently used."""

    def get(self, key):
        value = self.pop(key, None)
        if value is not None:
            super().__setitem__(key, value)
        return value

    def __setitem__(self, key, value):
        if key not in self and len(self) >= LAYER_MEMO_LIMIT:
            del self[next(iter(self))]
        super().__setitem__(key, value)


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

    The grounding's atom table is the searcher's: ``aid`` maps a fact to
    its atom id, and gives a fact it lacks the next id, as it does for the
    choice atoms that no instance has; ``facts[i]`` is the fact of atom
    ``i``.  The clauses are over int literals ``2 * atom + negated``, the
    grounding's instances but the guess rules' among them, in one pass;
    the value array ``val`` holds one of UNKNOWN, TRUE and FALSE per atom
    (and per auxiliary atom past ``facts``), so literal ``l`` is true when
    ``val[l >> 1] == TRUE + (l & 1)``."""

    def __init__(self, out: RewriteOutput, abox: Sequence[Assertion],
                 branch_limit: int = 500_000):
        if branch_limit < 1:
            raise OmqError(f"branch limit must be at least 1, got {branch_limit}")
        form = out.evaluation
        self.branch_limit = branch_limit
        self.leaves = 0
        self.nodes = 0
        self.learned = 0
        self.runs = 0  # Layer.model runs

        grounding = ground(form.layered.p1, _input_facts(out, abox))
        aid = self.aid = grounding.ids

        # Choice families (pos, neg, guard) present in the grounding; a
        # guard is the fringe-presence atom the pair depends on.
        families = []
        for (pred, row) in list(aid):
            if pred in form.choices:
                neg_pred, guard_pred = form.choices[pred]
                families.append((aid[pred, row], aid[neg_pred, row],
                                 None if guard_pred is None else aid[guard_pred, row]))
        self.facts: list[Fact] = list(aid)
        families.sort(key=lambda f: self.facts[f[0]])
        self.families = [(p, g) for (p, _, g) in families]

        # Clauses.  A family is exactly one of its pair when its guard holds
        # and neither otherwise.  Each instance but a guess rule's is its own
        # clause; a support is also grouped under its head for the completion.
        clauses: list[tuple[int, ...]] = []
        for (p, n, g) in families:
            clauses.append((2 * p + 1, 2 * n + 1))
            if g is None:
                clauses.append((2 * p, 2 * n))
            else:
                clauses += [(2 * g + 1, 2 * p, 2 * n), (2 * p + 1, 2 * g), (2 * n + 1, 2 * g)]
        supports: dict[int, list[tuple[int, ...]]] = {}
        for lits, n in zip(grounding.rules, grounding.origins):
            if form.roles[n] != GUESS:
                clauses.append(lits)
                if form.roles[n] == SUPPORT:
                    supports.setdefault(lits[0], []).append(lits)
        # Completion of a derived atom d: d implies some support, through an
        # auxiliary atom per support of two or more atoms.  The derived
        # predicates are not recursive, so settled choices settle them.
        n_vars = len(self.facts)
        for d, bodies in supports.items():
            some_support = [d + 1]
            for body in bodies:
                if len(body) == 2:
                    some_support.append(body[1] - 1)
                else:
                    clauses += [(2 * n_vars + 1, b - 1) for b in body[1:]]
                    some_support.append(2 * n_vars)
                    n_vars += 1
            clauses.append(tuple(some_support))
        self.clauses = clauses
        occurs: list[list[int]] = [[] for _ in range(2 * n_vars)]
        for c, clause in enumerate(clauses):
            for lit in clause:
                occurs[lit].append(c)
        self.occurs = occurs
        # At the root the input facts hold, and atoms with no fact, no family
        # and no support never do (for instance closed predicates beyond
        # their ABox facts).  The root is propagated once, over the
        # ``compiled`` clauses, from those that a root value falsifies a
        # literal of and those too short to have two open literals: no other
        # clause can be unit there.  The search starts from a copy.  A root
        # in conflict has no branch.
        root = self.root = bytearray(n_vars)
        root[:len(self.facts)] = bytes([FALSE]) * len(self.facts)
        for d in supports:
            root[d >> 1] = UNKNOWN
        for (p, n, _) in families:
            root[p] = root[n] = UNKNOWN
        root[:grounding.inputs] = bytes([TRUE]) * grounding.inputs
        todo = [c for c, clause in enumerate(clauses) if len(clause) < 2]
        for a, v in enumerate(root):
            if v:
                todo += occurs[2 * a + (v == TRUE)]
        self.compiled = len(clauses)
        self.conflict = not self._propagate(root, todo)

        self.form = form
        self.learning = form.monotone
        self.root_facts = [f for f, v in zip(self.facts, self.root)
                           if v == TRUE and f[0] in form.reads]
        # A layer that reads individuals keeps its memo for this call only.
        self.memos: list[dict[frozenset[Fact], tuple[frozenset[Fact], bool]]] = \
            [{} if memo is None else memo for (_, _, memo) in form.layers]

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

    def add_clause(self, clause: tuple[int, ...]) -> None:
        """Post ``clause``: every stack entry popped from now on propagates
        it.  A clause that conflicts over a copy of the root holds in no
        branch, so it ends the search (``conflict``)."""
        c = len(self.clauses)
        self.clauses.append(clause)
        for lit in clause:
            self.occurs[lit].append(c)
        if not self._propagate(bytearray(self.root), [c]):
            self.conflict = True

    def branches(self, with_marking: bool = True) -> Iterator[bytearray]:
        """The value arrays of the surviving branches, in one search from
        the root: depth-first over the open families, FALSE before TRUE, on
        an explicit stack of (value array, clauses to propagate, first family
        still open, clause count at push) entries.  A popped entry also
        propagates the clauses posted since it was pushed, so a caller may
        post clauses between branches and the search goes on under them;
        with monotone upper layers, each leaf that fails them posts one
        (``_learn``).  The search ends when the stack is empty or a posted
        clause conflicts at the root."""
        clauses = self.clauses
        stack = [(bytearray(self.root), [], 0, self.compiled)]
        while stack and not self.conflict:
            val, todo, start, known = stack.pop()
            if known < len(clauses):
                todo.extend(range(known, len(clauses)))
            self.nodes += 1
            if self.nodes > self.branch_limit:
                raise ResourceRefused(
                    f"branch limit of {self.branch_limit} nodes exceeded; result undecided")
            if not self._propagate(val, todo):
                continue
            start, pos = self._pick(val, start)
            if pos is None:
                self.leaves += 1
                if not with_marking:
                    yield val
                    continue
                facts = self._true(val)
                if self._upper_layers_ok(facts):
                    yield val
                elif self.learning:
                    self._learn(facts)
                continue
            known = len(clauses)
            for lit in (2 * pos, 2 * pos + 1):  # FALSE is pushed last, so explored first
                child = bytearray(val)
                child[pos] = TRUE + (lit & 1)
                stack.append((child, list(self.occurs[lit ^ 1]), start, known))

    def model_of(self, val: bytearray) -> frozenset[DAtom]:
        """The TRUE atoms of a branch."""
        return frozenset(map(atom_of, self._true(val)))

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
        layers, in order, without violating a constraint.  Each layer reads
        the facts of the guess layer and those the layers below hand up.
        Its facts handed up and its verdict are memoized on the facts it
        reads: on the rewriting's ``Evaluation`` where the layer reads no
        individual, and in this searcher otherwise."""
        for (layer, keep, _), memo in zip(self.form.layers, self.memos):
            base = frozenset(f for f in facts if f[0] in layer.reads)
            result = memo.get(base)
            if result is None:
                self.runs += 1
                result = memo[base] = layer.model(base, keep)
            handed_up, ok = result
            if not ok:
                return False
            facts = [*facts, *handed_up]
        return True

    def _learn(self, facts: list[Fact]) -> None:
        """Add a clause against the failed leaf ``facts``: not all of the
        remaining facts are TRUE.  Start from the leaf's facts that some
        upper layer reads and the root leaves open, and drop, first the
        facts of one first argument (one individual) together, then single
        facts, each that the upper layers still fail without, over the
        root's TRUE facts and the rest.  The upper layers are monotone and
        every branch makes the root's facts TRUE, so every branch making the
        remaining facts TRUE fails too."""
        kept = [f for f in facts
                if f[0] in self.form.reads and self.root[self.aid[f]] != TRUE]
        groups: dict[Row, list[Fact]] = {}
        for f in kept:
            groups.setdefault(f[1][:1], []).append(f)
        for drop in [*groups.values(), *([f] for f in kept)]:
            rest = [f for f in kept if f not in drop]
            if len(rest) < len(kept) and not self._upper_layers_ok(self.root_facts + rest):
                kept = rest
        self.learned += 1
        self.add_clause(tuple(2 * self.aid[f] + 1 for f in kept))


# ---------------------------------------------------------------------------
# Public entry points


def certain_answers(out: RewriteOutput, abox: Iterable[Assertion],
                    branch_limit: int = 500_000) -> AnswerReport:
    """Intersection of the answer atoms over all surviving branches, by
    cautious enumeration in one search.

    The candidates start as the tuples whose answer atom the first
    surviving branch makes true, and each branch drops the candidates it
    falsifies.  After each branch the search goes on from its stack under
    the clause ``not q(t_1) or ... or not q(t_m)`` over the remaining
    candidates.  Each such clause is the previous one less the candidates
    just dropped, so it implies the previous one: the part of the tree
    already left holds no branch for it, since its one branch there, just
    found, makes every remaining candidate true.  When no candidate remains
    the clause is empty and the search ends; otherwise it ends with no
    branch left, and the remaining candidates are the certain answers.  So
    the search finds at most 1 + |first branch's tuples| - |answers|
    branches.  An inconsistent knowledge base (no surviving branch at all)
    reports every tuple over the named individuals as an answer."""
    abox = tuple(abox)
    searcher = _Searcher(out, abox, branch_limit)
    inds = individuals_of(OMQ(out.ctx.ntbox, out.ctx.sigma, out.query), abox)
    candidates = list(product(inds, repeat=len(out.query.answer_vars)))
    answer, aid = out.ctx.table.answer, searcher.aid
    remaining = [t for t in candidates if (answer, t) in aid]
    inconsistent = True
    for val in searcher.branches():
        inconsistent = False
        remaining = [t for t in remaining if val[aid[answer, t]] == TRUE]
        searcher.add_clause(tuple(2 * aid[answer, t] + 1 for t in remaining))
    return AnswerReport(frozenset(candidates if inconsistent else remaining), inconsistent,
                        searcher.leaves, searcher.learned, searcher.runs, searcher.nodes)


def enumerate_guess_models(out: RewriteOutput, abox: Iterable[Assertion],
                           with_marking: bool = True,
                           limit: int | None = None) -> list[frozenset[DAtom]]:
    """Surviving guess-layer branches (optionally without the marking
    filter), for correspondence counting against core enumeration; with a
    limit, enumeration stops once that many branches are collected.  More
    than ``ENUMERATION_MODEL_LIMIT`` branches to collect is refused."""
    searcher = _Searcher(out, tuple(abox), ENUMERATION_BRANCH_LIMIT)
    models = []
    for val in islice(searcher.branches(with_marking), limit):
        if len(models) == ENUMERATION_MODEL_LIMIT:
            raise ResourceRefused(f"more than {ENUMERATION_MODEL_LIMIT} branches to "
                                  "collect; enumeration refused")
        models.append(searcher.model_of(val))
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
    return ground(out.evaluation.layered.p1, _input_facts(out, tuple(abox))).program()
