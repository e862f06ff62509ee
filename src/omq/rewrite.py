"""Rewriting of c-safe OMQs into Datalog with stable negation.

The emitted program has three cooperating parts:

* a *core* part that guesses, over the named individuals and one optional
  extra element per (individual, existential axiom) pair, all candidate
  small interpretations satisfying every axiom except existentials
  triggered at the extra elements;
* a *marking* part that materializes the 2^k type space through a
  successor relation over bit vectors and runs the type-elimination
  fixpoint on it;
* a *filter* part that kills candidates in which an extra element
  realizes an eliminated type.

With no closed predicates the same answers come from a positive
disjunctive program over plain guesses (and inequality only if the TBox
has nominals).  All predicate names are fixed by the mangling table
below, so externally produced answer sets are comparable byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Literal, Sequence, Union

from .datalog import Const, DAtom, DProgram, DRule, DTerm, Var
from .normalize import ClauseAxiom, NormalTBox
from .parser import ConceptAtom, ConjunctiveQuery
from .query import OMQ, rollup
from .syntax import (Assertion, Basic, ConceptAssert, Name, Nominal, OmqError,
                     RoleExpr)
from .typespace import TypeContext

MODE_STABLE = "stable-negation"
MODE_POSITIVE = "positive-disjunctive"

LAYER_GUESS, LAYER_REALIZED, LAYER_MARKING, LAYER_FRINGE = 1, 2, 3, 4

_FIXED = ("ind", "eq", "tt", "ff", "type", "marked", "closedtype",
          "realizedtype", "fringetype", "q")


def _sanitize(name: str, used: set[str]) -> str:
    base = name.lower()
    candidate, n = base, 0
    while candidate in used:
        n += 1
        candidate = f"u{n}_{base}"
    used.add(candidate)
    return candidate


@dataclass
class PredTable:
    """Injective mapping from logical predicate roles to emitted names.

    Concepts map to ``c_<n>`` (complement ``nc_<n>``, per-existential
    fringe copies ``c_<n>_e<i>``/``nc_<n>_e<i>``), roles to ``r_<n>``
    (complement ``nr_<n>``, fringe directions ``r_<n>_fw_e<i>`` and
    ``r_<n>_bw_e<i>`` with ``nr_`` complements), fringe presence to
    ``in_e<i>``/``out_e<i>``, witness predicates to ``wit_e<j>``, and the
    marking machinery to ``first<i>``/``last<i>``/``next<i>``, ``type``,
    ``hastype<i>`` (fringe copies ``hastype<i>_e<j>``), ``markedone_e<i>``
    and ``markeduntil_e<i>``.  User names are lowercased; clashes get a
    ``u<n>_`` prefix, first come first served over the sorted names.
    """

    concept: dict[str, str] = field(default_factory=dict)
    concept_neg: dict[str, str] = field(default_factory=dict)
    concept_fr: dict[tuple[str, int], str] = field(default_factory=dict)
    concept_fr_neg: dict[tuple[str, int], str] = field(default_factory=dict)
    role: dict[str, str] = field(default_factory=dict)
    role_neg: dict[str, str] = field(default_factory=dict)
    role_dir: dict[tuple[str, int, str], str] = field(default_factory=dict)
    role_dir_neg: dict[tuple[str, int, str], str] = field(default_factory=dict)
    in_pred: dict[int, str] = field(default_factory=dict)
    out_pred: dict[int, str] = field(default_factory=dict)
    wit: dict[int, str] = field(default_factory=dict)
    layer: dict[str, int] = field(default_factory=dict)
    families: list[tuple[str, str, str | None]] = field(default_factory=list)
    k: int = 0

    ind = "ind"
    eq = "eq"
    tt = "tt"
    ff = "ff"
    type_pred = "type"
    marked = "marked"
    closedtype = "closedtype"
    realizedtype = "realizedtype"
    fringetype = "fringetype"
    answer = "q"

    def first(self, i: int) -> str:
        return f"first{i}"

    def last(self, i: int) -> str:
        return f"last{i}"

    def next(self, i: int) -> str:
        return f"next{i}"

    def hastype(self, i: int) -> str:
        return f"hastype{i}"

    def hastype_fr(self, i: int, j: int) -> str:
        return f"hastype{i}_e{j}"

    def markedone(self, i: int) -> str:
        return f"markedone_e{i}"

    def markeduntil(self, i: int) -> str:
        return f"markeduntil_e{i}"


def build_pred_table(ntbox: NormalTBox, sigma: frozenset[str], mode: str) -> PredTable:
    """Name every predicate, declare its layer, and list the choice families
    (even loops / disjunctive guess pairs, each with its guard): the
    rewriting emits one guess per family and the engine branches on them."""
    t = PredTable(k=len(ntbox.basis))
    used: set[str] = set(_FIXED)
    fringe = mode == MODE_STABLE
    n_exist = len(ntbox.existentials) if fringe else 0

    def guess(pos: str, neg: str, guard: str | None = None) -> None:
        t.layer[pos] = t.layer[neg] = LAYER_GUESS
        t.families.append((pos, neg, guard))

    for i in range(len(ntbox.existentials)):
        if fringe:
            t.in_pred[i] = f"in_e{i}"
            t.out_pred[i] = f"out_e{i}"
            guess(t.in_pred[i], t.out_pred[i])
        t.wit[i] = f"wit_e{i}"
        t.layer[t.wit[i]] = LAYER_GUESS
    for a in ntbox.concept_names:
        san = _sanitize(a, used)
        t.concept[a] = f"c_{san}"
        t.layer[t.concept[a]] = LAYER_GUESS
        if a not in sigma:
            t.concept_neg[a] = f"nc_{san}"
            guess(t.concept[a], t.concept_neg[a])
            for i in range(n_exist):
                t.concept_fr[(a, i)] = f"c_{san}_e{i}"
                t.concept_fr_neg[(a, i)] = f"nc_{san}_e{i}"
                guess(t.concept_fr[(a, i)], t.concept_fr_neg[(a, i)], t.in_pred[i])
    for p in ntbox.role_names:
        san = _sanitize(p, used)
        t.role[p] = f"r_{san}"
        t.layer[t.role[p]] = LAYER_GUESS
        if p not in sigma:
            t.role_neg[p] = f"nr_{san}"
            guess(t.role[p], t.role_neg[p])
            for i in range(n_exist):
                for d in ("fw", "bw"):
                    t.role_dir[(p, i, d)] = f"r_{san}_{d}_e{i}"
                    t.role_dir_neg[(p, i, d)] = f"nr_{san}_{d}_e{i}"
                    guess(t.role_dir[(p, i, d)], t.role_dir_neg[(p, i, d)], t.in_pred[i])

    # tt/ff are plain facts (or data, with --db-constants), so they live in
    # the first layer even though the marking rules consume them.
    for name in (t.ind, t.eq, t.answer, t.tt, t.ff):
        t.layer[name] = LAYER_GUESS
    k = t.k
    for i in range(k + 1):
        t.layer[t.hastype(i)] = LAYER_REALIZED
    t.layer[t.realizedtype] = LAYER_REALIZED
    for name in (t.type_pred, t.marked, t.closedtype):
        t.layer[name] = LAYER_MARKING
    for i in range(1, k + 1):
        t.layer[t.first(i)] = LAYER_MARKING
        t.layer[t.last(i)] = LAYER_MARKING
        t.layer[t.next(i)] = LAYER_MARKING
    # The fringe filter reads ``marked``, so it is a layer of its own.
    t.layer[t.fringetype] = LAYER_FRINGE
    for i in range(len(ntbox.existentials)):
        t.layer[t.markedone(i)] = LAYER_MARKING
        t.layer[t.markeduntil(i)] = LAYER_MARKING
        for i2 in range(k + 1):
            t.layer[t.hastype_fr(i2, i)] = LAYER_FRINGE
    return t


# ---------------------------------------------------------------------------
# Rewrite context and literal rendering


@dataclass(frozen=True)
class RewriteContext:
    ntbox: NormalTBox
    sigma: frozenset[str]
    table: PredTable
    mode: str
    db_constants: bool = False

    @cached_property
    def types(self) -> TypeContext:
        return TypeContext(self.ntbox, self.sigma)

    @property
    def k(self) -> int:
        return len(self.ntbox.basis)

    def bit_index(self, b: Basic) -> int:
        return self.types.bit_of[b]


Lit = Union[tuple[Literal["pos"], DAtom], tuple[Literal["neg"], DAtom],
            tuple[Literal["neq"], DTerm, DTerm], tuple[Literal["true"]],
            tuple[Literal["false"]]]

TRUE: Lit = ("true",)
FALSE: Lit = ("false",)


def _pos(a: DAtom) -> Lit:
    return ("pos", a)


def _neg(a: DAtom) -> Lit:
    return ("neg", a)


def _neq(x: DTerm, y: DTerm) -> Lit:
    return ("neq", x, y)


B0, B1 = Var("B0"), Var("B1")
ZERO, ONE = Const("0"), Const("1")


def _rule(head: Sequence[DAtom], lits: Sequence[Lit]) -> DRule | None:
    """Assemble a rule; a definitely-false literal kills it, true literals
    vanish.  Returns None when the rule can never fire."""
    pos: list[DAtom] = []
    neg: list[DAtom] = []
    neq: list[tuple[DTerm, DTerm]] = []
    for lit in lits:
        if lit[0] == "true":
            continue
        if lit[0] == "false":
            return None
        if lit[0] == "pos":
            pos.append(lit[1])
        elif lit[0] == "neg":
            neg.append(lit[1])
        else:
            neq.append((lit[1], lit[2]))
    return DRule(tuple(head), tuple(pos), tuple(neg), tuple(neq))


class _Emitter:
    """Shared rendering helpers for both rewriting modes.

    A basic concept b is read at an element in three ways: ``holds`` (b is
    true there), ``fails`` (b is false there, read off the complement guess
    ``nc_`` for open concepts) and ``not_holds`` (negation as failure of
    ``holds``, stable mode only).  The element is the individual x, or, with
    ``at=i``, x's fringe element for existential i; there closed concepts,
    nominals and bot never hold.  The clause constraints (``_clause``) and
    the bit-by-bit type chain of groups VI and IX (``_type_chain``) serve
    both kinds of element through these three helpers.
    """

    def __init__(self, ctx: RewriteContext):
        self.ctx = ctx
        self.t = ctx.table
        self.rules: list[DRule] = []
        self._bit_preds = {B0: self.t.ff, B1: self.t.tt}
        self._vecs: dict[str, tuple[Var, ...]] = {}

    def add(self, head: Sequence[DAtom], *lits: Lit) -> None:
        if self.ctx.db_constants:
            atoms = [*head, *(lit[1] for lit in lits if lit[0] == "pos")]
            bits = dict.fromkeys(v for a in atoms for v in a.args if v in self._bit_preds)
            lits += tuple(_pos(DAtom(self._bit_preds[v], (v,))) for v in bits)
        r = _rule(head, lits)
        if r is not None:
            self.rules.append(r)

    def constraint(self, *lits: Lit) -> None:
        self.add((), *lits)

    # -- bit constants --------------------------------------------------
    # With --db-constants the 0/1 constants disappear from rules: each
    # becomes the variable B0/B1, which ``add`` binds once per rule with
    # ff/tt, whose single fact is injected from the data side.

    def zero(self) -> DTerm:
        return B0 if self.ctx.db_constants else ZERO

    def one(self) -> DTerm:
        return B1 if self.ctx.db_constants else ONE

    # -- literals ----------------------------------------------------------

    def role_atom(self, r: RoleExpr, x: DTerm, y: DTerm) -> DAtom:
        name = self.t.role[r.name]
        return DAtom(name, (y, x) if r.inverted else (x, y))

    def _concept(self, name: str, x: DTerm, at: int | None, neg: bool = False) -> DAtom:
        if at is None:
            return DAtom((self.t.concept_neg if neg else self.t.concept)[name], (x,))
        return DAtom((self.t.concept_fr_neg if neg else self.t.concept_fr)[(name, at)], (x,))

    def holds(self, b: Basic, x: DTerm, at: int | None = None) -> Lit:
        """x (with ``at``, its fringe element ``at``) satisfies b."""
        if isinstance(b, Name) and (at is None or b.name not in self.ctx.sigma):
            return _pos(self._concept(b.name, x, at))
        if isinstance(b, Nominal) and at is None:
            return _pos(DAtom(self.t.eq, (x, Const(b.individual))))
        return FALSE

    def not_holds(self, b: Basic, x: DTerm, at: int | None = None) -> Lit:
        """Negation as failure of ``holds(b, x, at)``."""
        if isinstance(b, Name) and (at is None or b.name not in self.ctx.sigma):
            return _neg(self._concept(b.name, x, at))
        if isinstance(b, Nominal) and at is None:
            return _neq(x, Const(b.individual))
        return TRUE

    def fails(self, b: Basic, x: DTerm, at: int | None = None) -> Lit:
        """x (with ``at``, its fringe element ``at``) does not satisfy b: the
        complement guess for open concepts, ``not_holds`` otherwise."""
        if isinstance(b, Name) and b.name not in self.ctx.sigma:
            return _pos(self._concept(b.name, x, at, neg=True))
        return self.not_holds(b, x, at)

    def dir_atom(self, r: RoleExpr, i: int, forward: bool, x: DTerm) -> DAtom | None:
        """Edge between x and its fringe element x^{alpha_i} along r; a
        forward edge goes from x to the fringe element.  None when the
        role is closed (no such edges can exist)."""
        if r.name in self.ctx.sigma:
            return None
        d = ("fw" if forward else "bw") if not r.inverted else ("bw" if forward else "fw")
        return DAtom(self.t.role_dir[(r.name, i, d)], (x,))

    # -- bit-vector helpers ------------------------------------------------

    def vec(self, prefix: str) -> tuple[Var, ...]:
        vec = self._vecs.get(prefix)
        if vec is None:
            vec = self._vecs[prefix] = tuple(Var(f"{prefix}{i}")
                                             for i in range(1, self.ctx.k + 1))
        return vec

    def bit_true(self, vec: tuple[Var, ...], b: Basic) -> Lit:
        return _pos(DAtom(self.t.tt, (vec[self.ctx.bit_index(b)],)))

    def bit_false(self, vec: tuple[Var, ...], b: Basic) -> Lit:
        return _pos(DAtom(self.t.ff, (vec[self.ctx.bit_index(b)],)))


# ---------------------------------------------------------------------------
# Core program (groups I-III)


X, Y = Var("X"), Var("Y")


def _core_rules(e: _Emitter) -> None:
    """Individual collection, core guessing and core validation rules."""
    ctx = e.ctx
    t, ntbox = ctx.table, ctx.ntbox

    # (I) collect the individuals.
    for a in ntbox.nominals:
        e.add([DAtom(t.ind, (Const(a),))])
    for a in ntbox.concept_names:
        e.add([DAtom(t.ind, (X,))], _pos(DAtom(t.concept[a], (X,))))
    for p in ntbox.role_names:
        e.add([DAtom(t.ind, (X,))], _pos(DAtom(t.role[p], (X, Y))))
        e.add([DAtom(t.ind, (Y,))], _pos(DAtom(t.role[p], (X, Y))))

    _guesses(e)

    # (III) validate: equality scaffold and the axiom constraints.
    e.add([DAtom(t.eq, (X, X))], _pos(DAtom(t.ind, (X,))))
    if ctx.mode == MODE_POSITIVE:
        _positive_validation(e)
    else:
        _stable_validation(e)


def _guesses(e: _Emitter) -> None:
    """(II) one guess per choice family the table declares, over the named
    individuals or, with a guard, over the fringe elements present: an even
    loop in stable mode, a disjunction in positive mode.  Closed predicates
    have no family, so they get no guesses at all."""
    t = e.ctx.table
    roles = set(t.role.values())
    for pos, neg, guard in t.families:
        if guard is not None:
            args, body = (X,), [_pos(DAtom(guard, (X,)))]
        else:
            args = (X, Y) if pos in roles else (X,)
            body = [_pos(DAtom(t.ind, (v,))) for v in args]
        if e.ctx.mode == MODE_POSITIVE:
            e.add([DAtom(pos, args), DAtom(neg, args)], *body)
        else:
            e.add([DAtom(pos, args)], *body, _neg(DAtom(neg, args)))
            e.add([DAtom(neg, args)], *body, _neg(DAtom(pos, args)))


def _stable_validation(e: _Emitter) -> None:
    ctx, t = e.ctx, e.ctx.table
    ntbox = ctx.ntbox
    n_exist = len(ntbox.existentials)

    # Clause axioms, at individuals and at every fringe element.
    for ax in ntbox.clauses:
        _clause(e, ax, t.ind, None)
        for i in range(n_exist):
            _clause(e, ax, t.in_pred[i], i)

    # Universal axioms: individual-to-individual, individual-to-fringe,
    # fringe-to-parent.
    for ax in ntbox.universals:
        e.constraint(e.holds(ax.lhs, X), _pos(e.role_atom(ax.role, X, Y)),
                     e.not_holds(ax.filler, Y))
        if ax.role.name in ctx.sigma:
            continue  # closed roles never touch fringe elements
        for i in range(n_exist):
            fw = e.dir_atom(ax.role, i, True, X)
            e.constraint(e.holds(ax.lhs, X), _pos(fw), e.not_holds(ax.filler, X, i))
            bw = e.dir_atom(ax.role, i, False, X)
            e.constraint(e.holds(ax.lhs, X, i), _pos(bw), e.not_holds(ax.filler, X))

    # Role inclusions, in both individual-pair and fringe-direction form.
    for ax in ntbox.role_incls:
        e.constraint(_pos(e.role_atom(ax.lhs, X, Y)),
                     _neg(e.role_atom(ax.rhs, X, Y)))
        if ax.lhs.name in ctx.sigma:
            continue
        for i in range(n_exist):
            for forward in (True, False):
                sup = e.dir_atom(ax.rhs, i, forward, X)
                e.constraint(_pos(e.dir_atom(ax.lhs, i, forward, X)),
                             TRUE if sup is None else _neg(sup))

    # Witness rules: every individual carrying the trigger of an
    # existential axiom must see a matching successor, either a named one
    # or one of its own fringe elements.
    for j, ax in enumerate(ntbox.existentials):
        wit = DAtom(t.wit[j], (X,))
        e.add([wit], _pos(e.role_atom(ax.role, X, Y)), e.holds(ax.filler, Y))
        if ax.role.name not in ctx.sigma:
            for i in range(n_exist):
                fw = e.dir_atom(ax.role, i, True, X)
                e.add([wit], _pos(fw), e.holds(ax.filler, X, i))
        e.constraint(e.holds(ax.lhs, X), _neg(wit))

    # Existentials over closed roles can never be satisfied at a fringe
    # element, so their triggers are forbidden there outright.
    for ax in ntbox.existentials:
        if not ctx.types.role_closed(ax.role):
            continue
        for i in range(n_exist):
            e.constraint(_pos(DAtom(t.in_pred[i], (X,))), e.holds(ax.lhs, X, i))


def _positive_validation(e: _Emitter) -> None:
    ctx, t = e.ctx, e.ctx.table
    for ax in ctx.ntbox.clauses:
        _clause(e, ax, t.ind, None)
    for ax in ctx.ntbox.universals:
        body = (e.holds(ax.lhs, X), _pos(e.role_atom(ax.role, X, Y)))
        if isinstance(ax.filler, Name):
            e.add([DAtom(t.concept[ax.filler.name], (Y,))], *body)
        else:
            e.constraint(*body, _neq(Y, Const(ax.filler.individual)))
    for ax in ctx.ntbox.role_incls:
        e.add([e.role_atom(ax.rhs, X, Y)], _pos(e.role_atom(ax.lhs, X, Y)))
    # An existential with a nominal filler has a unique witness, so it can
    # be forced outright; the type-level game cannot see that its winning
    # response pins an edge between two named individuals.
    for ax in ctx.ntbox.existentials:
        if isinstance(ax.filler, Nominal):
            e.add([e.role_atom(ax.role, X, Const(ax.filler.individual))],
                  e.holds(ax.lhs, X), _pos(DAtom(t.ind, (X,))))


def _clause(e: _Emitter, ax: ClauseAxiom, start: str, at: int | None) -> None:
    """Forbid a violation of the clause at each X of ``start`` (with ``at``,
    at X's fringe element ``at``)."""
    e.constraint(_pos(DAtom(start, (X,))),
                 *(e.holds(b, X, at) for b in _sorted_basics(ax.lhs)),
                 *(e.fails(b, X, at) for b in _sorted_basics(ax.rhs)))


def _sorted_basics(bs: Iterable[Basic]) -> list[Basic]:
    from .normalize import basic_key
    return sorted(bs, key=basic_key)


# ---------------------------------------------------------------------------
# Marking program (groups IV-VIII)


def _marking_rules(e: _Emitter) -> None:
    """Linear order over bit vectors, type collection, clause marking,
    realized types, individual-only-type marking and the successor-search
    marking loop."""
    ctx = e.ctx
    t, k = ctx.table, ctx.k
    if k == 0:
        return

    # (IV) successor relation over {0,1}^i, level by level.
    e.add([DAtom(t.first(1), (e.zero(),))])
    e.add([DAtom(t.last(1), (e.one(),))])
    e.add([DAtom(t.next(1), (e.zero(), e.one()))])
    for i in range(1, k):
        xs, ys = e.vec("X")[:i], e.vec("Y")[:i]
        nxt = _pos(DAtom(t.next(i), xs + ys))
        e.add([DAtom(t.next(i + 1), (e.zero(), *xs, e.zero(), *ys))], nxt)
        e.add([DAtom(t.next(i + 1), (e.one(), *xs, e.one(), *ys))], nxt)
        e.add([DAtom(t.next(i + 1), (e.zero(), *xs, e.one(), *ys))],
              _pos(DAtom(t.last(i), xs)), _pos(DAtom(t.first(i), ys)))
        e.add([DAtom(t.first(i + 1), (e.zero(), *xs))], _pos(DAtom(t.first(i), xs)))
        e.add([DAtom(t.last(i + 1), (e.one(), *xs))], _pos(DAtom(t.last(i), xs)))
    xs, ys = e.vec("X"), e.vec("Y")
    e.add([DAtom(t.type_pred, xs)], _pos(DAtom(t.first(k), xs)))
    e.add([DAtom(t.type_pred, ys)], _pos(DAtom(t.next(k), xs + ys)))

    # (V) clause-violation marking.
    if not ctx.db_constants:
        e.add([DAtom(t.tt, (ONE,))])
        e.add([DAtom(t.ff, (ZERO,))])
    for ax in ctx.ntbox.clauses:
        lits = [_pos(DAtom(t.type_pred, xs))]
        lits += [e.bit_true(xs, b) for b in _sorted_basics(ax.lhs)]
        lits += [e.bit_false(xs, b) for b in _sorted_basics(ax.rhs)]
        e.add([DAtom(t.marked, xs)], *lits)

    # (VI) realized types of the named individuals.
    _type_chain(e, t.hastype, t.ind, None)
    e.add([DAtom(t.realizedtype, ys)], _pos(DAtom(t.hastype(k), (X,) + ys)))

    # (VII) marking of types only individuals may realize.
    if ctx.mode == MODE_STABLE:
        ctype_bits = ctx.types.ctype_mask
        for j in range(k):
            if ctype_bits >> j & 1:
                e.add([DAtom(t.closedtype, xs)], _pos(DAtom(t.type_pred, xs)),
                      _pos(DAtom(t.tt, (xs[j],))))
        e.add([DAtom(t.marked, xs)], _pos(DAtom(t.closedtype, xs)),
              _neg(DAtom(t.realizedtype, xs)))
    else:
        # Without closed predicates only nominal types are pinned: a type
        # claiming a nominal must agree bit for bit with that individual's
        # actual type.
        for b in ctx.ntbox.basis:
            if not isinstance(b, Nominal):
                continue
            nom = e.bit_true(xs, b)
            a = Const(b.individual)
            htype = _pos(DAtom(t.hastype(k), (a,) + ys))
            for b2 in ctx.ntbox.basis:
                e.add([DAtom(t.marked, xs)], _pos(DAtom(t.type_pred, xs)), nom,
                      htype, e.bit_true(xs, b2), e.bit_false(ys, b2))
                e.add([DAtom(t.marked, xs)], _pos(DAtom(t.type_pred, xs)), nom,
                      htype, e.bit_false(xs, b2), e.bit_true(ys, b2))

    # (VIII) the marking loop, one block per existential axiom whose role
    # is not subsumed by a closed role.
    zs = e.vec("Z")
    for i, ax in ctx.types.open_existentials:
        mo = t.markedone(i)
        e.add([DAtom(mo, xs + ys)], _pos(DAtom(t.type_pred, xs)),
              _pos(DAtom(t.marked, ys)))
        e.add([DAtom(mo, xs + ys)], _pos(DAtom(t.type_pred, xs)),
              _pos(DAtom(t.type_pred, ys)), e.bit_false(ys, ax.filler))
        for ua in ctx.ntbox.universals:
            if ctx.ntbox.hierarchy.subsumed(ax.role, ua.role):
                e.add([DAtom(mo, xs + ys)], _pos(DAtom(t.type_pred, xs)),
                      _pos(DAtom(t.type_pred, ys)),
                      e.bit_true(xs, ua.lhs), e.bit_false(ys, ua.filler))
            if ctx.ntbox.hierarchy.subsumed(ax.role.inverse(), ua.role):
                e.add([DAtom(mo, xs + ys)], _pos(DAtom(t.type_pred, xs)),
                      _pos(DAtom(t.type_pred, ys)),
                      e.bit_true(ys, ua.lhs), e.bit_false(xs, ua.filler))
        mu = t.markeduntil(i)
        e.add([DAtom(mu, xs + zs)], _pos(DAtom(mo, xs + zs)),
              _pos(DAtom(t.first(k), zs)))
        us = e.vec("U")
        e.add([DAtom(mu, xs + us)], _pos(DAtom(mu, xs + zs)),
              _pos(DAtom(t.next(k), zs + us)), _pos(DAtom(mo, xs + us)))
        e.add([DAtom(t.marked, xs)], _pos(DAtom(mu, xs + zs)),
              e.bit_true(xs, ax.lhs), _pos(DAtom(t.last(k), zs)))


# ---------------------------------------------------------------------------
# Type chain, shared by groups VI (individuals) and IX (fringe elements)


def _type_chain(e: _Emitter, level: Callable[[int], str], start: str,
                at: int | None) -> None:
    """The type of each X of ``start`` (with ``at``, of X's fringe element
    ``at``), bit by bit: ``level(i)`` holds X and its first i bits, read
    with ``holds`` and ``fails``.  A nominal's own bit is set only at that
    individual."""
    ys = e.vec("Y")
    e.add([DAtom(level(0), (X,))], _pos(DAtom(start, (X,))))
    for i, b in enumerate(e.ctx.ntbox.basis, start=1):
        prev = ys[:i - 1]
        prev_atom = _pos(DAtom(level(i - 1), (X,) + prev))
        if isinstance(b, Nominal) and at is None:
            a = Const(b.individual)
            e.add([DAtom(level(i), (a,) + prev + (e.one(),))],
                  _pos(DAtom(level(i - 1), (a,) + prev)))
        else:
            e.add([DAtom(level(i), (X,) + prev + (e.one(),))], prev_atom, e.holds(b, X, at))
        e.add([DAtom(level(i), (X,) + prev + (e.zero(),))], prev_atom, e.fails(b, X, at))


# ---------------------------------------------------------------------------
# Filter program (group IX)


def _filter_rules(e: _Emitter) -> None:
    """Forbid eliminated types where the game starts: at fringe elements
    (stable mode) or at any realized type (positive mode)."""
    ctx = e.ctx
    t, k = ctx.table, ctx.k
    if k == 0:
        return
    xs, ys = e.vec("X"), e.vec("Y")
    if ctx.mode == MODE_POSITIVE:
        e.constraint(_pos(DAtom(t.marked, xs)), _pos(DAtom(t.realizedtype, xs)))
        return

    if not ctx.ntbox.existentials:
        return
    # (IX) the type of each fringe element, and the filter.
    for i in range(len(ctx.ntbox.existentials)):
        _type_chain(e, lambda level: t.hastype_fr(level, i), t.in_pred[i], i)
        e.add([DAtom(t.fringetype, ys)], _pos(DAtom(t.hastype_fr(k, i), (X,) + ys)))
    e.constraint(_pos(DAtom(t.marked, xs)), _pos(DAtom(t.fringetype, xs)))


def _program(ctx: RewriteContext, *groups: Callable[[_Emitter], None]) -> DProgram:
    """The rules of ``groups``, in order, checked once for safety and arities."""
    e = _Emitter(ctx)
    for group in groups:
        group(e)
    return DProgram.of(e.rules)


# ---------------------------------------------------------------------------
# Whole-query rewriting


@dataclass(frozen=True)
class RewriteOutput:
    program: DProgram
    answer_pred: str
    mode: str
    ctx: RewriteContext
    query: ConjunctiveQuery

    @cached_property
    def evaluation(self):
        """The ``engine.Evaluation`` of this rewriting, built on first use."""
        from .engine import Evaluation
        return Evaluation(self)


def _query_rule(ctx: RewriteContext, query: ConjunctiveQuery) -> DRule:
    ordered = list(query.answer_vars)
    ordered += sorted(v for v in query.variables() if v not in query.answer_vars)
    names = {v: Var(f"Q{i + 1}") for i, v in enumerate(ordered)}
    t = ctx.table
    head = DAtom(t.answer, tuple(names[v] for v in query.answer_vars))
    body: list[DAtom] = []
    for a in sorted(query.atoms, key=str):
        if isinstance(a, ConceptAtom):
            body.append(DAtom(t.concept[a.concept], (names[a.var],)))
        else:
            body.append(DAtom(t.role[a.role], (names[a.subject], names[a.object])))
    return DRule((head,), tuple(body))


def rewrite(omq: OMQ, db_constants: bool = False) -> RewriteOutput:
    """Compile an OMQ into a Datalog program with stable negation whose
    certain answers over any ABox coincide with the OMQ's."""
    return _rewrite(omq, MODE_STABLE, db_constants)


def rewrite_positive(omq: OMQ, db_constants: bool = False) -> RewriteOutput:
    """Compile an OMQ without closed predicates into a positive disjunctive
    program; nominal-free TBoxes additionally avoid the inequality built-in."""
    if omq.sigma:
        raise OmqError("the positive rewriting requires an empty closed-predicate set")
    return _rewrite(omq, MODE_POSITIVE, db_constants)


def _rewrite(omq: OMQ, mode: str, db_constants: bool) -> RewriteOutput:
    omq = rollup(omq)
    table = build_pred_table(omq.tbox, omq.sigma, mode)
    ctx = RewriteContext(omq.tbox, omq.sigma, table, mode, db_constants)
    program = _program(ctx, _core_rules, _marking_rules, _filter_rules,
                       lambda e: e.rules.append(_query_rule(ctx, omq.query)))
    return RewriteOutput(program, table.answer, mode, ctx, omq.query)


# ---------------------------------------------------------------------------
# Data-side helpers


def abox_facts(ctx: RewriteContext, abox: Iterable[Assertion]) -> list[DAtom]:
    t = ctx.table
    out: list[DAtom] = []
    for a in abox:
        if isinstance(a, ConceptAssert):
            if a.concept not in t.concept:
                raise OmqError(f"ABox concept {a.concept!r} unknown to the rewriting")
            out.append(DAtom(t.concept[a.concept], (Const(a.individual),)))
        else:
            if a.role not in t.role:
                raise OmqError(f"ABox role {a.role!r} unknown to the rewriting")
            out.append(DAtom(t.role[a.role], (Const(a.subject), Const(a.object))))
    return out


def db_constant_facts(ctx: RewriteContext, individuals: Sequence[str]) -> list[DAtom]:
    """The two designated data constants standing in for the bits 0 and 1."""
    if len(individuals) < 2:
        raise OmqError("--db-constants requires at least two distinct ABox individuals")
    lo, hi = sorted(individuals)[:2]
    return [DAtom(ctx.table.ff, (Const(lo),)), DAtom(ctx.table.tt, (Const(hi),))]
