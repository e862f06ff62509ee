"""TBox normalization.

Every concept inclusion is reduced to one of four shapes over *basic*
operands (concept names or nominals):

* clause:     B1 and ... and Bn  <=  B{n+1} or ... or Bk
* exists:     A  <=  exists r . A'
* forall:     A  <=  forall r . A'
* role:       r  <=  s

Complex subconcepts are replaced by fresh ``_Xn`` names, each axiomatized
in the single direction its position requires (a fresh name standing for
a right-hand-side subconcept only needs to entail it, and vice versa), so
the output stays linear in the input.  Syntactically identical subconcepts
in the same polarity share one fresh name.  Top and bot never survive as
clause members or quantifier operands: top conjuncts and bot disjuncts
are dropped, trivially true axioms vanish, and a quantifier operand of
top/bot is routed through a fresh name axiomatized as the whole or the
empty class.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Union

from .syntax import (And, Axiom, Basic, Bot, Concept, ConceptIncl, Exists,
                     Forall, Name, Nominal, Not, Or, RoleExpr, RoleHierarchy,
                     RoleIncl, Top, make_basis, role_closure, tbox_names)

FRESH_PREFIX = "_X"
_FRESH_RE = re.compile(r"_X(\d+)$")


@dataclass(frozen=True)
class ClauseAxiom:
    """B1 and ... and Bn <= B{n+1} or ... or Bk over names and nominals.

    An empty left side means top; an empty right side means bot.
    """

    lhs: frozenset[Basic]
    rhs: frozenset[Basic]

    def __str__(self) -> str:
        lhs = " and ".join(str(b) for b in sorted(self.lhs, key=basic_key)) or "top"
        rhs = " or ".join(str(b) for b in sorted(self.rhs, key=basic_key)) or "bot"
        return f"{lhs} <= {rhs}"


@dataclass(frozen=True)
class ExistsAxiom:
    lhs: Basic
    role: RoleExpr
    filler: Basic

    def __str__(self) -> str:
        return f"{self.lhs} <= exists {self.role} . {self.filler}"


@dataclass(frozen=True)
class ForallAxiom:
    lhs: Basic
    role: RoleExpr
    filler: Basic

    def __str__(self) -> str:
        return f"{self.lhs} <= forall {self.role} . {self.filler}"


NormalAxiom = Union[ClauseAxiom, ExistsAxiom, ForallAxiom, RoleIncl]


def basic_key(b: Basic) -> tuple[int, str]:
    if isinstance(b, Name):
        return (0, b.name)
    return (1, b.individual)


@dataclass(frozen=True)
class NormalTBox:
    axioms: tuple[NormalAxiom, ...]
    clauses: tuple[ClauseAxiom, ...]
    existentials: tuple[ExistsAxiom, ...]
    universals: tuple[ForallAxiom, ...]
    role_incls: tuple[RoleIncl, ...]
    fresh_names: Mapping[str, Concept]
    concept_names: tuple[str, ...]
    role_names: tuple[str, ...]
    nominals: tuple[str, ...]
    hierarchy: RoleHierarchy
    basis: tuple[Basic, ...]

    def as_axioms(self) -> list[Axiom]:
        """Plain axioms equivalent to the normalized TBox (for re-normalization)."""
        out: list[Axiom] = []
        for ax in self.axioms:
            if isinstance(ax, ClauseAxiom):
                lhs: Concept = Top()
                for b in sorted(ax.lhs, key=basic_key):
                    lhs = b if isinstance(lhs, Top) else And(lhs, b)
                rhs: Concept = Bot()
                for b in sorted(ax.rhs, key=basic_key):
                    rhs = b if isinstance(rhs, Bot) else Or(rhs, b)
                out.append(ConceptIncl(lhs, rhs))
            elif isinstance(ax, ExistsAxiom):
                out.append(ConceptIncl(ax.lhs, Exists(ax.role, ax.filler)))
            elif isinstance(ax, ForallAxiom):
                out.append(ConceptIncl(ax.lhs, Forall(ax.role, ax.filler)))
            else:
                out.append(ax)
        return out


def nnf(c: Concept) -> Concept:
    if isinstance(c, (Name, Top, Bot, Nominal)):
        return c
    if isinstance(c, And):
        return And(nnf(c.left), nnf(c.right))
    if isinstance(c, Or):
        return Or(nnf(c.left), nnf(c.right))
    if isinstance(c, Exists):
        return Exists(c.role, nnf(c.filler))
    if isinstance(c, Forall):
        return Forall(c.role, nnf(c.filler))
    return nnf_not(c.operand)


def nnf_not(c: Concept) -> Concept:
    """Negation normal form of ``not c``."""
    if isinstance(c, Top):
        return Bot()
    if isinstance(c, Bot):
        return Top()
    if isinstance(c, (Name, Nominal)):
        return Not(c)
    if isinstance(c, Not):
        return nnf(c.operand)
    if isinstance(c, And):
        return Or(nnf_not(c.left), nnf_not(c.right))
    if isinstance(c, Or):
        return And(nnf_not(c.left), nnf_not(c.right))
    if isinstance(c, Exists):
        return Forall(c.role, nnf_not(c.filler))
    return Exists(c.role, nnf_not(c.filler))


def _flatten(c: Concept, node: type) -> list[Concept]:
    if isinstance(c, node):
        return _flatten(c.left, node) + _flatten(c.right, node)
    return [c]


class _Normalizer:
    def __init__(self, reserved: Iterable[str]):
        self.axioms: list[NormalAxiom] = []
        self.fresh_names: dict[str, Concept] = {}
        self._sub_cache: dict[Concept, Name] = {}
        self._sup_cache: dict[Concept, Name] = {}
        self._top_name: Name | None = None
        self._bot_name: Name | None = None
        counter = 0
        for name in reserved:
            m = _FRESH_RE.match(name)
            if m:
                counter = max(counter, int(m.group(1)))
        self._counter = counter

    def fresh(self, origin: Concept) -> Name:
        self._counter += 1
        name = f"{FRESH_PREFIX}{self._counter}"
        self.fresh_names[name] = origin
        return Name(name)

    def clause(self, lhs: Iterable[Concept], rhs: Iterable[Concept]) -> None:
        left = {b for b in lhs if not isinstance(b, Top)}
        right = {b for b in rhs if not isinstance(b, Bot)}
        if any(isinstance(b, Bot) for b in left):
            return
        if any(isinstance(b, Top) for b in right):
            return
        if left & right:
            return
        self.axioms.append(ClauseAxiom(frozenset(left), frozenset(right)))

    # Fresh stand-ins for top/bot in quantifier-operand positions.
    def top_name(self) -> Name:
        if self._top_name is None:
            self._top_name = self.fresh(Top())
            self.clause((), (self._top_name,))
        return self._top_name

    def bot_name(self) -> Name:
        if self._bot_name is None:
            self._bot_name = self.fresh(Bot())
            self.clause((self._bot_name,), ())
        return self._bot_name

    def define_sub(self, d: Concept) -> Name:
        """Fresh name entailing ``d`` (for right-hand-side positions)."""
        if d in self._sub_cache:
            return self._sub_cache[d]
        x = self.fresh(d)
        self._sub_cache[d] = x
        self.axiom(x, d)
        return x

    def define_sup(self, c: Concept) -> Name:
        """Fresh name entailed by ``c`` (for left-hand-side positions)."""
        if c in self._sup_cache:
            return self._sup_cache[c]
        x = self.fresh(c)
        self._sup_cache[c] = x
        if isinstance(c, Exists):
            # exists r . E <= X   becomes   E <= forall inv(r) . X
            self.axiom(c.filler, Forall(c.role.inverse(), x))
        elif isinstance(c, Forall):
            # forall r . E <= X: anything outside X must have an r-successor
            # outside E.
            nx = self.fresh(nnf_not(c))
            self.clause((), (x, nx))
            self.axiom(nx, Exists(c.role, nnf_not(c.filler)))
        else:
            self.axiom(c, x)
        return x

    def _quantifier_lhs(self, basics: list[Concept], complexes: list[Concept]) -> Basic | None:
        names = list(basics) + [self.define_sup(c) for c in complexes]
        if any(isinstance(b, Bot) for b in names):
            return None
        names = [b for b in names if not isinstance(b, Top)]
        if len(names) == 1 and isinstance(names[0], (Name, Nominal)):
            return names[0]
        if not names:
            return self.top_name()
        origin: Concept = names[0]
        for b in names[1:]:
            origin = And(origin, b)
        a = self.fresh(origin)
        self.clause(names, (a,))
        return a

    def _quantifier_filler(self, f: Concept, universal: bool) -> Concept | None:
        if isinstance(f, (Name, Nominal)):
            return f
        if isinstance(f, Top):
            return None if universal else self.top_name()
        if isinstance(f, Bot):
            return self.bot_name() if universal else Bot()
        return self.define_sub(f)

    def axiom(self, lhs: Concept, rhs: Concept) -> None:
        """Normalize ``lhs <= rhs`` (both already in NNF)."""
        conjuncts = _flatten(lhs, And)
        disjuncts = _flatten(rhs, Or)
        if len(conjuncts) == 1 and isinstance(conjuncts[0], Or):
            for part in _flatten(conjuncts[0], Or):
                self.axiom(part, rhs)
            return
        if len(disjuncts) == 1 and isinstance(disjuncts[0], And):
            for part in _flatten(disjuncts[0], And):
                self.axiom(lhs, part)
            return

        lhs_basics: list[Concept] = []
        rhs_basics: list[Concept] = []
        lhs_complex: list[Concept] = []
        rhs_complex: list[Concept] = []
        for c in conjuncts:
            if isinstance(c, (Name, Nominal, Top, Bot)):
                lhs_basics.append(c)
            elif isinstance(c, Not):
                rhs_basics.append(c.operand)  # not B on the left flips right
            else:
                lhs_complex.append(c)
        for d in disjuncts:
            if isinstance(d, (Name, Nominal, Top, Bot)):
                rhs_basics.append(d)
            elif isinstance(d, Not):
                lhs_basics.append(d.operand)
            else:
                rhs_complex.append(d)

        if (len(rhs_complex) == 1 and not rhs_basics
                and isinstance(rhs_complex[0], (Exists, Forall))):
            node = rhs_complex[0]
            a = self._quantifier_lhs(lhs_basics, lhs_complex)
            if a is None:
                return  # bot on the left: trivially true
            universal = isinstance(node, Forall)
            f = self._quantifier_filler(nnf(node.filler), universal)
            if f is None:
                return  # forall r . top: trivially true
            if isinstance(f, Bot):
                self.clause((a,), ())  # exists r . bot entails bot
                return
            if universal:
                self.axioms.append(ForallAxiom(a, node.role, f))
            else:
                self.axioms.append(ExistsAxiom(a, node.role, f))
            return

        lhs_basics.extend(self.define_sup(c) for c in lhs_complex)
        rhs_basics.extend(self.define_sub(d) for d in rhs_complex)
        self.clause(lhs_basics, rhs_basics)


def normalize(tbox: Iterable[Axiom], extra_concept_names: Iterable[str] = (),
              extra_role_names: Iterable[str] = ()) -> NormalTBox:
    axioms = list(tbox)
    concepts, roles, nominals = tbox_names(axioms)
    concepts.update(extra_concept_names)
    roles.update(extra_role_names)

    norm = _Normalizer(reserved=concepts)
    for ax in axioms:
        if isinstance(ax, RoleIncl):
            norm.axioms.append(ax)
        else:
            norm.axiom(nnf(ax.lhs), nnf(ax.rhs))

    out = tuple(norm.axioms)
    concepts.update(norm.fresh_names)
    role_axioms = [ax for ax in out if isinstance(ax, RoleIncl)]
    hierarchy = role_closure(role_axioms, roles)
    return NormalTBox(
        axioms=out,
        clauses=tuple(ax for ax in out if isinstance(ax, ClauseAxiom)),
        existentials=tuple(ax for ax in out if isinstance(ax, ExistsAxiom)),
        universals=tuple(ax for ax in out if isinstance(ax, ForallAxiom)),
        role_incls=tuple(role_axioms),
        fresh_names=dict(norm.fresh_names),
        concept_names=tuple(sorted(concepts)),
        role_names=tuple(sorted(roles)),
        nominals=tuple(sorted(nominals)),
        hierarchy=hierarchy,
        basis=make_basis(concepts, nominals),
    )
