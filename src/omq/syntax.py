"""Abstract syntax for ALCHOI knowledge bases with closed predicates.

Concepts and roles are immutable trees; knowledge bases bundle a TBox,
a set of closed predicate names and an ABox.  This module also collects
the names of a TBox, orders its basis, and computes the reflexive,
inversion- and composition-closed role hierarchy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Union


class OmqError(Exception):
    """Base class for user-facing diagnostics."""


# ---------------------------------------------------------------------------
# Roles


@dataclass(frozen=True, order=True)
class RoleExpr:
    name: str
    inverted: bool = False

    def inverse(self) -> "RoleExpr":
        return RoleExpr(self.name, not self.inverted)

    def __str__(self) -> str:
        return f"inv({self.name})" if self.inverted else self.name


# ---------------------------------------------------------------------------
# Concepts


@dataclass(frozen=True)
class Name:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Top:
    def __str__(self) -> str:
        return "top"


@dataclass(frozen=True)
class Bot:
    def __str__(self) -> str:
        return "bot"


@dataclass(frozen=True)
class Nominal:
    individual: str

    def __str__(self) -> str:
        return "{%s}" % self.individual


@dataclass(frozen=True)
class Not:
    operand: "Concept"

    def __str__(self) -> str:
        return f"not {_paren(self.operand)}"


@dataclass(frozen=True)
class And:
    left: "Concept"
    right: "Concept"

    def __str__(self) -> str:
        return f"{_paren(self.left)} and {_paren(self.right)}"


@dataclass(frozen=True)
class Or:
    left: "Concept"
    right: "Concept"

    def __str__(self) -> str:
        return f"{_paren(self.left)} or {_paren(self.right)}"


@dataclass(frozen=True)
class Exists:
    role: RoleExpr
    filler: "Concept"

    def __str__(self) -> str:
        return f"exists {self.role} . {_paren(self.filler)}"


@dataclass(frozen=True)
class Forall:
    role: RoleExpr
    filler: "Concept"

    def __str__(self) -> str:
        return f"forall {self.role} . {_paren(self.filler)}"


Concept = Union[Name, Top, Bot, Nominal, Not, And, Or, Exists, Forall]

#: Operands of normal-form axioms and elements of a basis: concept names
#: and nominals.  ``normalize`` removes top and bot from every operand.
Basic = Union[Name, Nominal]

_ATOMIC = (Name, Top, Bot, Nominal)


def _paren(c: Concept) -> str:
    if isinstance(c, _ATOMIC):
        return str(c)
    return f"({c})"


def conjoin(parts: Iterable[Concept]) -> Concept:
    """Right-fold a conjunction; the empty conjunction is top."""
    items = list(parts)
    if not items:
        return Top()
    out = items[-1]
    for c in reversed(items[:-1]):
        out = And(c, out)
    return out


# ---------------------------------------------------------------------------
# Axioms and assertions


@dataclass(frozen=True)
class ConceptIncl:
    lhs: Concept
    rhs: Concept

    def __str__(self) -> str:
        return f"{self.lhs} <= {self.rhs}"


@dataclass(frozen=True)
class RoleIncl:
    lhs: RoleExpr
    rhs: RoleExpr

    def __str__(self) -> str:
        return f"{self.lhs} <= {self.rhs}"


Axiom = Union[ConceptIncl, RoleIncl]


@dataclass(frozen=True)
class ConceptAssert:
    concept: str
    individual: str

    def __str__(self) -> str:
        return f"{self.concept}({self.individual})"


@dataclass(frozen=True)
class RoleAssert:
    role: str
    subject: str
    object: str

    def __str__(self) -> str:
        return f"{self.role}({self.subject}, {self.object})"


Assertion = Union[ConceptAssert, RoleAssert]


@dataclass(frozen=True)
class KnowledgeBase:
    tbox: tuple[Axiom, ...]
    sigma: frozenset[str]
    abox: tuple[Assertion, ...]

    @staticmethod
    def of(tbox: Iterable[Axiom], sigma: Iterable[str] = (),
           abox: Iterable[Assertion] = ()) -> "KnowledgeBase":
        return KnowledgeBase(tuple(tbox), frozenset(sigma), tuple(abox))


# ---------------------------------------------------------------------------
# Names of a TBox


def _walk(c: Concept) -> Iterator[Concept]:
    yield c
    if isinstance(c, Not):
        yield from _walk(c.operand)
    elif isinstance(c, (And, Or)):
        yield from _walk(c.left)
        yield from _walk(c.right)
    elif isinstance(c, (Exists, Forall)):
        yield from _walk(c.filler)


def tbox_concepts(tbox: Iterable[Axiom]) -> Iterator[Concept]:
    for ax in tbox:
        if isinstance(ax, ConceptIncl):
            yield from _walk(ax.lhs)
            yield from _walk(ax.rhs)


def tbox_names(tbox: Iterable[Axiom]) -> tuple[set[str], set[str], set[str]]:
    """Concept names, role names and nominal individuals occurring in a TBox."""
    concepts: set[str] = set()
    roles: set[str] = set()
    nominals: set[str] = set()
    for ax in tbox:
        if isinstance(ax, RoleIncl):
            roles.add(ax.lhs.name)
            roles.add(ax.rhs.name)
    for c in tbox_concepts(tbox):
        if isinstance(c, Name):
            concepts.add(c.name)
        elif isinstance(c, Nominal):
            nominals.add(c.individual)
        elif isinstance(c, (Exists, Forall)):
            roles.add(c.role.name)
    return concepts, roles, nominals


def make_basis(concept_names: Iterable[str], nominals: Iterable[str]) -> tuple[Basic, ...]:
    """Concept names, then nominals, each block sorted.  Top and bot stay
    out: every type holds top and none holds bot."""
    out: list[Basic] = [Name(n) for n in sorted(set(concept_names))]
    out.extend(Nominal(i) for i in sorted(set(nominals)))
    return tuple(out)


# ---------------------------------------------------------------------------
# Role hierarchy


@dataclass(frozen=True)
class RoleHierarchy:
    """The least relation over basic roles that is reflexive on the roles of
    the TBox, closed under inversion, and closed under composition with the
    TBox role inclusions."""

    pairs: frozenset[tuple[RoleExpr, RoleExpr]] = field(default_factory=frozenset)

    def subsumers(self, r: RoleExpr) -> set[RoleExpr]:
        return {s for (a, s) in self.pairs if a == r}

    def subsumed(self, r: RoleExpr, s: RoleExpr) -> bool:
        return (r, s) in self.pairs


def role_closure(tbox: Iterable[Axiom], role_names: Iterable[str] = ()) -> RoleHierarchy:
    """The hierarchy of ``tbox``, reflexive on its roles and on
    ``role_names``."""
    axioms = list(tbox)
    incls = [(ax.lhs, ax.rhs) for ax in axioms if isinstance(ax, RoleIncl)]
    _, roles, _ = tbox_names(axioms)
    roles.update(role_names)
    pairs: set[tuple[RoleExpr, RoleExpr]] = set()
    for p in roles:
        pairs.add((RoleExpr(p), RoleExpr(p)))
        pairs.add((RoleExpr(p, True), RoleExpr(p, True)))
    changed = True
    while changed:
        changed = False
        for (r, s) in list(pairs):
            inv = (r.inverse(), s.inverse())
            if inv not in pairs:
                pairs.add(inv)
                changed = True
            for (sub, sup) in incls:
                if s == sub and (r, sup) not in pairs:
                    pairs.add((r, sup))
                    changed = True
    return RoleHierarchy(frozenset(pairs))


def subsumed_by_closed(r: RoleExpr, hierarchy: RoleHierarchy,
                       sigma: frozenset[str]) -> bool:
    """True iff some subsumer of ``r`` (or its inverse) is a closed role."""
    return any(s.name in sigma for (a, s) in hierarchy.pairs if a == r)
