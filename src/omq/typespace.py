"""Types over a normalized TBox, cores, and the type-elimination fixpoint.

A type is a subset of the basis (concept names and nominals of the TBox)
encoded as an int bitmask: bit ``i`` set means the ``i``-th basis element
belongs to the type.  Top is implicitly in every type and bot in none.

A core is a small interpretation over the KB individuals plus *fringe*
elements, one per (individual, existential axiom) pair, that satisfies
every axiom except existentials triggered at the fringe.  The marking
fixpoint eliminates the types from which the extension game is lost; a
core extends to a full model exactly when no fringe element realizes an
eliminated type.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Container, Iterable, Mapping, Union

from .normalize import ExistsAxiom, NormalTBox
from .syntax import (Assertion, Basic, ConceptAssert, Name, Nominal, OmqError,
                     RoleAssert, RoleExpr, subsumed_by_closed)

TypeVec = int

MAX_BASIS_BITS = 16


class ResourceRefused(OmqError):
    """An operation would exceed its configured desk-scale budget."""


@dataclass(frozen=True)
class FringeId:
    """The extra element witnessing existential axiom ``axiom_index`` at
    ``parent``; it may only connect to its parent."""

    parent: str
    axiom_index: int

    def __str__(self) -> str:
        return f"{self.parent}__e{self.axiom_index}"


Element = Union[str, FringeId]


def element_key(e: Element) -> tuple:
    if isinstance(e, str):
        return (0, e)
    return (1, e.parent, e.axiom_index)


@dataclass(frozen=True, eq=True)
class Core:
    individuals: tuple[str, ...]
    fringe: frozenset[FringeId]
    concept_ext: Mapping[str, frozenset[Element]]
    role_ext: Mapping[str, frozenset[tuple[Element, Element]]]

    def domain(self) -> tuple[Element, ...]:
        return self.individuals + tuple(sorted(self.fringe, key=element_key))

    def in_concept(self, name: str, e: Element) -> bool:
        return e in self.concept_ext.get(name, frozenset())

    def pairs(self, role: RoleExpr) -> frozenset[tuple[Element, Element]]:
        base = self.role_ext.get(role.name, frozenset())
        if role.inverted:
            return frozenset((b, a) for (a, b) in base)
        return base

    def satisfies_basic(self, b: Basic, e: Element) -> bool:
        if isinstance(b, Name):
            return self.in_concept(b.name, e)
        return e == b.individual


@dataclass(frozen=True)
class MarkResult:
    marked: frozenset[TypeVec]
    unmarked: frozenset[TypeVec]
    iterations: int


@dataclass(frozen=True)
class TypeContext:
    """Precomputed bit-level view of a normalized TBox with closed predicates."""

    ntbox: NormalTBox
    sigma: frozenset[str]

    @cached_property
    def basis(self) -> tuple[Basic, ...]:
        return self.ntbox.basis

    @property
    def k(self) -> int:
        return len(self.ntbox.basis)

    @cached_property
    def bit_of(self) -> dict[Basic, int]:
        return {b: i for i, b in enumerate(self.ntbox.basis)}

    def mask(self, basics: Iterable[Basic]) -> int:
        m = 0
        for b in basics:
            m |= 1 << self.bit_of[b]
        return m

    @cached_property
    def clause_masks(self) -> tuple[tuple[int, int], ...]:
        return tuple((self.mask(c.lhs), self.mask(c.rhs)) for c in self.ntbox.clauses)

    @cached_property
    def valid_types(self) -> tuple[TypeVec, ...]:
        """The types that satisfy every clause axiom, in increasing order.
        Every walk over the 2^k type space starts here, so this is where a
        basis past ``MAX_BASIS_BITS`` is refused."""
        if self.k > MAX_BASIS_BITS:
            raise ResourceRefused(f"basis of {self.k} concepts exceeds the "
                                  f"{MAX_BASIS_BITS}-bit type-space budget")
        return tuple(t for t in range(1 << self.k) if satisfies_clauses(t, self))

    def has(self, t: TypeVec, b: Basic) -> bool:
        """Does type ``t`` contain ``b``?"""
        return bool(t >> self.bit_of[b] & 1)

    def types_of(self, e: str | None, asserted: Container[tuple[str, str]],
                 exclude: int = 0) -> list[TypeVec]:
        """The valid types individual ``e`` may take given the asserted
        ``(concept, individual)`` pairs: its own nominal and its asserted
        concepts are in, other nominals and unasserted closed concepts are
        out.  An anonymous element (``e`` None) takes no nominal and no
        closed concept.  Types meeting the ``exclude`` mask are left out."""
        required, forbidden = 0, exclude
        for j, b in enumerate(self.basis):
            if isinstance(b, Nominal):
                holds = e == b.individual
            else:
                holds = e is not None and (b.name, e) in asserted
                if not holds and b.name not in self.sigma:
                    continue
            if holds:
                required |= 1 << j
            else:
                forbidden |= 1 << j
        return [t for t in self.valid_types
                if t & required == required and not t & forbidden]

    def extensions(self, types: Mapping[Element, TypeVec]) -> dict[str, frozenset[Element]]:
        """The extension of every concept name when each element of
        ``types`` has its type."""
        return {b.name: frozenset(e for e, t in types.items() if self.has(t, b))
                for b in self.basis if isinstance(b, Name)}

    def role_closed(self, role: RoleExpr) -> bool:
        return subsumed_by_closed(role, self.ntbox.hierarchy, self.sigma)

    @cached_property
    def ctype_mask(self) -> int:
        """Bits whose presence makes a type realizable only by individuals."""
        m = 0
        for i, b in enumerate(self.basis):
            if isinstance(b, Nominal) or b.name in self.sigma:
                m |= 1 << i
        for ax in self.ntbox.existentials:
            if self.role_closed(ax.role):
                m |= 1 << self.bit_of[ax.lhs]
        return m

    @cached_property
    def open_existentials(self) -> tuple[tuple[int, ExistsAxiom], ...]:
        return tuple((i, ax) for i, ax in enumerate(self.ntbox.existentials)
                     if not self.role_closed(ax.role))

    def universal_bits(self, role: RoleExpr) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
        """(lhs mask, filler mask) pairs of the universal axioms reachable
        from ``role`` forwards and backwards along the hierarchy."""
        fwd: list[tuple[int, int]] = []
        bwd: list[tuple[int, int]] = []
        h = self.ntbox.hierarchy
        for ax in self.ntbox.universals:
            lb, fb = 1 << self.bit_of[ax.lhs], 1 << self.bit_of[ax.filler]
            if h.subsumed(role, ax.role):
                fwd.append((lb, fb))
            if h.subsumed(role.inverse(), ax.role):
                bwd.append((lb, fb))
        return fwd, bwd

    def names_of(self, t: TypeVec) -> tuple[str, ...]:
        return tuple(str(b) for b in self.basis if self.has(t, b))


# ---------------------------------------------------------------------------
# Types of core elements


def type_of(element: Element, core: Core, ctx: TypeContext) -> TypeVec:
    if element not in core.domain():
        raise OmqError(f"element {element} not in core domain")
    t = 0
    for i, b in enumerate(ctx.basis):
        if isinstance(b, Name):
            if core.in_concept(b.name, element):
                t |= 1 << i
        elif element == b.individual:
            t |= 1 << i
    return t


def realized_types(core: Core, ctx: TypeContext) -> frozenset[TypeVec]:
    """Types realized by the named individuals of the core (fringe elements
    never count: in a valid core they cannot realize an individual-only type)."""
    return frozenset(type_of(a, core, ctx) for a in core.individuals)


def is_c_type(t: TypeVec, ctx: TypeContext) -> bool:
    return bool(t & ctx.ctype_mask)


def satisfies_clauses(t: TypeVec, ctx: TypeContext) -> bool:
    return all((t & lm) != lm or (t & rm) != 0 for (lm, rm) in ctx.clause_masks)


# ---------------------------------------------------------------------------
# Core validation


@dataclass(frozen=True)
class CoreViolation:
    condition: str
    message: str

    def __str__(self) -> str:
        return f"({self.condition}) {self.message}"


@dataclass(frozen=True)
class CoreReport:
    violations: tuple[CoreViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_core(core: Core, ctx: TypeContext, abox: Iterable[Assertion]) -> CoreReport:
    out: list[CoreViolation] = []
    ntbox = ctx.ntbox
    abox = tuple(abox)
    inds = set(core.individuals)
    domain = core.domain()

    def bad(cond: str, msg: str) -> None:
        out.append(CoreViolation(cond, msg))

    # (c1) domain shape: named individuals plus fringe elements tied to them.
    for f in sorted(core.fringe, key=element_key):
        if f.parent not in inds:
            bad("c1", f"fringe element {f} has unknown parent")
        if not 0 <= f.axiom_index < len(ntbox.existentials):
            bad("c1", f"fringe element {f} references no existential axiom")
    for name, ext in core.concept_ext.items():
        if name not in ntbox.concept_names:
            bad("c1", f"unknown concept name {name!r} in core")
        for e in ext:
            if e not in domain:
                bad("c1", f"element {e} of {name} not in core domain")
    for name, ext in core.role_ext.items():
        if name not in ntbox.role_names:
            bad("c1", f"unknown role name {name!r} in core")
        for (d, e) in ext:
            if d not in domain or e not in domain:
                bad("c1", f"role pair {d},{e} of {name} not in core domain")

    # (c2) the ABox holds and closed predicates match it exactly.
    asserted_c = {(a.concept, a.individual) for a in abox if isinstance(a, ConceptAssert)}
    asserted_r = {(a.role, a.subject, a.object) for a in abox if isinstance(a, RoleAssert)}
    for a in abox:
        if isinstance(a, ConceptAssert):
            if not core.in_concept(a.concept, a.individual):
                bad("c2", f"assertion {a} not satisfied")
        elif (a.subject, a.object) not in core.role_ext.get(a.role, frozenset()):
            bad("c2", f"assertion {a} not satisfied")
    for name in sorted(ctx.sigma):
        for e in sorted(core.concept_ext.get(name, frozenset()), key=element_key):
            if not isinstance(e, str) or (name, e) not in asserted_c:
                bad("c2", f"closed concept {name} contains unasserted element {e}")
        for (d, e) in sorted(core.role_ext.get(name, frozenset()),
                             key=lambda p: (element_key(p[0]), element_key(p[1]))):
            if (not isinstance(d, str) or not isinstance(e, str)
                    or (name, d, e) not in asserted_r):
                bad("c2", f"closed role {name} contains unasserted pair {d},{e}")

    # (c3.1) clause axioms hold everywhere.
    for ax in ntbox.clauses:
        for e in domain:
            if all(core.satisfies_basic(b, e) for b in ax.lhs) and \
                    not any(core.satisfies_basic(b, e) for b in ax.rhs):
                bad("c3.1", f"{ax} violated at {e}")

    # (c3.2) universal axioms hold everywhere.
    for ax in ntbox.universals:
        for (d, e) in core.pairs(ax.role):
            if core.satisfies_basic(ax.lhs, d) and not core.satisfies_basic(ax.filler, e):
                bad("c3.2", f"{ax} violated at {d},{e}")

    # (c3.3) role inclusions hold.
    for ax in ntbox.role_incls:
        missing = core.pairs(ax.lhs) - core.pairs(ax.rhs)
        for (d, e) in sorted(missing, key=lambda p: (element_key(p[0]), element_key(p[1]))):
            bad("c3.3", f"{ax} violated at {d},{e}")

    # (c3.4) existentials over closed roles hold everywhere.
    for ax in ntbox.existentials:
        if not ctx.role_closed(ax.role):
            continue
        succ = core.pairs(ax.role)
        for e in domain:
            if core.satisfies_basic(ax.lhs, e) and \
                    not any(core.satisfies_basic(ax.filler, y) for (x, y) in succ if x == e):
                bad("c3.4", f"{ax} unsatisfied at {e}")

    # (c4) role edges stay between individuals or an individual and its own fringe.
    for name in sorted(core.role_ext):
        for (d, e) in sorted(core.role_ext[name],
                             key=lambda p: (element_key(p[0]), element_key(p[1]))):
            ok = (isinstance(d, str) and isinstance(e, str)) \
                or (isinstance(d, str) and isinstance(e, FringeId) and e.parent == d) \
                or (isinstance(e, str) and isinstance(d, FringeId) and d.parent == e)
            if not ok:
                bad("c4", f"role edge {name}({d},{e}) not individual-to-own-fringe")

    # (c5) every non-fringe element satisfies every existential axiom.
    for ax in ntbox.existentials:
        succ = core.pairs(ax.role)
        for e in core.individuals:
            if core.satisfies_basic(ax.lhs, e) and \
                    not any(core.satisfies_basic(ax.filler, y) for (x, y) in succ if x == e):
                bad("c5", f"{ax} unsatisfied at individual {e}")

    return CoreReport(tuple(out))


# ---------------------------------------------------------------------------
# The marking fixpoint


def mark(ctx: TypeContext, core: Core) -> MarkResult:
    """Eliminate the types from which the core-extension game is lost.

    Starts from all 2^k types, marks clause violators and unrealized
    individual-only types, then repeatedly marks every type containing the
    left-hand side of an open-role existential for which every candidate
    successor type is marked, misses the filler, or clashes with a
    universal axiom along the role hierarchy.  Existentials over roles
    subsumed by a closed role are exempt: valid cores already satisfy them.
    """
    return mark_types(ctx, realized_types(core, ctx))


def mark_types(ctx: TypeContext, realized: frozenset[TypeVec]) -> MarkResult:
    """The marking fixpoint given the set of types realized by individuals."""
    valid = ctx.valid_types
    total = 1 << ctx.k
    marked = bytearray([1]) * total
    for t in valid:
        marked[t] = 0
    cmask = ctx.ctype_mask
    for t in range(total):
        if not marked[t] and (t & cmask) and t not in realized:
            marked[t] = 1

    challenges = []
    for _, ax in ctx.open_existentials:
        fwd, bwd = ctx.universal_bits(ax.role)
        challenges.append((1 << ctx.bit_of[ax.lhs], 1 << ctx.bit_of[ax.filler], fwd, bwd))

    iterations = 0
    changed = True
    while changed:
        changed = False
        iterations += 1
        for t in range(total):
            if marked[t]:
                continue
            for (lhs_bit, filler_bit, fwd, bwd) in challenges:
                if not t & lhs_bit:
                    continue
                if not _has_witness(t, filler_bit, fwd, bwd, marked, total):
                    marked[t] = 1
                    changed = True
                    break

    marked_set = frozenset(t for t in range(total) if marked[t])
    unmarked_set = frozenset(t for t in range(total) if not marked[t])
    return MarkResult(marked_set, unmarked_set, iterations)


def _has_witness(t: TypeVec, filler_bit: int, fwd, bwd, marked: bytearray,
                 total: int) -> bool:
    for t2 in range(total):
        if marked[t2] or not t2 & filler_bit:
            continue
        if any(t & lb and not t2 & fb for (lb, fb) in fwd):
            continue
        if any(t2 & lb and not t & fb for (lb, fb) in bwd):
            continue
        return True
    return False


def has_nonlosing_strategy(core: Core, ctx: TypeContext,
                           result: MarkResult | None = None) -> bool:
    """A core extends to a full model iff no fringe element's type is marked."""
    if result is None:
        result = mark(ctx, core)
    return all(type_of(f, core, ctx) not in result.marked
               for f in core.fringe)


def dump_types(result: MarkResult, ctx: TypeContext) -> str:
    """Debug listing, one type per line as comma-separated basis names."""
    lines = []
    for label, types in (("unmarked", result.unmarked), ("marked", result.marked)):
        for t in sorted(types):
            lines.append(f"{label}: {','.join(ctx.names_of(t))}")
    return "\n".join(lines) + "\n"

