"""Datalog with disjunction, stable negation and built-in inequality.

The rewriting targets this IR: terms, atoms, rules and programs, the
``(predicate, row)`` form of a ground atom, and the program text.  The
evaluator that joins, grounds and checks stable models is ``evaluate``;
the IR reaches into it only through ``DProgram.plans``, on first use, so
compiling a query loads no evaluator.

A rewriting holds atoms of arity up to 2k, so the code that builds,
checks and prints rules runs once per term: it tests a term's kind with
``__class__ is Var`` and works inside comprehensions.  ``emit_text``
prints ASP-Core-2 text, a constant bare when it is an identifier or a
number and otherwise as a quoted string with backslash, quote and
newline escaped.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Union

from .syntax import OmqError


@dataclass(frozen=True, order=True, slots=True)
class Var:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, order=True, slots=True)
class Const:
    symbol: str

    def __str__(self) -> str:
        return self.symbol


DTerm = Union[Var, Const]


@dataclass(frozen=True, order=True, slots=True)
class DAtom:
    pred: str
    args: tuple[DTerm, ...] = ()

    def __str__(self) -> str:
        if not self.args:
            return self.pred
        return f"{self.pred}({','.join(map(str, self.args))})"


@dataclass(frozen=True, slots=True)
class DRule:
    head: tuple[DAtom, ...] = ()
    body_pos: tuple[DAtom, ...] = ()
    body_neg: tuple[DAtom, ...] = ()
    body_neq: tuple[tuple[DTerm, DTerm], ...] = ()

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
        bound = {t.name for a in self.body_pos for t in a.args if t.__class__ is Var}
        loose = {t.name for part in (self.head, self.body_neg) for a in part
                 for t in a.args if t.__class__ is Var and t.name not in bound}
        if self.body_neq:
            loose.update([t.name for pair in self.body_neq for t in pair
                          if t.__class__ is Var and t.name not in bound])
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
                n = len(a.args)
                got = arities.setdefault(a.pred, n)
                if got != n:
                    raise OmqError(f"predicate {a.pred} used with arities {got} and {n}")
        return DProgram(rules, arities)

    @cached_property
    def plans(self) -> list["_Plan"]:
        """The join plans ``ground`` runs for ``rules``, compiled on first
        use and kept with the program."""
        from .evaluate import _Plan
        return [_Plan(r) for r in self.rules]

    @cached_property
    def readers(self) -> list[tuple[tuple[int, ...], ...]]:
        """For each rule and each of its head atoms, the rules whose
        positive body reads that atom's predicate, in program order: the
        rules ``ground`` runs again once that head gets a new row."""
        reading: dict[str, list[int]] = {}
        for n, r in enumerate(self.rules):
            for pred in dict.fromkeys([a.pred for a in r.body_pos]):
                reading.setdefault(pred, []).append(n)
        return [tuple(tuple(reading.get(a.pred, ())) for a in r.head) for r in self.rules]

    def has_negation(self) -> bool:
        return any(r.body_neg for r in self.rules)


# ---------------------------------------------------------------------------
# Ground atoms as rows
#
# The evaluator holds a ground atom as a fact, its predicate and its row:
# the tuple of its constant symbols.

Row = tuple[str, ...]
Fact = tuple[str, Row]


def fact_of(a: DAtom) -> Fact:
    """The ``(predicate, row)`` form of a ground atom."""
    return a.pred, tuple(t.symbol for t in a.args)


def atom_of(f: Fact) -> DAtom:
    return DAtom(f[0], tuple(map(Const, f[1])))


# ---------------------------------------------------------------------------
# Text emission (ASP-Core-2 compatible)


_PLAIN_CONST = re.compile(r"[a-z][A-Za-z0-9_]*|\d+")


def _const_text(symbol: str) -> str:
    if _PLAIN_CONST.fullmatch(symbol):
        return symbol
    return '"%s"' % symbol.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _atom_text(a: DAtom) -> str:
    if not a.args:
        return a.pred
    terms = [t.name if t.__class__ is Var else _const_text(t.symbol) for t in a.args]
    return f"{a.pred}({','.join(terms)})"


def _term_text(t: DTerm) -> str:
    return t.name if t.__class__ is Var else _const_text(t.symbol)


def rule_text(r: DRule) -> str:
    head = " | ".join([_atom_text(a) for a in r.head])
    body = [_atom_text(a) for a in r.body_pos]
    if r.body_neg:
        body += [f"not {_atom_text(a)}" for a in r.body_neg]
    if r.body_neq:
        body += [f"{_term_text(x)} != {_term_text(y)}" for (x, y) in r.body_neq]
    if not body:
        return f"{head}."
    if not head:
        return f":- {', '.join(body)}."
    return f"{head} :- {', '.join(body)}."


def emit_text(p: DProgram) -> str:
    return "\n".join([rule_text(r) for r in p.rules]) + "\n"


_STRING = r'"(?:[^"\\]|\\.)*"'  # an ASP-Core-2 string, as _const_text writes it
_TERM = rf"{_STRING}|[^\s,()\"]+"
# A token runs to the next space outside a string; an atom's arguments may
# be empty here, so that the error can say so.
_TOKEN_RE = re.compile(rf"(?:{_STRING}|\S)+")
_ATOM_RE = re.compile(rf"([A-Za-z_][A-Za-z0-9_]*)(?:\(((?:{_TERM})?(?:,(?:{_TERM})?)*)\))?")
_ARG_RE = re.compile(rf"(?:^|,)({_TERM})?")
_ESCAPE_RE = re.compile(r"\\(.)")


def _const_symbol(term: str) -> str:
    """The symbol a constant's text names: a quoted one loses its quotes
    and its escapes, the inverse of ``_const_text``."""
    if not term.startswith('"'):
        return term
    return _ESCAPE_RE.sub(lambda m: "\n" if m.group(1) == "n" else m.group(1), term[1:-1])


def parse_ground_atoms(text: str) -> list[DAtom]:
    """Parse space-separated ground atoms, e.g. ``ind(a) tt(1) q(a,"B c")``;
    an empty argument, as in ``q(a,,b)``, is an error."""
    out: list[DAtom] = []
    for token in _TOKEN_RE.findall(text):
        m = _ATOM_RE.fullmatch(token)
        if not m:
            raise OmqError(f"cannot parse atom {token!r}")
        pred, args = m.group(1), m.group(2)
        if not args:
            out.append(DAtom(pred))
            continue
        terms = _ARG_RE.findall(args)
        if not all(terms):
            raise OmqError(f"empty argument in atom {token!r}")
        out.append(DAtom(pred, tuple(Const(_const_symbol(t)) for t in terms)))
    return out
