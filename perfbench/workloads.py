"""Seeded inputs for the four benchmark workloads and the expected outputs
they are checked against.

Every generator takes a ``random.Random`` built from the workload seed and
returns plain text (KB and query in the ``omq`` syntax), so the program under
test sees only generated inputs.  Expected answers are computed here, apart
from the engine, from the parameters the generator drew.

Each workload runs a fixed list of *slots* per pass.  A slot fixes the shape
of one input (sizes and how many individuals play each part); the seed draws
which individuals play which part, their names and the order of the
assertions.  Shapes are fixed because the cost of one engine call moves by
2-3x with the make-up of its input, and a run sees only a handful of calls:
drawing the shape from the seed would make the figures a measure of the
seed instead of the program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Case:
    """One OMQ over one ABox: the unit a timed operation works on."""
    name: str
    kb: str
    query: str
    positive: bool
    individuals: tuple[str, ...]
    expected: frozenset[tuple[str, ...]] | None = None
    inconsistent: bool = False
    # compile workload only: the basis size the generator aimed at and the
    # numbers the rule-count bound is computed from
    k: int = 0
    axioms: int = 0
    nominals: int = 0


def _names(rng: random.Random, prefix: str, n: int) -> list[str]:
    """``n`` distinct seeded names; their sort order (which fixes the order
    the engine branches in) is part of what the seed varies."""
    tags = rng.sample(range(10, 100), n)
    return [f"{prefix}{t}" for t in tags]


def _kb_text(tbox: list[str], abox: list[str], closed: list[str]) -> str:
    lines = ["tbox {"] + [f"  {ax};" for ax in tbox] + ["}", "abox {"]
    lines += [f"  {a};" for a in abox] + ["}"]
    lines.append("closed { " + " ".join(f"{c};" for c in closed) + " }")
    return "\n".join(lines) + "\n"


def all_tuples(inds: tuple[str, ...], arity: int) -> frozenset[tuple[str, ...]]:
    out: list[tuple[str, ...]] = [()]
    for _ in range(arity):
        out = [t + (i,) for t in out for i in inds]
    return frozenset(out)


# ---------------------------------------------------------------------------
# search: students and courses, Course closed, binary query

SEARCH_TBOX = [
    "BScStud <= Student",
    "Student <= exists attends . Course",
    "BScStud <= forall attends . not GradCourse",
]
SEARCH_QUERY = "q(x, y) :- attends(x, y)."

# (students, courses, bachelors, graduate courses) per slot.  Nine
# individuals is where the engine's own search and propagation overtake the
# grounding of the upper layers at each leaf (at 4 x 4 grounding is half).
SEARCH_SLOTS = [
    (5, 4, 2, 3),   # one course open to bachelors: they certainly attend it
    (4, 5, 2, 2),   # three open courses: no certain answers
    (2, 2, 1, 2),   # every course graduate: the KB is inconsistent
]
SEARCH_SMALLEST = (1, 2, 1, 1)


def search_case(rng: random.Random, students: int, courses: int,
                bachelors: int, grad: int) -> Case:
    studs = _names(rng, "s", students)
    crs = _names(rng, "c", courses)
    bsc = set(rng.sample(studs, bachelors))
    gradc = set(rng.sample(crs, grad))
    abox = [f"{'BScStud' if s in bsc else 'Student'}({s})" for s in studs]
    abox += [f"Course({c})" for c in crs]
    abox += [f"GradCourse({c})" for c in sorted(gradc)]
    rng.shuffle(abox)
    inds = tuple(sorted(studs + crs))
    expected, inconsistent = search_expected(studs, crs, bsc, gradc)
    return Case(f"search-{students}x{courses}", _kb_text(SEARCH_TBOX, abox, ["Course"]),
                SEARCH_QUERY, False, inds, expected, inconsistent)


def search_expected(studs, crs, bsc, gradc):
    """Closed-form certain answers of ``q(x, y) :- attends(x, y)``.

    Course is closed, so every student attends one of the listed courses.
    A bachelor avoids graduate courses: it certainly attends ``c`` exactly
    when ``c`` is the only course not asserted graduate, and with no such
    course the KB is inconsistent.  A plain student may attend any course,
    so it certainly attends ``c`` only when ``c`` is the only course."""
    open_courses = [c for c in crs if c not in gradc]
    if bsc and not open_courses:
        return all_tuples(tuple(sorted(studs + crs)), 2), True
    out = set()
    for s in studs:
        if s in bsc:
            if len(open_courses) == 1:
                out.add((s, open_courses[0]))
        elif len(crs) == 1:
            out.add((s, crs[0]))
    return frozenset(out), False


# ---------------------------------------------------------------------------
# typespace: a chain of existentials over k = 6 concepts, some closed

TYPESPACE_K = 6
# (concept asserted at each individual, closed concepts, query concept) per
# slot.  Which concepts are closed and asserted sets how many types survive
# and how many realized-type sets the search meets, and with them the cost:
# closing A6 instead of A1 makes one call ten times slower.  These three
# slots cost about the same (2.5-3 s here), so the median operation is not
# the midpoint between two clusters.
TYPESPACE_SLOTS = [
    (("A1", "A3"), ("A1",), "A1"),
    (("A1", "A2"), ("A1",), "A3"),   # no certain answers
    (("A1", "A5"), ("A1",), "A5"),
]
TYPESPACE_SMALLEST = (("A1", "A2"), ("A1",), "A2")
TYPESPACE_SMALLEST_K = 3


def typespace_case(rng: random.Random, concepts_at: tuple[str, ...],
                   closed: tuple[str, ...], target: str,
                   k: int = TYPESPACE_K) -> Case:
    """``A1 <= exists r . A2; ...; A(k-1) <= exists r . Ak`` with the given
    concepts closed and one concept asserted at each individual; the seed
    draws the individuals' names, and with them the order the engine
    branches in."""
    concepts = [f"A{i}" for i in range(1, k + 1)]
    tbox = [f"{concepts[i]} <= exists r . {concepts[i + 1]}" for i in range(k - 1)]
    inds = _names(rng, "a", len(concepts_at))
    asserted: dict[str, set[str]] = {c: set() for c in concepts}
    for c, x in zip(concepts_at, inds):
        asserted[c].add(x)
    abox = [f"{c}({x})" for c, x in zip(concepts_at, inds)]
    rng.shuffle(abox)
    expected, inconsistent = typespace_expected(concepts, asserted, set(closed),
                                                target, tuple(sorted(inds)))
    return Case(f"typespace-k{k}-{''.join(concepts_at)}-q{target}",
                _kb_text(tbox, abox, sorted(closed)), f"q(x) :- {target}(x).",
                False, tuple(sorted(inds)), expected, inconsistent)


def typespace_expected(concepts, asserted, closed, target, inds):
    """Certain answers of ``q(x) :- target(x)`` over the chain.

    No axiom puts a named individual into a chain concept (an existential
    only asks for a successor, which may be anonymous when its concept is
    open, or a named member when it is closed), so the answers are the
    individuals asserted ``target``.  The KB is inconsistent exactly when a
    concept reached along the chain from an asserted one is closed and has
    no asserted member; then every individual is an answer."""
    reached = False
    for c in concepts:
        reached = reached or bool(asserted[c])
        if reached and c in closed and not asserted[c]:
            return all_tuples(inds, 1), True
    return frozenset((x,) for x in asserted[target]), False


# ---------------------------------------------------------------------------
# positive: nothing closed, disjunction and a universal over an inverse role

POSITIVE_TBOX = [
    "A <= B or C",
    "B <= D",
    "C <= D",
    "D <= exists r . D",
    "D <= forall inv(r) . F",
]
POSITIVE_QUERY = "q(x) :- D(x)."
# concept asserted at each individual, plus an optional role edge between
# the individuals at two positions
POSITIVE_SLOTS = [
    (("A", "C", "F"), None),
    (("F", "D", "F"), None),
    (("B", "F", "A"), (1, 0)),
]
POSITIVE_SMALLEST = (("A", "F"), None)


def positive_case(rng: random.Random, concepts: tuple[str, ...],
                  edge: tuple[int, int] | None) -> Case:
    inds = _names(rng, "i", len(concepts))
    rng.shuffle(inds)
    abox = [f"{c}({x})" for c, x in zip(concepts, inds)]
    if edge is not None:
        abox.append(f"r({inds[edge[0]]}, {inds[edge[1]]})")
    rng.shuffle(abox)
    expected = positive_expected(dict(zip(inds, concepts)))
    return Case(f"positive-{''.join(concepts)}{'-r' if edge else ''}",
                _kb_text(POSITIVE_TBOX, abox, []), POSITIVE_QUERY, True,
                tuple(sorted(inds)), expected)


def positive_expected(asserted: dict[str, str]) -> frozenset[tuple[str, ...]]:
    """Reasoning by cases: A is B or C, and each of B, C is D, so D holds at
    every individual asserted A, B, C or D.  Nothing else forces D at a
    named individual (the existential can be met by an anonymous element
    and the universal only adds F), so those are all the answers."""
    return frozenset((x,) for x, c in asserted.items() if c in "ABCD")


# ---------------------------------------------------------------------------
# compile: seeded KBs with a growing basis, in both modes

COMPILE_KS = (16, 32, 48, 64)
COMPILE_SMALLEST_K = 8
COMPILE_NOMINALS = 2
# the shape of the axiom whose left side is the i-th concept, cycling
COMPILE_SHAPES = ("or", "exists", "and", "forall_inv", "exists", "not", "or", "sub")


def compile_case(rng: random.Random, k: int, positive: bool) -> Case:
    """A KB whose normalized basis has exactly ``k`` members.

    Every axiom is already in normal form over basic concepts, so the
    normalizer adds no fresh names; each concept is the left side of one
    axiom (shapes cycle through ``COMPILE_SHAPES``) and the seed wires the
    right sides.  Stable mode adds two nominals, closed concepts and a
    closed role; positive mode has neither, as its rewriting requires."""
    nominals = 0 if positive else COMPILE_NOMINALS
    n = k - nominals
    concepts = [f"C{i}" for i in range(1, n + 1)]
    order = concepts[:]
    rng.shuffle(order)
    roles = ["r1", "r2", "r3"]

    tbox = []
    for i, c in enumerate(order):
        shape = COMPILE_SHAPES[i % len(COMPILE_SHAPES)]
        role = rng.choice(roles)
        # two distinct names other than c, so that no axiom is trivially
        # true or collapses, and the rule count does not hang on the draw
        d, e = rng.sample([x for x in concepts if x != c], 2)
        if shape == "or":
            tbox.append(f"{c} <= {d} or {e}")
        elif shape == "exists":
            tbox.append(f"{c} <= exists {role} . {d}")
        elif shape == "and":
            tbox.append(f"{c} and {d} <= {e}")
        elif shape == "forall_inv":
            tbox.append(f"{c} <= forall inv({role}) . {d}")
        elif shape == "not":
            tbox.append(f"{c} <= not {d}")
        else:
            tbox.append(f"{c} <= {d}")
    tbox.append("r1 <= r2")
    closed: list[str] = []
    if not positive:
        for j in range(1, nominals + 1):
            tbox.append(f"{rng.choice(concepts)} <= exists {rng.choice(roles)} . {{o{j}}}")
        closed = sorted(rng.sample(concepts, max(1, n // 8))) + ["r2"]
    inds = _names(rng, "d", 3)
    abox = [f"{rng.choice(concepts)}({x})" for x in inds]
    abox.append(f"r1({inds[0]}, {inds[1]})")
    for c in closed[:-1]:
        abox.append(f"{c}({rng.choice(inds)})")
    a, b = rng.sample(concepts, 2)
    query = f"q(x, y) :- r1(x, y), {a}(x), {b}(y)."
    mode = "positive" if positive else "stable"
    return Case(f"compile-k{k}-{mode}", _kb_text(tbox, abox, closed), query,
                positive, tuple(sorted(inds)), k=k, axioms=len(tbox), nominals=nominals)


# ---------------------------------------------------------------------------
# Workload registry


@dataclass(frozen=True)
class Workload:
    name: str
    answers: bool        # evaluate with the engine, or compile only
    cases: list[Case]    # the operations of one pass
    smallest: Case       # checked against core enumeration, outside timing


def make_workload(name: str, seed: int) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    if name == "search":
        cases = [search_case(rng, *slot) for slot in SEARCH_SLOTS]
        return Workload(name, True, cases, search_case(rng, *SEARCH_SMALLEST))
    if name == "typespace":
        cases = [typespace_case(rng, *slot) for slot in TYPESPACE_SLOTS]
        return Workload(name, True, cases,
                        typespace_case(rng, *TYPESPACE_SMALLEST, k=TYPESPACE_SMALLEST_K))
    if name == "positive":
        cases = [positive_case(rng, *slot) for slot in POSITIVE_SLOTS]
        return Workload(name, True, cases, positive_case(rng, *POSITIVE_SMALLEST))
    if name == "compile":
        cases = [compile_case(rng, k, positive)
                 for k in COMPILE_KS for positive in (False, True)]
        return Workload(name, False, cases,
                        compile_case(rng, COMPILE_SMALLEST_K, True))
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("search", "typespace", "positive", "compile")
