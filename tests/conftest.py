import pathlib

import pytest

import omq
from omq import Core, FringeId, TypeContext, enumerate_guess_models, stratify
from omq.datalog import atom_of, fact_of
from omq.evaluate import Layer

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

EXAMPLE1_KB = (FIXTURES / "example1.kb").read_text()
INTRO_KB = (FIXTURES / "intro.kb").read_text()


@pytest.fixture(scope="session")
def example1():
    kb = omq.parse_kb(EXAMPLE1_KB)
    o = omq.build_omq(kb, omq.parse_query("q(x, y) :- r1(x, y)."))
    return kb, o


@pytest.fixture(scope="session")
def example1_ctx(example1):
    _, o = example1
    return TypeContext(o.tbox, o.sigma)


@pytest.fixture(scope="session")
def core1(example1):
    """The left core of the running example (three fringe elements)."""
    fa1, fb1, fb3 = FringeId("a", 0), FringeId("b", 0), FringeId("b", 1)
    return Core(
        individuals=("a", "b", "c"),
        fringe=frozenset({fa1, fb1, fb3}),
        concept_ext={
            "A1": frozenset({"a", "b"}),
            "A2": frozenset({fa1, fb1, fb3}),
            "A3": frozenset({"b", fa1, fb1, fb3}),
            "A4": frozenset({"a"}),
        },
        role_ext={
            "r1": frozenset({("a", fa1), ("b", fb1)}),
            "r2": frozenset({(fa1, "a"), (fb1, "b"), ("b", "c"), ("b", fb3)}),
        },
    )


@pytest.fixture(scope="session")
def core2(example1):
    """The right core of the running example (no fringe; itself a model)."""
    return Core(
        individuals=("a", "b", "c"),
        fringe=frozenset(),
        concept_ext={
            "A1": frozenset({"a", "b"}),
            "A2": frozenset({"a", "c"}),
            "A3": frozenset({"b", "c"}),
            "A4": frozenset({"a"}),
        },
        role_ext={
            "r1": frozenset({("a", "a"), ("b", "c")}),
            "r2": frozenset({("a", "a"), ("b", "c"), ("c", "b"), ("c", "c")}),
        },
    )


@pytest.fixture(scope="session")
def intro():
    kb = omq.parse_kb(INTRO_KB)
    o = omq.build_omq(kb, omq.parse_query("q(x, y) :- attends(x, y)."))
    return kb, o


@pytest.fixture(scope="session")
def completed_branches():
    """The first ``n`` surviving guess-layer branches, each completed with
    the realized-type, marking and fringe layers into a full answer set."""
    def complete(out, abox, n):
        layered = stratify(out)
        models = []
        for m in enumerate_guess_models(out, abox, limit=n):
            for p in (layered.p2, layered.p3, layered.p4):
                derived, _ = Layer(p).model(map(fact_of, m), p.arities)
                m = m | frozenset(map(atom_of, derived))
            models.append(m)
        return models
    return complete
