import pathlib
import random
import time
from itertools import product

import pytest

import omq
from omq import (ConceptAssert, FiniteInterp, NormalKB, RoleAssert,
                 bounded_model_search, build_omq, core_enumeration_decide,
                 cq_matches, parse_kb, parse_query, rollup)
from omq.cli import main
from omq.syntax import OmqError
from references import decide_by_cores, models_kb
from test_acceptance import _closed_role_instance

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


@pytest.fixture(scope="module")
def example1_nkb(example1):
    kb, o = example1
    return kb, o, NormalKB(o.tbox, o.sigma, kb.abox)


def test_models_kb_core2_is_model(example1_nkb, core2):
    _, _, nkb = example1_nkb
    interp = FiniteInterp(core2.individuals, dict(core2.concept_ext),
                          dict(core2.role_ext))
    assert models_kb(interp, nkb)


def test_models_kb_core1_is_not_a_model(example1_nkb, core1):
    # the fringe elements leave their existentials unsatisfied
    _, _, nkb = example1_nkb
    interp = FiniteInterp(
        tuple(str(e) for e in core1.domain()),
        {k: frozenset(str(e) for e in v) for k, v in core1.concept_ext.items()},
        {k: frozenset((str(x), str(y)) for (x, y) in v)
         for k, v in core1.role_ext.items()})
    assert not models_kb(interp, nkb)


def test_models_kb_requires_abox():
    kb = parse_kb("tbox { A <= B; } abox { A(a); }")
    o = build_omq(kb, parse_query("q(x) :- A(x)."))
    nkb = NormalKB(o.tbox, o.sigma, kb.abox)
    empty = FiniteInterp(("a",), {}, {})
    assert not models_kb(empty, nkb)


def test_models_kb_closed_exactness():
    kb = parse_kb("tbox { A <= B; } abox { A(a); } closed { A; }")
    o = build_omq(kb, parse_query("q(x) :- A(x)."))
    nkb = NormalKB(o.tbox, o.sigma, kb.abox)
    ok = FiniteInterp(("a", "b"), {"A": frozenset({"a"}), "B": frozenset({"a"})}, {})
    too_big = FiniteInterp(("a", "b"),
                           {"A": frozenset({"a", "b"}), "B": frozenset({"a", "b"})}, {})
    assert models_kb(ok, nkb)
    assert not models_kb(too_big, nkb)


def test_bounded_search_finds_running_example_countermodel(example1_nkb):
    _, _, nkb = example1_nkb
    goal = RoleAssert("r1", "a", "a")
    interp = bounded_model_search(nkb, goal, 6)
    assert interp is not None
    assert models_kb(interp, nkb)
    assert ("a", "a") not in interp.role_ext["r1"]
    assert len(interp.domain) <= 6


def test_bounded_search_inconsistent_kb_has_no_model():
    kb = parse_kb("tbox { A <= bot; } abox { A(a); }")
    o = build_omq(kb, parse_query("q(x) :- A(x)."))
    nkb = NormalKB(o.tbox, o.sigma, kb.abox)
    for bound in range(1, 5):
        assert bounded_model_search(nkb, None, bound) is None


def test_bounded_search_tiny_countermodel():
    kb = parse_kb("tbox { A <= top; B <= top; } abox { A(a); }")
    o = build_omq(kb, parse_query("q(x) :- B(x)."))
    nkb = NormalKB(o.tbox, o.sigma, kb.abox)
    interp = bounded_model_search(nkb, ConceptAssert("B", "a"), 1)
    assert interp is not None and len(interp.domain) == 1
    assert "a" not in interp.concept_ext.get("B", frozenset())


def test_bounded_search_entailed_fact_yields_none():
    kb = parse_kb("tbox { p <= s; } abox { p(a, b); }")
    o = build_omq(kb, parse_query("q(x, y) :- s(x, y)."))
    nkb = NormalKB(o.tbox, o.sigma, kb.abox)
    assert bounded_model_search(nkb, RoleAssert("s", "a", "b"), 4) is None
    assert bounded_model_search(nkb, RoleAssert("s", "b", "a"), 4) is not None


def test_core_enum_trivial_membership():
    kb = parse_kb("tbox { A <= top; } abox { A(a); }")
    o = build_omq(kb, parse_query("q(x) :- A(x)."))
    assert core_enumeration_decide(o, kb.abox, ("a",))


def test_core_enum_matches_engine_on_rolled_query():
    kb = parse_kb("tbox { A <= exists r . B; } abox { A(a); }")
    o = build_omq(kb, parse_query("q(x) :- r(x, y), B(y)."))
    rolled = rollup(o)
    engine = omq.certain_answers(omq.rewrite(o), kb.abox)
    verdict = core_enumeration_decide(rolled, kb.abox, ("a",))
    assert verdict == (("a",) in engine.answers)
    assert verdict  # A(a) forces an r-successor in B in every model


def test_core_enum_intro_example(intro):
    kb, o = intro
    assert core_enumeration_decide(o, kb.abox, ("a", "c1"))
    assert not core_enumeration_decide(o, kb.abox, ("a", "c2"))


def test_core_enum_requires_c_safe():
    kb = parse_kb("tbox { A <= exists r . B; } abox { A(a); }")
    o = build_omq(kb, parse_query("q(x) :- r(x, y), B(y)."))
    with pytest.raises(OmqError, match="c-safe"):
        core_enumeration_decide(o, kb.abox, ("a",))


def test_core_enum_refuses_large_instances():
    tbox = "tbox { " + " ".join(f"A{i} <= exists r . A{i};" for i in range(8)) + " }"
    abox = "abox { " + " ".join(f"A0(x{i});" for i in range(8)) + " }"
    kb = parse_kb(tbox + abox)
    o = build_omq(kb, parse_query("q(x) :- A0(x)."))
    with pytest.raises(omq.ResourceRefused):
        core_enumeration_decide(o, kb.abox, ("x0",))


def test_cq_matches_on_core(core1):
    q = parse_query("q(x, y) :- r1(x, y).")
    assert not cq_matches(core1, q, ("a", "a"))
    q2 = parse_query("q(x) :- r2(x, y).")
    assert cq_matches(core1, q2, ("b",))  # r2(b, c) via a named pair
    q3 = parse_query("q() :- A2(v).")
    assert cq_matches(core1, q3, ())  # existential variable at a fringe element


def test_core_enum_decides_as_whole_cores():
    """``core_enumeration_decide`` decides each individual's fringe on its
    own; ``decide_by_cores`` walks every whole core.  They agree on every
    tuple of the fixture KB x query pairs, of a KB where only the second
    individual's fringe decides, and of 80 closed-role draws.
    ``intro.kb`` with ``q_attends.cq`` is left out: the whole-core walk is
    refused at ``MAX_CORE_NODES`` there.  Seed 21's first 80 draws hold no
    draw whose whole-core walk takes over 2 s."""
    start = time.time()
    instances = []
    for kb_file in ("example1.kb", "intro.kb", "nominalfree.kb"):
        for query_file in ("q_attends.cq", "q_c.cq", "q_r1.cq"):
            if (kb_file, query_file) == ("intro.kb", "q_attends.cq"):
                continue
            kb = parse_kb((FIXTURES / kb_file).read_text())
            o = build_omq(kb, parse_query((FIXTURES / query_file).read_text()))
            instances.append((f"{kb_file} {query_file}", kb, rollup(o)))
    # Only b needs a fringe witness, and no fringe element can be in C (a
    # trigger over the closed p): a part where a is not in C has no core.
    kb = parse_kb("tbox { B <= exists r . C; C <= exists p . B; } "
                  "abox { B(b); p(a, b); } closed { B; p; }")
    instances.append(("second fringe", kb, build_omq(kb, parse_query("q(x) :- C(x)."))))
    rng = random.Random(21)
    for n in range(80):
        kb, o = _closed_role_instance(rng)
        instances.append((f"draw {n}", kb, o))
    tuples = certain = 0
    for label, kb, o in instances:
        for tup in product(omq.individuals_of(o, kb.abox), repeat=o.arity):
            verdict = core_enumeration_decide(o, kb.abox, tup)
            assert verdict == decide_by_cores(o, kb.abox, tup), f"{label}, tuple {tup}"
            tuples += 1
            certain += verdict
    print(f"\nPASS whole cores: {len(instances)} instances, {tuples} tuples, "
          f"{certain} certain ({time.time() - start:.1f}s)")


TWO_FRINGES_KB = """
tbox { A <= exists r . B; A <= exists inv(s) . A; A <= forall s . B; }
abox { B(a); A(a); A(b); r(a, a); r(a, b); s(a, a); }
"""


def test_core_enum_decides_two_individuals_fringes_apart(tmp_path, capsys):
    """Both individuals need fringe elements here.  Walking the product of
    their fringe choices was refused after 5,000,000 search nodes; deciding
    each individual's fringe on its own takes a fraction of a second."""
    kb = parse_kb(TWO_FRINGES_KB)
    o = build_omq(kb, parse_query("q(x, y) :- s(x, y)."))
    verdicts = {tup: core_enumeration_decide(o, kb.abox, tup)
                for tup in product("ab", repeat=2)}
    assert verdicts == {("a", "a"): True, ("a", "b"): False,
                        ("b", "a"): False, ("b", "b"): False}
    (tmp_path / "kb").write_text(TWO_FRINGES_KB)
    (tmp_path / "cq").write_text("q(x, y) :- s(x, y).")
    assert main(["oracle", str(tmp_path / "kb"), str(tmp_path / "cq")]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "AGREE"
