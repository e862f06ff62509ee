import pytest

import omq
from omq import (Core, FringeId, NormalKB, RoleAssert, TypeContext, has_nonlosing_strategy,
                 is_c_type, mark, parse_kb, type_of, validate_core)
from omq.typespace import ResourceRefused, dump_types, mark_types
from references import core_extends, lc_check


def names_of(ctx, t):
    return frozenset(ctx.names_of(t))


def type_by_names(ctx, names):
    t = 0
    for i, b in enumerate(ctx.basis):
        if str(b) in names:
            t |= 1 << i
    return t


def test_type_of_elements(example1_ctx, core1):
    ctx = example1_ctx
    assert names_of(ctx, type_of("a", core1, ctx)) == {"A1", "A4"}
    assert names_of(ctx, type_of(FringeId("a", 0), core1, ctx)) == {"A2", "A3"}
    assert names_of(ctx, type_of("c", core1, ctx)) == {"{c}"}


def test_types_an_element_may_take(example1_ctx, example1, core1):
    """An individual takes its own nominal and its asserted concepts, and a
    closed concept (A1, A4) only where asserted; an anonymous element takes
    no nominal and no closed concept.  The concept extensions of the core's
    types are the core's own."""
    ctx = example1_ctx
    kb, _ = example1
    asserted = {(a.concept, a.individual) for a in kb.abox
                if isinstance(a, omq.ConceptAssert)}
    for e, inside, outside in [("a", {"A1", "A4"}, {"{c}"}),
                               ("b", {"A1", "A3"}, {"A4", "{c}"}),
                               ("c", {"{c}"}, {"A1", "A4"}),
                               (None, set(), {"A1", "A4", "{c}"})]:
        types = ctx.types_of(e, asserted)
        assert types and all(inside <= names_of(ctx, t) and not outside & names_of(ctx, t)
                             for t in types), e
        assert set(types) <= set(ctx.valid_types)
    a2 = type_by_names(ctx, {"A2"})
    assert ctx.types_of("a", asserted, exclude=a2) == [
        t for t in ctx.types_of("a", asserted) if not t & a2]
    assert ctx.types_of("a", asserted, exclude=type_by_names(ctx, {"A1"})) == []
    typed = {e: type_of(e, core1, ctx) for e in core1.domain()}
    assert ctx.extensions(typed) == core1.concept_ext


def test_is_c_type(example1_ctx):
    ctx = example1_ctx
    assert is_c_type(type_by_names(ctx, {"A1", "A4"}), ctx)
    assert not is_c_type(type_by_names(ctx, {"A2", "A3"}), ctx)
    assert is_c_type(type_by_names(ctx, {"{c}"}), ctx)


def test_c_type_via_closed_role():
    kb = parse_kb("tbox { A <= exists p . B; p <= s; } abox {} closed { s; }")
    o = omq.build_omq(kb, omq.parse_query("q() :- B(x)."))
    ctx = TypeContext(o.tbox, o.sigma)
    assert is_c_type(type_by_names(ctx, {"A"}), ctx)
    assert not is_c_type(type_by_names(ctx, {"B"}), ctx)


def test_lc_check(example1_ctx, core1):
    ctx = example1_ctx
    assert not lc_check(type_by_names(ctx, {"A2"}), core1, ctx)  # violates A2 <= A3 or A4
    assert lc_check(type_by_names(ctx, {"A2", "A3"}), core1, ctx)
    assert not lc_check(type_by_names(ctx, {"A1", "A2", "A4"}), core1, ctx)  # unrealized


def test_validate_cores(example1, example1_ctx, core1, core2):
    kb, _ = example1
    assert validate_core(core1, example1_ctx, kb.abox).ok
    assert validate_core(core2, example1_ctx, kb.abox).ok


def test_validate_rejects_closed_violation(example1, example1_ctx, core1):
    kb, _ = example1
    bad = Core(
        individuals=core1.individuals,
        fringe=core1.fringe,
        concept_ext=dict(core1.concept_ext, A4=frozenset({"a", "b"})),
        role_ext=core1.role_ext,
    )
    report = validate_core(bad, example1_ctx, kb.abox)
    assert any(v.condition == "c2" for v in report.violations)


def test_validate_rejects_cross_fringe_edge(example1, example1_ctx, core1):
    kb, _ = example1
    bad = Core(
        individuals=core1.individuals,
        fringe=core1.fringe,
        concept_ext=core1.concept_ext,
        role_ext=dict(core1.role_ext,
                      r2=core1.role_ext["r2"] | {("a", FringeId("b", 0))}),
    )
    report = validate_core(bad, example1_ctx, kb.abox)
    assert any(v.condition == "c4" for v in report.violations)


def _changed(core, fringe=(), **ext):
    """``core`` with the fringe elements added and the named extensions
    replaced (concept names are capitalized, role names are not)."""
    concepts, roles = dict(core.concept_ext), dict(core.role_ext)
    for name, value in ext.items():
        (concepts if name[0].isupper() else roles)[name] = frozenset(value)
    return Core(core.individuals, core.fringe | set(fringe), concepts, roles)


FA1 = FringeId("a", 0)


@pytest.mark.parametrize("change, message", [
    (lambda c: _changed(c, fringe={FringeId("z", 0)}),
     "(c1) fringe element z__e0 has unknown parent"),
    (lambda c: _changed(c, fringe={FringeId("a", 7)}),
     "(c1) fringe element a__e7 references no existential axiom"),
    (lambda c: _changed(c, Z={"a"}), "(c1) unknown concept name 'Z' in core"),
    (lambda c: _changed(c, z={("a", "b")}), "(c1) unknown role name 'z' in core"),
    (lambda c: _changed(c, A3=c.concept_ext["A3"] | {"d"}),
     "(c1) element d of A3 not in core domain"),
    (lambda c: _changed(c, r2=c.role_ext["r2"] | {("a", "d")}),
     "(c1) role pair a,d of r2 not in core domain"),
    (lambda c: _changed(c, A3=c.concept_ext["A3"] - {"b"}),
     "(c2) assertion A3(b) not satisfied"),
    (lambda c: _changed(c, A1=c.concept_ext["A1"] | {"c"}),
     "(c2) closed concept A1 contains unasserted element c"),
    (lambda c: _changed(c, A3=c.concept_ext["A3"] - {FA1}),
     "(c3.1) A2 <= A3 or A4 violated at a__e0"),
    (lambda c: _changed(c, r2=c.role_ext["r2"] - {(FA1, "a")}),
     "(c3.3) inv(r1) <= r2 violated at a__e0,a"),
])
def test_validate_names_each_violation(example1, example1_ctx, core1, change, message):
    kb, _ = example1
    report = validate_core(change(core1), example1_ctx, kb.abox)
    assert message in map(str, report.violations)


def test_validate_names_closed_role_violations():
    kb = parse_kb("tbox { A <= exists p . B; } abox { A(a); B(b); p(a, b); } closed { p; }")
    o = omq.build_omq(kb, omq.parse_query("q(x) :- A(x)."))
    ctx = TypeContext(o.tbox, o.sigma)
    core = Core(("a", "b"), frozenset(), {"A": frozenset({"a"}), "B": frozenset({"b"})},
                {"p": frozenset({("a", "b")})})
    assert validate_core(core, ctx, kb.abox).ok
    unasserted = validate_core(_changed(core, p={("a", "b"), ("b", "b")}), ctx, kb.abox)
    assert "(c2) closed role p contains unasserted pair b,b" in map(str, unasserted.violations)
    # a fringe element in A has no p-successor: closed roles reach no fringe
    trigger = validate_core(_changed(core, fringe={FA1}, A={"a", FA1}), ctx, kb.abox)
    assert "(c3.4) A <= exists p . B unsatisfied at a__e0" in map(str, trigger.violations)
    missing = validate_core(core, ctx, kb.abox + (RoleAssert("p", "b", "a"),))
    assert "(c2) assertion p(b, a) not satisfied" in map(str, missing.violations)


def test_type_of_rejects_foreign_element(example1_ctx, core1):
    with pytest.raises(omq.OmqError, match="not in core domain"):
        type_of("d", core1, example1_ctx)


def test_mark_running_example(example1_ctx, core1):
    ctx = example1_ctx
    result = mark(ctx, core1)
    expected = {frozenset(), frozenset({"A3"}), frozenset({"A2", "A3"}),
                frozenset({"A1", "A4"}), frozenset({"A1", "A3"}),
                frozenset({"{c}"})}
    assert {names_of(ctx, t) for t in result.unmarked} == expected
    assert len(result.marked) == 26
    assert result.marked | result.unmarked == frozenset(range(32))
    assert not result.marked & result.unmarked


def test_mark_no_concepts():
    kb = parse_kb("tbox { p <= s; } abox { p(a, b); }")
    o = omq.build_omq(kb, omq.parse_query("q(x, y) :- p(x, y)."))
    ctx = TypeContext(o.tbox, o.sigma)
    core = Core(("a", "b"), frozenset(), {}, {"p": frozenset({("a", "b")}),
                                             "s": frozenset({("a", "b")})})
    result = mark(ctx, core)
    assert result.unmarked == frozenset({0}) and not result.marked


def test_mark_bottom_concept():
    kb = parse_kb("tbox { A <= exists r . B; B <= bot; } abox { A(a); }")
    o = omq.build_omq(kb, omq.parse_query("q(x) :- A(x)."))
    ctx = TypeContext(o.tbox, o.sigma)
    core = Core(("a",), frozenset(), {"A": frozenset({"a"}), "B": frozenset()},
                {"r": frozenset()})
    result = mark(ctx, core)
    b_bit = type_by_names(ctx, {"B"})
    assert all(t in result.marked for t in range(1 << ctx.k) if t & b_bit)


def test_strategy_verdicts(example1_ctx, core1, core2):
    assert has_nonlosing_strategy(core1, example1_ctx)
    assert has_nonlosing_strategy(core2, example1_ctx)


def test_strategy_fails_on_marked_fringe():
    kb = parse_kb("tbox { A <= exists r . B; B <= bot; } abox { A(a); }")
    o = omq.build_omq(kb, omq.parse_query("q(x) :- A(x)."))
    ctx = TypeContext(o.tbox, o.sigma)
    f = FringeId("a", 0)
    core = Core(("a",), frozenset({f}),
                {"A": frozenset({"a"}), "B": frozenset({f})},
                {"r": frozenset({("a", f)})})
    assert not has_nonlosing_strategy(core, ctx)


def test_mark_monotone_and_bounded(example1_ctx, core1):
    result = mark(example1_ctx, core1)
    assert result.iterations <= 1 << example1_ctx.k


def test_unmarked_pass_lc_check(example1_ctx, core1):
    result = mark(example1_ctx, core1)
    for t in result.unmarked:
        assert lc_check(t, core1, example1_ctx)


def test_mark_refuses_large_basis():
    axioms = [omq.ConceptIncl(omq.Name(f"B{i}"), omq.Name(f"B{i+1}"))
              for i in range(20)]
    ntbox = omq.normalize(axioms)
    ctx = TypeContext(ntbox, frozenset())
    core = Core(("a",), frozenset(), {}, {})
    with pytest.raises(ResourceRefused):
        mark(ctx, core)


def test_type_space_budget_refuses_every_walk(monkeypatch):
    """``TypeContext.valid_types`` enforces ``MAX_BASIS_BITS``, so past it
    both oracles and the marking fixpoint refuse; a basis of three bits
    is over a budget of two."""
    kb = parse_kb("tbox { A <= B or C; } abox { A(a); }")
    o = omq.build_omq(kb, omq.parse_query("q(x) :- B(x)."))
    monkeypatch.setattr(omq.typespace, "MAX_BASIS_BITS", 2)
    with pytest.raises(ResourceRefused, match="3 concepts exceeds the 2-bit"):
        omq.bounded_model_search(NormalKB(o.tbox, o.sigma, kb.abox), None, 2)
    with pytest.raises(ResourceRefused, match="3 concepts exceeds the 2-bit"):
        omq.core_enumeration_decide(o, kb.abox, ("a",))
    with pytest.raises(ResourceRefused, match="3 concepts exceeds the 2-bit"):
        mark_types(TypeContext(o.tbox, o.sigma), frozenset())


def test_dump_types_format(example1_ctx, core1):
    text = dump_types(mark(example1_ctx, core1), example1_ctx)
    assert "unmarked: A1,A4" in text
    assert text.count("\n") == 32


@pytest.mark.parametrize("kb_text, min_cores", [
    ("""tbox { A <= exists r . B;  B <= C or D;  D <= forall r . C; }
        abox { A(a); D(a); }
        closed { D; }""", 40),
    ("""tbox { A <= exists r . B;  B <= exists r . C;  C <= bot; }
        abox { A(a); }
        closed { A; }""", 20),
    ("""tbox { A <= exists r . {n}; }
        abox { A(a); }
        closed { A; }""", 20),
])
def test_strategy_agrees_with_extension_oracle(kb_text, min_cores):
    """Strategy existence (marking) against the frozen-core bounded model
    extension search, over the cores of small instances."""
    from itertools import islice
    kb = parse_kb(kb_text)
    o = omq.build_omq(kb, omq.parse_query("q(x) :- A(x)."))
    ctx = TypeContext(o.tbox, o.sigma)
    nkb = NormalKB(o.tbox, o.sigma, kb.abox)
    checked = disagreements = 0
    verdicts = set()
    for core in islice(omq.iter_cores(o, kb.abox), 400):
        checked += 1
        bound = 2 * len(core.individuals) + len(core.fringe) + 2
        extends = core_extends(nkb, core, bound - len(core.domain()))
        strategy = has_nonlosing_strategy(core, ctx)
        verdicts.add(strategy)
        if strategy != extends:
            disagreements += 1
    assert checked >= min_cores
    assert disagreements == 0
    assert verdicts  # at least one verdict exercised per fixture


def test_every_enumerated_core_validates(example1):
    kb, o = example1
    ctx = TypeContext(o.tbox, o.sigma)
    n = 0
    for core in omq.iter_cores(o, kb.abox):
        assert validate_core(core, ctx, kb.abox).ok
        n += 1
        if n >= 200:
            break
    assert n == 200
