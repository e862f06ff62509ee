import omq
from omq import (ConceptIncl, Exists, KnowledgeBase, Name, Nominal, RoleExpr, RoleIncl,
                 build_omq, individuals_of, normalize, parse_query, role_closure,
                 subsumed_by_closed)
from omq.syntax import ConceptAssert, make_basis


def test_role_closure_running_example(example1):
    kb, _ = example1
    h = role_closure(kb.tbox)
    assert h.subsumed(RoleExpr("r1", True), RoleExpr("r2"))
    assert h.subsumed(RoleExpr("r1"), RoleExpr("r2", True))
    assert h.subsumed(RoleExpr("r1"), RoleExpr("r1"))


def test_role_closure_reflexive_only():
    tbox = [ConceptIncl(Name("A"), Exists(RoleExpr("p"), Name("B")))]
    h = role_closure(tbox)
    assert h.pairs == frozenset({
        (RoleExpr("p"), RoleExpr("p")),
        (RoleExpr("p", True), RoleExpr("p", True)),
    })


def test_role_closure_is_reflexive_on_the_given_role_names():
    incl = RoleIncl(RoleExpr("p"), RoleExpr("s"))
    h = role_closure([incl], ["q"])
    assert h.subsumed(RoleExpr("q"), RoleExpr("q"))
    assert h.subsumed(RoleExpr("q", True), RoleExpr("q", True))
    assert h.pairs == role_closure([incl, RoleIncl(RoleExpr("q"), RoleExpr("q"))]).pairs


def test_role_closure_transitive_chain():
    tbox = [RoleIncl(RoleExpr("p"), RoleExpr("s")),
            RoleIncl(RoleExpr("s"), RoleExpr("t"))]
    h = role_closure(tbox)
    assert h.subsumed(RoleExpr("p"), RoleExpr("t"))
    assert h.subsumed(RoleExpr("p", True), RoleExpr("t", True))


def test_role_closure_is_fixpoint_and_inversion_symmetric(example1):
    kb, _ = example1
    h = role_closure(kb.tbox)
    incls = [ax for ax in kb.tbox if isinstance(ax, RoleIncl)]
    for (r, s) in h.pairs:
        assert (r.inverse(), s.inverse()) in h.pairs
        for ax in incls:
            if s == ax.lhs:
                assert (r, ax.rhs) in h.pairs


def test_subsumed_by_closed(example1):
    kb, _ = example1
    h = role_closure(kb.tbox)
    assert not subsumed_by_closed(RoleExpr("r1"), h, kb.sigma)
    h2 = role_closure([RoleIncl(RoleExpr("p"), RoleExpr("s"))])
    assert subsumed_by_closed(RoleExpr("p"), h2, frozenset({"p"}))
    assert subsumed_by_closed(RoleExpr("p"), h2, frozenset({"s"}))
    assert not subsumed_by_closed(RoleExpr("s"), h2, frozenset({"p"}))


def test_individuals_and_basis_of_the_running_example(example1):
    kb, o = example1
    assert individuals_of(o, kb.abox) == ("a", "b", "c")
    assert [str(b) for b in normalize(kb.tbox).basis] == ["A1", "A2", "A3", "A4", "{c}"]


def test_empty_kb_has_no_names():
    kb = KnowledgeBase.of([], [], [])
    ntbox = normalize(kb.tbox)
    assert ntbox.basis == make_basis((), ()) == ()
    assert ntbox.concept_names == () and ntbox.role_names == ()
    assert individuals_of(build_omq(kb, parse_query("q() :- A(x).")), kb.abox) == ()


def test_abox_individual_is_an_individual():
    kb = KnowledgeBase.of([ConceptIncl(Name("A"), Name("A"))], [],
                          [ConceptAssert("A", "d")])
    assert individuals_of(build_omq(kb, parse_query("q(x) :- A(x).")), kb.abox) == ("d",)


def test_basis_puts_sorted_names_before_sorted_nominals():
    assert make_basis(["B", "A", "B"], ["c", "a"]) == (
        Name("A"), Name("B"), Nominal("a"), Nominal("c"))


def test_names_survive_a_text_round_trip(example1):
    kb, o = example1
    kb2 = omq.parse_kb(omq.kb_to_text(kb))
    o2 = build_omq(kb2, o.query)
    assert individuals_of(o2, kb2.abox) == individuals_of(o, kb.abox)
    assert normalize(kb2.tbox) == normalize(kb.tbox)
