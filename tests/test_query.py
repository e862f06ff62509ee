import pytest

import omq
from omq import (CAcyclic, CSafe, Name, Unsupported, build_omq, c_variables,
                 classify, parse_kb, parse_query, query_concept, rollup)
from omq.parser import ConceptAtom, RoleAtom
from omq.syntax import And, Exists, OmqError, RoleExpr

from test_normalize import concept_ext, interpretations

INTRO_TBOX = """
tbox {
  BScStud <= Student;
  Student <= exists attends . Course;
  BScStud <= forall attends . not GradCourse;
}
abox { BScStud(a); Course(c1); Course(c2); GradCourse(c2); }
"""


def _omq(kb_text, query_text, closed=""):
    kb = parse_kb(kb_text + (f"closed {{ {closed} }}" if closed else ""))
    return build_omq(kb, parse_query(query_text))


def test_build_omq_normalizes_once(monkeypatch):
    calls = []
    real = omq.query.normalize

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(omq.query, "normalize", counting)
    _omq(INTRO_TBOX, "q(x) :- Student(x).")
    assert len(calls) == 1


@pytest.mark.parametrize("kb_text, message", [
    ("tbox { A <= B; } abox { C(a); }", "ABox uses name.*C"),
    ("tbox { A <= B; } abox { r(a, b); }", "ABox uses name.*r"),
    ("tbox { A <= B; } abox { A(a); } closed { D; }", "closed predicate.*D"),
])
def test_build_omq_rejects_names_unknown_to_the_tbox(kb_text, message):
    with pytest.raises(OmqError, match=message):
        build_omq(parse_kb(kb_text), parse_query("q(x) :- A(x)."))


def test_c_variables_answer_vars():
    o = _omq(INTRO_TBOX, "q(x, y) :- attends(x, y).", closed="Course;")
    assert c_variables(o) == {"x", "y"}


def test_c_variables_closed_concept():
    o = _omq(INTRO_TBOX, "q(x) :- attends(x, y), Course(y).", closed="Course;")
    assert c_variables(o) == {"x", "y"}


def test_c_variables_closed_role_touches_both_ends():
    o = _omq("tbox { A <= exists p . B; p <= s; } abox {}",
             "q() :- p(x, y).", closed="s;")
    assert c_variables(o) == {"x", "y"}


def test_c_variables_boolean_empty():
    o = _omq("tbox { A <= B; } abox {}", "q() :- A(x).")
    assert c_variables(o) == set()


def test_classify_c_safe():
    o = _omq(INTRO_TBOX, "q(x, y) :- attends(x, y).", closed="Course;")
    assert classify(o) == CSafe()


def test_classify_c_acyclic():
    o = _omq(INTRO_TBOX, "q(x) :- attends(x, y), GradCourse(y).")
    assert classify(o) == CAcyclic()


def test_classify_cycle_unsupported():
    o = _omq("tbox { A <= exists r . A; } abox {}",
             "q() :- r(x, y), r(y, z), r(z, x).")
    cls = classify(o)
    assert isinstance(cls, Unsupported) and "cycle" in cls.reason


def test_classify_component_without_c_variable():
    o = _omq("tbox { A <= exists r . A; } abox {}", "q() :- A(x).")
    cls = classify(o)
    assert isinstance(cls, Unsupported) and "no c-variable" in cls.reason


def test_classify_two_c_variables_in_component():
    # x and z are answer variables bridged by the non-c-variable y.
    o = _omq("tbox { A <= exists r . A; } abox {}",
             "q(x, z) :- r(x, y), r(y, z).")
    cls = classify(o)
    assert isinstance(cls, Unsupported) and "2 c-variables" in cls.reason


def test_classify_parallel_atoms_unsupported():
    o = _omq("tbox { A <= exists r . A; B <= exists s . B; } abox {}",
             "q(x) :- r(x, y), s(x, y).")
    cls = classify(o)
    assert isinstance(cls, Unsupported) and "parallel" in cls.reason


def test_query_concept_simple():
    c = query_concept([RoleAtom("attends", "x", "y"), ConceptAtom("GradCourse", "y")], "x")
    assert c == Exists(RoleExpr("attends"), Name("GradCourse"))


def test_query_concept_leaf():
    assert query_concept([ConceptAtom("A", "x")], "x") == Name("A")


def test_query_concept_two_levels():
    atoms = [RoleAtom("r", "x", "y"), ConceptAtom("B", "y"),
             RoleAtom("s", "y", "z"), ConceptAtom("C", "z")]
    c = query_concept(atoms, "x")
    assert c == Exists(RoleExpr("r"), And(Name("B"), Exists(RoleExpr("s"), Name("C"))))


def test_query_concept_inverse_direction():
    c = query_concept([RoleAtom("r", "y", "x"), ConceptAtom("B", "y")], "x")
    assert c == Exists(RoleExpr("r", True), Name("B"))


def test_query_concept_cycle_errors():
    with pytest.raises(OmqError, match="cyclic"):
        query_concept([RoleAtom("r", "x", "y"), RoleAtom("s", "y", "x")], "x")


def test_query_concept_matches_query_semantics():
    """The folded concept holds at d exactly when the query matches with
    its root mapped to d, on every small interpretation."""
    atoms = [RoleAtom("r", "x", "y"), ConceptAtom("B", "y"),
             RoleAtom("s", "y", "z"), ConceptAtom("C", "z")]
    concept = query_concept(atoms, "x")
    dom = ["e1", "e2"]
    for cext, rext in interpretations(dom, ["B", "C"], ["r", "s"]):
        ext = concept_ext(concept, dom, cext, rext)
        for d in dom:
            match = any(
                (d, y) in rext["r"] and y in cext["B"]
                and (y, z) in rext["s"] and z in cext["C"]
                for y in dom for z in dom)
            assert (d in ext) == match


def test_rollup_identity_on_c_safe():
    o = _omq(INTRO_TBOX, "q(x, y) :- attends(x, y).", closed="Course;")
    assert rollup(o) is o


def test_rollup_single_component():
    o = _omq(INTRO_TBOX, "q(x) :- attends(x, y), GradCourse(y).")
    rolled = rollup(o)
    assert {str(a) for a in rolled.query.atoms} == {"_QT1(x)"}
    assert classify(rolled) == CSafe()
    assert "_QT1" in rolled.tbox.concept_names


def test_rollup_two_components_keeps_bridge_atom():
    o = _omq("tbox { A <= exists r . A; B <= exists s . B; } abox {}",
             "q(x, y) :- r(x, y), s(x, u), B(u).")
    rolled = rollup(o)
    atoms = {str(a) for a in rolled.query.atoms}
    assert atoms == {"_QT1(x)", "_QT2(y)", "r(x,y)"}
    assert classify(rolled) == CSafe()
    assert rolled.query.answer_vars == ("x", "y")


ROLLUP_KB = """
tbox {
  BScStud <= exists attends . Course;
  BScStud <= forall attends . not GradCourse;
}
abox { BScStud(a); Course(c1); Course(c2); GradCourse(c2); }
closed { Course; }
"""


def test_rollup_preserves_certain_answers():
    """Folded and unfolded runs agree; non-answers all have a small
    countermodel found by direct interpretation enumeration."""
    kb = parse_kb(ROLLUP_KB)
    query = parse_query("q(x) :- attends(x, y), GradCourse(y).")
    o = build_omq(kb, query)
    assert classify(o) == CAcyclic()
    rolled = rollup(o)
    engine = omq.certain_answers(omq.rewrite(o), kb.abox)

    for ind in omq.individuals_of(o, kb.abox):
        says = (ind,) in engine.answers
        assert omq.core_enumeration_decide(rolled, kb.abox, (ind,)) == says
        if not says:
            assert _has_countermodel(kb, o, (ind,)), ind


def _has_countermodel(kb, o, tup):
    """Exhaustive enumeration of interpretations over the individuals,
    falsifying the original (unfolded) query at ``tup``.  The bits fixed
    by the ABox and the closed set are not enumerated."""
    from test_normalize import canonical_extension, models_axioms
    from omq.syntax import ConceptAssert
    naxioms = o.tbox.as_axioms()
    dom = list(omq.individuals_of(o, kb.abox))
    closed_facts = {
        name: frozenset(a.individual for a in kb.abox
                        if isinstance(a, ConceptAssert) and a.concept == name)
        for name in kb.sigma}
    open_concepts = sorted(set(o.tbox.concept_names)
                           - set(o.tbox.fresh_names) - set(kb.sigma))
    for cext, rext in interpretations(dom, open_concepts, sorted(o.tbox.role_names)):
        cext = dict(cext, **closed_facts)
        if not all(a.individual in cext.get(a.concept, ())
                   for a in kb.abox if isinstance(a, ConceptAssert)):
            continue
        full = canonical_extension(o.tbox, dom, cext, rext)
        if not models_axioms(naxioms, dom, full, rext):
            continue
        if not any((tup[0], y) in rext["attends"] and y in cext["GradCourse"]
                   for y in dom):
            return True
    return False
