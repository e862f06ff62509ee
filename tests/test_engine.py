import pathlib
import sys

import pytest

import omq
from omq import (Const, DAtom, DProgram, DRule, TypeContext, build_omq,
                 certain_answers, core_of_model, enumerate_guess_models,
                 ground, parse_kb, parse_query, rewrite, rewrite_positive,
                 stable_models_bruteforce, stratify, validate_core,
                 verify_model)
from omq.engine import StratifyError
from omq.rewrite import abox_facts

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
MICRO_KB = "tbox { top <= A or B; } abox { }"


def _omq(kb_text, query_text):
    kb = parse_kb(kb_text)
    return kb, build_omq(kb, parse_query(query_text))


def test_stratify_layers(example1):
    _, o = example1
    layered = stratify(rewrite(o))
    p1_preds = {a.pred for r in layered.p1.rules for a in r.head}
    assert "ind" in p1_preds and "in_e0" in p1_preds and "q" in p1_preds
    p2_preds = {a.pred for r in layered.p2.rules for a in r.head}
    assert p2_preds == {"hastype0", "hastype1", "hastype2", "hastype3",
                        "hastype4", "hastype5", "realizedtype"}
    p3_preds = {a.pred for r in layered.p3.rules for a in r.head}
    assert "marked" in p3_preds and "next5" in p3_preds and "fringetype" in p3_preds


def test_stratify_rejects_foreign_program(example1):
    _, o = example1
    out = rewrite(o)
    alien = DProgram.of([DRule((DAtom("zzz", (Const("a"),)),))])
    bad = omq.RewriteOutput(alien, out.answer_pred, out.mode, out.ctx, out.query)
    with pytest.raises(StratifyError, match="zzz"):
        stratify(bad)


def test_positive_mode_choice_pairs(example1):
    kb, _ = parse_kb(MICRO_KB), None
    o = build_omq(kb, parse_query("q(x) :- A(x)."))
    layered = stratify(rewrite_positive(o))
    assert ("c_a", "nc_a", None) in layered.choice_specs


def _full_ground(out, abox):
    facts = abox_facts(out.ctx, abox)
    g = ground(out.program, facts)
    return DProgram.of(list(g.rules) + [DRule((f,)) for f in facts])


@pytest.mark.parametrize("kb_text, query_text", [
    # kept tiny on purpose: the full grounding must stay within the
    # brute-force budget
    ("tbox { p <= s; } abox { p(a, a); }", "q(x, y) :- s(x, y)."),
    ("tbox { p <= s; } abox { s(a, a); }", "q(x, y) :- p(x, y)."),
    ("tbox { top <= A; } abox { A(a); } closed { A; }", "q(x) :- A(x)."),
    ("tbox { A <= bot; } abox { A(a); }", "q(x) :- A(x)."),
])
def test_engine_matches_bruteforce_on_small_groundings(kb_text, query_text):
    """On instances whose full grounding stays tiny, the layered engine's
    answers equal the intersection of answer atoms over the brute-force
    stable models of the grounding."""
    kb, o = _omq(kb_text, query_text)
    out = rewrite(o)
    gp = _full_ground(out, kb.abox)
    base = {h for r in gp.rules for h in r.head}
    assert len(base) <= 24, f"fixture too large: {len(base)} atoms"
    models = stable_models_bruteforce(gp)
    report = certain_answers(out, kb.abox)
    assert report.inconsistent == (not models)
    if models:
        expected = set.intersection(*[
            {tuple(t.symbol for t in a.args) for a in m if a.pred == "q"}
            for m in models])
        assert set(report.answers) == expected


def test_engine_inconsistent_reports_all_tuples():
    kb, o = _omq("tbox { A <= bot; } abox { A(a); }", "q(x) :- B(x).")
    report = certain_answers(rewrite(o), kb.abox)
    assert report.inconsistent
    assert report.answers == frozenset({("a",)})


def test_non_monotonicity_under_closed_predicates(intro):
    kb, o = intro
    out = rewrite(o)
    base = certain_answers(out, kb.abox)
    assert base.answers == frozenset({("a", "c1")})
    extended = kb.abox + (omq.ConceptAssert("Course", "c3"),)
    assert certain_answers(out, extended).answers == frozenset()


def test_monotone_without_closed_predicates():
    kb, o = _omq("tbox { A <= B; B <= C; } abox { A(a); }", "q(x) :- C(x).")
    out = rewrite(o)
    before = certain_answers(out, kb.abox).answers
    extended = kb.abox + (omq.ConceptAssert("A", "b"),)
    after = certain_answers(out, extended).answers
    assert before <= after


def test_boolean_query():
    # x is a c-variable through the closed concept A
    kb, o = _omq("tbox { A <= B; } abox { A(a); } closed { A; }", "q() :- A(x).")
    report = certain_answers(rewrite(o), kb.abox)
    assert report.answers == frozenset({()})
    kb2, o2 = _omq("tbox { A <= B; } abox { B(b); } closed { A; }", "q() :- A(x).")
    assert certain_answers(rewrite(o2), kb2.abox).answers == frozenset()


def test_branch_models_project_to_valid_cores(example1, example1_ctx):
    kb, o = example1
    out = rewrite(o)
    models = enumerate_guess_models(out, kb.abox, with_marking=True, limit=25)
    checked = 0
    for m in models:
        core = core_of_model(out, m)
        assert validate_core(core, example1_ctx, kb.abox).ok
        checked += 1
    assert checked == 25


def test_marking_filter_matches_strategy_check():
    # A is optional; choosing it forces a B-labelled fringe element whose
    # type the marking loop eliminates (B needs an r-successor in the
    # empty concept C), so only branches without A survive the filter.
    kb, o = _omq(
        "tbox { A <= exists r . B;  B <= exists r . C;  C <= bot;  E <= top; } "
        "abox { E(a); }",
        "q(x) :- E(x).")
    out = rewrite(o)
    ctx = TypeContext(o.tbox, o.sigma)
    unfiltered = enumerate_guess_models(out, kb.abox, with_marking=False)
    filtered = set(map(frozenset, enumerate_guess_models(out, kb.abox)))
    assert unfiltered
    survivors = 0
    for m in unfiltered:
        core = core_of_model(out, m)
        ok = omq.has_nonlosing_strategy(core, ctx)
        assert ok == (frozenset(m) in filtered)
        survivors += ok
    assert 0 < survivors < len(unfiltered)


def test_verify_model_against_bruteforce():
    kb, o = _omq("tbox { p <= s; } abox { s(a, a); }", "q(x, y) :- p(x, y).")
    out = rewrite(o)
    gp = _full_ground(out, kb.abox)
    models = stable_models_bruteforce(gp)
    assert models
    for m in models:
        assert verify_model(out, kb.abox, m)
    broken = models[0] | {DAtom("q", (Const("a"), Const("a")))}
    assert not verify_model(out, kb.abox, broken)


@pytest.mark.parametrize("kb_file, query_file, positive", [
    ("intro.kb", "q_attends.cq", False),
    ("nominalfree.kb", "q_c.cq", False),
    ("nominalfree.kb", "q_c.cq", True),
])
def test_completed_branches_are_stable_models(completed_branches, kb_file,
                                              query_file, positive):
    """The leaf model the search reads off its value array, completed with
    layers 2 and 3, is a stable model of the whole emitted program."""
    kb = parse_kb((FIXTURES / kb_file).read_text())
    o = build_omq(kb, parse_query((FIXTURES / query_file).read_text()))
    out = (rewrite_positive if positive else rewrite)(o)
    models = completed_branches(out, kb.abox, 3)
    assert len(models) == 3
    for m in models:
        assert verify_model(out, kb.abox, m)


def test_verify_model_unknown_predicate(example1):
    kb, o = example1
    out = rewrite(o)
    with pytest.raises(omq.OmqError, match="unknown"):
        verify_model(out, kb.abox, [DAtom("mystery", (Const("a"),))])


def test_branch_limit_refusal(example1):
    kb, o = example1
    with pytest.raises(omq.ResourceRefused, match="undecided"):
        certain_answers(rewrite(o), kb.abox, branch_limit=5)


def _stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_search_depth_is_not_bounded_by_the_python_stack():
    """Six students and six closed courses put the search dozens of choice
    families deep; with 60 frames of headroom a search that recursed once
    per node would raise RecursionError."""
    abox = [f"Student(s{i});" for i in range(1, 7)] + \
        [f"Course(c{i});" for i in range(1, 7)]
    kb = parse_kb("tbox { BScStud <= Student; Student <= exists attends . Course;"
                  " BScStud <= forall attends . not GradCourse; }"
                  f" abox {{ {' '.join(abox)} }} closed {{ Course; }}")
    out = rewrite(build_omq(kb, parse_query("q(x) :- Student(x).")))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 60)
    try:
        report = certain_answers(out, kb.abox)
    finally:
        sys.setrecursionlimit(limit)
    assert report.answers == {(f"s{i}",) for i in range(1, 7)}
