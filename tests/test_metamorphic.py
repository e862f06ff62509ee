"""Metamorphic relations of certain answers, at sizes no oracle reaches
(Chen et al., "Metamorphic testing: a review of challenges and
opportunities", ACM CSUR 51(1), 2018).  A relation ties the answers of
two inputs together without saying what either answer is, so it checks
the engine where only the closed-form answers of the benchmark shapes
did before."""

import random

import pytest

from omq import build_omq, certain_answers, parse_kb, parse_query, rewrite, rewrite_positive

SEARCH_TBOX = ("BScStud <= Student; Student <= exists attends . Course;"
               " BScStud <= forall attends . not GradCourse;")
CHAIN_TBOX = "; ".join(f"A{i} <= exists r . A{i + 1}" for i in range(1, 6)) + ";"
POSITIVE_TBOX = ("A <= B or C; B <= D; C <= D; D <= exists r . D;"
                 " D <= forall inv(r) . F;")


def _search_abox(n):
    """``n`` students, half of them bachelors, and ``n`` closed courses,
    all graduate but one: each bachelor certainly attends the open one."""
    abox = [("BScStud" if i < n // 2 else "Student", (f"s{i}",)) for i in range(n)]
    abox += [("Course", (f"c{i}",)) for i in range(n)]
    return abox + [("GradCourse", (f"c{i}",)) for i in range(1, n)]


# A2 <= exists r . A3 with A3 closed over c1 alone: both A2 members
# certainly reach c1, and nothing else is certain of the existentials.
CHAIN_ABOX = [("A1", ("a1",)), ("A2", ("b1",)), ("A2", ("b2",)), ("A3", ("c1",)),
              ("A5", ("e1",)), ("r", ("a1", "b1"))]


def _text(abox):
    return " ".join(f"{p}({', '.join(args)});" for p, args in abox)


def _answers(tbox, abox, closed, query, rw=rewrite):
    kb = parse_kb(f"tbox {{ {tbox} }} abox {{ {abox} }} closed {{ {closed} }}")
    report = certain_answers(rw(build_omq(kb, parse_query(query))), kb.abox)
    return report.answers, report.inconsistent


@pytest.mark.parametrize("tbox, abox, closed, query, expected", [
    (SEARCH_TBOX, _search_abox(12), "Course;", "q(x, y) :- attends(x, y).",
     {(f"s{i}", "c0") for i in range(6)}),
    (CHAIN_TBOX, CHAIN_ABOX, "A1; A3;", "q(x, y) :- r(x, y).",
     {("a1", "b1"), ("b1", "c1"), ("b2", "c1")}),
], ids=["search-n12", "chain-k6"])
def test_renaming_and_shuffling_map_the_answers(tbox, abox, closed, query, expected):
    """Renaming the individuals and shuffling the assertions maps the
    answers by the renaming.  The new names sort in another order, and the
    engine branches in the order of its facts, so each renaming searches
    another tree."""
    answers, inconsistent = _answers(tbox, _text(abox), closed, query)
    assert (answers, inconsistent) == (expected, False)
    names = sorted({x for _, args in abox for x in args})
    for seed in range(3):
        rng = random.Random(seed)
        new = dict(zip(names, (f"i{t}" for t in rng.sample(range(10, 100), len(names)))))
        renamed = [(p, tuple(new[x] for x in args)) for p, args in abox]
        rng.shuffle(renamed)
        got = _answers(tbox, _text(renamed), closed, query)
        assert got == ({tuple(new[x] for x in t) for t in answers}, False), seed


@pytest.mark.parametrize("abox", [
    "A(a); C(b); F(c); B(d); A(e);",
    "A(a); F(b); F(c); D(d); r(d, a); C(e);",
    "A(a); A(b); B(c); r(a, b); r(b, c); r(c, d); F(e);",
])
@pytest.mark.parametrize("query", ["q(x) :- D(x).", "q(x) :- B(x).", "q(x) :- F(x).",
                                   "q(x, y) :- r(x, y), D(y)."])
def test_stable_and_positive_rewritings_agree_with_nothing_closed(abox, query):
    """With nothing closed the two rewritings have the same certain
    answers, over five individuals, on queries answered at the root and
    on queries whose candidates the search must refute."""
    stable = _answers(POSITIVE_TBOX, abox, "", query)
    assert stable == _answers(POSITIVE_TBOX, abox, "", query, rewrite_positive)


@pytest.mark.parametrize("tbox, abox, closed, query, rw", [
    (SEARCH_TBOX, _text(_search_abox(12)), "Course;", "q(x, y) :- attends(x, y).", rewrite),
    (CHAIN_TBOX, _text(CHAIN_ABOX), "A1; A3;", "q(x, y) :- r(x, y).", rewrite),
    (POSITIVE_TBOX, "A(a); F(b); F(c); D(d); r(d, a); C(e);", "", "q(x) :- D(x).",
     rewrite),
    (POSITIVE_TBOX, "A(a); F(b); F(c); D(d); r(d, a); C(e);", "", "q(x) :- D(x).",
     rewrite_positive),
], ids=["search-n12", "chain-k6", "positive-stable", "positive-positive"])
def test_bit_constants_from_the_data_keep_the_answers(tbox, abox, closed, query, rw):
    """With ``db_constants`` the two bit constants enter as base facts
    instead of program constants; the answers stay the same."""
    def answers(db_constants):
        kb = parse_kb(f"tbox {{ {tbox} }} abox {{ {abox} }} closed {{ {closed} }}")
        out = rw(build_omq(kb, parse_query(query)), db_constants=db_constants)
        report = certain_answers(out, kb.abox)
        return report.answers, report.inconsistent
    plain = answers(False)
    assert plain[0] and not plain[1]
    assert answers(True) == plain


POSITIVE_ABOXES = ["A(a); C(b); F(c); B(d); A(e);",
                   "A(a); F(b); F(c); D(d); r(d, a); C(e);",
                   "A(a); A(b); B(c); r(a, b); r(b, c); r(c, d); F(e);",
                   "A(c); C(a); F(e); B(b); A(d);"]
CHAIN_ABOXES = [_text(CHAIN_ABOX),
                _text([(p, tuple("n" + x[::-1] for x in args)) for p, args in CHAIN_ABOX]),
                _text(CHAIN_ABOX[:3] + CHAIN_ABOX[4:]),
                "A2(b1); A3(c1); r(b1, c1);"]


@pytest.mark.parametrize("db_constants", [False, True], ids=["plain", "db-constants"])
@pytest.mark.parametrize("tbox, closed, query, aboxes, rw", [
    (POSITIVE_TBOX, "", "q(x) :- D(x).", POSITIVE_ABOXES, rewrite),
    (POSITIVE_TBOX, "", "q(x) :- D(x).", POSITIVE_ABOXES, rewrite_positive),
    (CHAIN_TBOX, "A1; A3;", "q(x, y) :- r(x, y).", CHAIN_ABOXES, rewrite),
], ids=["positive-stable", "positive-positive", "chain-stable"])
def test_one_rewriting_answers_interleaved_aboxes_as_fresh_ones(tbox, closed, query,
                                                               aboxes, rw, db_constants):
    """A rewriting keeps its marking memo from call to call.  Calls over
    several ABoxes on one rewriting, twice in turn, report what a fresh
    rewriting per ABox reports: the same answers, leaves and learned
    clauses."""
    kbs = [parse_kb(f"tbox {{ {tbox} }} abox {{ {abox} }} closed {{ {closed} }}")
           for abox in aboxes]
    omqs = [build_omq(kb, parse_query(query)) for kb in kbs]
    fresh = [certain_answers(rw(o, db_constants=db_constants), kb.abox)
             for kb, o in zip(kbs, omqs)]
    shared = rw(omqs[0], db_constants=db_constants)
    for _ in range(2):
        got = [certain_answers(shared, kb.abox) for kb in kbs]
        assert got == fresh
    assert any(report.answers for report in fresh)
