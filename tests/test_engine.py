import pathlib
import sys
from itertools import combinations, product

import pytest

import omq
from omq import (Const, DAtom, DProgram, DRule, TypeContext, build_omq,
                 certain_answers, core_of_model, enumerate_guess_models,
                 ground, parse_kb, parse_query, rewrite, rewrite_positive,
                 stable_models_bruteforce, stratify, validate_core,
                 verify_model)
from omq.datalog import Layer
from omq.engine import StratifyError, _Searcher
from omq.rewrite import abox_facts
from omq.typespace import mark_types

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
MICRO_KB = "tbox { top <= A or B; } abox { }"
CHAIN_KB = ("tbox { A1 <= exists r . A2; A2 <= exists r . A3; A3 <= exists r . A4; }"
            " abox { A1(a); A2(b); r(a, b); } closed { A1; }")


def _omq(kb_text, query_text):
    kb = parse_kb(kb_text)
    return kb, build_omq(kb, parse_query(query_text))


def _fixture_omqs():
    """Every fixture KB/query pair the query builder accepts."""
    for kb_file in ("example1.kb", "intro.kb", "nominalfree.kb"):
        kb = parse_kb((FIXTURES / kb_file).read_text())
        for query_file in ("q_attends.cq", "q_c.cq", "q_r1.cq"):
            try:
                yield kb, build_omq(kb, parse_query((FIXTURES / query_file).read_text()))
            except omq.OmqError:
                continue


def test_stratify_layers(example1):
    _, o = example1
    layered = stratify(rewrite(o))
    p1_preds = {a.pred for r in layered.p1.rules for a in r.head}
    assert "ind" in p1_preds and "in_e0" in p1_preds and "q" in p1_preds
    p2_preds = {a.pred for r in layered.p2.rules for a in r.head}
    assert p2_preds == {"hastype0", "hastype1", "hastype2", "hastype3",
                        "hastype4", "hastype5", "realizedtype"}
    p3_preds = {a.pred for r in layered.p3.rules for a in r.head}
    assert "marked" in p3_preds and "next5" in p3_preds
    p4_preds = {a.pred for r in layered.p4.rules for a in r.head}
    assert "fringetype" in p4_preds and "hastype5_e0" in p4_preds
    # On every fixture, layer 4 is exactly the rules that mention
    # ``fringetype`` or a ``hastype<i>_e<j>``, and the rest of layers 3 and
    # 4 is layer 3; in positive mode that leaves the filter constraint in
    # layer 3 and layer 4 empty.
    runs = 0
    for kb, o in _fixture_omqs():
        for out in _rewritings(o, omq.individuals_of(o, kb.abox)):
            t, k = out.ctx.table, out.ctx.k
            fringe = {t.fringetype} | {t.hastype_fr(i, j) for i in range(k + 1)
                                       for j in range(len(out.ctx.ntbox.existentials))}
            layered = stratify(out)
            above = set(layered.p3.rules + layered.p4.rules)
            upper = [r for r in out.program.rules if r in above]
            mentions = [r for r in upper
                        if fringe & {a.pred for a in r.head + r.body_pos + r.body_neg}]
            assert list(layered.p4.rules) == mentions
            assert list(layered.p3.rules) == [r for r in upper if r not in mentions]
            if out.mode == omq.MODE_POSITIVE:
                assert not layered.p4.rules
                assert any(not r.head for r in layered.p3.rules)
            else:
                assert any(not r.head for r in layered.p4.rules)
            runs += 1
    assert runs >= 18


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
    assert ("c_a", "nc_a", None) in rewrite_positive(o).ctx.table.families


def _full_ground(out, abox):
    facts = abox_facts(out.ctx, abox)
    g = ground(out.program, facts).program()
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
    layers 2 to 4, is a stable model of the whole emitted program."""
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


@pytest.mark.parametrize("kb_text, query_text, positive, db_constants", [
    ((FIXTURES / "intro.kb").read_text(), "q(x, y) :- attends(x, y).", False, False),
    (CHAIN_KB, "q(x) :- A2(x).", False, False),
    (CHAIN_KB, "q(x) :- A2(x).", False, True),
    ((FIXTURES / "nominalfree.kb").read_text(), "q(x) :- C(x).", True, False),
], ids=["intro", "chain", "chain-db-constants", "nominalfree-positive"])
def test_marking_layer_matches_mark_types(kb_text, query_text, positive, db_constants):
    """For every set of realized types the answer search meets, and for
    every set of at most two types (one when k > 4), the marked types evaluated from the
    emitted marking rules are those of ``typespace.mark_types``.  Vector
    position i is basis bit i, as in ``core_enumeration_decide``; it holds
    the ``tt`` constant exactly when the bit is set."""
    kb, o = _omq(kb_text, query_text)
    out = (rewrite_positive if positive else rewrite)(o, db_constants=db_constants)
    searcher = _Searcher(out, kb.abox)
    inds = omq.individuals_of(o, kb.abox)
    for goals in [[], *([t] for t in product(inds, repeat=len(out.query.answer_vars)))]:
        searcher.find_model(goals)  # one search per candidate tuple
    t, k = out.ctx.table, out.ctx.k
    bit_facts = [f for f in searcher.facts if f[0] in (t.tt, t.ff)]
    one = next(row[0] for (pred, row) in bit_facts if pred == t.tt)
    zero = next(row[0] for (pred, row) in bit_facts if pred == t.ff)

    def bits(row):
        return sum(1 << i for i, v in enumerate(row) if v == one)

    def marked_types(marked):
        return {bits(row) for (_, row) in marked}
    marking, _, keep = searcher.layers[1]
    assert keep == ((t.marked,) if not positive else ())
    memoized = [(base, up) for ((i, base), (up, _)) in searcher.memo.items() if i == 1]
    assert memoized
    for base, up in memoized:
        # in positive mode no layer above reads ``marked``, so none is kept
        marked = up if keep else marking.model(base, (t.marked,))[0]
        types = frozenset(bits(row) for (pred, row) in base if pred == t.realizedtype)
        assert marked_types(marked) == mark_types(out.ctx.types, types).marked
    for n in range(3 if k <= 4 else 2):  # pairs only while 2^k is small
        for types in combinations(range(1 << k), n):
            realized = [(t.realizedtype, tuple(one if ty >> i & 1 else zero
                                               for i in range(k))) for ty in types]
            marked, _ = marking.model(realized + bit_facts, (t.marked,))
            assert marked_types(marked) == mark_types(out.ctx.types, frozenset(types)).marked


def test_memoized_layers_match_a_fresh_evaluation(monkeypatch):
    """At every leaf of the fixture searches, the verdict of the memoized
    upper layers equals a fresh ``Layer`` evaluation of layers 2, 3 and 4
    over all the leaf's facts, each handing up every fact it derives.  No
    fixture leaf fails an upper layer, so two OMQs whose leaves fail the
    fringe filter (stable) and the filter constraint (positive) join them,
    with more branches enumerated, so that some leaves are decided from the
    memo alone."""
    real = _Searcher._upper_layers_ok
    fresh, leaves, memo_only, verdicts = [], 0, 0, set()

    def fresh_verdict(facts):
        for layer, p in fresh:
            derived, ok = layer.model(facts, p.arities)
            if not ok:
                return False
            facts = [*facts, *derived]
        return True

    def checked(self, facts):
        nonlocal leaves, memo_only
        before = len(self.memo)
        got = real(self, facts)
        memo_only += len(self.memo) == before
        assert got == fresh_verdict(facts)
        leaves += 1
        verdicts.add((self.ctx.mode, got))
        return got
    monkeypatch.setattr(_Searcher, "_upper_layers_ok", checked)
    runs = [(*fixture, 0) for fixture in _fixture_omqs()] + [
        (*_omq("tbox { A <= exists r . B;  B <= exists r . C;  C <= bot;  E <= top; }"
               " abox { E(a); }", "q(x) :- E(x)."), 20),
        (*_omq("tbox { A <= B or C; B <= D; C <= D; D <= exists r . D;"
               " D <= forall inv(r) . F; } abox { A(a); F(b); }", "q(x) :- D(x)."), 2)]
    for kb, o, branches in runs:
        for out in _rewritings(o, omq.individuals_of(o, kb.abox)):
            layered = stratify(out)
            fresh[:] = [(Layer(p), p) for p in (layered.p2, layered.p3, layered.p4)]
            certain_answers(out, kb.abox)
            if branches:
                enumerate_guess_models(out, kb.abox, limit=branches)
    assert leaves > memo_only > 0
    assert verdicts == {(mode, ok) for mode in (omq.MODE_STABLE, omq.MODE_POSITIVE)
                        for ok in (True, False)}


def test_only_the_guess_layer_is_ground(monkeypatch):
    """The realized-type and marking layers are evaluated, not ground: one
    ``certain_answers`` call grounds the guess layer and nothing else."""
    kb, o = _omq((FIXTURES / "intro.kb").read_text(), "q(x, y) :- attends(x, y).")
    out = rewrite(o)
    calls = []
    real = omq.engine.ground

    def counted(p, facts):
        calls.append(p)
        return real(p, facts)
    monkeypatch.setattr(omq.engine, "ground", counted)
    # a third open course gives the searches more than one leaf
    report = certain_answers(out, kb.abox + (omq.ConceptAssert("Course", "c3"),))
    assert report.models_explored > 1
    assert calls == [stratify(out).p1]


def test_the_answer_path_builds_no_rule_objects(monkeypatch):
    """From the grounder to the answers the engine works on ``(pred, row)``
    facts: one ``certain_answers`` call constructs no ``DRule``."""
    kb, o = _omq((FIXTURES / "intro.kb").read_text(), "q(x, y) :- attends(x, y).")
    out = rewrite(o)
    built = []
    real = DRule.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        real(self, *args, **kwargs)
    monkeypatch.setattr(DRule, "__init__", counted)
    report = certain_answers(out, kb.abox + (omq.ConceptAssert("Course", "c3"),))
    assert report.models_explored > 1
    assert built == []


def test_enumerate_guess_models_honours_a_zero_limit(intro):
    kb, o = intro
    out = rewrite(o)
    assert enumerate_guess_models(out, kb.abox, limit=0) == []
    assert len(enumerate_guess_models(out, kb.abox, limit=1)) == 1


def _per_tuple_answers(out, abox, inds):
    """The rule cautious enumeration replaced: after one unconstrained
    search, one search from the root per candidate tuple, under the unit
    clause ``not q(tuple)``."""
    searcher = _Searcher(out, abox)
    candidates = list(product(inds, repeat=len(out.query.answer_vars)))
    if searcher.find_model() is None:
        return frozenset(candidates), True
    return frozenset(t for t in candidates if searcher.find_model([t]) is None), False


def _check_against_per_tuple_rule(out, abox, inds):
    """``certain_answers`` gives the per-tuple rule's answers within
    2 + |answer tuples of the first branch| - |answers| searches."""
    report = certain_answers(out, abox)
    assert (report.answers, report.inconsistent) == _per_tuple_answers(out, abox, inds)
    if report.inconsistent:
        assert report.searches == 1
    else:
        first = _Searcher(out, abox).find_model()
        first_tuples = [a for a in first if a.pred == out.ctx.table.answer]
        assert 1 <= report.searches <= 2 + len(first_tuples) - len(report.answers)
    return report


def _rewritings(o, inds):
    """Every rewriting of ``o`` the CLI offers: both modes, with and
    without --db-constants (which needs two individuals), less the
    combinations it refuses."""
    outs = []
    for rw in (rewrite, rewrite_positive):
        for db_constants in (False, True)[:len(inds)]:
            try:
                outs.append(rw(o, db_constants=db_constants))
            except omq.OmqError:
                pass
    return outs


def test_certain_answers_match_the_per_tuple_rule_on_fixtures():
    runs = 0
    for kb, o in _fixture_omqs():
        inds = omq.individuals_of(o, kb.abox)
        for out in _rewritings(o, inds):
            _check_against_per_tuple_rule(out, kb.abox, inds)
            runs += 1
    assert runs >= 18


def test_certain_answers_match_the_per_tuple_rule_on_random_instances():
    from test_acceptance import _random_instance
    import random
    rng = random.Random(0xCA07)
    inconsistent = answered = 0
    for _ in range(60):
        kb, o = _random_instance(rng)
        inds = omq.individuals_of(o, kb.abox)
        for out in _rewritings(o, inds):
            report = _check_against_per_tuple_rule(out, kb.abox, inds)
            inconsistent += report.inconsistent
            answered += bool(report.answers) and not report.inconsistent
    assert inconsistent and answered  # the inconsistent path and real answers


def test_cautious_enumeration_goes_on_past_a_certain_candidate():
    """The first branch gives C to both individuals, but only ``a`` is
    certain; the clause of the second search must leave ``b`` refutable."""
    kb, o = _omq("tbox { A <= B or C; } abox { A(b); C(a); }", "q(x) :- C(x).")
    out = rewrite(o)
    assert len([a for a in _Searcher(out, kb.abox).find_model() if a.pred == "q"]) == 2
    report = _check_against_per_tuple_rule(out, kb.abox, ("a", "b"))
    assert report.answers == {("a",)}


def test_cautious_enumeration_needs_fewer_searches_than_candidates(intro):
    kb, o = intro
    n = len(omq.individuals_of(o, kb.abox))
    report = _check_against_per_tuple_rule(rewrite(o), kb.abox,
                                           omq.individuals_of(o, kb.abox))
    assert report.searches < 1 + n ** 2


def test_pick_resumes_where_a_full_scan_would_pick(monkeypatch):
    """The family ``_pick`` returns from its carried start index is the one
    a scan from the first family returns, at every node of every search.
    With this query, the running example's families of ``C`` are often
    passed over while their guards are open."""
    kb, o = _omq((FIXTURES / "example1.kb").read_text(), "q(x) :- C(x).")
    real = _Searcher._pick
    calls = []

    def checked(self, val, start):
        got = real(self, val, start)
        assert got == real(self, val, 0)
        calls.append(start)
        return got
    monkeypatch.setattr(_Searcher, "_pick", checked)
    _per_tuple_answers(rewrite(o), kb.abox, omq.individuals_of(o, kb.abox))
    assert max(calls) > 0
