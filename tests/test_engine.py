import gc
import pathlib
import random
import sys
from collections import Counter
from dataclasses import replace
from itertools import combinations, product
from types import SimpleNamespace

import pytest

import omq
from omq import (Const, DAtom, DProgram, DRule, TypeContext, Var, build_omq,
                 certain_answers, core_of_model, enumerate_guess_models,
                 ground, parse_kb, parse_query, rewrite, rewrite_positive,
                 stratify, validate_core, verify_model)
from omq.datalog import fact_of
from omq.evaluate import Layer, _Plan
from omq.engine import TRUE, StratifyError, _Searcher, ground_guess_layer
from omq.rewrite import abox_facts
from omq.typespace import mark_types
import references
from references import stable_models_bruteforce
from test_acceptance import _closed_role_instance, _random_instance

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
MICRO_KB = "tbox { top <= A or B; } abox { }"
POSITIVE_TBOX = ("A <= B or C; B <= D; C <= D; D <= exists r . D;"
                 " D <= forall inv(r) . F;")
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
    # On every fixture, layer 4 is exactly the constraints over the upper
    # layers and the rules that mention ``fringetype`` or a
    # ``hastype<i>_e<j>``, and the rest of layers 3 and 4 is layer 3; in
    # positive mode that leaves layer 4 exactly the filter constraint.
    runs = 0
    for kb, o in _fixture_omqs():
        for out in _rewritings(o, omq.individuals_of(o, kb.abox)):
            t, k = out.ctx.table, out.ctx.k
            fringe = {t.fringetype} | {t.hastype_fr(i, j) for i in range(k + 1)
                                       for j in range(len(out.ctx.ntbox.existentials))}
            layered = stratify(out)
            above = set(layered.p3.rules + layered.p4.rules)
            upper = [r for r in out.program.rules if r in above]
            mentions = [r for r in upper if not r.head
                        or fringe & {a.pred for a in r.head + r.body_pos + r.body_neg}]
            assert list(layered.p4.rules) == mentions
            assert list(layered.p3.rules) == [r for r in upper if r not in mentions]
            assert any(not r.head for r in layered.p4.rules)
            if out.mode == omq.MODE_POSITIVE:
                (check,) = layered.p4.rules
                assert not check.head and not check.body_neg
                assert [a.pred for a in check.body_pos] == [t.marked, t.realizedtype]
            runs += 1
    assert runs >= 18


def test_stratify_rejects_foreign_program(example1):
    _, o = example1
    out = rewrite(o)
    alien = DProgram.of([DRule((DAtom("zzz", (Const("a"),)),))])
    bad = omq.RewriteOutput(alien, out.answer_pred, out.mode, out.ctx, out.query)
    with pytest.raises(StratifyError, match="zzz"):
        stratify(bad)


def _x(n):
    return tuple(Var(f"X{i}") for i in range(1, n + 1))


@pytest.mark.parametrize("rule, message", [
    # a disjunction of a guess-layer and a realized-type atom
    (DRule((DAtom("in_e0", _x(1)), DAtom("realizedtype", _x(5))), (DAtom("type", _x(5)),)),
     "mixes layers in its head"),
    # a guess-layer head read off the marking layer
    (DRule((DAtom("in_e0", _x(1)),), (DAtom("ind", _x(1)), DAtom("marked", _x(5)))),
     "uses a higher layer than it defines"),
    # a marking-layer head under the negation of its own layer
    (DRule((DAtom("marked", _x(5)),), (DAtom("type", _x(5)),), (DAtom("closedtype", _x(5)),)),
     "negates a predicate of its own layer"),
])
def test_stratify_rejects_misplaced_rule(example1, rule, message):
    _, o = example1
    out = rewrite(o)
    bad = omq.RewriteOutput(DProgram.of([rule]), out.answer_pred, out.mode, out.ctx, out.query)
    with pytest.raises(StratifyError, match=message):
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


@pytest.mark.parametrize("kb_text, query_text, positive, db_constants, sets", [
    ((FIXTURES / "intro.kb").read_text(), "q(x, y) :- attends(x, y).", False, False, 1),
    (CHAIN_KB, "q(x) :- A2(x).", False, False, 1),
    (CHAIN_KB, "q(x) :- A2(x).", False, True, 1),
    ((FIXTURES / "nominalfree.kb").read_text(), "q(x) :- C(x).", True, False, 1),
    ("tbox { A <= B or C; B <= exists r . D; } abox { A(a); }", "q(x) :- C(x).",
     False, False, 2),
], ids=["intro", "chain", "chain-db-constants", "nominalfree-positive", "two-sets"])
def test_marking_layer_matches_mark_types(monkeypatch, kb_text, query_text, positive,
                                          db_constants, sets):
    """For every set of realized types the answer search meets (at least
    ``sets`` of them), and for every set of at most two types (one when
    k > 4), the marked types evaluated from the emitted marking rules are
    those of ``typespace.mark_types``.  Vector position i is basis bit i,
    as in ``core_enumeration_decide``; it holds the ``tt`` constant exactly
    when the bit is set."""
    kb, o = _omq(kb_text, query_text)
    out = (rewrite_positive if positive else rewrite)(o, db_constants=db_constants)
    searchers = _recorded_searchers(monkeypatch)
    certain_answers(out, kb.abox)
    (searcher,) = searchers
    t, k = out.ctx.table, out.ctx.k
    bit_facts = [f for f in searcher.facts if f[0] in (t.tt, t.ff)]
    one = next(row[0] for (pred, row) in bit_facts if pred == t.tt)
    zero = next(row[0] for (pred, row) in bit_facts if pred == t.ff)

    def bits(row):
        return sum(1 << i for i, v in enumerate(row) if v == one)

    def marked_types(marked):
        return {bits(row) for (_, row) in marked}
    form = out.evaluation
    marking, keep, fixpoints = form.layers[1]
    assert keep == (t.marked,)
    # positive marking rules read only the bit constants: one fixpoint
    assert len(fixpoints) == 1 if positive else fixpoints
    # the realized types met: in the key of each stable fixpoint, and in
    # each key of the positive filter constraint's memo, which alone reads
    # them, next to the one fixpoint's marked types
    met = form.layers[2][2] if positive else fixpoints
    assert len(met) >= sets
    for facts in met:
        marked = {f for f in facts if f[0] == t.marked} if positive else fixpoints[facts][0]
        if positive:
            assert (marked, True) in fixpoints.values()
        types = frozenset(bits(row) for (pred, row) in facts if pred == t.realizedtype)
        assert marked_types(marked) == mark_types(out.ctx.types, types).marked
    for n in range(3 if k <= 4 else 2):  # pairs only while 2^k is small
        for types in combinations(range(1 << k), n):
            realized = [(t.realizedtype, tuple(one if ty >> i & 1 else zero
                                               for i in range(k))) for ty in types]
            marked, _ = marking.model(realized + bit_facts, (t.marked,))
            assert marked_types(marked) == mark_types(out.ctx.types, frozenset(types)).marked


def test_memoized_layers_match_a_fresh_evaluation(monkeypatch):
    """At every leaf of the fixture searches, and at every set of facts the
    positive searches test while learning, the verdict of the memoized
    upper layers equals a fresh ``Layer`` evaluation of layers 2, 3 and 4
    over all the leaf's facts, each handing up every fact it derives.  No
    fixture leaf fails an upper layer, so two OMQs whose leaves fail the
    fringe filter (stable) and the filter constraint (positive) join them,
    with more branches enumerated, so that some leaves are decided from the
    memos alone."""
    real = _Searcher._upper_layers_ok
    fresh, leaves, memo_only, verdicts, mode = [], 0, 0, set(), None

    def checked(self, facts):
        nonlocal leaves, memo_only
        before = _memo_size(self)
        got = real(self, facts)
        memo_only += _memo_size(self) == before
        assert got == (not _layers_fail(fresh, facts))
        leaves += 1
        verdicts.add((mode, got))
        return got
    monkeypatch.setattr(_Searcher, "_upper_layers_ok", checked)
    runs = [(*fixture, 0) for fixture in _fixture_omqs()] + [
        (*_omq("tbox { A <= exists r . B;  B <= exists r . C;  C <= bot;  E <= top; }"
               " abox { E(a); }", "q(x) :- E(x)."), 20),
        (*_omq(f"tbox {{ {POSITIVE_TBOX} }} abox {{ A(a); F(b); }}", "q(x) :- D(x)."), 2)]
    for kb, o, branches in runs:
        for out in _rewritings(o, omq.individuals_of(o, kb.abox)):
            fresh[:], mode = _fresh_layers(out), out.mode
            certain_answers(out, kb.abox)
            if branches:
                enumerate_guess_models(out, kb.abox, limit=branches)
    assert leaves > memo_only > 0
    assert verdicts == {(mode, ok) for mode in (omq.MODE_STABLE, omq.MODE_POSITIVE)
                        for ok in (True, False)}


def test_unfolded_upper_layers_match_the_stratified_ones(monkeypatch):
    """Over every base its memo sees in the fixture searches, each unfolded
    upper layer of ``Evaluation`` gives the same kept facts and verdict as
    a ``Layer`` of the stratified program, and reads the same predicates.
    The marking layer's ``markedone_e<i>`` pairs are among the predicates
    unfolded."""
    seen = []
    real = Layer.model

    def recorded(self, base, keep):
        seen.append((self, frozenset(base), keep))
        return real(self, base, keep)
    monkeypatch.setattr(Layer, "model", recorded)
    unfolded = set()
    for kb, o in _fixture_omqs():
        for out in _rewritings(o, omq.individuals_of(o, kb.abox)):
            seen.clear()
            certain_answers(out, kb.abox)
            layered = stratify(out)
            for (layer, _, _), p in zip(out.evaluation.layers,
                                        (layered.p2, layered.p3, layered.p4)):
                unfolded |= set(p.arities) - set(layer.arities)
                original = Layer(p)
                for base, keep in {(b, k) for (lay, b, k) in seen if lay is layer}:
                    assert real(layer, base, keep) == real(original, base, keep)
                assert layer.reads == original.reads
    assert {"markedone_e0", "markedone_e1"} <= unfolded


def _memo_size(searcher):
    """The entries of the memos a searcher reads: its own and those kept
    on the evaluation form."""
    return sum(map(len, searcher.memos))


def _fresh_layers(out):
    """Layers 2, 3 and 4 of ``out`` compiled anew, each with its program."""
    layered = stratify(out)
    return [(Layer(p), p) for p in (layered.p2, layered.p3, layered.p4)]


def _layers_fail(layers, facts):
    """Whether closing ``facts`` through ``layers`` in order, each handing
    up every fact it derives, violates a constraint."""
    for layer, p in layers:
        derived, ok = layer.model(facts, p.arities)
        if not ok:
            return True
        facts = [*facts, *derived]
    return False


def _recorded_searchers(monkeypatch):
    """The searchers the engine builds from now on, in order."""
    searchers = []

    class Recorded(_Searcher):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            searchers.append(self)
    monkeypatch.setattr(omq.engine, "_Searcher", Recorded)
    return searchers


def _learned_clauses(monkeypatch):
    """The clauses each searcher posts while learning, by searcher."""
    learned = {}
    real = _Searcher._learn

    def recorded(self, facts):
        n = len(self.clauses)
        real(self, facts)
        learned.setdefault(self, []).extend(self.clauses[n:])
    monkeypatch.setattr(_Searcher, "_learn", recorded)
    return learned


def _branch_nodes(monkeypatch):
    """For each search from now on, in order, the node count at each
    branch it yields."""
    searches = []
    real = _Searcher.branches

    def recorded(self, *args, **kwargs):
        nodes = []
        searches.append(nodes)
        for val in real(self, *args, **kwargs):
            nodes.append(self.nodes)
            yield val
    monkeypatch.setattr(_Searcher, "branches", recorded)
    return searches


def test_learned_clauses_are_violated_by_their_atoms(monkeypatch):
    """Each clause learned on the criterion-6 instances, with and without
    nominals, and on the positive TBox over three individuals, alone and
    with a nominal, negates atoms that, closed with the root's TRUE facts
    through fresh layers 2-4, violate a constraint; so no branch that the
    clause cuts off survives."""
    from test_acceptance import criterion_6_instances
    searchers = _recorded_searchers(monkeypatch)
    posted = _learned_clauses(monkeypatch)
    learned = {False: 0, True: 0}  # by whether the TBox has a nominal
    three = _omq(f"tbox {{ {POSITIVE_TBOX} }} abox {{ A(a); C(b); F(c); }}", "q(x) :- D(x).")
    nominal = _omq(f"tbox {{ {POSITIVE_TBOX} A <= exists r . {{n}}; }} abox {{ A(a); C(b); }}",
                   "q(x) :- D(x).")
    for kb, o in [*criterion_6_instances(), three, nominal]:
        out = rewrite_positive(o)
        searchers.clear()
        report = certain_answers(out, kb.abox)
        (s,) = searchers
        clauses = posted.get(s, [])
        assert len(clauses) == report.learned
        layers = _fresh_layers(out)
        root = [f for f, v in zip(s.facts, s.root) if v == TRUE]
        for clause in clauses:
            assert all(lit & 1 for lit in clause)
            assert _layers_fail(layers, root + [s.facts[lit >> 1] for lit in clause])
        learned[bool(o.tbox.nominals)] += len(clauses)
    assert learned[False] and learned[True]


@pytest.mark.parametrize("abox, answers", [
    ("A(a); C(b); F(c);", "ab"),
    ("F(a); D(b); F(c);", "b"),
    ("B(a); F(b); A(c); r(b, a);", "ac"),
])
def test_learning_leaves_few_positive_leaves(abox, answers):
    """Almost every leaf of the positive TBox over three individuals fails
    the filter constraint, for one type the choices realize: without
    learning a call visits about 290 leaves, with it at most 5."""
    kb, o = _omq(f"tbox {{ {POSITIVE_TBOX} }} abox {{ {abox} }}", "q(x) :- D(x).")
    report = certain_answers(rewrite_positive(o), kb.abox)
    assert report.answers == {(x,) for x in answers}
    assert report.learned > 0
    assert report.models_explored <= 5


def test_unfiltered_positive_branches_are_the_guess_layer_models():
    """Without the upper layers nothing is learned: the branches are all
    stable models of the ground guess layer, 9 here.  With them, learned
    clauses cut off no branch that the upper layers keep."""
    kb, o = _omq(f"tbox {{ {POSITIVE_TBOX} }} abox {{ A(a); }}", "q(x) :- D(x).")
    out = rewrite_positive(o)
    facts = tuple(DRule((a,)) for a in abox_facts(out.ctx, kb.abox))
    models = stable_models_bruteforce(
        DProgram.of_safe(ground_guess_layer(out, kb.abox).rules + facts))
    unfiltered = enumerate_guess_models(out, kb.abox, with_marking=False)
    assert len(unfiltered) == 9
    assert set(unfiltered) == set(models)
    layers = _fresh_layers(out)
    kept = {m for m in unfiltered if not _layers_fail(layers, list(map(fact_of, m)))}
    assert 0 < len(kept) < 9
    assert set(enumerate_guess_models(out, kb.abox)) == kept


def test_stable_mode_learns_nothing(monkeypatch):
    """Stable marking reads ``not realizedtype``, so the upper layers are
    not monotone: no stable search learns, not even where leaves fail the
    fringe filter."""
    searchers = _recorded_searchers(monkeypatch)
    runs = 0
    for kb, o in _fixture_omqs():
        for out in _rewritings(o, omq.individuals_of(o, kb.abox)):
            if out.mode == omq.MODE_STABLE:
                assert certain_answers(out, kb.abox).learned == 0
                runs += 1
    assert runs >= 9
    kb, o = _omq("tbox { A <= exists r . B;  B <= exists r . C;  C <= bot;  E <= top; }"
                 " abox { E(a); }", "q(x) :- E(x).")
    models = enumerate_guess_models(rewrite(o), kb.abox, limit=20)
    assert searchers[-1].leaves > len(models)  # some failed the fringe filter
    # past the compiled clauses, only goal clauses over answer atoms
    assert all(s.learned == 0 and all(s.facts[lit >> 1][0] == "q"
                                      for c in s.clauses[s.compiled:] for lit in c)
               for s in searchers)


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
    facts: once the rewriting's ``Evaluation`` is built (its unfolded upper
    layers are ``DRule``s), one ``certain_answers`` call constructs no
    ``DRule``."""
    kb, o = _omq((FIXTURES / "intro.kb").read_text(), "q(x, y) :- attends(x, y).")
    out = rewrite(o)
    out.evaluation
    built = []
    real = DRule.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        real(self, *args, **kwargs)
    monkeypatch.setattr(DRule, "__init__", counted)
    report = certain_answers(out, kb.abox + (omq.ConceptAssert("Course", "c3"),))
    assert report.models_explored > 1
    assert built == []


def test_the_evaluation_form_is_built_once(monkeypatch):
    """The layers, plans and ``Layer``s depend on the rewriting alone: a
    second ``certain_answers`` on it stratifies nothing and compiles no
    join plan or layer, and answers the same."""
    kb, o = _omq((FIXTURES / "intro.kb").read_text(), "q(x, y) :- attends(x, y).")
    out = rewrite(o)
    abox = kb.abox + (omq.ConceptAssert("Course", "c3"),)
    first = certain_answers(out, abox)
    built = []
    for cls in (_Plan, Layer):
        real = cls.__init__

        def counted(self, *args, real=real, **kwargs):
            built.append(type(self).__name__)
            real(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted)
    real_stratify = omq.engine.stratify
    monkeypatch.setattr(omq.engine, "stratify",
                        lambda out: built.append("stratify") or real_stratify(out))
    assert first.fixpoints > 0
    assert certain_answers(out, abox) == first
    assert built == []


def _renamed(abox, new):
    """``abox`` with each individual ``x`` renamed to ``new[x]``."""
    return tuple(replace(a, individual=new[a.individual]) if isinstance(a, omq.ConceptAssert)
                 else replace(a, subject=new[a.subject], object=new[a.object])
                 for a in abox)


@pytest.mark.parametrize("kb_text, query_text, rw, kept", [
    (CHAIN_KB, "q(x) :- A2(x).", rewrite, [False, True, False]),
    (f"tbox {{ {POSITIVE_TBOX} }} abox {{ A(a); C(b); F(c); }}", "q(x) :- D(x).",
     rewrite_positive, [False, True, True]),
], ids=["chain-stable", "positive"])
def test_a_renamed_abox_reuses_the_marking_fixpoint(monkeypatch, kb_text, query_text, rw,
                                                    kept):
    """The marking layer reads the realized types and the bit constants,
    never an individual, and so does the positive filter constraint: their
    memos are ``kept`` on the rewriting, the others last one call.  After
    one call, a call on the same rewriting with every individual renamed
    (into the reverse order) runs again just the layers with a per-call
    memo (in positive mode, layer 2 alone), and answers the renamed
    tuples."""
    kb, o = _omq(kb_text, query_text)
    out = rw(o)
    layers = out.evaluation.layers
    assert [memo is not None for (_, _, memo) in layers] == kept
    first = certain_answers(out, kb.abox)
    assert first.answers and first.fixpoints
    runs = []
    real = Layer.model

    def counted(self, *args):
        runs.append(self)
        return real(self, *args)
    monkeypatch.setattr(Layer, "model", counted)
    names = sorted(omq.individuals_of(o, kb.abox))
    new = dict(zip(names, (f"i{99 - n}" for n in range(len(names)))))
    second = certain_answers(out, _renamed(kb.abox, new))
    assert second.answers == {tuple(new[x] for x in t) for t in first.answers}
    assert second.fixpoints == len(runs) > 0
    assert set(runs) == {layer for (layer, _, memo) in layers if memo is None}


def test_a_memo_of_one_entry_keeps_the_answers(monkeypatch):
    """With room for one entry, each memo kept on the rewriting drops an
    entry on almost every insert, and the answers stay those of the full
    memo, on the fixtures and on OMQs whose leaves fail the upper layers,
    over two calls per rewriting; no such memo ever holds more than one
    entry."""
    runs = [*_fixture_omqs(),
            _omq("tbox { A <= exists r . B;  B <= exists r . C;  C <= bot;  E <= top; }"
                 " abox { E(a); }", "q(x) :- E(x)."),
            _omq(f"tbox {{ {POSITIVE_TBOX} }} abox {{ A(a); C(b); F(c); }}", "q(x) :- D(x).")]
    expected = [[certain_answers(out, kb.abox).answers
                 for out in _rewritings(o, omq.individuals_of(o, kb.abox))]
                for kb, o in runs]
    monkeypatch.setattr(omq.engine, "LAYER_MEMO_LIMIT", 1)
    real = _Searcher._upper_layers_ok
    sizes = set()

    def checked(self, facts):
        got = real(self, facts)
        sizes.update(len(memo) for (_, _, memo) in self.form.layers if memo is not None)
        return got
    monkeypatch.setattr(_Searcher, "_upper_layers_ok", checked)
    for (kb, o), answers in zip(runs, expected):
        outs = _rewritings(o, omq.individuals_of(o, kb.abox))
        for _ in range(2):
            assert [certain_answers(out, kb.abox).answers for out in outs] == answers
    assert max(sizes) == 1


def test_the_marking_memo_drops_the_least_recently_used_entry(monkeypatch):
    """A hit moves an entry to the end, so a full memo drops the entry
    used longest ago, not the one stored first."""
    monkeypatch.setattr(omq.engine, "LAYER_MEMO_LIMIT", 2)
    memo = omq.engine._Recent()
    memo["a"], memo["b"] = 1, False
    assert memo.get("a") == 1 and memo.get("b") is False and memo.get("a") == 1
    memo["c"] = 3
    assert list(memo) == ["a", "c"]
    memo["a"] = 4
    assert memo == {"c": 3, "a": 4} and memo.get("b") is None


def test_the_marking_layer_runs_once_across_many_leaves(monkeypatch):
    """With room for two entries in each memo, one positive call over many
    leaves, and calls over two more ABoxes after it, run the marking
    fixpoint once in all: its one key, the bit constants, stays in its own
    memo while the filter verdicts come and go in theirs."""
    monkeypatch.setattr(omq.engine, "LAYER_MEMO_LIMIT", 2)
    kb, o = _omq(f"tbox {{ {POSITIVE_TBOX} }} abox {{ A(a); C(b); F(c); D(d); r(d, a); }}",
                 "q(x) :- D(x).")
    out = rewrite_positive(o)
    marking = out.evaluation.layers[1][0]
    runs, leaves = [], []
    real_model, real_ok = Layer.model, _Searcher._upper_layers_ok

    def counted(self, *args):
        runs.append(self)
        return real_model(self, *args)

    def checked(self, facts):
        leaves.append(facts)
        return real_ok(self, facts)
    monkeypatch.setattr(Layer, "model", counted)
    monkeypatch.setattr(_Searcher, "_upper_layers_ok", checked)
    certain_answers(out, kb.abox)
    certain_answers(out, kb.abox[:3])
    certain_answers(out, _renamed(kb.abox, {x: x + "2" for x in "abcd"}))
    assert len(out.evaluation.layers[2][2]) == 2 and len(leaves) > 10
    assert runs.count(marking) == 1


def test_first_evaluation_leaves_no_render_garbage():
    """Building a rewriting's evaluation form generates the source of
    every join plan; that leaves no reference cycle for the collector."""
    kb, o = _omq(CHAIN_KB, "q(x) :- A2(x).")
    out = rewrite(o)
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        certain_answers(out, kb.abox)
        gc.collect()
        garbage = [g for g in gc.garbage
                   if "_render.<locals>" in getattr(g, "__qualname__", "")]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert garbage == []


def test_enumerate_guess_models_honours_a_zero_limit(intro):
    kb, o = intro
    out = rewrite(o)
    assert enumerate_guess_models(out, kb.abox, limit=0) == []
    assert len(enumerate_guess_models(out, kb.abox, limit=1)) == 1


def test_enumeration_refuses_past_its_branch_budget(monkeypatch):
    """With nothing closed, the stable rewriting of the positive TBox over
    ``A(a); F(b)`` has 701,904 unfiltered branches; collecting them all
    would take gigabytes.  Past ``ENUMERATION_MODEL_LIMIT`` (here lowered to
    100) the enumeration refuses; a ``limit`` within the budget is kept."""
    kb, o = _omq(f"tbox {{ {POSITIVE_TBOX} }} abox {{ A(a); F(b); }}", "q(x) :- D(x).")
    out = rewrite(o)
    monkeypatch.setattr(omq.engine, "ENUMERATION_MODEL_LIMIT", 100)
    with pytest.raises(omq.ResourceRefused, match="more than 100 branches"):
        enumerate_guess_models(out, kb.abox, with_marking=False)
    assert len(enumerate_guess_models(out, kb.abox, with_marking=False, limit=100)) == 100


def _first_model(out, abox):
    """The TRUE atoms of the first surviving branch, or None."""
    searcher = _Searcher(out, abox)
    val = next(searcher.branches(), None)
    return None if val is None else searcher.model_of(val)


def _per_tuple_answers(out, abox, inds):
    """The rule cautious enumeration replaced: after one unconstrained
    search, one search per candidate tuple, on a fresh searcher, under the
    unit clause ``not q(tuple)``; a tuple whose answer atom was never
    ground is not certain."""
    candidates = list(product(inds, repeat=len(out.query.answer_vars)))
    if _first_model(out, abox) is None:
        return frozenset(candidates), True

    def certain(t):
        searcher = _Searcher(out, abox)
        q = searcher.aid.get((out.ctx.table.answer, t))
        if q is None:
            return False
        searcher.add_clause((2 * q + 1,))
        return next(searcher.branches(), None) is None
    return frozenset(filter(certain, candidates)), False


def _check_against_per_tuple_rule(monkeypatch, out, abox, inds):
    """``certain_answers`` gives the per-tuple rule's answers in one search
    of at most 1 + |answer tuples of the first branch| - |answers|
    branches: each branch after the first drops a candidate.  Returns the
    report and the number of branches."""
    with monkeypatch.context() as m:
        searches = _branch_nodes(m)
        report = certain_answers(out, abox)
    (branches,) = map(len, searches)
    assert (report.answers, report.inconsistent) == _per_tuple_answers(out, abox, inds)
    if report.inconsistent:
        assert branches == 0
    else:
        first = _first_model(out, abox)
        first_tuples = [a for a in first if a.pred == out.ctx.table.answer]
        assert 1 <= branches <= 1 + len(first_tuples) - len(report.answers)
    return report, branches


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


def test_certain_answers_match_the_per_tuple_rule_on_fixtures(monkeypatch):
    runs = 0
    for kb, o in _fixture_omqs():
        inds = omq.individuals_of(o, kb.abox)
        for out in _rewritings(o, inds):
            _check_against_per_tuple_rule(monkeypatch, out, kb.abox, inds)
            runs += 1
    assert runs >= 18


def test_certain_answers_match_the_per_tuple_rule_on_random_instances(monkeypatch):
    rng = random.Random(0xCA07)
    inconsistent = answered = 0
    for _ in range(60):
        kb, o = _random_instance(rng)
        inds = omq.individuals_of(o, kb.abox)
        for out in _rewritings(o, inds):
            report, _ = _check_against_per_tuple_rule(monkeypatch, out, kb.abox, inds)
            inconsistent += report.inconsistent
            answered += bool(report.answers) and not report.inconsistent
    assert inconsistent and answered  # the inconsistent path and real answers


def test_cautious_enumeration_goes_on_past_a_certain_candidate(monkeypatch):
    """The first branch gives C to both individuals, but only ``a`` is
    certain; the clause posted after it must leave ``b`` refutable."""
    kb, o = _omq("tbox { A <= B or C; } abox { A(b); C(a); }", "q(x) :- C(x).")
    out = rewrite(o)
    assert len([a for a in _first_model(out, kb.abox) if a.pred == "q"]) == 2
    report, _ = _check_against_per_tuple_rule(monkeypatch, out, kb.abox, ("a", "b"))
    assert report.answers == {("a",)}


def test_cautious_enumeration_needs_fewer_searches_than_candidates(monkeypatch, intro):
    kb, o = intro
    n = len(omq.individuals_of(o, kb.abox))
    _, branches = _check_against_per_tuple_rule(monkeypatch, rewrite(o), kb.abox,
                                                omq.individuals_of(o, kb.abox))
    assert branches < 1 + n ** 2


def test_one_call_pops_each_search_node_once(monkeypatch):
    """On the ``search`` TBox at n=12, one call is one search.  The value
    array a popped node starts from holds the decisions on its path, so
    distinct nodes start from distinct arrays: the number of distinct
    starts equals ``nodes``.  A search restarted for each goal clause pops
    the root again."""
    from test_metamorphic import SEARCH_TBOX, _search_abox, _text
    kb, o = _omq(f"tbox {{ {SEARCH_TBOX} }} abox {{ {_text(_search_abox(12))} }}"
                 " closed { Course; }", "q(x, y) :- attends(x, y).")
    searchers = _recorded_searchers(monkeypatch)
    starts = {}
    real = _Searcher._propagate

    def recorded(self, val, todo):
        starts.setdefault(self.nodes, bytes(val))  # the first call per pop
        return real(self, val, todo)
    monkeypatch.setattr(_Searcher, "_propagate", recorded)
    report = certain_answers(rewrite(o), kb.abox)
    assert len(report.answers) == 6
    (s,) = searchers
    assert report.nodes == s.nodes
    assert report == replace(report, nodes=0)  # as fixpoints, not compared
    del starts[0]  # the root's own propagation, before any pop
    assert len(starts) == s.nodes
    assert len(set(starts.values())) == s.nodes


def test_answers_true_at_the_root_end_the_search_at_the_first_branch(monkeypatch):
    """Over the k=6 chain with ``A1`` closed, the answer atom of the one
    ``A1`` individual is TRUE at the root, so the clause posted after the
    first branch conflicts there: the call pops no node after that branch."""
    from test_metamorphic import CHAIN_TBOX
    kb, o = _omq(f"tbox {{ {CHAIN_TBOX} }} abox {{ A1(a); A3(b); }} closed {{ A1; }}",
                 "q(x) :- A1(x).")
    searchers = _recorded_searchers(monkeypatch)
    searches = _branch_nodes(monkeypatch)
    report = certain_answers(rewrite(o), kb.abox)
    assert report.answers == {("a",)}
    (s,) = searchers
    assert searches == [[s.nodes]]


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


def _fixture_runs():
    """The fixture KB x query x mode x ``--db-constants`` runs pinned in
    ``fixtures/answer.sha256``, as (kb, query, flags, recorded exit code)."""
    for line in (FIXTURES / "answer.sha256").read_text().splitlines():
        _, code, kb, query, *flags = line.split()
        if "--emit-ground" not in flags:
            yield kb, query, flags, int(code)


def test_the_atom_table_is_the_inputs_then_the_instances_in_order(monkeypatch):
    """On every fixture run, the searcher's atoms are the input facts, each
    once, then the atoms of the guess layer's instances in order of first
    occurrence (heads, positive body, negated body), then the choice atoms
    no instance has.  Learned clauses and ``--emit-ground`` follow this
    order."""
    runs = 0
    for kb_name, query_name, flags, code in _fixture_runs():
        kb, o = _omq((FIXTURES / kb_name).read_text(), (FIXTURES / query_name).read_text())
        rw = rewrite_positive if "--positive" in flags else rewrite
        try:
            out = rw(o, db_constants="--db-constants" in flags)
        except omq.OmqError:
            assert code == 1
            continue
        searchers = _recorded_searchers(monkeypatch)
        certain_answers(out, kb.abox)
        (s,) = searchers
        atoms = [*omq.engine._input_facts(out, kb.abox)]
        for r in ground_guess_layer(out, kb.abox).rules:
            atoms += [*r.head, *r.body_pos, *r.body_neg]
        expected = list(map(fact_of, dict.fromkeys(atoms)))
        assert s.facts[:len(expected)] == expected, (kb_name, query_name, flags)
        choices = out.evaluation.choices
        families = {f for (neg, guard) in choices.values() for f in (neg, guard)}
        assert all(pred in families for (pred, _) in s.facts[len(expected):])
        assert s.aid == {f: i for i, f in enumerate(s.facts)}
        runs += 1
    assert runs == 24  # the other 12 are positive runs of KBs with closed predicates


def test_ground_runs_the_scan_joins_on_every_fixture_rewriting():
    """On every fixture run's guess layer and full program over its input
    facts, ``ground`` returns the instances, rules, atom order and input
    count of the scan-driven reference, and runs the same joins in the same
    order."""
    runs = 0
    for kb_name, query_name, flags, code in _fixture_runs():
        kb, o = _omq((FIXTURES / kb_name).read_text(), (FIXTURES / query_name).read_text())
        rw = rewrite_positive if "--positive" in flags else rewrite
        try:
            out = rw(o, db_constants="--db-constants" in flags)
        except omq.OmqError:
            continue
        facts = omq.engine._input_facts(out, kb.abox)
        for p in (out.evaluation.layered.p1, out.program):
            assert references.grounding_trace(ground, p, facts) == \
                references.grounding_trace(references.ground_scan, p, facts), \
                (kb_name, query_name, flags)
        runs += 1
    assert runs == 24


def _search_clauses_agree(out, abox, label) -> bool:
    """Assert that the searcher's clauses, families and root over ``abox``
    are those of ``references.search_clauses``; return whether the root
    conflicts."""
    s = _Searcher(out, abox)
    ref = references.search_clauses(out, abox)
    assert Counter(tuple(sorted(c)) for c in s.clauses[:s.compiled]) == \
        Counter(tuple(sorted(c)) for c in ref.clauses), label
    assert s.families == ref.families, label
    assert s.conflict == ref.conflict, label
    if not ref.conflict:  # a conflict stops propagation part way
        assert s.root == ref.root, label
    return ref.conflict


def test_the_search_clauses_are_those_of_the_full_grounding():
    """The searcher takes the clauses of the guess layer straight from its
    grounding, skipping the guess rules' instances, and propagates its root
    from the clauses that the root's first values can make unit.  On every
    fixture run, and on random instances in both modes, its clauses (as a
    multiset of sorted literal tuples), its families in order, its
    propagated root and whether that root conflicts are those that the
    full grounding gives when each instance is read back as a rule and the
    root is propagated over every clause."""
    runs = conflicts = 0
    for kb_name, query_name, flags, code in _fixture_runs():
        kb, o = _omq((FIXTURES / kb_name).read_text(), (FIXTURES / query_name).read_text())
        rw = rewrite_positive if "--positive" in flags else rewrite
        try:
            out = rw(o, db_constants="--db-constants" in flags)
        except omq.OmqError:
            continue
        conflicts += _search_clauses_agree(out, kb.abox, (kb_name, query_name, flags))
        runs += 1
    assert runs == 24
    rng = random.Random(28)
    for n in range(60):
        kb, o = (_random_instance if n % 2 else _closed_role_instance)(rng)
        two = len(omq.individuals_of(o, kb.abox)) > 1   # as --db-constants needs
        for rw in (rewrite, rewrite_positive):
            try:
                out = rw(o, db_constants=two and rng.random() < 0.5)
            except omq.OmqError:
                continue
            conflicts += _search_clauses_agree(out, kb.abox, (n, rw.__name__))
            runs += 1
    assert runs > 100 and conflicts


def _guess_layer_program(rng):
    """A random guess layer with the shapes the searcher reads: a choice
    family ``p``/``np`` on ``d``, a family ``s``/``ns`` guarded by ``g``,
    supports of ``d``, ``g`` and ``q``, rules forcing a choice atom, and
    constraints, some ground and without a positive body.  ``f`` is read
    under negation and derived by no rule, so it is false at the root: a
    ground rule such as ``p(a) :- not f(a).`` is unit there through it
    alone.  The input facts are of ``e`` and ``r``."""
    def atom(pred, x="X"):
        return DAtom(pred, (Var(x) if x.isupper() else Const(x),))

    def body():
        out = [atom(rng.choice("edpgs"))]
        if rng.random() < 0.4:
            out += [DAtom("r", (Var("X"), Var("Y"))), atom(rng.choice("eps"), "Y")]
        return out
    families = [("p", "np", "d"), ("s", "ns", "g")]
    rules = []
    for pos, neg, guard in families:
        if rng.random() < 0.5:
            rules.append(DRule((atom(pos), atom(neg)), (atom(guard),)))
        else:
            rules += [DRule((atom(a),), (atom(guard),), (atom(b),))
                      for a, b in ((pos, neg), (neg, pos))]
    for _ in range(rng.randint(2, 7)):
        kind = rng.choice(["support", "support", "force", "force", "clause", "ground"])
        neg = tuple(atom(rng.choice("fe")) for _ in range(rng.randint(0, 1)))
        if kind == "support":
            rules.append(DRule((atom(rng.choice("dgq")),), tuple(body())))
        elif kind == "force":
            rules.append(DRule((atom(rng.choice(["p", "np", "s"])),), tuple(body()), neg))
        elif kind == "clause":
            rules.append(DRule((), tuple(body()), neg))
        else:
            x = rng.choice("ab")
            head = (atom(rng.choice(["p", "np"]), x),) if rng.random() < 0.9 else ()
            rules.append(DRule(head, (), (atom(rng.choice("fe"), x),)))
    rules.append(DRule((atom("d"),), (atom("e"),)))
    p1 = DProgram.of(rules)
    facts = [atom("e", x) for x in "abc" if rng.random() < 0.5]
    facts += [DAtom("r", (Const(x), Const(y))) for x in "abc" for y in "abc"
              if rng.random() < 0.3]
    return p1, {pos: (neg, guard if guard == "g" else None) for pos, neg, guard in families}, \
        facts


def test_the_search_clauses_of_random_guess_layers(monkeypatch):
    """The relation of ``test_the_search_clauses_are_those_of_the_full_grounding``
    on random guess layers (``_guess_layer_program``), which also have
    rules that only an atom no rule derives makes unit at the root."""
    facts: list[DAtom] = []
    monkeypatch.setattr(omq.engine, "_input_facts", lambda out, abox: facts)
    rng = random.Random(7)
    conflicts = forced = 0
    for n in range(300):
        p1, choices, facts[:] = _guess_layer_program(rng)
        form = omq.engine.Evaluation.__new__(omq.engine.Evaluation)
        form.layered, form.choices = SimpleNamespace(p1=p1), choices
        form.roles = omq.engine._roles(p1, {"p", "np", "s", "ns"})
        form.layers, form.reads, form.monotone = [], frozenset(), False
        out = SimpleNamespace(evaluation=form)
        conflicts += _search_clauses_agree(out, (), n)
        forced += any(not r.body_pos and r.head for r in p1.rules)
    assert conflicts and forced


def _with_negated_support(out):
    """``out`` with one more guess-layer rule, a support of the answer atom
    with a negated body literal, which the rewriter never emits."""
    t = out.ctx.table
    X, Y = Var("X"), Var("Y")
    concept = sorted(t.concept.values())[0]
    extra = DRule((DAtom(t.answer, (X, Y)),), (DAtom(t.ind, (X,)), DAtom(t.ind, (Y,))),
                  (DAtom(concept, (X,)),))
    assert {t.layer[a.pred] for a in extra.head + extra.body_pos + extra.body_neg} == {1}
    program = DProgram.of(out.program.rules + (extra,))
    return omq.RewriteOutput(program, out.answer_pred, out.mode, out.ctx, out.query)


def test_a_guess_layer_support_with_negation_is_a_stratify_error():
    """The guess layer's supports are definite: a support rule with a
    negated literal is refused when the evaluation form is built."""
    kb, o = _omq((FIXTURES / "intro.kb").read_text(), "q(x, y) :- attends(x, y).")
    bad = _with_negated_support(rewrite(o))
    with pytest.raises(StratifyError, match="unexpected negation in support rule"):
        certain_answers(bad, kb.abox)
