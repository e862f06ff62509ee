import hashlib
import pathlib
import re

import pytest

import omq
from omq import (Const, DAtom, DRule, Var, build_omq, parse_kb, parse_query,
                 rewrite, rewrite_positive)
from omq.cli import main
from omq.rewrite import build_pred_table, MODE_STABLE
from omq.syntax import OmqError

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def X(name):
    return Var(name)


def _rules(out):
    return set(out.program.rules)


def test_nominal_individual_collected(example1):
    _, o = example1
    out = rewrite(o)
    assert DRule((DAtom("ind", (Const("c"),)),)) in _rules(out)


def test_universal_constraint_shape(example1):
    # A4 <= forall r2 . A1 with both A4 and A1 closed.
    _, o = example1
    out = rewrite(o)
    expected = DRule(
        (), (DAtom("c_a4", (X("X"),)), DAtom("r_r2", (X("X"), X("Y")))),
        (DAtom("c_a1", (X("Y"),)),))
    assert expected in _rules(out)


def test_no_fringe_predicates_without_existentials():
    kb = parse_kb("tbox { A <= B; } abox { A(a); }")
    o = build_omq(kb, parse_query("q(x) :- B(x)."))
    out = rewrite(o)
    preds = {a.pred for r in out.program.rules
             for a in r.head + r.body_pos + r.body_neg}
    assert not any(p.startswith(("in_e", "out_e", "wit_e")) for p in preds)


def test_marking_base_case():
    kb = parse_kb("tbox { A <= exists r . A; } abox { A(a); }")
    o = build_omq(kb, parse_query("q(x) :- A(x)."))
    out = rewrite(o)
    rules = _rules(out)
    assert DRule((DAtom("first1", (Const("0"),)),)) in rules
    assert DRule((DAtom("last1", (Const("1"),)),)) in rules
    assert DRule((DAtom("next1", (Const("0"), Const("1"))),)) in rules


def test_clause_marking_rule_shape(example1):
    # alpha2 = A2 <= A3 or A4 over the basis A1..A4,{c}.
    _, o = example1
    out = rewrite(o)
    xs = tuple(X(f"X{i}") for i in range(1, 6))
    expected = DRule(
        (DAtom("marked", xs),),
        (DAtom("type", xs), DAtom("tt", (xs[1],)),
         DAtom("ff", (xs[2],)), DAtom("ff", (xs[3],))))
    assert expected in _rules(out)


def test_filter_constraint_present(example1):
    _, o = example1
    out = rewrite(o)
    xs = tuple(X(f"X{i}") for i in range(1, 6))
    assert DRule((), (DAtom("marked", xs), DAtom("fringetype", xs))) in _rules(out)


def test_fringe_nominal_position_is_constant_zero(example1):
    _, o = example1
    out = rewrite(o)
    # hastype5_e0(X, Y1..Y4, 0) <- hastype4_e0(X, Y1..Y4): the nominal
    # position of a fringe element is always 0.
    ys = tuple(X(f"Y{i}") for i in range(1, 5))
    expected = DRule(
        (DAtom("hastype5_e0", (X("X"),) + ys + (Const("0"),)),),
        (DAtom("hastype4_e0", (X("X"),) + ys),))
    assert expected in _rules(out)


def test_closed_existential_forbidden_at_fringe():
    kb = parse_kb("""
        tbox { A <= exists p . B;  B <= exists r . A;  p <= s; }
        abox { A(a); }
        closed { s; }
    """)
    o = build_omq(kb, parse_query("q(x) :- A(x)."))
    out = rewrite(o)
    # A <= exists p . B has p subsumed by the closed s: no fringe element
    # may carry A, for any fringe family.
    for i in range(2):
        assert DRule((), (DAtom(f"in_e{i}", (X("X"),)),
                          DAtom(f"c_a_e{i}", (X("X"),)))) in _rules(out)


def test_emitted_programs_are_safe(example1, intro):
    for (_, o) in (example1, intro):
        for r in rewrite(o).program.rules:
            r.check_safety()


def test_rule_count_linear_in_clauses():
    def kb_with(n):
        axioms = "".join(f"B{i} <= C{i} or D{i};" for i in range(n))
        text = f"tbox {{ A <= exists r . A; {axioms} }} abox {{ A(a); }}"
        kb = parse_kb(text)
        return build_omq(kb, parse_query("q(x) :- A(x)."))

    base = len(rewrite(kb_with(4)).program.rules)
    double = len(rewrite(kb_with(8)).program.rules)
    k4 = len(build_omq(parse_kb(
        "tbox { A <= exists r . A; } abox { A(a); }"),
        parse_query("q(x) :- A(x).")).tbox.basis)
    # doubling the clause count adds a linear number of rules (each clause
    # contributes its marking rule plus per-position realized-type rules)
    assert double - base < 40 * 8


def test_pred_table_mangling_injective():
    kb = parse_kb("tbox { A1 <= a1; a1 <= A1; Ind <= ind; } abox { A1(x1); }")
    o = build_omq(kb, parse_query("q(x) :- A1(x)."))
    t = build_pred_table(o.tbox, o.sigma, MODE_STABLE)
    names = list(t.concept.values()) + list(t.concept_neg.values())
    assert len(names) == len(set(names))
    assert t.concept["A1"] != t.concept["a1"]


def test_positive_requires_empty_sigma(example1):
    _, o = example1
    with pytest.raises(OmqError, match="empty closed"):
        rewrite_positive(o)


def test_positive_no_negation_nominal_free():
    kb = parse_kb("tbox { A <= exists r . B; B <= C or D; } abox { A(a); }")
    o = build_omq(kb, parse_query("q(x) :- C(x)."))
    out = rewrite_positive(o)
    assert not out.program.has_negation()
    assert not any(r.body_neq for r in out.program.rules)
    assert any(len(r.head) > 1 for r in out.program.rules)


def test_positive_nominal_uses_inequality_only_there():
    kb = parse_kb("tbox { A <= exists r . {n}; } abox { A(a); }")
    o = build_omq(kb, parse_query("q(x) :- A(x)."))
    out = rewrite_positive(o)
    assert not out.program.has_negation()
    assert any(r.body_neq for r in out.program.rules)


def test_db_constants_suppresses_bit_facts(intro):
    _, o = intro
    out = rewrite(o, db_constants=True)
    facts = {r.head[0] for r in out.program.rules
             if len(r.head) == 1 and not (r.body_pos or r.body_neg or r.body_neq)}
    assert DAtom("tt", (Const("1"),)) not in facts
    assert DAtom("ff", (Const("0"),)) not in facts
    consts = {t.symbol for r in out.program.rules
              for a in r.head + r.body_pos + r.body_neg
              for t in a.args if isinstance(t, Const)}
    assert "0" not in consts and "1" not in consts
    # no rule repeats a body literal, such as an ff/tt binding
    assert all(len(set(lits)) == len(lits) for r in out.program.rules
               for lits in (r.body_pos, r.body_neg))


def test_db_constants_same_answers(intro):
    kb, o = intro
    plain = omq.certain_answers(rewrite(o), kb.abox)
    db = omq.certain_answers(rewrite(o, db_constants=True), kb.abox)
    assert plain.answers == db.answers == frozenset({("a", "c1")})


def test_rewrite_rejects_unsupported():
    kb = parse_kb("tbox { A <= exists r . A; } abox { A(a); }")
    o = build_omq(kb, parse_query("q() :- r(x, y), r(y, z), r(z, x)."))
    with pytest.raises(OmqError, match="not supported"):
        rewrite(o)


def _fringe_preds(tbox):
    kb = parse_kb(f"tbox {{ {tbox} }} abox {{ A(a); }}")
    program = rewrite(build_omq(kb, parse_query("q(x) :- B(x)."))).program
    return {a.pred for r in program.rules for a in r.head + r.body_pos + r.body_neg
            if a.pred == "fringetype" or re.fullmatch(r"hastype\d+_e\d+", a.pred)}


def test_filter_program_empty_without_existentials():
    """Without existential axioms there are no fringe elements, so no rule
    of the rewriting mentions ``fringetype`` or a fringe copy
    ``hastype<i>_e<j>``; one existential brings both in."""
    assert _fringe_preds("A <= B;") == set()
    assert {"fringetype", "hastype1_e0"} <= _fringe_preds("A <= B; A <= exists r . B;")


def test_positive_nominal_subsumption_agrees_and_detects_inconsistency():
    # A <= {a}: fine with A(a) asserted, inconsistent with A(b).
    kb = parse_kb("tbox { A <= {a}; } abox { A(a); }")
    o = build_omq(kb, parse_query("q(x) :- A(x)."))
    stable = omq.certain_answers(rewrite(o), kb.abox)
    positive = omq.certain_answers(rewrite_positive(o), kb.abox)
    assert stable.answers == positive.answers == frozenset({("a",)})
    assert not stable.inconsistent and not positive.inconsistent

    kb2 = parse_kb("tbox { A <= {a}; } abox { A(b); }")
    o2 = build_omq(kb2, parse_query("q(x) :- A(x)."))
    stable2 = omq.certain_answers(rewrite(o2), kb2.abox)
    positive2 = omq.certain_answers(rewrite_positive(o2), kb2.abox)
    assert stable2.inconsistent and positive2.inconsistent
    assert stable2.answers == positive2.answers


@pytest.mark.parametrize("tbox, abox", [
    ("A <= forall r . {o}; B <= exists r . top;", "A(a); B(a); C(o);"),
    ("A <= forall r . {o}; B <= exists r . C;", "A(a); B(a);"),
    ("A <= forall inv(r) . {o}; B <= exists inv(r) . C;", "A(a); B(a);"),
    ("s <= r; A <= forall r . {o}; B <= exists s . C;", "A(a); B(a);"),
])
def test_positive_universal_with_a_nominal_filler(tbox, abox):
    """A universal into a nominal is an inequality constraint in positive
    mode.  Where C(o) is not asserted, it is certain only because a's
    witness must be o.  Both rewritings and core enumeration answer {o}."""
    kb = parse_kb(f"tbox {{ {tbox} }} abox {{ {abox} }}")
    o = build_omq(kb, parse_query("q(x) :- C(x)."), allow_extra_abox_names=True)
    out = rewrite_positive(o)
    assert any(not r.head and (Var("Y"), Const("o")) in r.body_neq for r in out.program.rules)
    expected = frozenset({("o",)})
    assert omq.certain_answers(out, kb.abox).answers == expected
    assert omq.certain_answers(rewrite(o), kb.abox).answers == expected
    assert {(x,) for x in omq.individuals_of(o, kb.abox)
            if omq.core_enumeration_decide(o, kb.abox, (x,))} == expected


def test_emitted_text_is_pinned(capsys):
    """``omq rewrite`` prints, byte for byte, what it printed when the digests
    in ``fixtures/rewrite.sha256`` were recorded: one line per fixture KB x
    query x mode x ``--db-constants`` run, with the SHA-256 of stdout (of
    stderr when the run fails) and the exit status.  Only a deliberate
    change of the emitted program may change that file."""
    lines = (FIXTURES / "rewrite.sha256").read_text().splitlines()
    assert len(lines) == 48
    for line in lines:
        digest, code, kb, query, *flags = line.split()
        got = main(["rewrite", str(FIXTURES / kb), str(FIXTURES / query), *flags])
        out = capsys.readouterr()
        text = out.out if got == 0 else out.err
        assert (got, hashlib.sha256(text.encode()).hexdigest()) == (int(code), digest), line
