import random

import pytest

import omq
from omq import (Const, DAtom, DProgram, DRule, Var, emit_text, gl_reduct,
                 ground, ground_full, is_stable_model, parse_ground_atoms,
                 stable_models_bruteforce)
from omq.datalog import closure
from omq.syntax import OmqError
from omq.typespace import ResourceRefused


def A(pred, *args):
    return DAtom(pred, tuple(Const(a) if a.islower() or a.isdigit() else Var(a)
                             for a in args))


def rule(head, pos=(), neg=(), neq=()):
    return DRule(tuple(head), tuple(pos), tuple(neg), tuple(neq))


# --- grounding ---------------------------------------------------------------


def test_ground_simple():
    p = DProgram.of([rule([A("p", "X")], [A("q", "X")])])
    g = ground(p, [A("q", "a"), A("q", "b")])
    assert set(g.rules) == {
        rule([A("p", "a")], [A("q", "a")]),
        rule([A("p", "b")], [A("q", "b")]),
    }


def test_ground_inequality_prunes():
    p = DProgram.of([rule([A("r", "X", "Y")], [A("p", "X"), A("p", "Y")],
                          neq=[(Var("X"), Var("Y"))])])
    g = ground(p, [A("p", "a"), A("p", "b")])
    heads = {r.head[0] for r in g.rules}
    assert heads == {A("r", "a", "b"), A("r", "b", "a")}


def test_ground_successor_chain_counts(example1):
    """The bit-vector successor relation over 5 bits has 2^5 - 1 edges."""
    kb, o = example1
    out = omq.rewrite(o)
    layered = omq.stratify(out)
    g = ground(layered.p3, [])
    next5 = {r.head[0] for r in g.rules if r.head and r.head[0].pred == "next5"}
    assert len(next5) == 31
    types = {r.head[0] for r in g.rules if r.head and r.head[0].pred == "type"}
    assert len(types) == 32


def test_ground_reruns_rules_listed_before_their_inputs():
    """Rules in reverse dependency order, one recursive: the grounder must
    come back to a rule once a later one derives atoms for its body."""
    reach = rule([A("reach", "X")], [A("path", "a", "X")])
    step = rule([A("path", "X", "Z")], [A("path", "X", "Y"), A("edge", "Y", "Z")])
    base = rule([A("path", "X", "Y")], [A("edge", "X", "Y")])
    edges = [A("edge", "a", "b"), A("edge", "b", "c"), A("edge", "c", "d")]
    backward = ground(DProgram.of([reach, step, base]), edges)
    forward = ground(DProgram.of([base, step, reach]), edges)
    assert set(backward.rules) == set(forward.rules)
    heads = {r.head[0] for r in backward.rules}
    assert {h for h in heads if h.pred == "path"} == {
        A("path", x, y) for (x, y) in
        [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")]}
    assert {h for h in heads if h.pred == "reach"} == {
        A("reach", "b"), A("reach", "c"), A("reach", "d")}


def test_closure_fires_a_rule_whose_support_comes_later():
    rules = [(3, (1, 2)), (4, (5,)), (2, (1,))]
    assert closure(rules, {1}) == {1, 2, 3}
    assert closure(rules, ()) == set()


def test_ground_unsafe_rule_rejected():
    with pytest.raises(OmqError, match="unsafe"):
        DProgram.of([rule([A("p", "X")], [A("q", "Y")])])


def test_relevance_equals_full_grounding_on_random_programs():
    """Same stable models as the textbook grounding, on random micro
    programs over at most 3 constants and 4 rules."""
    rng = random.Random(20240809)
    consts = ["a", "b", "c"]
    for trial in range(60):
        rules = []
        for _ in range(rng.randrange(1, 5)):
            head_pred = rng.choice("pqr")
            body = []
            neg = []
            nvars = rng.randrange(0, 2)
            terms = ["X"] if nvars else [rng.choice(consts)]
            for _ in range(rng.randrange(0, 3)):
                body.append(A(rng.choice("pqrs"), rng.choice(terms + consts[:1])))
            if rng.random() < 0.5:
                neg.append(A(rng.choice("pqrs"), rng.choice(consts)))
            head = [A(head_pred, rng.choice(terms + consts[:1]))]
            candidate = rule(head, body, neg)
            if candidate.variables() and not any(
                    t for a in body for t in a.args if isinstance(t, Var)):
                continue  # would be unsafe
            try:
                DProgram.of([candidate])
            except OmqError:
                continue
            rules.append(candidate)
        if not rules:
            continue
        p = DProgram.of(rules)
        facts = [A("s", rng.choice(consts)) for _ in range(rng.randrange(0, 3))]
        fact_rules = [rule([f]) for f in set(facts)]
        g_rel = DProgram.of(list(ground(p, facts).rules) + fact_rules)
        g_full = DProgram.of(list(ground_full(p, facts).rules) + fact_rules)
        assert set(stable_models_bruteforce(g_rel)) == \
            set(stable_models_bruteforce(g_full)), f"trial {trial}"


# --- reduct and stability ----------------------------------------------------


def ab_program():
    return DProgram.of([
        rule([A("a")], neg=[A("b")]),
        rule([A("b")], neg=[A("a")]),
    ])


def test_gl_reduct_textbook():
    p = ab_program()
    red = gl_reduct(p, [A("a")])
    assert set(red.rules) == {rule([A("a")])}
    assert gl_reduct(p, [A("a"), A("b")]).rules == ()


def test_gl_reduct_positive_unchanged():
    p = DProgram.of([rule([A("a")], [A("b")]), rule([A("b")])])
    assert set(gl_reduct(p, [A("x")]).rules) == set(p.rules)


def test_is_stable_model_even_loop():
    p = ab_program()
    assert is_stable_model(p, [A("a")])
    assert is_stable_model(p, [A("b")])
    assert not is_stable_model(p, [A("a"), A("b")])
    assert not is_stable_model(p, [])


def test_is_stable_model_disjunction_minimality():
    p = DProgram.of([rule([A("a"), A("b")])])
    assert is_stable_model(p, [A("a")])
    assert is_stable_model(p, [A("b")])
    assert not is_stable_model(p, [A("a"), A("b")])


def test_is_stable_model_disjunction_with_closure():
    p = DProgram.of([rule([A("a"), A("b")]), rule([A("a")], [A("b")])])
    assert not is_stable_model(p, [A("b")])
    assert is_stable_model(p, [A("a")])
    assert stable_models_bruteforce(p) == [frozenset({A("a")})]


def test_bruteforce_textbook():
    assert set(stable_models_bruteforce(DProgram.of([rule([A("a"), A("b")])]))) \
        == {frozenset({A("a")}), frozenset({A("b")})}
    p = DProgram.of([rule([], [A("a")]), rule([A("a"), A("b")])])
    assert stable_models_bruteforce(p) == [frozenset({A("b")})]
    assert stable_models_bruteforce(DProgram.of([])) == [frozenset()]


def test_bruteforce_refuses_large_base():
    rules = [rule([A(f"p{i}")]) for i in range(30)]
    with pytest.raises(ResourceRefused):
        stable_models_bruteforce(DProgram.of(rules))


def test_positive_programs_stable_equals_minimal():
    """On positive programs the stable models are the minimal models."""
    rng = random.Random(7)
    atoms = [A("a"), A("b"), A("c"), A("d")]
    for _ in range(40):
        rules = []
        for _ in range(rng.randrange(1, 5)):
            head = rng.sample(atoms, rng.randrange(0, 3))
            body = rng.sample(atoms, rng.randrange(0, 3))
            rules.append(rule(head, body))
        p = DProgram.of(rules)
        stable = set(stable_models_bruteforce(p))
        models = [frozenset(s) for s in _subsets(atoms)
                  if _models(p, frozenset(s))]
        minimal = {m for m in models if not any(m2 < m for m2 in models)}
        assert stable == minimal


def test_is_stable_model_matches_bruteforce_on_random_disjunctive_programs():
    """Every subset of the head atoms is judged stable exactly when the
    brute-force solver lists it, whether the reduct is definite inside the
    subset (least-model test) or keeps two heads there (subset search)."""
    rng = random.Random(4)
    atoms = [A("a"), A("b"), A("c"), A("d"), A("e")]
    for trial in range(150):
        rules = [rule(rng.sample(atoms, 2), rng.sample(atoms, rng.randrange(0, 2)))]
        for _ in range(rng.randrange(1, 5)):
            head = rng.sample(atoms, rng.randrange(0, 3))
            body = rng.sample(atoms, rng.randrange(0, 3))
            neg = rng.sample(atoms, rng.randrange(0, 2))
            rules.append(rule(head, body, neg))
        p = DProgram.of(rules)
        stable = set(stable_models_bruteforce(p))
        base = sorted({h for r in p.rules for h in r.head})
        for s in _subsets(base):
            assert is_stable_model(p, s) == (frozenset(s) in stable), \
                f"trial {trial}, {sorted(map(str, s))}"


def _subsets(items):
    for mask in range(1 << len(items)):
        yield [items[j] for j in range(len(items)) if mask >> j & 1]


def _models(p, interp):
    for r in p.rules:
        if all(b in interp for b in r.body_pos) and \
                not any(n in interp for n in r.body_neg):
            if not any(h in interp for h in r.head):
                return False
    return True


# --- text emission -----------------------------------------------------------


def test_emit_fact():
    assert emit_text(DProgram.of([rule([A("tt", "1")])])) == "tt(1).\n"


def test_emit_rule_with_negation():
    r = rule([A("c_a1", "X")], [A("ind", "X")], [A("nc_a1", "X")])
    assert emit_text(DProgram.of([r])) == "c_a1(X) :- ind(X), not nc_a1(X).\n"


def test_emit_constraint_and_neq():
    r = rule([], [A("p", "X"), A("p", "Y")], neq=[(Var("X"), Var("Y"))])
    assert emit_text(DProgram.of([r])) == ":- p(X), p(Y), X != Y.\n"


def test_emit_quotes_odd_constants():
    r = rule([DAtom("p", (Const("Odd-Name"),))])
    assert emit_text(DProgram.of([r])) == 'p("Odd-Name").\n'


def test_parse_ground_atoms_round_trip():
    atoms = parse_ground_atoms("ind(a) tt(1) q(a,b) flag")
    assert atoms == [A("ind", "a"), A("tt", "1"), A("q", "a", "b"), DAtom("flag")]


def test_inequality_arguments_must_be_bound():
    with pytest.raises(OmqError, match="unsafe"):
        DProgram.of([rule([A("p", "X")], [A("q", "X")],
                          neq=[(Var("X"), Var("Y"))])])
