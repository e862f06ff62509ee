import random

import pytest

import omq
from omq import (Const, DAtom, DProgram, DRule, Var, emit_text, gl_reduct,
                 ground, ground_full, is_stable_model, parse_ground_atoms,
                 stable_models_bruteforce)
from omq.datalog import Layer, atom_of, closure, fact_of
from omq.syntax import OmqError
from omq.typespace import ResourceRefused


def T(name):
    return Const(name) if name.islower() or name.isdigit() else Var(name)


def A(pred, *args):
    return DAtom(pred, tuple(map(T, args)))


def rule(head, pos=(), neg=(), neq=()):
    return DRule(tuple(head), tuple(pos), tuple(neg), tuple(neq))


# --- grounding ---------------------------------------------------------------


def test_ground_simple():
    p = DProgram.of([rule([A("p", "X")], [A("q", "X")])])
    g = ground(p, [A("q", "a"), A("q", "b")]).program()
    assert set(g.rules) == {
        rule([A("p", "a")], [A("q", "a")]),
        rule([A("p", "b")], [A("q", "b")]),
    }


def test_ground_inequality_prunes():
    p = DProgram.of([rule([A("r", "X", "Y")], [A("p", "X"), A("p", "Y")],
                          neq=[(Var("X"), Var("Y"))])])
    g = ground(p, [A("p", "a"), A("p", "b")]).program()
    heads = {r.head[0] for r in g.rules}
    assert heads == {A("r", "a", "b"), A("r", "b", "a")}


def test_ground_successor_chain_counts(example1):
    """The bit-vector successor relation over 5 bits has 2^5 - 1 edges."""
    kb, o = example1
    out = omq.rewrite(o)
    layered = omq.stratify(out)
    g = ground(layered.p3, []).program()
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
    backward = ground(DProgram.of([reach, step, base]), edges).program()
    forward = ground(DProgram.of([base, step, reach]), edges).program()
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


DERIVED = {"z": 0, "p": 1, "q": 1, "r": 1, "e": 2}
BASE = {"s": 1, "f": 2}
PREDS = {**DERIVED, **BASE}
CONSTS = ["a", "b", "c"]


def random_program(rng):
    """Up to 4 random safe rules over 3 constants, and up to 3 facts of the
    BASE predicates.  Heads are DERIVED atoms or absent (constraints);
    bodies mix every predicate, so the rules recurse, repeat a variable
    inside an atom (``e(X, X)``), use 0-ary atoms, constants in heads and
    bodies, ``!=`` and one negated atom of any predicate."""
    rules = []
    for _ in range(rng.randrange(1, 5)):
        terms = rng.choice([[], ["X"], ["X", "Y"]]) + [rng.choice(CONSTS)]

        def atom(pred):
            return A(pred, *(rng.choice(terms) for _ in range(PREDS[pred])))
        head = [atom(rng.choice(list(DERIVED)))] if rng.random() < 0.85 else []
        body = [atom(rng.choice(list(PREDS))) for _ in range(rng.randrange(0, 3))]
        neg = [atom(rng.choice(list(PREDS)))] if rng.random() < 0.5 else []
        neq = [(Var("X"), T(rng.choice(terms)))] \
            if "X" in terms and rng.random() < 0.3 else []
        candidate = rule(head, body, neg, neq)
        try:
            DProgram.of(rules + [candidate])
        except OmqError:
            continue  # unsafe
        rules.append(candidate)
    facts = [A(pred, *rng.choices(CONSTS, k=BASE[pred]))
             for pred in rng.choices(list(BASE), k=rng.randrange(0, 4))]
    return DProgram.of(rules), facts


def test_relevance_equals_full_grounding_on_random_programs():
    """Same stable models as the textbook grounding, on random micro
    programs over at most 3 constants and 4 rules."""
    rng = random.Random(20240809)
    for trial in range(60):
        p, facts = random_program(rng)
        fact_rules = [rule([f]) for f in set(facts)]
        g_rel = DProgram.of(list(ground(p, facts).program().rules) + fact_rules)
        g_full = DProgram.of(list(ground_full(p, facts).rules) + fact_rules)
        assert set(stable_models_bruteforce(g_rel)) == \
            set(stable_models_bruteforce(g_full)), f"trial {trial}"


def test_layer_equals_closure_of_the_reduct_on_random_programs():
    """The semi-naive layer evaluator gives the closure of the grounding's
    reduct over the base and the same constraint verdict; a program that
    negates a predicate it derives is refused."""
    rng = random.Random(5)
    refused = evaluated = 0
    for trial in range(400):
        p, facts = random_program(rng)
        derived = {a.pred for r in p.rules for a in r.head}
        if any(a.pred in derived for r in p.rules for a in r.body_neg):
            with pytest.raises(OmqError, match="negates"):
                Layer(p)
            refused += 1
            continue
        base = frozenset(facts)
        got, got_ok = Layer(p).model(map(fact_of, base), p.arities)
        # the second grounding shares no join code
        for program in (ground(p, base).program(), ground_full(p, base)):
            red = gl_reduct(program, base)
            model = closure([(r.head[0], r.body_pos) for r in red.rules if r.head], base)
            ok = not any(all(b in model for b in r.body_pos)
                         for r in red.rules if not r.head)
            assert set(map(atom_of, got)) == {a for a in model if a.pred in p.arities}, \
                f"trial {trial}"
            assert got_ok == ok, f"trial {trial}"
        evaluated += 1
    assert refused > 20 and evaluated > 200


def test_layer_refuses_disjunctive_heads():
    with pytest.raises(OmqError, match="disjunctive"):
        Layer(DProgram.of([rule([A("p", "X"), A("q", "X")], [A("s", "X")])]))


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
