import random

import pytest

import omq
from omq import (Const, DAtom, DProgram, DRule, Var, emit_text, gl_reduct,
                 ground, is_stable_model, parse_ground_atoms)
from omq import datalog
from omq.datalog import Layer, _Relation, atom_of, closure, fact_of
from omq.syntax import OmqError
from omq.typespace import ResourceRefused
from references import ground_full, stable_models_bruteforce


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


def test_ground_loops_see_the_rows_they_add():
    """A bucket loop of ``ground`` sees the rows its own rule adds while it
    runs, so one run follows each chain to its end before the next chain
    starts.  The instance order fixes the engine's interning and branching
    order; with rows held back until the next run, the chains interleave."""
    p = DProgram.of([rule([A("q", "X", "X")], [A("a", "X")]),
                     rule([A("q", "X", "Z")], [A("a", "X"), A("q", "X", "Y"),
                                               A("e", "Y", "Z")])])
    facts = [A("a", "n0"), A("a", "m0")] + [A("e", f"{c}{i}", f"{c}{i + 1}")
                                            for c in "nm" for i in range(3)]
    g = ground(p, facts)
    atoms = list(g.ids)
    heads = [atoms[heads[0]][1] for (heads, _, _) in g.rules]
    assert heads == [("n0", "n0"), ("m0", "m0"), ("n0", "n1"), ("n0", "n2"),
                     ("n0", "n3"), ("m0", "m1"), ("m0", "m2"), ("m0", "m3")]


def test_ground_numbers_atoms_inputs_first_then_by_first_occurrence():
    """The input facts take the first ids, in their order and once each,
    whatever their predicate; every other atom is numbered where it first
    occurs, heads before the positive body before the negated body.  Each
    instance names the rule it instantiates, and ``program`` maps the ids
    back to atoms."""
    p = DProgram.of([rule([A("p", "X")], [A("e", "X", "Y")], [A("r", "Y")]),
                     rule([A("s", "Y")], [A("p", "X"), A("e", "X", "Y")], [A("t", "X")])])
    facts = [A("e", "a", "b"), A("z", "c"), A("e", "a", "b"), A("e", "b", "c")]
    g = ground(p, facts)
    assert g.inputs == 3
    assert list(g.ids) == [("e", ("a", "b")), ("z", ("c",)), ("e", ("b", "c")),
                       ("p", ("a",)), ("r", ("b",)), ("p", ("b",)), ("r", ("c",)),
                       ("s", ("b",)), ("t", ("a",)), ("s", ("c",)), ("t", ("b",))]
    assert list(g.ids.values()) == list(range(11))
    assert g.rules == (((3,), (0,), (4,)), ((5,), (2,), (6,)),
                       ((7,), (3, 0), (8,)), ((9,), (5, 2), (10,)))
    assert g.origins == (0, 0, 1, 1)
    assert g.program().rules[2] == rule([A("s", "b")], [A("p", "a"), A("e", "a", "b")],
                                        [A("t", "a")])


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
# The same predicates and constants spelled with quotes, a backslash, a
# newline, an index expression and Python keywords: symbols that would
# break or change a generated join function if one ever entered its source.
ODD = {"z": "if", "p": 'p"q', "q": "q'", "r": "r\\", "e": "e\nf", "s": "c[0]",
       "f": "class", "a": "c[0]", "b": '"b\\', "c": "lambda"}
SPELLINGS = ({}, ODD)


def random_program(rng, spelling=SPELLINGS[0]):
    """Up to 4 random safe rules over 3 constants, and up to 3 facts of the
    BASE predicates.  Heads are DERIVED atoms or absent (constraints);
    bodies mix every predicate, so the rules recurse, repeat a variable
    inside an atom (``e(X, X)``), use 0-ary atoms, constants in heads and
    bodies, ``!=`` and one negated atom of any predicate.  ``spelling``
    renames predicates and constants; it draws nothing from ``rng``."""
    def term(name):
        return Var(name) if name in ("X", "Y") else Const(spelling.get(name, name))

    def spelt(pred, names):
        return DAtom(spelling.get(pred, pred), tuple(map(term, names)))

    rules = []
    for _ in range(rng.randrange(1, 5)):
        terms = rng.choice([[], ["X"], ["X", "Y"]]) + [rng.choice(CONSTS)]

        def atom(pred):
            return spelt(pred, [rng.choice(terms) for _ in range(PREDS[pred])])
        head = [atom(rng.choice(list(DERIVED)))] if rng.random() < 0.85 else []
        body = [atom(rng.choice(list(PREDS))) for _ in range(rng.randrange(0, 3))]
        neg = [atom(rng.choice(list(PREDS)))] if rng.random() < 0.5 else []
        neq = [(Var("X"), term(rng.choice(terms)))] \
            if "X" in terms and rng.random() < 0.3 else []
        candidate = rule(head, body, neg, neq)
        try:
            DProgram.of(rules + [candidate])
        except OmqError:
            continue  # unsafe
        rules.append(candidate)
    facts = [spelt(pred, rng.choices(CONSTS, k=BASE[pred]))
             for pred in rng.choices(list(BASE), k=rng.randrange(0, 4))]
    return DProgram.of(rules), facts


def test_relevance_equals_full_grounding_on_random_programs():
    """Same stable models as the textbook grounding, on random micro
    programs over at most 3 constants and 4 rules, in both spellings."""
    for spelling in SPELLINGS:
        rng = random.Random(20240809)
        for trial in range(60):
            p, facts = random_program(rng, spelling)
            fact_rules = [rule([f]) for f in set(facts)]
            g_rel = DProgram.of(list(ground(p, facts).program().rules) + fact_rules)
            g_full = DProgram.of(list(ground_full(p, facts).rules) + fact_rules)
            assert set(stable_models_bruteforce(g_rel)) == \
                set(stable_models_bruteforce(g_full)), f"trial {trial}"


def test_layer_equals_closure_of_the_reduct_on_random_programs():
    """The semi-naive layer evaluator gives the closure of the grounding's
    reduct over the base and the same constraint verdict; a program that
    negates a predicate it derives is refused; in both spellings."""
    for spelling in SPELLINGS:
        rng = random.Random(5)
        refused = evaluated = 0
        for trial in range(400):
            p, facts = random_program(rng, spelling)
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
                model = closure([(r.head[0], r.body_pos) for r in red.rules if r.head],
                                base)
                ok = not any(all(b in model for b in r.body_pos)
                             for r in red.rules if not r.head)
                assert set(map(atom_of, got)) == \
                    {a for a in model if a.pred in p.arities}, f"trial {trial}"
                assert got_ok == ok, f"trial {trial}"
            evaluated += 1
        assert refused > 20 and evaluated > 200


def test_bodies_past_the_loop_nesting_python_allows():
    """A rule and a constraint over 24 chained atoms, more nested loops than
    one Python function may hold: the rule relates the ends of each path of
    24 edges, and the constraint fails exactly when there is one."""
    n = 24
    path = [A("e", f"X{i}", f"X{i + 1}") for i in range(n)]
    p = DProgram.of([rule([A("q", "X0", f"X{n}")], path), rule([], path)])
    for length in (30, 10):
        edges = [A("e", f"a{i}", f"a{i + 1}") for i in range(length)]
        ends = {A("q", f"a{i}", f"a{i + n}") for i in range(length - n + 1)}
        grounding = ground(p, edges).program()
        assert {h for r in grounding.rules for h in r.head} == ends
        assert sum(not r.head for r in grounding.rules) == len(ends)
        got, ok = Layer(p).model(map(fact_of, edges), ["q"])
        assert (set(map(atom_of, got)), ok) == (ends, not ends)


@pytest.mark.parametrize("edges, paths", [
    ([(i, i + 1) for i in range(40)], 41 * 40 // 2),
    ([(i, (i + 1) % 20) for i in range(20)], 20 * 20),
], ids=["chain-40", "cycle-20"])
def test_delta_joins_see_the_rows_added_after_an_index_was_built(edges, paths):
    """The first round builds both indexes of ``path``, while it is empty:
    on position 0 for ``path(X, Y), path(Y, Z)`` and on position 1 for
    ``edge(Y, W), path(X, Y)``.  Every later round probes them with the
    previous round's new rows, so they must hold the rows added since.  The
    layer equals the closure of the ground reduct."""
    p = DProgram.of([
        rule([A("path", "X", "Y")], [A("edge", "X", "Y")]),
        rule([A("path", "X", "Z")], [A("path", "X", "Y"), A("path", "Y", "Z")]),
        rule([A("entered", "Y")], [A("edge", "Y", "W"), A("path", "X", "Y")]),
    ])
    base = frozenset(A("edge", f"a{x}", f"a{y}") for (x, y) in edges)
    got, _ = Layer(p).model(map(fact_of, base), ["path", "entered"])
    red = gl_reduct(ground(p, base).program(), base)
    model = closure([(r.head[0], r.body_pos) for r in red.rules], base)
    assert set(map(atom_of, got)) == model - base
    assert sum(pred == "path" for (pred, _) in got) == paths


def test_relation_rows_are_deduplicated_in_first_occurrence_order():
    """A repeated row is kept once, where it first occurs, and a generator
    is read once, into both the rows and the member set."""
    rows = [("b",), ("a",), ("b",), ("c",), ("a",)]
    for given in (rows, (row for row in rows)):
        rel = _Relation(given)
        assert rel.rows == [("b",), ("a",), ("c",)]
        assert rel.members == {("a",), ("b",), ("c",)}
        assert not rel.add(("a",)) and rel.add(("d",))
        assert list(rel.index((0,))) == ["b", "a", "c", "d"]


def test_one_answer_call_indexes_a_fraction_of_the_marking_rows(monkeypatch):
    """A row enters an index only when a join asks for that index after the
    row arrived, not on every insert.  On the k=7 chain with ``A1`` closed,
    one ``certain_answers`` call keeps fewer than 3,000 rows in all its
    relation indexes together (2,558; 26,134 when each insert updated every
    index), of about 8,900 rows in its relations."""
    made = []

    class Recorded(_Relation):
        __slots__ = ()

        def __init__(self, rows=()):
            super().__init__(rows)
            made.append(self)
    monkeypatch.setattr(datalog, "_Relation", Recorded)
    chain = "; ".join(f"A{i} <= exists r . A{i + 1}" for i in range(1, 7))
    kb = omq.parse_kb(f"tbox {{ {chain}; }} abox {{ A1(a); A3(b); }} closed {{ A1; }}")
    out = omq.rewrite(omq.build_omq(kb, omq.parse_query("q(x) :- A1(x).")))
    assert omq.certain_answers(out, kb.abox).answers == {("a",)}
    indexed = sum(len(bucket) for rel in made for entry in rel.indexes.values()
                  for bucket in entry[1].values())
    assert sum(len(rel.rows) for rel in made) > 8_000
    assert indexed <= 3_000


def test_layer_refuses_disjunctive_heads():
    with pytest.raises(OmqError, match="disjunctive"):
        Layer(DProgram.of([rule([A("p", "X"), A("q", "X")], [A("s", "X")])]))


def random_layer(rng):
    """Up to 8 random safe definite rules and constraints over the DERIVED
    predicates that negate only BASE ones, with three variables, so that
    most heads are distinct variables, few rules read their own head and
    the rules share variable names; a random ``keep``; and up to 12 BASE
    facts over 3 constants."""
    rules = []
    for _ in range(rng.randrange(2, 9)):
        pred = rng.choice(list(DERIVED))
        others = [q for q in PREDS if q != pred or rng.random() < 0.2]
        body = [A(q, *rng.choices(["X", "Y", "Z", "a"], k=PREDS[q]))
                for q in rng.choices(others, [1 if q in DERIVED else 2 for q in others],
                                     k=rng.randrange(1, 4))]
        bound = sorted({t.name for a in body for t in a.args if isinstance(t, Var)})
        terms = bound + ["b"]
        if len(bound) >= DERIVED[pred] and rng.random() < 0.7:
            head = [A(pred, *rng.sample(bound, DERIVED[pred]))]
        else:
            head = [A(pred, *rng.choices(terms, k=DERIVED[pred]))] if rng.random() < 0.8 else []
        neg = [A(q, *rng.choices(terms, k=BASE[q])) for q in BASE if rng.random() < 0.2]
        neq = [(Var(bound[0]), T(rng.choice(terms)))] if bound and rng.random() < 0.2 else []
        rules.append(rule(head, body, neg, neq))
    keep = [pred for pred in DERIVED if rng.random() < 0.4]
    facts = [A(pred, *rng.choices(CONSTS, k=BASE[pred]))
             for pred in rng.choices(list(BASE), k=rng.randrange(0, 13))]
    return DProgram.of(rules), keep, facts


def test_unfolding_keeps_the_layer_model_on_random_programs():
    """An unfolded layer derives the original's facts of every predicate
    that was not unfolded, the ``keep`` ones among them, gives the same
    constraint verdict, and reads the same predicates below it."""
    rng = random.Random(3)
    unfolded = derived = 0
    for trial in range(600):
        p, keep, facts = random_layer(rng)
        q = datalog.unfold(p, keep)
        stay = [pred for pred in DERIVED if pred in q.arities]
        assert set(keep) & set(p.arities) <= set(stay), f"trial {trial}"
        base = list(map(fact_of, facts))
        got = Layer(q).model(base, stay)
        assert got == Layer(p).model(base, stay), f"trial {trial}"
        assert Layer(q).reads == Layer(p).reads, f"trial {trial}"
        if q.rules != p.rules:
            unfolded += 1
            derived += bool(got[0])
    assert unfolded > 250 and derived > 100


def test_unfolding_renames_a_definitions_own_variables_apart():
    """``p``'s body-only ``Y`` is renamed apart from the readers' ``Y``, and
    from their ``Y_1`` too: ``q(a, c)`` holds although no ``e`` edge ends
    in ``c``."""
    p = DProgram.of([
        rule([A("p", "X")], [A("e", "X", "Y")]),
        rule([A("q", "X", "Y")], [A("p", "X"), A("f", "Y")]),
        rule([A("r", "X", "Y", "Y_1")], [A("p", "X"), A("f", "Y"), A("f", "Y_1")]),
    ])
    q = datalog.unfold(p, ["q", "r"])
    assert {r.head[0].pred for r in q.rules} == {"q", "r"}
    base = [("e", ("a", "b")), ("f", ("c",))]
    expected = {("q", ("a", "c")), ("r", ("a", "c", "c"))}
    assert Layer(q).model(base, ["q", "r"]) == Layer(p).model(base, ["q", "r"]) == \
        (frozenset(expected), True)


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


def test_gl_reduct_refuses_a_non_ground_program():
    with pytest.raises(OmqError, match="expected a ground program"):
        gl_reduct(DProgram.of([rule([A("p", "X")], [A("q", "X")])]), [])


def test_a_predicate_has_one_arity():
    with pytest.raises(OmqError, match="predicate p used with arities 1 and 2"):
        DProgram.of([rule([A("p", "a")]), rule([A("p", "a", "b")])])


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


def test_is_stable_model_refuses_a_minimality_search_past_its_budget(monkeypatch):
    """``a | b. b | c.`` over {a, b, c} keeps two heads per rule, so only a
    search of proper subsets can decide it; with a budget of one atom that
    search is refused."""
    p = DProgram.of([rule([A("a"), A("b")]), rule([A("b"), A("c")])])
    assert not is_stable_model(p, [A("a"), A("b"), A("c")])
    monkeypatch.setattr(datalog, "MAX_MINIMALITY_ATOMS", 1)
    with pytest.raises(ResourceRefused):
        is_stable_model(p, [A("a"), A("b"), A("c")])


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
