"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line with its headline numbers; pytest
failure output serves as the FAIL line.  Tolerances are exact unless a
criterion states a runtime budget, which is asserted in wall-clock time.
"""

import random
import time
from collections import Counter
from itertools import product

import pytest

import omq
from omq import (ConceptAssert, ConceptIncl, DAtom, DProgram, DRule,
                 Exists, Forall, KnowledgeBase, Name, NormalKB, RoleAssert,
                 RoleExpr, RoleIncl, TypeContext, bounded_model_search,
                 build_omq, certain_answers, core_enumeration_decide,
                 core_of_model, enumerate_guess_models, mark, parse_kb,
                 parse_query, rewrite, rewrite_positive, validate_core)
from omq.syntax import And, Bot, Or, Top
from references import models_kb, stable_models_bruteforce


def test_criterion_1_running_example_non_entailment(example1):
    start = time.time()
    kb, o = example1
    out = rewrite(o)
    report = certain_answers(out, kb.abox)
    assert ("a", "a") not in report.answers

    nkb = NormalKB(o.tbox, o.sigma, kb.abox)
    inds = omq.individuals_of(o, kb.abox)
    for tup in product(inds, repeat=2):
        engine_says = tup in report.answers
        assert core_enumeration_decide(o, kb.abox, tup) == engine_says
    counter = bounded_model_search(nkb, RoleAssert("r1", "a", "a"), 6)
    assert counter is not None
    assert models_kb(counter, nkb)
    assert ("a", "a") not in counter.role_ext["r1"]
    elapsed = time.time() - start
    assert elapsed < 60
    print(f"\nPASS criterion 1: (a,a) not entailed by all three routes "
          f"({elapsed:.1f}s)")


def test_criterion_2_marking_fixture(example1_ctx, core1):
    ctx = example1_ctx
    assert ctx.k == 5 and 1 << ctx.k == 32
    result = mark(ctx, core1)
    unmarked = {frozenset(ctx.names_of(t)) for t in result.unmarked}
    assert unmarked == {
        frozenset(), frozenset({"A3"}), frozenset({"A2", "A3"}),
        frozenset({"A1", "A4"}), frozenset({"A1", "A3"}), frozenset({"{c}"})}
    assert len(result.marked) == 26
    print("\nPASS criterion 2: exactly 6 unmarked / 26 marked over 32 types")


def test_criterion_3_intro_non_monotonicity(intro):
    kb, o = intro
    out = rewrite(o)
    closed = certain_answers(out, kb.abox)
    assert closed.answers == frozenset({("a", "c1")})

    open_kb = KnowledgeBase.of(kb.tbox, (), kb.abox)
    o_open = build_omq(open_kb, o.query)
    assert certain_answers(rewrite(o_open), open_kb.abox).answers == frozenset()

    extended = kb.abox + (ConceptAssert("Course", "c3"),)
    assert certain_answers(out, extended).answers == frozenset()
    print("\nPASS criterion 3: {(a,c1)} closed, {} open, {} after Course(c3)")


# --- criterion 4: randomized three-way agreement -----------------------------


def _random_instance(rng: random.Random):
    concepts = ["A", "B", "C"][: rng.randint(1, 3)]
    inds = ["a", "b"][: rng.randint(1, 2)]
    axioms = []
    for _ in range(rng.randint(1, 4)):
        kind = rng.choice(["clause", "clause", "exists", "forall", "role"])
        if kind == "clause":
            lhs = rng.sample(concepts, rng.randint(0, min(2, len(concepts))))
            rhs = rng.sample(concepts, rng.randint(0, min(2, len(concepts))))
            lhs_c = And(Name(lhs[0]), Name(lhs[1])) if len(lhs) == 2 else \
                (Name(lhs[0]) if lhs else Top())
            rhs_c = Or(Name(rhs[0]), Name(rhs[1])) if len(rhs) == 2 else \
                (Name(rhs[0]) if rhs else Bot())
            axioms.append(ConceptIncl(lhs_c, rhs_c))
        elif kind == "exists":
            axioms.append(ConceptIncl(Name(rng.choice(concepts)),
                                      Exists(RoleExpr("r"), Name(rng.choice(concepts)))))
        elif kind == "forall":
            axioms.append(ConceptIncl(Name(rng.choice(concepts)),
                                      Forall(RoleExpr("r", rng.random() < 0.3),
                                             Name(rng.choice(concepts)))))
        else:
            axioms.append(RoleIncl(RoleExpr("r", rng.random() < 0.5), RoleExpr("r")))
    abox = [ConceptAssert(rng.choice(concepts), inds[0])]
    for i in inds:
        for c in concepts:
            if rng.random() < 0.35:
                abox.append(ConceptAssert(c, i))
    for (x, y) in product(inds, repeat=2):
        if rng.random() < 0.25:
            abox.append(RoleAssert("r", x, y))
    if rng.random() < 0.5:
        query = parse_query(f"q(x) :- {rng.choice(concepts)}(x).")
    else:
        query = parse_query("q(x, y) :- r(x, y).")
    from omq.syntax import tbox_names
    from omq.parser import ConceptAtom
    occurring, _, _ = tbox_names(axioms)
    occurring |= {a.concept for a in abox if isinstance(a, ConceptAssert)}
    occurring |= {a.concept for a in query.atoms if isinstance(a, ConceptAtom)}
    sigma = [c for c in concepts if c in occurring and rng.random() < 0.4]
    kb = KnowledgeBase.of(axioms, sigma, abox)
    # the random ABox may mention concepts the random TBox does not
    return kb, build_omq(kb, query, allow_extra_abox_names=True)


def test_criterion_4_oracle_equivalence_suite():
    start = time.time()
    rng = random.Random(0xC0DE)
    instances = inconsistent_instances = 0
    verdicts = Counter()
    while instances < 200:
        kb, o = _random_instance(rng)
        instances += 1
        report = certain_answers(rewrite(o), kb.abox)
        inconsistent_instances += report.inconsistent
        if bounded_model_search(NormalKB(o.tbox, o.sigma, kb.abox), None, 5) is not None:
            assert not report.inconsistent, f"instance {instances}"
        verdicts.update(_tuple_verdicts(kb, o, report, f"instance {instances}"))
    elapsed = time.time() - start
    assert elapsed < 300
    assert sum(verdicts.values()) >= 300
    assert verdicts["certain"] and verdicts["refuted"]  # both verdicts exercised
    print(f"\nPASS criterion 4: 200 instances ({inconsistent_instances} inconsistent), "
          f"{sum(verdicts.values())} tuples: {verdicts['certain']} certain, "
          f"{verdicts['refuted']} refuted by countermodels, "
          f"{verdicts['abstained']} abstentions ({elapsed:.1f}s)")


def _tuple_verdicts(kb, o, report, label):
    """Check every candidate tuple of an instance against both oracles:
    core enumeration agrees with the engine, and a countermodel of at most
    five elements is a model of the KB and refutes only tuples the engine
    leaves out.  Counts the tuples certain, refuted and abstained on."""
    nkb = NormalKB(o.tbox, o.sigma, kb.abox)
    out = Counter()
    for tup in product(omq.individuals_of(o, kb.abox), repeat=o.arity):
        engine_says = tup in report.answers
        assert core_enumeration_decide(o, kb.abox, tup) == engine_says, \
            f"{label}, tuple {tup}"
        counter = bounded_model_search(nkb, _single_atom_goal(o, tup), 5)
        if counter is not None:
            assert models_kb(counter, nkb)
            assert not engine_says, f"{label}, tuple {tup}"
        out["refuted" if counter is not None else
            "certain" if engine_says else "abstained"] += 1
    return out


def _closed_role_instance(rng: random.Random):
    """A random instance over two roles that each may be closed: quantifiers
    and role inclusions over ``r``, ``s`` and their inverses, and an ABox
    with edges along both roles."""
    concepts = ["A", "B"][: rng.randint(1, 2)]
    roles = ["r", "s"]
    inds = ["a", "b"][: rng.randint(1, 2)]

    def role():
        return RoleExpr(rng.choice(roles), rng.random() < 0.4)

    axioms = []
    for _ in range(rng.randint(1, 4)):
        kind = rng.choice(["clause", "exists", "exists", "forall", "role"])
        if kind == "clause":
            lhs, rhs = rng.sample(concepts, 2) if len(concepts) > 1 else (concepts[0], None)
            axioms.append(ConceptIncl(Name(lhs), Name(rhs) if rhs else Bot()))
        elif kind == "exists":
            axioms.append(ConceptIncl(Name(rng.choice(concepts)),
                                      Exists(role(), Name(rng.choice(concepts)))))
        elif kind == "forall":
            axioms.append(ConceptIncl(Name(rng.choice(concepts)),
                                      Forall(role(), Name(rng.choice(concepts)))))
        else:
            axioms.append(RoleIncl(role(), role()))
    abox = [ConceptAssert(rng.choice(concepts), inds[0])]
    for i in inds:
        for c in concepts:
            if rng.random() < 0.35:
                abox.append(ConceptAssert(c, i))
    for p in roles:
        for (x, y) in product(inds, repeat=2):
            if rng.random() < 0.5:
                abox.append(RoleAssert(p, x, y))
    if rng.random() < 0.5:
        query = parse_query(f"q(x) :- {rng.choice(concepts)}(x).")
    else:
        query = parse_query(f"q(x, y) :- {rng.choice(roles)}(x, y).")
    from omq.syntax import tbox_names
    from omq.parser import ConceptAtom
    occurring, tbox_roles, _ = tbox_names(axioms)
    occurring |= {a.concept for a in abox if isinstance(a, ConceptAssert)}
    occurring |= {a.concept for a in query.atoms if isinstance(a, ConceptAtom)}
    sigma = [c for c in concepts if c in occurring and rng.random() < 0.4]
    sigma += [p for p in roles if p in tbox_roles and rng.random() < 0.6]
    kb = KnowledgeBase.of(axioms, sigma, abox)
    return kb, build_omq(kb, query, allow_extra_abox_names=True)


def test_closed_roles_agree_with_the_oracles():
    """Criterion 4's check on instances whose roles may be closed, so the
    oracles' closed-role paths run: the closed super-role check and the
    closed-role extension of the countermodel search, and the closed-role
    edges of core enumeration.  Seed 13 draws, as its seventh instance, an
    existential over an open role whose filler triggers one over a closed
    role; without the rewriting's ban on closed-role triggers at fringe
    elements, the engine drops a certain tuple there."""
    start = time.time()
    rng = random.Random(13)
    closed_role_instances = 0
    verdicts = Counter()
    for n in range(400):
        kb, o = _closed_role_instance(rng)
        closed_role_instances += bool(kb.sigma & {"r", "s"})
        report = certain_answers(rewrite(o), kb.abox)
        verdicts.update(_tuple_verdicts(kb, o, report, f"instance {n}"))
    assert closed_role_instances >= 200
    assert verdicts["certain"] and verdicts["refuted"]
    print(f"\nPASS closed roles: 400 instances ({closed_role_instances} with a closed "
          f"role), {sum(verdicts.values())} tuples: {dict(verdicts)} "
          f"({time.time() - start:.1f}s)")


def _single_atom_goal(o, tup):
    from omq.parser import ConceptAtom
    (atom,) = o.query.atoms
    binding = dict(zip(o.query.answer_vars, tup))
    if isinstance(atom, ConceptAtom):
        return ConceptAssert(atom.concept, binding[atom.var])
    return RoleAssert(atom.role, binding[atom.subject], binding[atom.object])


# --- criterion 5: stable-model kernel ----------------------------------------


def _reference_stable_models(rules, atoms):
    """Textbook implementation: full subset enumeration, literal GL-reduct,
    minimality by subset search.  Independent of the library routines."""
    out = []
    for mask in range(1 << len(atoms)):
        interp = frozenset(a for j, a in enumerate(atoms) if mask >> j & 1)
        reduct = [(head, pos) for (head, pos, neg) in rules
                  if not (neg & interp)]

        def is_model(candidate):
            return all(not pos <= candidate or (head & candidate)
                       for (head, pos) in reduct)

        if not is_model(interp):
            continue
        minimal = True
        for sub_mask in range(mask):
            if sub_mask & mask == sub_mask:
                sub = frozenset(a for j, a in enumerate(atoms) if sub_mask >> j & 1)
                if is_model(sub):
                    minimal = False
                    break
        if minimal:
            out.append(interp)
    return out


def test_criterion_5_stable_model_kernel():
    # textbook cases
    a, b = DAtom("a"), DAtom("b")
    even = DProgram.of([DRule((a,), body_neg=(b,)), DRule((b,), body_neg=(a,))])
    assert set(stable_models_bruteforce(even)) == {frozenset({a}), frozenset({b})}
    disj = DProgram.of([DRule((a, b))])
    assert set(stable_models_bruteforce(disj)) == {frozenset({a}), frozenset({b})}
    closure = DProgram.of([DRule((a, b)), DRule((a,), (b,))])
    assert stable_models_bruteforce(closure) == [frozenset({a})]
    constr = DProgram.of([DRule((), (a,)), DRule((a, b))])
    assert stable_models_bruteforce(constr) == [frozenset({b})]

    rng = random.Random(51)
    agreements = 0
    for trial in range(100):
        n = rng.randint(4, 8)
        atoms = [DAtom(f"p{j}") for j in range(n)]
        rules = []
        for _ in range(rng.randint(2, 7)):
            head = tuple(rng.sample(atoms, rng.randint(0, 2)))
            pos = tuple(rng.sample(atoms, rng.randint(0, 2)))
            neg = tuple(rng.sample(atoms, rng.randint(0, 1)))
            rules.append(DRule(head, pos, neg))
        p = DProgram.of(rules)
        expected = _reference_stable_models(
            [(frozenset(r.head), frozenset(r.body_pos), frozenset(r.body_neg))
             for r in rules], atoms)
        got = stable_models_bruteforce(p)
        assert set(got) == set(expected), f"trial {trial}"
        agreements += 1
    print(f"\nPASS criterion 5: textbook cases + {agreements} random programs agree")


def criterion_6_instances():
    """The 50 random KBs and OMQs of criterion 6: nothing closed, and about
    a third with an existential to the nominal ``n``."""
    rng = random.Random(66)
    for _ in range(50):
        kb, o = _random_instance(rng)
        if kb.sigma:
            kb = KnowledgeBase.of(kb.tbox, (), kb.abox)
            o = build_omq(kb, o.query, allow_extra_abox_names=True)
        if rng.random() < 0.3:
            tbox = kb.tbox + (ConceptIncl(Name("A"), Exists(RoleExpr("r"), omq.Nominal("n"))),)
            kb = KnowledgeBase.of(tbox, (), kb.abox)
            o = build_omq(kb, o.query, allow_extra_abox_names=True)
        yield kb, o


def test_criterion_6_positive_variant_properties():
    fixtures = 0
    for kb, o in criterion_6_instances():
        fixtures += 1
        pos = rewrite_positive(o)
        assert not pos.program.has_negation(), f"fixture {fixtures}"
        if not o.tbox.nominals:
            assert not any(r.body_neq for r in pos.program.rules), f"fixture {fixtures}"
        stable_answers = certain_answers(rewrite(o), kb.abox)
        positive_answers = certain_answers(pos, kb.abox)
        assert stable_answers.answers == positive_answers.answers, f"fixture {fixtures}"
        assert stable_answers.inconsistent == positive_answers.inconsistent
    print(f"\nPASS criterion 6: {fixtures} fixtures, positive == stable answers, "
          "no negation, no inequality without nominals")


def _family_member(k: int):
    concepts = [f"B{i:02d}" for i in range(k)]
    axioms = []
    for i in range(k - 2):
        axioms.append(ConceptIncl(Name(concepts[i]),
                                  Or(Name(concepts[i + 1]), Name(concepts[i + 2]))))
    for i in range(0, k - 1, 4):
        axioms.append(ConceptIncl(Name(concepts[i]),
                                  Exists(RoleExpr("r"), Name(concepts[i + 1]))))
    for i in range(2, k - 1, 4):
        axioms.append(ConceptIncl(Name(concepts[i]),
                                  Forall(RoleExpr("r"), Name(concepts[i + 1]))))
    axioms.append(RoleIncl(RoleExpr("r"), RoleExpr("s")))
    kb = KnowledgeBase.of(axioms, (), ())
    o = build_omq(kb, parse_query(f"q(x) :- {concepts[0]}(x)."))
    return o, len(axioms)


def test_criterion_7_polynomial_size():
    ratios = {}
    for k in (4, 8, 16, 32):
        o, n_axioms = _family_member(k)
        assert len(o.tbox.basis) == k
        out = rewrite(o)
        n_rules = len(out.program.rules)
        arities = {}
        for r in out.program.rules:
            for atom in r.head + r.body_pos + r.body_neg:
                arities[atom.pred] = len(atom.args)
        max_arity = max(arities.values())
        assert max_arity == 2 * k, f"k={k}: max arity {max_arity}"
        assert arities[f"markedone_e0"] == 2 * k
        assert arities[f"markeduntil_e0"] == 2 * k
        ratios[k] = n_rules / (n_axioms * k + n_axioms ** 2)
    # a single constant C bounds every member; the ratio must not grow
    # with k (otherwise the count would be superpolynomial in the bound)
    constant = max(ratios.values())
    assert constant <= 3.0, f"no single small constant: {ratios}"
    assert ratios[32] <= ratios[4], f"ratio grows with k: {ratios}"
    print(f"\nPASS criterion 7: rule counts fit C*(axioms*k + axioms^2) with "
          f"C={constant:.2f}; ratios {['%.2f' % ratios[k] for k in (4, 8, 16, 32)]}; "
          f"max arity exactly 2k")


REDUCED_KB = """
tbox { A1 <= exists r1 . A2;  A2 <= A3 or A4; }
abox { A1(a); A4(a); A1(b); A3(b); }
closed { A1; A4; }
"""


def _canonical_cores(cores):
    """The cores as a multiset of hashable values that do not depend on
    ``PYTHONHASHSEED``: elements as strings, empty extensions dropped."""
    return Counter(
        (core.individuals, frozenset(map(str, core.fringe)),
         frozenset((n, frozenset(map(str, ext))) for n, ext in core.concept_ext.items() if ext),
         frozenset((n, frozenset((str(d), str(e)) for d, e in ext))
                   for n, ext in core.role_ext.items() if ext))
        for core in cores)


def test_criterion_8_core_correspondence():
    kb = parse_kb(REDUCED_KB)
    o = build_omq(kb, parse_query("q(x) :- A1(x)."))
    ctx = TypeContext(o.tbox, o.sigma)

    cores = list(omq.iter_cores(o, kb.abox))
    n_cores = len(cores)
    out = rewrite(o)
    branches = enumerate_guess_models(out, kb.abox, with_marking=False)
    assert len(branches) == n_cores
    projected = [core_of_model(out, m) for m in branches]
    assert _canonical_cores(projected) == _canonical_cores(cores)

    mismatches = 0
    for core in projected:
        if not validate_core(core, ctx, kb.abox).ok:
            mismatches += 1
    assert mismatches == 0
    print(f"\nPASS criterion 8: {n_cores} cores == {len(branches)} guess-layer "
          f"branches, the same cores, 0 projection mismatches")


def test_core_enumeration_counts_the_guess_layer_branches():
    """Criterion 8's correspondence on random instances whose roles may be
    closed: core enumeration yields as many cores as the rewriting's guess
    layer has branches, the branches project onto exactly those cores, and
    every core it yields is valid, (c5) included: each existential an
    individual triggers has a witness."""
    start = time.time()
    rng = random.Random(3)
    total = 0
    for n in range(30):
        kb, o = _closed_role_instance(rng)
        rolled = omq.rollup(o)
        ctx = TypeContext(rolled.tbox, rolled.sigma)
        cores = list(omq.iter_cores(rolled, kb.abox))
        for core in cores:
            assert validate_core(core, ctx, kb.abox).ok, f"instance {n}"
        out = rewrite(o)
        branches = enumerate_guess_models(out, kb.abox, with_marking=False)
        assert len(cores) == len(branches), f"instance {n}"
        assert _canonical_cores(core_of_model(out, m) for m in branches) == \
            _canonical_cores(cores), f"instance {n}"
        total += len(cores)
    print(f"\nPASS core correspondence: 30 instances, {total} cores == guess-layer "
          f"branches, the same cores, all valid ({time.time() - start:.1f}s)")


def test_criterion_9_inconsistency_convention():
    kb = parse_kb("tbox { A <= bot; } abox { A(a); }")
    o = build_omq(kb, parse_query("q(x) :- B(x)."))
    report = certain_answers(rewrite(o), kb.abox)
    assert report.inconsistent
    assert report.answers == frozenset({("a",)})
    nkb = NormalKB(o.tbox, o.sigma, kb.abox)
    for bound in range(1, 5):
        assert bounded_model_search(nkb, None, bound) is None
    print("\nPASS criterion 9: INCONSISTENT with answers {a}; no model at bounds 1-4")
