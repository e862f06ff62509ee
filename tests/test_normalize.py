"""Normalizer tests.

The semantic checks use an independent brute-force oracle written here:
direct evaluation of arbitrary concept expressions over enumerated
finite interpretations, nothing shared with the normalizer itself.
"""

import random
from itertools import product

import omq
from omq import (ConceptIncl, Exists, Forall, Name, Nominal, Not, RoleExpr,
                 normalize)
from omq.normalize import ClauseAxiom, ExistsAxiom, ForallAxiom
from omq.syntax import And, Bot, Or, RoleIncl, Top, tbox_names
from references import is_normal


# --- independent interpretation oracle -------------------------------------


def concept_ext(c, dom, cext, rext):
    if isinstance(c, Name):
        return cext.get(c.name, frozenset())
    if isinstance(c, Top):
        return frozenset(dom)
    if isinstance(c, Bot):
        return frozenset()
    if isinstance(c, Nominal):
        return frozenset({c.individual})
    if isinstance(c, Not):
        return frozenset(dom) - concept_ext(c.operand, dom, cext, rext)
    if isinstance(c, And):
        return concept_ext(c.left, dom, cext, rext) & concept_ext(c.right, dom, cext, rext)
    if isinstance(c, Or):
        return concept_ext(c.left, dom, cext, rext) | concept_ext(c.right, dom, cext, rext)
    pairs = rext.get(c.role.name, frozenset())
    if c.role.inverted:
        pairs = frozenset((y, x) for (x, y) in pairs)
    filler = concept_ext(c.filler, dom, cext, rext)
    if isinstance(c, Exists):
        return frozenset(d for d in dom if any(x == d and y in filler for (x, y) in pairs))
    return frozenset(d for d in dom
                     if all(y in filler for (x, y) in pairs if x == d))


def models_axioms(axioms, dom, cext, rext):
    for ax in axioms:
        if isinstance(ax, RoleIncl):
            lhs = rext.get(ax.lhs.name, frozenset())
            rhs = rext.get(ax.rhs.name, frozenset())
            if ax.lhs.inverted:
                lhs = frozenset((y, x) for (x, y) in lhs)
            if ax.rhs.inverted:
                rhs = frozenset((y, x) for (x, y) in rhs)
            if not lhs <= rhs:
                return False
        elif not concept_ext(ax.lhs, dom, cext, rext) <= \
                concept_ext(ax.rhs, dom, cext, rext):
            return False
    return True


def interpretations(dom, concepts, roles):
    subsets = list(map(frozenset, _powerset(dom)))
    pair_subsets = list(map(frozenset, _powerset([(x, y) for x in dom for y in dom])))
    for cvals in product(subsets, repeat=len(concepts)):
        for rvals in product(pair_subsets, repeat=len(roles)):
            yield dict(zip(concepts, cvals)), dict(zip(roles, rvals))


def _powerset(items):
    items = list(items)
    for mask in range(1 << len(items)):
        yield [items[j] for j in range(len(items)) if mask >> j & 1]


def canonical_extension(ntbox, dom, cext, rext):
    """Interpret every fresh name by its originating concept."""
    out = dict(cext)
    for fresh, origin in ntbox.fresh_names.items():
        out[fresh] = concept_ext(origin, dom, out, rext)
    return out


def assert_preserves_models(tbox, dom):
    ntbox = normalize(tbox)
    concepts, roles, _ = tbox_names(tbox)
    concepts, roles = sorted(concepts), sorted(roles)
    fresh = sorted(ntbox.fresh_names)
    naxioms = ntbox.as_axioms()
    seen_model = False
    for cext, rext in interpretations(dom, concepts, roles):
        orig = models_axioms(tbox, dom, cext, rext)
        if orig:
            seen_model = True
            ext = canonical_extension(ntbox, dom, cext, rext)
            assert models_axioms(naxioms, dom, ext, rext), \
                f"canonical extension fails for {cext}, {rext}"
    # every model of the normalized TBox restricts to a model of the input
    for cext, rext in interpretations(dom, concepts + fresh, roles):
        if models_axioms(naxioms, dom, cext, rext):
            assert models_axioms(tbox, dom, cext, rext), \
                f"normalized model is not an input model: {cext}, {rext}"
    assert seen_model, "fixture should have at least one model"


# --- structural expectations ------------------------------------------------


def test_universal_negated_filler():
    tbox = [ConceptIncl(Name("BScStud"),
                        Forall(RoleExpr("attends"), Not(Name("GradCourse"))))]
    ntbox = normalize(tbox)
    assert len(ntbox.axioms) == 2
    forall = [ax for ax in ntbox.axioms if isinstance(ax, ForallAxiom)]
    clauses = [ax for ax in ntbox.axioms if isinstance(ax, ClauseAxiom)]
    assert forall == [ForallAxiom(Name("BScStud"), RoleExpr("attends"), Name("_X1"))]
    assert clauses == [ClauseAxiom(frozenset({Name("_X1"), Name("GradCourse")}),
                                   frozenset())]


def test_already_normal_unchanged():
    tbox = [ConceptIncl(Name("A1"), Exists(RoleExpr("r1"), Name("A2")))]
    ntbox = normalize(tbox)
    assert ntbox.axioms == (ExistsAxiom(Name("A1"), RoleExpr("r1"), Name("A2")),)
    assert not ntbox.fresh_names


def test_exists_conjunction_filler():
    tbox = [ConceptIncl(Name("C"), Exists(RoleExpr("r"), And(Name("A"), Name("B"))))]
    ntbox = normalize(tbox)
    assert set(ntbox.axioms) == {
        ExistsAxiom(Name("C"), RoleExpr("r"), Name("_X1")),
        ClauseAxiom(frozenset({Name("_X1")}), frozenset({Name("A")})),
        ClauseAxiom(frozenset({Name("_X1")}), frozenset({Name("B")})),
    }


def test_nominal_filler_stays_inline(example1):
    _, o = example1
    assert not o.tbox.fresh_names
    assert ExistsAxiom(Name("A3"), RoleExpr("r2"), Nominal("c")) in o.tbox.axioms


def test_outputs_pass_syntactic_checker(example1):
    kb, _ = example1
    cases = [
        kb.tbox,
        [ConceptIncl(Forall(RoleExpr("r"), Name("A")), Name("B"))],
        [ConceptIncl(Not(And(Name("A"), Name("B"))), Exists(RoleExpr("r"), Top()))],
        [ConceptIncl(Top(), Or(Name("A"), Forall(RoleExpr("r"), Bot())))],
    ]
    for tbox in cases:
        for ax in normalize(list(tbox)).as_axioms():
            assert is_normal(ax), str(ax)


def test_semantic_preservation_small_domains():
    r, s = RoleExpr("r"), RoleExpr("s")
    cases = [
        [ConceptIncl(Name("P"), Forall(r, Not(Name("G"))))],
        [ConceptIncl(Name("C"), Exists(r, And(Name("A"), Name("B"))))],
        [ConceptIncl(Exists(r, Name("A")), Name("B"))],
        [ConceptIncl(Forall(r, Name("A")), Name("B"))],
        [ConceptIncl(Not(Name("A")), Name("B"))],
        [ConceptIncl(Or(Name("A"), Name("B")), Name("C"))],
        [ConceptIncl(Name("A"), And(Name("B"), Name("C")))],
        [ConceptIncl(Name("A"), Exists(r, Top())),
         ConceptIncl(Name("B"), Forall(r, Bot()))],
        [ConceptIncl(Name("A"), Not(Nominal("e1")))],
        [ConceptIncl(And(Name("A"), Not(Name("B"))), Exists(r, Not(Name("C"))))],
    ]
    for tbox in cases:
        assert_preserves_models(tbox, ["e1", "e2"])


def test_semantic_preservation_two_roles():
    r, s = RoleExpr("r"), RoleExpr("s")
    tbox = [ConceptIncl(Name("A"), Forall(r, Or(Name("B"), Exists(s, Name("C")))))]
    assert_preserves_models(tbox, ["e1", "e2"])


def test_idempotent(example1):
    kb, o = example1
    again = normalize(o.tbox.as_axioms())
    assert not again.fresh_names
    assert set(again.axioms) == set(o.tbox.axioms)
    tbox = [ConceptIncl(Name("C"), Exists(RoleExpr("r"), And(Name("A"), Name("B"))))]
    once = normalize(tbox)
    twice = normalize(once.as_axioms())
    assert not twice.fresh_names
    assert set(twice.axioms) == set(once.axioms)


def test_fresh_counter_respects_existing_names():
    once = normalize([ConceptIncl(Name("C"), Exists(RoleExpr("r"),
                                                    And(Name("A"), Name("B"))))])
    extended = once.as_axioms() + [
        ConceptIncl(Name("D"), Exists(RoleExpr("r"), And(Name("A"), Name("C"))))]
    again = normalize(extended)
    assert set(again.fresh_names) == {"_X2"}


def test_vacuous_axioms_keep_names_in_universe():
    ntbox = normalize([ConceptIncl(Name("A"), Top())])
    assert ntbox.axioms == ()
    assert "A" in ntbox.concept_names
    assert Name("A") in ntbox.basis


def test_inconsistent_tbox_kept():
    ntbox = normalize([ConceptIncl(Top(), Bot())])
    assert ntbox.clauses == (ClauseAxiom(frozenset(), frozenset()),)


def _random_concept(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice([Name("A"), Name("B"), Nominal("o"), Top(), Bot()])
    kind = rng.choice(["not", "and", "or", "exists", "forall"])
    if kind == "not":
        return Not(_random_concept(rng, depth - 1))
    if kind in ("and", "or"):
        node = And if kind == "and" else Or
        return node(_random_concept(rng, depth - 1), _random_concept(rng, depth - 1))
    node = Exists if kind == "exists" else Forall
    return node(RoleExpr("r", rng.random() < 0.5), _random_concept(rng, depth - 1))


def test_normal_form_names_only_concept_names_and_nominals():
    """The output contract the rewriter, the type space and the oracles
    rely on: on random TBoxes over names, a nominal, top, bot and every
    connective, each clause member, quantifier left side and filler that
    ``normalize`` emits is a concept name or a nominal."""
    rng = random.Random(22)
    basic = (Name, Nominal)
    for trial in range(300):
        tbox = [ConceptIncl(_random_concept(rng, 3), _random_concept(rng, 3))
                for _ in range(rng.randint(1, 3))]
        ntbox = normalize(tbox)
        for ax in ntbox.clauses:
            assert all(isinstance(b, basic) for b in ax.lhs | ax.rhs), (trial, str(ax))
        for ax in ntbox.existentials + ntbox.universals:
            assert isinstance(ax.lhs, basic) and isinstance(ax.filler, basic), (trial, str(ax))
