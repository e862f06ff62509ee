"""Command-line frontend.

Subcommands: ``rewrite`` emits the compiled program, ``answer`` prints
certain answers, ``mark`` runs the type-elimination fixpoint on a core
given in ABox syntax, ``oracle`` cross-checks the engine against the two
oracles, and ``check`` validates inputs and reports the query class.
Exit status 0 on success, 1 on diagnostics, 2 on resource refusal.
"""

from __future__ import annotations

import argparse
import logging
import os
import re
import sys
from itertools import product
from typing import Sequence

from .datalog import emit_text, parse_ground_atoms
from .engine import certain_answers, ground_guess_layer, verify_model
from .normalize import normalize
from .oracle import NormalKB, bounded_model_search, core_enumeration_decide
from .parser import parse_kb, parse_query
from .query import (CAcyclic, CSafe, build_omq, c_variables, classify,
                    individuals_of, rollup)
from .rewrite import rewrite, rewrite_positive
from .syntax import (ConceptAssert, KnowledgeBase, OmqError, RoleAssert)
from .typespace import (Core, FringeId, ResourceRefused, TypeContext,
                        dump_types, mark, validate_core)

log = logging.getLogger("omq")

_FRINGE_RE = re.compile(r"(.+)__e(\d+)$")


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise OmqError(f"{path}: not UTF-8 text ({exc.reason} at byte "
                           f"{exc.start})") from None


def _load(args) -> tuple[KnowledgeBase, "OMQ"]:
    kb = parse_kb(_read(args.kb), args.kb)
    query = parse_query(_read(args.query), filename=args.query)
    omq_obj = build_omq(kb, query, allow_extra_abox_names=args.allow_extra_abox)
    return kb, omq_obj


def _rewrite_for(args, omq_obj):
    if args.positive:
        return rewrite_positive(omq_obj, db_constants=args.db_constants)
    return rewrite(omq_obj, db_constants=args.db_constants)


def cmd_rewrite(args) -> int:
    _, omq_obj = _load(args)
    out = _rewrite_for(args, omq_obj)
    text = emit_text(out.program)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_answer(args) -> int:
    kb, omq_obj = _load(args)
    out = _rewrite_for(args, omq_obj)
    if args.emit_ground:
        sys.stdout.write(emit_text(ground_guess_layer(out, kb.abox)))
        return 0
    if args.external_models:
        ok = True
        for n, line in enumerate(_read(args.external_models).splitlines(), start=1):
            if not line.strip():
                continue
            model = frozenset(parse_ground_atoms(line))
            verdict = verify_model(out, kb.abox, model)
            print(f"model {n}: {'stable' if verdict else 'not stable'}")
            ok = ok and verdict
        return 0 if ok else 1
    report = certain_answers(out, kb.abox, branch_limit=args.branch_limit)
    if report.inconsistent:
        print("INCONSISTENT")
    if not omq_obj.query.answer_vars:
        print("true" if () in report.answers else "false")
    else:
        for tup in sorted(report.answers):
            print(" ".join(tup))
    log.info("explored %d branches in %d nodes, learned %d clauses, ran %d layer fixpoints",
             report.models_explored, report.nodes, report.learned, report.fixpoints)
    return 0


def cmd_check(args) -> int:
    kb = parse_kb(_read(args.kb), args.kb)
    ntbox = normalize(kb.tbox)
    print(f"axioms: {len(kb.tbox)} (normalized: {len(ntbox.axioms)}), "
          f"assertions: {len(kb.abox)}, closed: {', '.join(sorted(kb.sigma)) or '-'}")
    print(f"basis size: {len(ntbox.basis)}")
    if not args.query:
        return 0
    query = parse_query(_read(args.query), filename=args.query)
    omq_obj = build_omq(kb, query, allow_extra_abox_names=args.allow_extra_abox)
    cls = classify(omq_obj)
    if isinstance(cls, CSafe):
        print("query class: c-safe")
    elif isinstance(cls, CAcyclic):
        print("query class: c-acyclic (will be folded)")
    else:
        print(f"query class: unsupported ({cls.reason})")
        return 1
    print("c-variables:", ", ".join(sorted(c_variables(omq_obj))) or "-")
    # The rewriting runs over the basis of the OMQ with the query folded in.
    k = len(rollup(omq_obj).tbox.basis)
    print(f"OMQ basis size: {k} (2^{k} = {2 ** k} types)")
    return 0


def _parse_core(path: str, kb: KnowledgeBase, ctx: TypeContext) -> Core:
    text = _read(path)
    if not text.lstrip().startswith("tbox"):
        text = "tbox { }\n" + text
    core_kb = parse_kb(text, path)

    def element(name: str):
        m = _FRINGE_RE.match(name)
        if m:
            return FringeId(m.group(1), int(m.group(2)))
        return name

    individuals = set(ctx.ntbox.nominals)
    for a in kb.abox + core_kb.abox:
        for name in ((a.individual,) if isinstance(a, ConceptAssert)
                     else (a.subject, a.object)):
            if not _FRINGE_RE.match(name):
                individuals.add(name)
    concept_ext: dict[str, set] = {}
    role_ext: dict[str, set] = {}
    for a in core_kb.abox:
        if isinstance(a, ConceptAssert):
            concept_ext.setdefault(a.concept, set()).add(element(a.individual))
        else:
            role_ext.setdefault(a.role, set()).add(
                (element(a.subject), element(a.object)))
    fringe = {e for ext in concept_ext.values() for e in ext
              if isinstance(e, FringeId)}
    for pairs in role_ext.values():
        for (x, y) in pairs:
            fringe.update(e for e in (x, y) if isinstance(e, FringeId))
    return Core(
        individuals=tuple(sorted(individuals)),
        fringe=frozenset(fringe),
        concept_ext={k: frozenset(v) for k, v in concept_ext.items()},
        role_ext={k: frozenset(v) for k, v in role_ext.items()},
    )


def cmd_mark(args) -> int:
    kb = parse_kb(_read(args.kb), args.kb)
    ntbox = normalize(kb.tbox)
    ctx = TypeContext(ntbox, kb.sigma)
    core = _parse_core(args.core, kb, ctx)
    report = validate_core(core, ctx, kb.abox)
    if not report.ok:
        for v in report.violations:
            print(f"invalid core: {v}", file=sys.stderr)
        return 1
    result = mark(ctx, core)
    sys.stdout.write(dump_types(result, ctx))
    return 0


def cmd_oracle(args) -> int:
    if args.bound < 0:
        raise OmqError(f"bound must be at least 0, got {args.bound}")
    kb, omq_obj = _load(args)
    safe = rollup(omq_obj)
    out = _rewrite_for(args, omq_obj)
    report = certain_answers(out, kb.abox, branch_limit=args.branch_limit)
    nkb = NormalKB(safe.tbox, safe.sigma, kb.abox)
    inds = individuals_of(omq_obj, kb.abox)
    arity = len(omq_obj.query.answer_vars)

    agree = True
    for tup in product(inds, repeat=arity):
        engine_says = tup in report.answers
        oracle_says = core_enumeration_decide(safe, kb.abox, tup)
        line = f"{' '.join(tup) or '()'}: engine={engine_says} core-enum={oracle_says}"
        counter = None
        if len(safe.query.atoms) == 1 and not safe.query.existential_vars():
            goal = _ground_goal(safe, tup)
            counter = bounded_model_search(nkb, goal, args.bound)
            line += f" bounded={'countermodel' if counter else 'abstain'}"
            if counter is not None and (engine_says or oracle_says):
                agree = False
        if engine_says != oracle_says:
            agree = False
        print(line)
        if counter is not None and args.dump_countermodel:
            _print_interp(counter)
    print("AGREE" if agree else "DISAGREE")
    return 0 if agree else 1


def _ground_goal(omq_obj, tup):
    from .parser import ConceptAtom
    (atom,) = omq_obj.query.atoms
    binding = dict(zip(omq_obj.query.answer_vars, tup))
    if isinstance(atom, ConceptAtom):
        return ConceptAssert(atom.concept, binding[atom.var])
    return RoleAssert(atom.role, binding[atom.subject], binding[atom.object])


def _print_interp(interp) -> None:
    anon = [e for e in interp.domain if e.startswith("_a")]
    print("  countermodel domain:", " ".join(interp.domain))
    if anon:
        print("  anonymous elements:", " ".join(anon))
    for name in sorted(interp.concept_ext):
        for e in sorted(interp.concept_ext[name]):
            print(f"  {name}({e});")
    for name in sorted(interp.role_ext):
        for (x, y) in sorted(interp.role_ext[name]):
            print(f"  {name}({x}, {y});")


def make_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="omq",
        description="Compile and answer ontology-mediated queries with "
                    "closed predicates via Datalog with stable negation.")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, query=True):
        p.add_argument("kb", help="knowledge base file")
        if query:
            p.add_argument("query", help="conjunctive query file")
        p.add_argument("--positive", action="store_true",
                       help="positive disjunctive rewriting (requires empty closed set)")
        p.add_argument("--db-constants", action="store_true",
                       help="take the two bit constants from the data instead of 0/1")
        p.add_argument("--allow-extra-abox", action="store_true",
                       help="treat ABox names unknown to the TBox as vacuously declared")
        p.add_argument("--branch-limit", type=int, default=500_000,
                       help="search-node budget before giving up as undecided")

    p = sub.add_parser("rewrite", help="emit the compiled Datalog program")
    common(p)
    p.add_argument("-o", "--output", help="write the program here instead of stdout")
    p.set_defaults(func=cmd_rewrite)

    p = sub.add_parser("answer", help="print certain answers")
    common(p)
    p.add_argument("--emit-ground", action="store_true",
                   help="dump the grounding of the guess layer and exit")
    p.add_argument("--external-models", metavar="FILE",
                   help="verify externally produced answer sets (one per line)")
    p.set_defaults(func=cmd_answer)

    p = sub.add_parser("mark", help="run type elimination for a core given in ABox syntax")
    p.add_argument("kb")
    p.add_argument("core", help="core file: ABox assertions, fringe elements "
                               "written as parent__e<i>")
    p.set_defaults(func=cmd_mark)

    p = sub.add_parser("oracle", help="cross-check engine, core enumeration and bounded search")
    common(p)
    p.add_argument("--bound", type=int, default=5,
                   help="domain-size bound for the countermodel search")
    p.add_argument("--dump-countermodel", action="store_true")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("check", help="validate the inputs and report the query class")
    p.add_argument("kb")
    p.add_argument("query", nargs="?")
    p.add_argument("--allow-extra-abox", action="store_true")
    p.set_defaults(func=cmd_check)
    return top


def main(argv: Sequence[str] | None = None) -> int:
    level = os.environ.get("OMQ_LOG", "WARNING").upper()
    if not isinstance(logging.getLevelName(level), int):
        print(f"error: OMQ_LOG: unknown log level {level!r}", file=sys.stderr)
        return 1
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except ResourceRefused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("refused: input nested too deeply for the Python stack", file=sys.stderr)
        return 2
    except MemoryError:
        print("refused: out of memory; result undecided", file=sys.stderr)
        return 2
    except (OmqError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
