#!/usr/bin/env python3
"""Benchmark for the omq compiler and engine.

Run from the root of a checkout:

    python3 perfbench/run.py --workload search --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --quick          # every workload's checks, smallest sizes

A run imports ``omq`` from ``src/``, generates the workload's inputs from the
seed, and then makes whole passes over the workload's operations until
``--seconds`` have gone by.  Every operation's output is checked against
answers computed in ``workloads.py`` apart from the engine, and the smallest
member of the workload is checked once more against core enumeration.  The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones (see
README.md).  The full record of the run goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import re
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

from spans import Tracer, install
from workloads import WORKLOADS, Case, Workload, all_tuples, make_workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 11
SETUP_TIMEOUT_S = 60
# Rule-count bound for the compile workload: rules <= C * (m*k + m*m) for m
# input axioms and basis size k.  The rewriting emits O(k) rules per axiom
# (marking) plus pairwise axiom interactions; C is fixed well above the
# ratio measured at k = 8..64 so that only a change in growth trips it.
RULES_C = 4


def import_omq():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import omq
    except ImportError as e:
        sys.exit(f"perfbench: cannot import omq from {ROOT / 'src'}: {e}")
    return omq


def _untraced(name):
    return contextlib.nullcontext()


@dataclass
class Compiled:
    case: Case
    kb: object
    omq: object
    out: object
    text: str


def compile_case(omq, case: Case, tracer: Tracer | None = None) -> Compiled:
    """parse_kb -> parse_query -> build_omq -> rewrite -> emit_text."""
    span = tracer.span if tracer else _untraced
    with span("parser"):
        kb = omq.parse_kb(case.kb)
        query = omq.parse_query(case.query)
    with span("query"):
        o = omq.build_omq(kb, query)
    with span("rewrite"):
        out = (omq.rewrite_positive if case.positive else omq.rewrite)(o)
    with span("emit"):
        text = omq.emit_text(out.program)
    return Compiled(case, kb, o, out, text)


@dataclass(frozen=True)
class Programs:
    """What a set of compiled OMQs emitted, without keeping the programs."""
    rules: int
    max_arity: int
    bytes: int
    digest: str

    @staticmethod
    def of(compiled: list[Compiled]) -> "Programs":
        h = hashlib.sha256()
        for c in compiled:
            h.update(c.text.encode())
        return Programs(sum(len(c.out.program.rules) for c in compiled),
                        max((max(c.out.program.arities.values()) for c in compiled),
                            default=0),
                        sum(len(c.text.encode()) for c in compiled), h.hexdigest())


def answer(omq, c: Compiled, tracer: Tracer | None = None):
    span = tracer.span if tracer else _untraced
    with span("engine"):
        return omq.certain_answers(c.out, c.kb.abox)


# ---------------------------------------------------------------------------
# Checks against the independent computations


def check_answers(case: Case, report) -> list[str]:
    problems = []
    if report.inconsistent != case.inconsistent:
        problems.append(f"{case.name}: inconsistent={report.inconsistent}, "
                        f"expected {case.inconsistent}")
    if report.answers != case.expected:
        missing = sorted(case.expected - report.answers)[:3]
        extra = sorted(report.answers - case.expected)[:3]
        problems.append(f"{case.name}: answers differ, missing {missing}, extra {extra}")
    return problems


def check_compiled(c: Compiled) -> list[str]:
    """Properties the rewriting must have, whatever the wiring: arity 2k,
    no negation in positive mode and no inequality there without nominals,
    and (compile workload) a rule count polynomial in axioms and basis size."""
    case, problems = c.case, []
    k = c.out.ctx.k
    if case.k and k != case.k:
        problems.append(f"{case.name}: basis size {k}, generator aimed at {case.k}")
    arity = max(c.out.program.arities.values())
    if arity != 2 * k:
        problems.append(f"{case.name}: maximum arity {arity}, expected 2k = {2 * k}")
    if case.positive:
        if re.search(r"\bnot ", c.text):
            problems.append(f"{case.name}: negation in positive mode")
        if not case.nominals and "!=" in c.text:
            problems.append(f"{case.name}: inequality in positive mode without nominals")
    m, rules = case.axioms, len(c.out.program.rules)
    if m and rules > RULES_C * (m * k + m * m):
        problems.append(f"{case.name}: {rules} rules exceed {RULES_C}*(m*k + m^2) "
                        f"for m={m}, k={k}")
    return problems


def check_smallest(omq, wl: Workload) -> list[str]:
    """One more check of the workload's smallest member, outside timing:
    the engine against the expected answers and against core enumeration,
    and for the positive workload the stable rewriting as well."""
    case = wl.smallest
    c = compile_case(omq, case)
    problems = check_compiled(c)
    if not wl.answers:
        again = compile_case(omq, case)
        if again.text != c.text:
            problems.append(f"{case.name}: two compiles emit different text")
        return problems
    report = answer(omq, c)
    problems += check_answers(case, report)
    for t in sorted(all_tuples(case.individuals, c.omq.arity)):
        certain = omq.core_enumeration_decide(c.omq, c.kb.abox, t)
        if certain != (t in case.expected):
            problems.append(f"{case.name}: core enumeration says {t} certain={certain}")
    if case.positive:
        stable = replace(case, positive=False)
        problems += [f"stable rewriting of {p}"
                     for p in check_answers(stable, answer(omq, compile_case(omq, stable)))]
    return problems


# ---------------------------------------------------------------------------
# Passes


@dataclass
class PassResult:
    seconds: float
    op_seconds: list[float]
    attempted: int
    failed: int
    problems: list[str]
    failures: list[str]
    leaves: int
    programs: Programs | None   # compile workload: what this pass emitted


def run_pass(omq, wl: Workload, compiled: list[Compiled] | None,
             tracer: Tracer | None) -> PassResult:
    ops, problems, failures, done = [], [], [], []
    leaves = 0
    for i, case in enumerate(wl.cases):
        t = time.perf_counter()
        try:
            if wl.answers:
                result = answer(omq, compiled[i], tracer)
            else:
                result = compile_case(omq, case, tracer)
        except (omq.OmqError, RecursionError) as e:
            ops.append(time.perf_counter() - t)
            failures.append(f"{case.name}: {type(e).__name__}: {e}")
            continue
        ops.append(time.perf_counter() - t)
        if wl.answers:
            problems += check_answers(case, result)
            leaves += result.models_explored
        else:
            problems += check_compiled(result)
            done.append(result)
    return PassResult(sum(ops), ops, len(wl.cases), len(failures), problems,
                      failures, leaves, None if wl.answers else Programs.of(done))


def passes_for(seconds: float, step) -> list[PassResult]:
    """Whole passes until ``seconds`` have gone by (at least one)."""
    out: list[PassResult] = []
    deadline = time.perf_counter() + seconds
    while not out or time.perf_counter() < deadline:
        out.append(step())
    return out


# ---------------------------------------------------------------------------
# Metrics


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def setup(wl_name: str, seed: int, tracer: Tracer | None = None):
    """Import, generate, and (answer workloads) compile: what a user pays
    before the first operation."""
    omq = import_omq()
    wl = make_workload(wl_name, seed)
    compiled = [compile_case(omq, c, tracer) for c in wl.cases] if wl.answers else None
    return omq, wl, compiled


def measure_setup(wl_name: str, seed: int) -> list[float]:
    """Set-up time of fresh processes, so the import is paid every time."""
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", wl_name,
             "--seed", str(seed), "--setup-only"],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def end_to_end(passes: list[PassResult], setup_s: list[float],
               program_bytes: int) -> dict:
    return {
        "setup_s": (_median(setup_s), "s"),
        "wall_s": (_median([p.seconds for p in passes]), "s"),
        "op_p50_s": (_median([t for p in passes for t in p.op_seconds]), "s"),
        "program_bytes": (program_bytes, "bytes"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


COMPILE_LAYERS = ("parser.s", "normalize.s", "normalize.calls", "query.s",
                  "rewrite.s", "rewrite.rules_out", "rewrite.max_arity",
                  "datalog.emit_s")


def layer_metrics(tracer: Tracer, programs: Programs, leaves: int,
                  candidates: int) -> dict[str, float]:
    """Per-layer figures of the spans recorded since the last reset."""
    t = tracer.totals()

    def get(name, key="s"):
        return t.get(name, {}).get(key, 0.0)

    ground_calls = get("ground", "calls")
    return {
        "parser.s": get("parser"),
        "normalize.s": get("normalize"),
        "normalize.calls": get("normalize", "calls"),
        "query.s": get("query", "self_s"),
        "rewrite.s": get("rewrite", "self_s"),
        "rewrite.rules_out": programs.rules,
        "rewrite.max_arity": programs.max_arity,
        "datalog.emit_s": get("emit"),
        "datalog.ground_s": get("ground"),
        "datalog.ground_calls": ground_calls,
        "datalog.ground_rules_out": tracer.counts.get("ground.out", 0),
        "datalog.reduct_s": get("reduct"),
        "engine.answer_s": get("engine"),
        "engine.self_s": get("engine", "self_s"),
        "engine.stratify_s": get("stratify"),
        "engine.candidates": candidates,
        "engine.leaves": leaves,
        "engine.leaves_per_candidate": leaves / candidates if candidates else 0.0,
        "engine.ground_calls_per_leaf": ground_calls / leaves if leaves else 0.0,
    }


LAYER_UNITS = {"calls": "count", "rules_out": "count", "max_arity": "count",
               "ground_calls": "count", "ground_rules_out": "count",
               "candidates": "count", "leaves": "count",
               "leaves_per_candidate": "ratio", "ground_calls_per_leaf": "ratio",
               "overhead": "ratio"}


def _unit(name: str) -> str:
    return LAYER_UNITS.get(name.split(".", 1)[1], "s")


def traced_run(omq, wl: Workload, compiled: list[Compiled] | None,
               setup_layers: dict[str, float], tracer: Tracer,
               seconds: float) -> tuple[list[PassResult], dict]:
    """Half the time untraced, half traced; per-layer figures are medians
    over the traced passes, and for the answer workloads the compile layers
    come from the traced set-up, where those workloads compile."""
    plain = passes_for(seconds / 2, lambda: run_pass(omq, wl, compiled, None))

    install(tracer, omq)
    per_pass: list[dict[str, float]] = []
    candidates = sum(len(all_tuples(c.case.individuals, c.omq.arity))
                     for c in compiled or [])

    def traced_pass():
        tracer.reset()
        p = run_pass(omq, wl, compiled, tracer)
        per_pass.append(layer_metrics(tracer, p.programs or Programs.of(compiled),
                                      p.leaves, candidates))
        return p

    traced = passes_for(seconds / 2, traced_pass)
    tracer.unwrap_all()
    metrics = {name: _median([m[name] for m in per_pass]) for name in per_pass[0]}
    if wl.answers:
        metrics.update({name: setup_layers[name] for name in COMPILE_LAYERS})
    metrics["trace.overhead"] = (_median([p.seconds for p in traced])
                                 / _median([p.seconds for p in plain]) - 1)
    return plain + traced, {n: (v, _unit(n)) for n, v in metrics.items()}


def run(args) -> int:
    if args.trace:
        tracer = Tracer()
        install(tracer, import_omq())
        omq, wl, compiled = setup(args.workload, args.seed, tracer)
        setup_layers = layer_metrics(tracer, Programs.of(compiled or []), 0, 0)
        tracer.unwrap_all()
        passes, metrics = traced_run(omq, wl, compiled, setup_layers, tracer,
                                     args.seconds)
    else:
        omq, wl, compiled = setup(args.workload, args.seed)
        passes = passes_for(args.seconds, lambda: run_pass(omq, wl, compiled, None))
        setup_s = measure_setup(args.workload, args.seed)
        programs = Programs.of(compiled) if compiled else passes[0].programs
        metrics = end_to_end(passes, setup_s, programs.bytes)
    problems = [p for ps in passes for p in ps.problems]
    if not wl.answers and len({p.programs.digest for p in passes}) > 1:
        problems.append("two compiles of the same input emitted different text")
    problems += check_smallest(omq, wl)
    result = {
        "correct": not problems,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  problems=problems[:50],
                  passes=[{"seconds": p.seconds, "op_seconds": p.op_seconds,
                           "leaves": p.leaves} for p in passes])
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    for p in problems[:20]:
        print("CHECK FAILED:", p, file=sys.stderr)
    for f in sorted({f for ps in passes for f in ps.failures}):
        print("OPERATION FAILED:", f, file=sys.stderr)
    print(json.dumps(result))
    return 0 if not problems else 1


def setup_only(args) -> int:
    start = time.perf_counter()
    setup(args.workload, args.seed)
    print(f"{time.perf_counter() - start!r}")
    return 0


def quick(args) -> int:
    """Every workload's checks at its smallest size, and a corrupted expected
    answer for each, which the checks must reject."""
    omq = import_omq()
    ok = True
    for name in WORKLOADS:
        start = time.perf_counter()
        wl = make_workload(name, args.seed)
        problems = check_smallest(omq, wl)
        c = compile_case(omq, wl.smallest)
        if wl.answers:
            rep = answer(omq, c)
            exp = wl.smallest.expected
            flip = next(iter(exp)) if exp else (wl.smallest.individuals[0],) * c.omq.arity
            corrupt = replace(wl.smallest, expected=exp ^ {flip})
            caught = bool(check_answers(corrupt, rep))
        else:
            c.case = replace(c.case, k=c.case.k + 1)
            caught = bool(check_compiled(c))
        if not caught:
            problems.append(f"{name}: a corrupted expected answer went unnoticed")
        for p in problems:
            print("CHECK FAILED:", p)
        ok = ok and not problems
        print(f"{name}: {'ok' if not problems else 'FAILED'} "
              f"({time.perf_counter() - start:.2f} s)")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="run every workload's checks at the smallest sizes")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.quick:
        return quick(args)
    if args.workload is None:
        ap.error("--workload is required")
    if args.setup_only:
        return setup_only(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
