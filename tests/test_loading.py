"""What each entry point loads: compiling a query loads neither the engine,
the oracles nor the evaluator, and ``omq answer`` loads no oracle."""

import json
import os
import pathlib
import subprocess
import sys

import omq

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
SRC = str(pathlib.Path(omq.__file__).resolve().parent.parent)
RUNTIME = {"omq.engine", "omq.oracle", "omq.evaluate"}

# The names ``omq`` exported when every module loaded with the package.
EXPORTED = """
And AnswerReport Assertion Axiom Bot CAcyclic CSafe ClauseAxiom Concept
ConceptAssert ConceptAtom ConceptIncl ConjunctiveQuery Const Core CoreReport
DAtom DProgram DRule Exists ExistsAxiom FiniteInterp Forall ForallAxiom
FringeId KnowledgeBase MODE_POSITIVE MODE_STABLE MarkResult Name Nominal
NormalAxiom NormalKB NormalTBox Not OMQ OmqError Or ParseError PredTable
QueryClass ResourceRefused RewriteContext RewriteOutput RoleAssert RoleAtom
RoleExpr RoleHierarchy RoleIncl SourceSpan Top TypeContext TypeVec
Unsupported Var abox_facts bounded_model_search build_omq c_variables
certain_answers classify core_enumeration_decide core_of_model cq_matches
datalog dump_types emit_text engine enumerate_guess_models gl_reduct ground
ground_guess_layer has_nonlosing_strategy individuals_of is_c_type
is_stable_model iter_cores kb_to_text mark mark_types normalize oracle
parse_ground_atoms parse_kb parse_query parser query query_concept
query_to_text realized_types rewrite rewrite_positive role_closure rollup
stratify subsumed_by_closed syntax type_of typespace validate_core
verify_model
""".split()

# Runs each entry point in turn and prints, per step, the ``omq`` modules
# loaded so far and the exit status of the command, if any.
STEPS = """
import contextlib, io, json, sys
KB, QUERY = sys.argv[1:]

def loaded():
    return sorted(m for m in sys.modules if m.startswith("omq"))

steps = {}
import omq
steps["import"] = (loaded(), None)
o = omq.build_omq(omq.parse_kb(open(KB).read()), omq.parse_query(open(QUERY).read()))
omq.emit_text(omq.rewrite(o).program)
omq.emit_text(omq.rewrite(o, db_constants=True).program)
steps["library"] = (loaded(), None)
from omq.cli import main
for command in ("rewrite", "check", "answer"):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([command, KB, QUERY])
    steps[command] = (loaded(), code)
print(json.dumps(steps))
"""


def _fresh(script: str, *argv) -> str:
    done = subprocess.run([sys.executable, "-c", script, *map(str, argv)],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": SRC})
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_the_compiler_path_loads_no_evaluator():
    """``import omq``, the library's compile path and ``omq rewrite`` and
    ``omq check`` load no engine, oracle or evaluator; ``omq answer`` loads
    the engine and the evaluator but no oracle."""
    steps = json.loads(_fresh(STEPS, FIXTURES / "intro.kb", FIXTURES / "q_attends.cq"))
    for step in ("import", "library", "rewrite", "check"):
        modules, code = steps[step]
        assert code in (None, 0), step
        assert RUNTIME.isdisjoint(modules), (step, modules)
    modules, code = steps["answer"]
    assert code == 0
    assert RUNTIME - set(modules) == {"omq.oracle"}, modules


def test_every_exported_name_resolves():
    """Each name ``omq`` exported when it loaded every module is listed by
    ``dir``, resolves and is bound by ``from omq import *`` in a fresh
    process, ``from omq import`` reaches the lazily loaded ones, and an
    unknown name is still an ``AttributeError``."""
    script = """
import json, sys
import omq
unlisted = sorted(set(sys.argv[1:]) - set(dir(omq)))
unresolved = [n for n in sys.argv[1:] if not hasattr(omq, n)]
starred = {}
exec("from omq import *", starred)
unstarred = sorted(set(sys.argv[1:]) - set(starred))
from omq import NormalKB, engine, ground
print(json.dumps([unlisted, unresolved, unstarred, hasattr(omq, "no_such_name"),
                  engine is sys.modules["omq.engine"], NormalKB is omq.oracle.NormalKB,
                  ground is omq.evaluate.ground]))
"""
    assert json.loads(_fresh(script, *EXPORTED)) == [[], [], [], False, True, True, True]
