"""Ontology-mediated query answering with closed predicates.

Pipeline: parse a knowledge base and a conjunctive query, normalize the
TBox, classify and (if needed) fold the query, rewrite into a Datalog
program with stable negation (or a positive disjunctive program when no
predicate is closed), and evaluate it with the layered engine.  Two
independent oracles, bounded countermodel search and exhaustive core
enumeration, arbitrate the whole chain at desk scale.
"""

from .syntax import (And, Assertion, Axiom, Bot, Concept, ConceptAssert,
                     ConceptIncl, Exists, Forall, KnowledgeBase, Name, Nominal,
                     Not, OmqError, Or, RoleAssert, RoleExpr, RoleHierarchy,
                     RoleIncl, Top, role_closure, subsumed_by_closed)
from .parser import (ConceptAtom, ConjunctiveQuery, ParseError, RoleAtom,
                     SourceSpan, kb_to_text, parse_kb, parse_query,
                     query_to_text)
from .normalize import (ClauseAxiom, ExistsAxiom, ForallAxiom, NormalAxiom,
                        NormalTBox, is_normal, normalize)
from .query import (OMQ, CAcyclic, CSafe, QueryClass, Unsupported, build_omq,
                    c_variables, classify, individuals_of, query_concept,
                    rollup)
from .typespace import (Core, CoreReport, FringeId, MarkResult, ResourceRefused,
                        TypeContext, TypeVec, dump_types, has_nonlosing_strategy,
                        lc_check, is_c_type, mark, mark_types, realized_types,
                        type_of, validate_core)
from .datalog import (Const, DAtom, DProgram, DRule, Var, emit_text,
                      gl_reduct, ground, is_stable_model, parse_ground_atoms)
from .rewrite import (MODE_POSITIVE, MODE_STABLE, PredTable, RewriteContext,
                      RewriteOutput, abox_facts, rewrite, rewrite_positive)
from .engine import (AnswerReport, certain_answers, core_of_model,
                     enumerate_guess_models, ground_guess_layer, stratify,
                     verify_model)
from .oracle import (FiniteInterp, NormalKB, bounded_model_search,
                     core_enumeration_decide, count_cores, cq_matches,
                     iter_cores)

__version__ = "0.1.0"
