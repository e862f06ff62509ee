import hashlib
import logging
import os
import pathlib
import random
import re
import subprocess
import sys

import pytest

import omq
from omq.cli import main
from omq.rewrite import abox_facts

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
SRC = str(pathlib.Path(omq.__file__).resolve().parent.parent)


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_answer_output_is_pinned(capsys):
    """``omq answer`` and ``omq answer --emit-ground`` print, byte for byte,
    what they printed when the digests in ``fixtures/answer.sha256`` were
    recorded: one line per fixture KB x query x mode x ``--db-constants``
    run, with the SHA-256 of stdout (of stderr when the run fails) and the
    exit status.  The grounding's instance order is part of the pin."""
    lines = (FIXTURES / "answer.sha256").read_text().splitlines()
    assert len(lines) == 72
    for line in lines:
        digest, code, kb, query, *flags = line.split()
        got, out, err = run(capsys, "answer", FIXTURES / kb, FIXTURES / query, *flags)
        text = out if got == 0 else err
        assert (got, hashlib.sha256(text.encode()).hexdigest()) == (int(code), digest), line


def test_oracle_output_is_pinned(capsys):
    """``omq oracle --dump-countermodel`` prints, byte for byte, what it
    printed when the digests in ``fixtures/oracle.sha256`` were recorded:
    one line per fixture KB x query pair, with the SHA-256 of stdout (of
    stderr when the run fails) and the exit status.  ``intro.kb`` with
    ``q_r1.cq`` is left out: its core enumeration takes over ten seconds."""
    lines = (FIXTURES / "oracle.sha256").read_text().splitlines()
    assert len(lines) == 8
    for line in lines:
        digest, code, kb, query = line.split()
        got, out, err = run(capsys, "oracle", "--dump-countermodel",
                            FIXTURES / kb, FIXTURES / query)
        text = out if got == 0 else err
        assert (got, hashlib.sha256(text.encode()).hexdigest()) == (int(code), digest), line


def test_answer_running_example_lacks_reflexive_pair(capsys):
    code, out, _ = run(capsys, "answer", FIXTURES / "example1.kb", FIXTURES / "q_r1.cq")
    assert code == 0
    assert "a a" not in out.splitlines()


def test_answer_intro_exact(capsys):
    code, out, _ = run(capsys, "answer", FIXTURES / "intro.kb", FIXTURES / "q_attends.cq")
    assert code == 0
    assert out.splitlines() == ["a c1"]


def test_rewrite_positive_scan(capsys, tmp_path):
    target = tmp_path / "out.lp"
    code, _, _ = run(capsys, "rewrite", "--positive", FIXTURES / "nominalfree.kb",
                     FIXTURES / "q_c.cq", "-o", target)
    assert code == 0
    text = target.read_text()
    assert "not " not in text and "!=" not in text
    assert text.strip().endswith(".")


def test_rewrite_stable_to_stdout(capsys):
    code, out, _ = run(capsys, "rewrite", FIXTURES / "example1.kb", FIXTURES / "q_r1.cq")
    assert code == 0
    assert "ind(c)." in out
    assert ":- marked(X1,X2,X3,X4,X5), fringetype(X1,X2,X3,X4,X5)." in out


def test_mark_subcommand(capsys):
    code, out, _ = run(capsys, "mark", FIXTURES / "example1.kb", FIXTURES / "core1.abox")
    assert code == 0
    unmarked = {line.split(": ", 1)[1] for line in out.splitlines()
                if line.startswith("unmarked")}
    assert unmarked == {"", "A3", "A2,A3", "A1,A4", "A1,A3", "{c}"}
    assert sum(1 for line in out.splitlines() if line.startswith("marked")) == 26


def test_mark_rejects_invalid_core(capsys, tmp_path):
    bad = tmp_path / "bad.abox"
    bad.write_text("abox { A4(b); A1(a); A4(a); A1(b); A3(b); }")
    code, _, err = run(capsys, "mark", FIXTURES / "example1.kb", bad)
    assert code == 1
    assert "c2" in err


def test_check_reports_class(capsys):
    code, out, _ = run(capsys, "check", FIXTURES / "example1.kb", FIXTURES / "q_r1.cq")
    assert code == 0
    assert "c-safe" in out
    assert "basis size: 5" in out
    assert "OMQ basis size: 5 (2^5 = 32 types)" in out


def test_check_reports_the_basis_the_rewriting_runs_at(capsys, tmp_path, monkeypatch):
    """The TBox alone has a basis of 6, but the folded query brings in
    more concepts: the rewriting runs at k=10, over 2^10 types.  ``check``
    says so without building the rewriting."""
    kb, query = tmp_path / "found.kb", tmp_path / "found.cq"
    kb.write_text("tbox { forall inv(s) . forall r . top <= (exists s . B or (top and top)); }"
                  " abox { B(c); C(b); A(a); r(b, a); }")
    query.write_text("q(x) :- r(x, y), B(y).")

    def refused(*args):
        raise AssertionError("check built the rewriting")
    monkeypatch.setattr(sys.modules["omq.rewrite"], "_rewrite", refused)
    code, out, _ = run(capsys, "check", kb, query, "--allow-extra-abox")
    assert code == 0
    assert "basis size: 6" in out.splitlines()
    assert "query class: c-acyclic (will be folded)" in out
    assert "OMQ basis size: 10 (2^10 = 1024 types)" in out.splitlines()
    monkeypatch.undo()
    o = omq.build_omq(omq.parse_kb(kb.read_text()), omq.parse_query(query.read_text()),
                      allow_extra_abox_names=True)
    assert omq.rewrite(o).ctx.k == 10


def test_check_unsupported_query(capsys, tmp_path):
    q = tmp_path / "cyclic.cq"
    q.write_text("q() :- r1(x, y), r1(y, z), r1(z, x).")
    code, out, _ = run(capsys, "check", FIXTURES / "example1.kb", q)
    assert code == 1
    assert "unsupported" in out
    kb = tmp_path / "loop.kb"
    kb.write_text("tbox { A <= exists r . A; } abox { A(a); }")
    q.write_text("q(x) :- A(x), r(y, y).")
    code, out, _ = run(capsys, "check", kb, q)
    assert code == 1
    assert "query class: unsupported (self-loop r(y,y) on a non-c-variable)" in out.splitlines()


def test_missing_file_is_diagnostic(capsys):
    code, _, err = run(capsys, "answer", "no-such.kb", FIXTURES / "q_r1.cq")
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("which", ["kb", "query", "models", "core"])
def test_non_utf8_input_is_diagnostic(tmp_path, which):
    """A file that is not UTF-8 ends in ``error: <file>: ...`` and exit 1,
    whichever input it is, with no traceback."""
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe")
    kb = bad if which == "kb" else FIXTURES / "intro.kb"
    query = bad if which == "query" else FIXTURES / "q_attends.cq"
    argv = {"kb": ["answer", kb, query], "query": ["answer", kb, query],
            "models": ["answer", "--external-models", bad, kb, query],
            "core": ["mark", FIXTURES / "example1.kb", bad]}[which]
    done = subprocess.run([sys.executable, "-m", "omq.cli", *map(str, argv)],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": SRC})
    assert done.returncode == 1, done.stderr
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith(f"error: {bad}: not UTF-8 text"), done.stderr


@pytest.mark.parametrize("which", ["not", "exists", "parens", "chain-query"])
def test_deep_input_is_refused(tmp_path, which):
    """Input nested past the Python stack ends in ``refused: ...`` and exit
    2, whether the parser (``check``) or the query folding (``rewrite``)
    runs out of stack, with no traceback."""
    concept = {"not": "not " * 3000 + "B", "exists": "exists r . " * 600 + "B",
               "parens": "(" * 1500 + "B" + ")" * 1500,
               "chain-query": "exists r . A"}[which]
    kb = tmp_path / "kb.kb"
    kb.write_text(f"tbox {{ A <= {concept}; }} abox {{ A(a); }}")
    argv = ["check", kb]
    if which == "chain-query":
        query = tmp_path / "q.cq"
        atoms = ", ".join(f"r(x{i}, x{i + 1})" for i in range(1500))
        query.write_text(f"q(x0) :- {atoms}.")
        argv = ["rewrite", kb, query]
    done = subprocess.run([sys.executable, "-m", "omq.cli", *map(str, argv)],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": SRC})
    assert done.returncode == 2, done.stderr
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("refused: "), done.stderr


def test_boolean_query_prints_true(capsys, tmp_path):
    kb = tmp_path / "kb.kb"
    kb.write_text("tbox { A <= B; } abox { A(a); } closed { A; }")
    q = tmp_path / "q.cq"
    q.write_text("q() :- A(x).")
    code, out, _ = run(capsys, "answer", kb, q)
    assert code == 0
    assert out.strip() == "true"


def test_inconsistent_banner(capsys, tmp_path):
    kb = tmp_path / "kb.kb"
    kb.write_text("tbox { A <= bot; } abox { A(a); }")
    q = tmp_path / "q.cq"
    q.write_text("q(x) :- B(x).")
    code, out, _ = run(capsys, "answer", kb, q)
    assert code == 0
    assert out.splitlines() == ["INCONSISTENT", "a"]


def test_emit_ground(capsys):
    code, out, _ = run(capsys, "answer", "--emit-ground",
                       FIXTURES / "example1.kb", FIXTURES / "q_r1.cq")
    assert code == 0
    assert "in_e0(a) :- ind(a), not out_e0(a)." in out


def test_external_models_verification(capsys, tmp_path):
    kb = tmp_path / "kb.kb"
    kb.write_text("tbox { p <= s; } abox { p(a, a); }")
    q = tmp_path / "q.cq"
    q.write_text("q(x, y) :- s(x, y).")
    good = ("ind(a) eq(a,a) r_p(a,a) r_s(a,a) q(a,a)")
    bad = ("ind(a) eq(a,a) r_p(a,a) nr_s(a,a)")
    models = tmp_path / "models.txt"
    models.write_text(good + "\n" + bad + "\n")
    code, out, _ = run(capsys, "answer", "--external-models", models, kb, q)
    assert code == 1
    assert out.splitlines() == ["model 1: stable", "model 2: not stable"]


def test_external_models_with_malformed_atoms_are_errors(capsys, tmp_path):
    """An unclosed atom, an empty argument, an argument-less ``q()`` and an
    atom of the wrong arity are input errors, not models that merely fail
    to be stable."""
    kb = tmp_path / "kb.kb"
    kb.write_text("tbox { p <= s; } abox { p(a, a); }")
    q = tmp_path / "q.cq"
    q.write_text("q(x, y) :- s(x, y).")
    models = tmp_path / "models.txt"
    for line, message in [("q(a", "error: cannot parse atom 'q(a'"),
                          ("q(a,,b)", "error: empty argument in atom 'q(a,,b)'"),
                          ("q()", "error: model atom(s) of the wrong arity: q "),
                          ("ind(a,a) eq(a,a) r_p(a,a) r_s(a,a) q(a,a)",
                           "error: model atom(s) of the wrong arity: ind(a,a) ")]:
        models.write_text(line + "\n")
        code, out, err = run(capsys, "answer", "--external-models", models, kb, q)
        assert (code, out) == (1, ""), line
        assert err.startswith(message), err


def test_external_models_accepts_a_completed_positive_model(capsys, tmp_path,
                                                           completed_branches):
    kb_file, q_file = FIXTURES / "nominalfree.kb", FIXTURES / "q_c.cq"
    kb = omq.parse_kb(kb_file.read_text())
    out = omq.rewrite_positive(omq.build_omq(kb, omq.parse_query(q_file.read_text())))
    [model] = completed_branches(out, kb.abox, 1)
    facts = set(abox_facts(out.ctx, kb.abox))
    guessed = next(a for a in sorted(model) if a.pred.startswith("c_") and a not in facts)
    models = tmp_path / "models.txt"
    models.write_text(" ".join(map(str, sorted(model))) + "\n")
    code, text, _ = run(capsys, "answer", "--positive", "--external-models", models,
                        kb_file, q_file)
    assert (code, text.splitlines()) == (0, ["model 1: stable"])
    models.write_text(" ".join(str(a) for a in sorted(model) if a != guessed) + "\n")
    code, text, _ = run(capsys, "answer", "--positive", "--external-models", models,
                        kb_file, q_file)
    assert (code, text.splitlines()) == (1, ["model 1: not stable"])


def test_oracle_subcommand_agrees(capsys, tmp_path):
    kb = tmp_path / "kb.kb"
    kb.write_text("tbox { A <= B; } abox { A(a); } closed { A; }")
    q = tmp_path / "q.cq"
    q.write_text("q(x) :- B(x).")
    code, out, _ = run(capsys, "oracle", kb, q, "--bound", "3")
    assert code == 0
    assert out.splitlines()[-1] == "AGREE"


def test_byte_deterministic_output(capsys):
    _, out1, _ = run(capsys, "rewrite", FIXTURES / "example1.kb", FIXTURES / "q_r1.cq")
    _, out2, _ = run(capsys, "rewrite", FIXTURES / "example1.kb", FIXTURES / "q_r1.cq")
    assert out1 == out2


def test_branch_limit_exit_code(capsys):
    code, _, err = run(capsys, "answer", "--branch-limit", "3",
                       FIXTURES / "example1.kb", FIXTURES / "q_r1.cq")
    assert code == 2
    assert "refused" in err


@pytest.mark.parametrize("limit", ["0", "-5"])
def test_branch_limit_below_one_is_diagnostic(capsys, limit):
    code, _, err = run(capsys, "answer", "--branch-limit", limit,
                       FIXTURES / "example1.kb", FIXTURES / "q_r1.cq")
    assert code == 1
    assert err.startswith("error: branch limit must be at least 1"), err


@pytest.mark.parametrize("bound", ["-1", "-5"])
def test_negative_bound_is_diagnostic(capsys, bound):
    code, out, err = run(capsys, "oracle", "--bound", bound,
                         FIXTURES / "intro.kb", FIXTURES / "q_attends.cq")
    assert code == 1
    assert out == ""
    assert err.startswith("error: bound must be at least 0"), err


def test_info_log_reports_learned_clauses(capsys, caplog, tmp_path):
    kb = tmp_path / "positive.kb"
    kb.write_text("tbox { A <= B or C; B <= D; C <= D; D <= exists r . D;"
                  " D <= forall inv(r) . F; } abox { A(a); C(b); F(c); }")
    query = tmp_path / "q.cq"
    query.write_text("q(x) :- D(x).")
    with caplog.at_level(logging.INFO, logger="omq"):
        code, out, _ = run(capsys, "answer", "--positive", kb, query)
    assert code == 0
    assert out.splitlines() == ["a", "b"]
    (line,) = [r.getMessage() for r in caplog.records if r.name == "omq"]
    assert re.fullmatch(r"explored [1-5] branches in [1-9]\d* nodes, learned [1-9]\d*"
                        r" clauses, ran [1-9]\d* layer fixpoints", line), line


def test_unknown_log_level_is_diagnostic():
    """``OMQ_LOG`` names no logging level: ``error: ...`` and exit 1, with
    no traceback (a fresh process, as the logging set-up runs once)."""
    done = subprocess.run([sys.executable, "-m", "omq.cli", "check",
                           str(FIXTURES / "intro.kb")],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": SRC, "OMQ_LOG": "bogus"})
    assert done.returncode == 1, done.stderr
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("error: OMQ_LOG: unknown log level 'BOGUS'"), done.stderr


def test_a_negated_guess_layer_support_is_a_diagnostic(capsys, monkeypatch):
    """A rewriting whose guess layer has a support rule with negation ends
    ``omq answer`` in ``error:`` and exit 1, with no traceback."""
    from test_engine import _with_negated_support
    real = omq.cli.rewrite
    monkeypatch.setattr(omq.cli, "rewrite", lambda o, **kw: _with_negated_support(real(o, **kw)))
    code, out, err = run(capsys, "answer", FIXTURES / "intro.kb", FIXTURES / "q_attends.cq")
    assert (code, out) == (1, "")
    assert err.startswith("error: unexpected negation in support rule"), err


def test_running_out_of_memory_is_a_refusal(capsys, monkeypatch):
    """A ``MemoryError`` on the answer path ends in ``refused:`` and exit 2,
    never in a traceback."""
    def exhausted(*args, **kwargs):
        raise MemoryError
    monkeypatch.setattr(omq.cli, "certain_answers", exhausted)
    code, out, err = run(capsys, "answer", FIXTURES / "intro.kb", FIXTURES / "q_attends.cq")
    assert (code, out) == (2, "")
    assert err == "refused: out of memory; result undecided\n"


FUZZ_CONCEPTS, FUZZ_ROLES, FUZZ_INDIVIDUALS = ("A", "B", "C"), ("r", "s"), ("a", "b", "c")
FUZZ_QUERIES = ("q(x) :- A(x).", "q(x, y) :- r(x, y).", "q(x) :- r(x, y), B(y).",
                "q() :- C(x).")


def _fuzz_role(rng):
    role = rng.choice(FUZZ_ROLES)
    return f"inv({role})" if rng.random() < 0.3 else role


def _fuzz_concept(rng, depth):
    """A random concept of at most ``depth`` nested constructors."""
    if depth == 0 or rng.random() < 0.4:
        return rng.choice([*FUZZ_CONCEPTS, "top", "bot", f"{{{rng.choice(FUZZ_INDIVIDUALS)}}}"])
    kind = rng.randrange(5)
    if kind == 0:
        return f"not {_fuzz_concept(rng, depth - 1)}"
    if kind < 3:
        return (f"({_fuzz_concept(rng, depth - 1)} {('and', 'or')[kind - 1]}"
                f" {_fuzz_concept(rng, depth - 1)})")
    return f"{('exists', 'forall')[kind - 3]} {_fuzz_role(rng)} . {_fuzz_concept(rng, depth - 1)}"


def _fuzz_kb(rng):
    """Random KB text: nested concept inclusions, a role inclusion, a small
    ABox and up to two closed names of the TBox; one in five has one
    character replaced."""
    tbox = [f"{_fuzz_concept(rng, 2)} <= {_fuzz_concept(rng, 2)};"
            for _ in range(rng.randint(1, 3))]
    tbox += [f"{rng.choice(FUZZ_ROLES)} <= {_fuzz_role(rng)};" for _ in range(rng.randint(0, 1))]
    abox = [f"{rng.choice(FUZZ_CONCEPTS)}({rng.choice(FUZZ_INDIVIDUALS)});"
            for _ in range(rng.randint(0, 3))]
    abox += [f"{rng.choice(FUZZ_ROLES)}({rng.choice(FUZZ_INDIVIDUALS)},"
             f" {rng.choice(FUZZ_INDIVIDUALS)});" for _ in range(rng.randint(0, 2))]
    named = sorted(set(re.findall(r"\b[A-Crs]\b", " ".join(tbox))))
    closed = rng.sample(named, min(len(named), rng.randint(0, 2)))
    text = (f"tbox {{ {' '.join(tbox)} }} abox {{ {' '.join(abox)} }}"
            f" closed {{ {' '.join(c + ';' for c in closed)} }}")
    if rng.random() < 0.2:
        at = rng.randrange(len(text))
        text = text[:at] + rng.choice("(){};.,<=-xA ") + text[at + 1:]
    return text


def _basis_size(kb_text, query_text):
    """The basis size of the OMQ, query concepts included (0 if it is
    rejected)."""
    try:
        kb = omq.parse_kb(kb_text)
        o = omq.build_omq(kb, omq.parse_query(query_text), allow_extra_abox_names=True)
    except omq.OmqError:
        return 0
    return len(o.tbox.basis)


def test_random_inputs_keep_the_exit_contract(capsys, tmp_path):
    """On seeded random KBs and queries, ``answer`` (stable, ``--positive``
    and ``--db-constants``), ``rewrite`` and ``check`` each return 0, 1 or
    2 and raise nothing.  An OMQ with a basis of more than 6 elements is
    skipped, and the search gets a small branch limit: the marking layer
    grows with 4^k, and no budget bounds it yet."""
    rng = random.Random(1)
    kb, query = tmp_path / "fuzz.kb", tmp_path / "fuzz.cq"
    limit, codes = ["--branch-limit", 300], []
    while len(codes) < 400:
        kb_text, query_text = _fuzz_kb(rng), rng.choice(FUZZ_QUERIES)
        if _basis_size(kb_text, query_text) > 6:
            continue
        kb.write_text(kb_text)
        query.write_text(query_text)
        for argv in (["answer", *limit], ["answer", *limit, "--positive"],
                     ["answer", *limit, "--db-constants"], ["rewrite"], ["check"]):
            code, _, _ = run(capsys, *argv, kb, query, "--allow-extra-abox")
            assert code in (0, 1, 2), (argv, kb_text, query_text)
            codes.append(code)
    assert {0, 1} <= set(codes)
