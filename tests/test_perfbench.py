"""The benchmark under ``perfbench/`` keeps running against the library."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import omq

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_quick_run_passes():
    """Every workload's checks at the smallest sizes (about 5 s)."""
    done = subprocess.run([sys.executable, str(PERFBENCH / "run.py"), "--quick"],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr


def test_trace_hooks_exist(monkeypatch):
    """``--trace 1`` swaps these module attributes; each must still exist."""
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # dataclasses look it up
    spec.loader.exec_module(spans)
    hooked = [(omq.engine, "ground"), (omq.engine, "gl_reduct"),
              (omq.engine, "stratify"), (omq.query, "normalize")]
    before = [getattr(m, a) for (m, a) in hooked]
    tracer = spans.Tracer()
    spans.install(tracer, omq)
    try:
        assert all(getattr(m, a) is not f for ((m, a), f) in zip(hooked, before))
    finally:
        tracer.unwrap_all()
    assert [getattr(m, a) for (m, a) in hooked] == before
