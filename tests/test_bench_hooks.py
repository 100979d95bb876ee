"""The benchmark's traced run (`perfbench/run.py --trace 1`) wraps blockgen
functions by module attribute name. This test runs its `install` against a
probe that only looks each target up, so renaming or moving one of those
functions fails here instead of only in the benchmark."""

import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

from blockgen import blocks, cemit, irinterp, model, optimizer

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


class _Probe:
    """Stands in for the benchmark's span tracer: it records each target and
    looks it up in the owner's own namespace, as the tracer's wrapping does,
    but wraps nothing."""

    def __init__(self):
        self.seen = []

    def wrap(self, owner, attr, name, on_enter=None):
        self.count(owner, attr, name)

    def count(self, owner, attr, name):
        assert callable(vars(owner)[attr]), (owner, attr)
        self.seen.append((owner, attr))


def test_benchmark_hooks_name_existing_functions(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # undone, with run.py's own insert
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "perfbench_run", run)
    spec.loader.exec_module(run)

    probe = _Probe()
    bg = SimpleNamespace(model=model, optimizer=optimizer, cemit=cemit,
                         irinterp=irinterp, blocks=blocks)
    run.install(probe, bg, {})
    # count_instructions counts the interpreter's per-instruction calls
    probe.count(irinterp.Machine, "_exec", "irinterp.exec")
    assert (model, "finalize_program") in probe.seen
    assert (optimizer, "_pass_inline") in probe.seen
