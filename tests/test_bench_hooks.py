"""The benchmark's traced run (`perfbench/run.py --trace 1`) wraps blockgen
functions by module attribute name. This test runs its `install` against a
probe that only looks each target up, so renaming or moving one of those
functions fails here instead of only in the benchmark."""

import importlib.util
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

import blockgen as bg
from blockgen import blocks, cemit, irinterp, model, optimizer
from blockgen import matval as mv

from conftest import load_model_text

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


@pytest.mark.parametrize("fixture,stimulus", [
    ("kalman.model", mv.make(mv.F64, 2, 1, [1000.0, 0.5])),
    ("coding.model", mv.make(mv.I32, 1, 1, [1])),
])
def test_exec_lowers_each_instruction_of_each_lowered_function_once(
        monkeypatch, fixture, stimulus):
    """The traced benchmark's `irinterp.exec` counter reads Machine._exec
    calls, so a lowering that bypassed it, or ran it twice, would change the
    counter silently. Both branch functions of coding's region run over the
    stimuli, and kalman calls the runtime helpers."""
    program = bg.generate(bg.parse_model(load_model_text(fixture))).program
    calls = Counter()
    exec_ = irinterp.Machine._exec

    def counted(self, instr, scope):
        calls[scope.fn.name, id(instr)] += 1
        return exec_(self, instr, scope)

    monkeypatch.setattr(irinterp.Machine, "_exec", counted)
    machine = irinterp.Machine(program).run_init()
    other = mv.make(stimulus.dtype, stimulus.rows, stimulus.cols, [0] * stimulus.size)
    machine.run_steps([[stimulus], [stimulus], [other], [stimulus]], 4)
    lowered = [program.function(name) for name in machine._lowered]
    assert len(lowered) == len(program.functions) + 1  # every function ran
    assert calls == Counter({(fn.name, id(instr)): 1 for fn in lowered for instr in fn.body})
