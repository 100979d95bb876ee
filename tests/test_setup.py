"""What a driver call sets up before its first step: `infer`, the block
plans, `propagate_constants`, `schedule` and the initial-state pass. These
tests fix its observable behavior: the number of initial-state runs, the
agreement of `simulate` with the interpreter on chains of every length the
benchmark's generator writes, and an emitted C text and simulated outputs
that do not depend on the interpreter's hash seed."""

import importlib.util
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from blockgen import blocks, generate, parse_model, simulate
from blockgen import matval as mv
from blockgen.blocks import INIT
from blockgen.cli import _deviation
from blockgen.irinterp import Machine

from conftest import load_model_text

ROOT = Path(__file__).resolve().parents[1]


def _chain_text(monkeypatch, stages, seed):
    """The benchmark's chain workload: `stages` gain/summation/delay stages."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    mod = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "perfbench_workloads", mod)  # dataclasses look it up
    spec.loader.exec_module(mod)
    return mod.chain_text(stages, random.Random(seed))


def _counting_flags(monkeypatch, kind):
    """A Counter of the flags kind's behavior runs at, from now on."""
    flags, behavior = Counter(), blocks.BEHAVIORS[kind]

    def counted(blk, flag):
        flags[flag] += 1
        return behavior(blk, flag)

    monkeypatch.setitem(blocks.BEHAVIORS, kind, counted)
    return flags


@pytest.mark.parametrize("name,delays", [("twodelays", 2), ("chain", 7)])
def test_zero_steps_return_nothing_and_run_each_init_once(monkeypatch, name, delays):
    text = _chain_text(monkeypatch, delays, 1) if name == "chain" else \
        load_model_text(name + ".model")
    flags = _counting_flags(monkeypatch, "unit_delay")
    assert simulate(parse_model(text), [], 0) == []
    assert flags == Counter({INIT: delays})


@pytest.mark.parametrize("stages", [3, 4, 9, 17, 30])
def test_chain_simulation_agrees_with_the_interpreter(monkeypatch, stages):
    """Within validate's rule: relative 1e-12 on f64 elements."""
    text = _chain_text(monkeypatch, stages, stages)
    rng = random.Random(stages)
    inputs = [[mv.make(mv.F64, 1, 1, [rng.uniform(-10.0, 10.0)])] for _ in range(20)]
    simulated = simulate(parse_model(text), inputs, 20)
    machine = Machine(generate(parse_model(text)).program).run_init()
    interpreted = machine.run_steps(inputs, 20)
    assert len(simulated) == len(interpreted) == 20
    for srow, irow in zip(simulated, interpreted):
        for s, i in zip(srow, irow):
            assert _deviation(s, i)[0] <= 1e-12


_PRINT_RUNS = """
import hashlib, sys
sys.path[:0] = sys.argv[1:]
from test_simulate_golden import FIXTURES, NAMES, render
from blockgen import generate, parse_model
for name in NAMES:
    text = (FIXTURES / (name + ".model")).read_text()
    c_text = generate(parse_model(text)).text
    print(name, hashlib.sha256(c_text.encode()).hexdigest(),
          hashlib.sha256(render(name).encode()).hexdigest())
"""


def test_generate_and_simulate_do_not_depend_on_the_hash_seed():
    """String hashes, and so the iteration order of any set or dict keyed by
    strings, change with PYTHONHASHSEED; none of it may reach the schedule,
    the C text or the simulated outputs of the four fixtures."""
    runs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        done = subprocess.run([sys.executable, "-c", _PRINT_RUNS, str(ROOT / "src"),
                               str(ROOT / "tests")],
                              env=env, capture_output=True, text=True, timeout=120, check=True)
        runs.append(done.stdout)
    assert runs[0] == runs[1]
    assert len(runs[0].splitlines()) == 4


def _behavior_runs(monkeypatch, model):
    """The (block id, flag, active branch or None) of every behavior run on
    model from now on, through `blocks.behavior`, which the block runner
    calls for each run (and a sciblk once more for its behavior)."""
    ids = {id(b.params): b.id for b in model.blocks.values()}
    selects = {b.id for b in model.blocks.values() if b.kind == "select"}
    runs, behavior = [], blocks.behavior

    def recording(kind):
        fn = behavior(kind)

        def recorded(blk, flag):
            branch = blk.params.get("active_branch")
            # a select's run gets a copy of its params that names its branch
            bid = ids.get(id(blk.params)) if branch is None else next(iter(selects))
            runs.append((bid, flag, branch))
            return fn(blk, flag)
        return recorded

    monkeypatch.setattr(blocks, "behavior", recording)
    return runs


@pytest.mark.parametrize("name,stimulus", [
    ("chain40", mv.scalar(0.5)), ("kalman", mv.make(mv.F64, 2, 1, [1000.0, 0.5])),
    ("twodelays", mv.scalar(1.0)), ("coding", mv.make(mv.I32, 1, 1, [0])),
    ("coding", mv.make(mv.I32, 1, 1, [1]))])
def test_simulate_and_generate_run_one_walk(monkeypatch, name, stimulus):
    """One `simulate` step and one `generate` run the behaviors in one order:
    the initial-state pass, constant folding, the output phase and the state
    phase. Only a region differs: generate traces both of its branches,
    simulate runs the one its condition takes (coding's input 1 differs from
    the delayed 0, taking the first; input 0 takes the second)."""
    walks = {}
    for mode in ("simulate", "generate"):
        model = parse_model(load_model_text(name + ".model"))
        runs = _behavior_runs(monkeypatch, model)
        simulate(model, [[stimulus]], 1) if mode == "simulate" else generate(model)
        monkeypatch.undo()
        walks[mode] = runs
    assert walks["simulate"] and len({flag for _, flag, _ in walks["simulate"]}) == 3
    if not model.regions:
        assert walks["generate"] == walks["simulate"]
        return
    (region,) = model.regions
    taken = 1 if stimulus.data[0] else 2
    untaken = set(region.else_blocks if taken == 1 else region.then_blocks)
    assert {b for _, _, b in walks["generate"]} == {None, 1, 2}
    assert [(bid, flag, b) for bid, flag, b in walks["generate"]
            if b != 3 - taken and bid not in untaken] == walks["simulate"]
