"""Self-tests of the benchmark. Run from the root of a checkout:

    python3 -m pytest -q perfbench
"""

import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import cdriver  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads as W  # noqa: E402

SEEDS = range(12)


@pytest.mark.parametrize("name,blocks", [("chain-480", 480), ("kalman", 3)])
def test_synthetic_models_parse_and_schedule(name, blocks):
    bg = run.Blockgen()
    md = bg.model
    for seed in SEEDS:
        rng = random.Random(seed)
        model = md.parse_model(W.model_text(name, rng, run.FIXTURES))
        assert len(model.blocks) == blocks
        md.schedule(md.propagate_constants(md.infer(model)))
        steps = max(W.SPECS[name].sim_steps, W.SPECS[name].interp_steps)
        stimuli = W.stimuli(name, rng, steps, bg.matval)
        assert len(stimuli) == steps
        assert [len(row) for row in stimuli] == [len(model.inputs)] * steps


@pytest.mark.parametrize("name", sorted(W.SPECS))
def test_same_seed_same_inputs(name):
    a, b, c = run.Workload(name, 7), run.Workload(name, 7), run.Workload(name, 8)
    assert a.text == b.text
    assert [[v.data for v in row] for row in a.stimuli] == \
        [[v.data for v in row] for row in b.stimuli] != \
        [[v.data for v in row] for row in c.stimuli]


def test_scaling_chains_parse_and_schedule():
    bg = run.Blockgen()
    md = bg.model
    for stages in run.SCALE_STAGES:
        for seed in SEEDS:
            rng = random.Random(seed)
            model = md.parse_model(W.chain_text(stages, rng))
            assert len(model.blocks) == 3 * stages
            md.schedule(md.propagate_constants(md.infer(model)))
            assert len(W.stimuli("chain-{}".format(3 * stages), rng, 2, bg.matval)) == 2


def _pipeline(work, tracer):
    """A small traced generate, simulate and interpreter run."""
    result = work.generate()
    with tracer.span("phase.simulate"):
        work.bg.model.simulate(work.bg.model.parse_model(work.text), work.stimuli, 4)
    run._interpret(work, result.program)
    return result


def test_spans_nest_and_self_times_are_nonnegative():
    work = run.Workload("kalman", 1)
    tracer = spans.Tracer()
    run.install(tracer, work.bg, {})
    try:
        _pipeline(work, tracer)
    finally:
        tracer.restore()
    names = {s.name for s in tracer.spans}
    assert {"model.generate", "model.infer", "optimizer._pass_inline",
            "cemit.emit_program", "irinterp.run_steps", "model.simulate"} <= names
    by_id = {s.id: s for s in tracer.spans}
    for s in tracer.spans:
        assert s.start <= s.end
        if s.parent >= 0:
            parent = by_id[s.parent]
            assert parent.start <= s.start and s.end <= parent.end
        assert tracer.self_time(s) >= 0
    gen = next(s for s in tracer.spans if s.name == "model.generate")
    assert tracer.under(gen, "optimizer._pass_inline")
    assert tracer.counts[("blocks.behavior", "model.simulate")] > 0


def test_traced_run_restores_wrapped_attributes(tmp_path, capsys):
    work = run.Workload("kalman", 3)
    bg = work.bg
    watched = [(bg.model, "parse_model"), (bg.model, "generate"), (bg.model, "simulate"),
               (bg.model, "finalize_program"), (bg.optimizer, "_pass_inline"),
               (bg.cemit, "emit_program"), (bg.blocks, "behavior"),
               (bg.irinterp.Machine, "run_steps"), (bg.irinterp.Machine, "_exec")]
    before = [vars(owner)[attr] for owner, attr in watched]
    ledger = run.Ledger()
    metrics, units = run.traced(work, ledger, str(tmp_path), 0)
    assert [vars(owner)[attr] for owner, attr in watched] == before
    assert ledger.failed == 0
    assert set(metrics) == set(units) == set(run.PER_LAYER_UNITS)
    assert all(v is not None for v in metrics.values())
    assert metrics["optimizer.instr_out"] <= metrics["trace.instr_recorded"]


@pytest.mark.skipif(cdriver.cc_path() is None, reason="needs cc")
@pytest.mark.parametrize("name", sorted(W.SPECS))
def test_end_to_end_json_line(name, capsys):
    assert run.main(["--workload", name, "--seed", "1", "--seconds", "0",
                     "--trace", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    # the C at seed 1 is the recorded reference
    assert any("(same as the reference)" in line for line in lines)


def test_missing_cc_is_unavailable_not_zero(monkeypatch, capsys):
    monkeypatch.setattr(cdriver, "cc_path", lambda: None)
    assert run.main(["--workload", "kalman", "--seed", "1", "--seconds", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    metrics = json.loads(lines[-1])["metrics"]
    assert metrics["c_compile_s"]["value"] is None and metrics["c_step_ns"]["value"] is None
    assert all(m["value"] > 0 for k, m in metrics.items() if k not in run.CC_KEYS)
    assert any("c_step_ns" in line and "no C compiler on PATH" in line for line in lines)


def test_checksum_matches_sequential_sum():
    bg = run.Blockgen()
    mv = bg.matval
    rows = [[mv.make(mv.F64, 2, 1, [0.1, 0.2]), mv.make(mv.I32, 1, 1, [3])]] * 2
    fsum, isum = cdriver.expected_checksum(rows, passes=2, loops=3)
    fpass = 0.0
    for v in (0.1, 0.2, 0.1, 0.2):
        fpass += v
    total = 0.0
    for _ in range(6):
        total += fpass
    assert fsum == total and isum == 36


@pytest.mark.parametrize("simulated,failed", [
    ([], 1),                          # no steps at all
    ([[1.0, 2.0]], 1),                # a step short
    ([[1.0, 2.0], [3.0]], 1),         # a port short
    ([[1.0, 2.0], [3.0, 4.5]], 1),    # a wrong value
    ([[1.0, 2.0], [3.0, 4.0]], 0),
])
def test_simulate_vs_interpreter_catches_short_results(simulated, failed):
    mv = run.Blockgen().matval

    def rows(values):
        return [[mv.make(mv.F64, 1, 1, [v]) for v in row] for row in values]

    ledger = run.Ledger()
    run.compare_sim_interp(ledger, rows(simulated), rows([[1.0, 2.0], [3.0, 4.0]]))
    assert ledger.failed == failed


def test_missing_checkout_fails(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "kalman", "--seed", "1", "--seconds", "0"]) == 2
