"""blockgen benchmark: model text -> C, simulation, interpreter, compiled C.

    python3 perfbench/run.py --workload chain-480|kalman \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout: blockgen is imported from `src/` and the
fixtures are read from `tests/fixtures/`. One process, one caller, no
threads; `cc` and the compiled binary run as one child at a time.

Measured rounds repeat until `--seconds` have passed. A round first sets up
(`setup_s`): it imports blockgen afresh, synthesises the workload's model
text from the seed and draws the stimuli. It then parses and generates C
(`generate_s`), simulates a fresh parse, runs the interpreter on the
generated program, compiles the C with a generated driver (`c_compile_s`)
and runs the binary (`c_step_ns`).

Each time reported is the fastest of the run's samples, with the median
printed beside it; README.md says why. Every round checks the three
executions against each other: simulation against the interpreter
(bit-exact for integers and booleans, relative 1e-12 for f64), the binary's
`%a` output and checksum against the interpreter exactly, and each round's C
text against the first round's. Failed operations and mismatches count in
`failed`; nothing is filtered.

With `--trace 1` the same rounds run with spans recorded around blockgen's
module attributes (see spans.py), each after one untraced generate, and the
per-layer metrics are reported instead, with the chain's scaling exponents
and the tracing overhead. Spans are written to .bench_build/ when the run
ends.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "tests" / "fixtures"
BUILD = ROOT / ".bench_build"

sys.path.insert(0, str(HERE))
import cdriver  # noqa: E402
import spans  # noqa: E402
import workloads as W  # noqa: E402

SCALE_STAGES = (80, 320)    # 240 and 960 blocks
SCALE_SIM_STEPS = 2
SCALE_REPS = 2
F64_REL_TOL = 1e-12

END_TO_END_UNITS = {
    "setup_s": "s", "generate_s": "s", "simulate_steps_per_s": "1/s",
    "interp_steps_per_s": "1/s", "c_compile_s": "s", "c_step_ns": "ns",
    "c_bytes": "bytes", "generate_peak_rss_mb": "MiB",
}
GROWTH_LAYERS = ("model.parse", "model.infer", "model.propagate_constants",
                 "model.schedule", "trace.record", "optimizer.inline", "cemit.emit",
                 "model.simulate_self")
PER_LAYER_UNITS = {
    "model.parse_s": "s", "model.infer_s": "s", "model.propagate_constants_s": "s",
    "model.schedule_s": "s", "model.simulate_self_s": "s",
    "model.block_runs": "count/step", "model.us_per_block_run": "us",
    "trace.record_s": "s", "trace.instr_recorded": "count",
    "optimizer.finalize_s": "s", "optimizer.fold_s": "s", "optimizer.inline_s": "s",
    "optimizer.dce_s": "s", "optimizer.instr_out": "count", "optimizer.kept_ratio": "ratio",
    "optimizer.statics": "count", "cemit.emit_s": "s", "cemit.functions": "count",
    "irinterp.run_s": "s", "irinterp.instr_executed": "count/step",
    "irinterp.us_per_instr": "us", "cc.binary_bytes": "bytes",
    "trace_overhead_ratio": "ratio",
}
for _layer in GROWTH_LAYERS:
    PER_LAYER_UNITS[_layer + ".growth"] = "exponent"
    PER_LAYER_UNITS[_layer + ".t240_s"] = "s"
    PER_LAYER_UNITS[_layer + ".t960_s"] = "s"
CC_KEYS = ("c_compile_s", "c_step_ns", "cc.binary_bytes")


class Blockgen:
    """The modules of one import of the package."""

    def __init__(self):
        for name in [m for m in sys.modules if m == "blockgen" or m.startswith("blockgen.")]:
            del sys.modules[name]
        pkg = importlib.import_module("blockgen")
        if not Path(pkg.__file__).resolve().is_relative_to(SRC.resolve()):
            raise RuntimeError("imported blockgen from {}, not {}".format(pkg.__file__, SRC))
        for sub in ("model", "blocks", "cemit", "directives", "irinterp", "matval",
                    "optimizer"):
            setattr(self, sub, importlib.import_module("blockgen." + sub))


class Ledger:
    """Operations attempted and failed; every failure is printed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, what, fn, *args):
        """Run one operation; returns its value, or None when it raised."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:
            self.failed += 1
            print("FAILED {}:\n{}".format(what, traceback.format_exc()), file=sys.stderr)
            return None

    def check(self, what, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print("MISMATCH {} {}".format(what, detail), file=sys.stderr)


class Workload:
    """Everything set-up produces: the package, the model text, stimuli."""

    def __init__(self, name, seed):
        self.name, self.seed = name, seed
        self.spec = W.SPECS[name]
        self.bg = Blockgen()
        rng = random.Random(seed)
        self.text = W.model_text(name, rng, FIXTURES)
        steps = max(self.spec.sim_steps, self.spec.interp_steps)
        self.stimuli = W.stimuli(name, rng, steps, self.bg.matval)

    def generate(self, text=None):
        md = self.bg.model
        parsed = md.parse_model(self.text if text is None else text)
        cfg = self.bg.cemit.EmitConfig(block_id=parsed.base_id, include_runtime_header=False)
        return md.generate(parsed, cfg)


def compare_sim_interp(ledger, simulated, interpreted):
    """validate's rule, one comparison per output port per step."""
    ledger.check("simulate step count", len(simulated) == len(interpreted),
                 "{} vs {}".format(len(simulated), len(interpreted)))
    for step, (srow, irow) in enumerate(zip(simulated, interpreted)):
        ledger.check("simulate port count", len(srow) == len(irow),
                     "step {}: {} vs {}".format(step, len(srow), len(irow)))
        for port, (s, i) in enumerate(zip(srow, irow)):
            if s.dtype.is_float:
                ok = len(s.data) == len(i.data) and all(
                    abs(x - y) <= F64_REL_TOL * max(abs(x), abs(y), 1.0)
                    for x, y in zip(s.data, i.data))
            else:
                ok = s.data == i.data
            ledger.check("simulate vs interpreter", ok,
                         "step {} output {}: {} vs {}".format(step, port, s.data, i.data))


def compare_c_interp(ledger, c_rows, interpreted):
    ledger.check("binary step count", len(c_rows) == len(interpreted),
                 "{} vs {}".format(len(c_rows), len(interpreted)))
    for step, (crow, irow) in enumerate(zip(c_rows, interpreted)):
        ledger.check("binary port count", len(crow) == len(irow),
                     "step {}: {} vs {}".format(step, len(crow), len(irow)))
        for port, (c, i) in enumerate(zip(crow, irow)):
            want = list(i.data) if i.dtype.is_float else [int(v) for v in i.data]
            ledger.check("compiled C vs interpreter", c == want,
                         "step {} output {}: {} vs {}".format(step, port, c, want))


def run_round(work, ledger, workdir, tracer=None, reference=None):
    """One generate, simulate, interpret, compile and binary run, checked.
    Returns the samples (with the phase spans, when tracing) and the
    generate result, which is None when generation failed."""
    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    spec, md = work.spec, work.bg.model
    out = {"phases": {}}

    def timed(key, fn, *args):
        gc.collect()
        with span("phase." + key) as ph:
            t0 = time.perf_counter()
            value = ledger.run(key, fn, *args)
            elapsed = time.perf_counter() - t0
        out["phases"][key] = ph
        if value is not None:
            out[key + "_s"] = elapsed
        return value

    result = timed("generate", work.generate)
    if result is None:
        return out, None
    if reference is not None:
        ledger.check("C text identical across generates", result.text == reference)

    fresh = ledger.run("parse for simulate", md.parse_model, work.text)
    simulated = None if fresh is None else timed(
        "simulate", md.simulate, fresh, work.stimuli, spec.sim_steps)
    interpreted = timed("interp", _interpret, work, result.program)
    if interpreted is None:
        return out, result
    if simulated is not None:
        compare_sim_interp(ledger, simulated, interpreted[:spec.sim_steps])

    if cdriver.cc_path() is None:
        return out, result
    ports = result.program.meta["ports"]
    entry = "toto{}".format(result.program.meta["base_id"])
    stimuli = work.stimuli[:spec.interp_steps]
    driver = cdriver.driver_source(ports, entry, stimuli, W.C_PASSES, W.C_LOOPS)
    with span("phase.cc"):
        build = ledger.run("compile", cdriver.compile_unit, workdir, result.text, driver)
        ran = build and ledger.run("run binary", cdriver.run_binary, build.exe, ports)
    if not ran:
        return out, result
    out["c_compile_s"] = build.compile_s
    out["binary_bytes"] = build.binary_bytes
    per_loop = W.C_PASSES * len(stimuli)
    out["c_step_ns"] = [ns / per_loop for ns in ran.loop_ns]
    compare_c_interp(ledger, ran.rows, interpreted)
    want = cdriver.expected_checksum(interpreted, W.C_PASSES, W.C_LOOPS)
    ledger.check("binary checksum", ran.checksum == want, "{} vs {}".format(ran.checksum, want))
    return out, result


def _interpret(work, program):
    machine = work.bg.irinterp.Machine(program).run_init()
    return machine.run_steps(work.stimuli, work.spec.interp_steps)


def measure_rounds(next_work, ledger, workdir, seconds, tracer=None, on_round=None):
    """Rounds until `seconds` have passed; `next_work()` gives each round its
    Workload. Only the first generate result is kept, so later rounds run
    with the same live heap."""
    deadline = time.perf_counter() + seconds
    rounds, first = [], None
    while not rounds or time.perf_counter() < deadline:
        current = next_work()
        r, result = run_round(current, ledger, workdir, tracer,
                              first.text if first else None)
        first = first or result
        if on_round is not None and result is not None:
            on_round(r, result)
        rounds.append(r)
        del result
    if len(rounds) == 1 and first is not None:
        again = ledger.run("generate", current.generate)
        if again is not None:
            ledger.check("C text identical across generates", again.text == first.text)
    return rounds, first


def samples(rounds, key):
    return [r[key] for r in rounds if key in r]


def fastest(values):
    return min(values) if values else None


def sha_report(text, name, seed):
    """The C text's SHA-256 against the one recorded in c_sha256.json; a
    difference is reported, not counted as a failure."""
    digest = hashlib.sha256(text.encode()).hexdigest()
    refs = json.loads((HERE / "c_sha256.json").read_text()).get(name, {})
    ref = refs.get(str(seed), refs.get("any"))
    if ref is None:
        verdict = "no reference for seed {}".format(seed)
    elif ref == digest:
        verdict = "same as the reference"
    else:
        verdict = "DIFFERS from the reference {}".format(ref)
    return "c_sha256 {} ({})".format(digest, verdict)


def print_metric(key, value, unit, note=""):
    """One metric by name and unit; a missing one is unavailable, never 0."""
    if value is None:
        why = "no C compiler on PATH" if key in CC_KEYS and not cdriver.cc_path() \
            else "no successful sample"
        print("{:<36} unavailable ({})".format(key, why))
    else:
        print("{:<36} {:.6g} {}{}".format(key, value, unit, note))


def peak_rss_mb(text, workdir):
    path = os.path.join(workdir, "model.txt")
    with open(path, "w") as f:
        f.write(text)
    done = subprocess.run([sys.executable, str(HERE / "gen_child.py"), str(SRC), path],
                          capture_output=True, text=True, timeout=170, check=True)
    return float(done.stdout.split()[-1])


# ---------------------------------------------------------------------------
# end-to-end run


def end_to_end(name, seed, ledger, workdir, seconds):
    spec, setup_times, works = W.SPECS[name], [], []

    def set_up():
        gc.collect()
        t0 = time.perf_counter()
        works[:] = [Workload(name, seed)]
        setup_times.append(time.perf_counter() - t0)
        return works[0]

    rounds, first = measure_rounds(set_up, ledger, workdir, seconds)
    timings = {   # metric -> (samples, sample -> metric value)
        "setup_s": (setup_times, float),
        "generate_s": (samples(rounds, "generate_s"), float),
        "simulate_steps_per_s": (samples(rounds, "simulate_s"), lambda t: spec.sim_steps / t),
        "interp_steps_per_s": (samples(rounds, "interp_s"), lambda t: spec.interp_steps / t),
        "c_compile_s": (samples(rounds, "c_compile_s"), float),
        "c_step_ns": ([ns for r in rounds for ns in r.get("c_step_ns", [])], float),
    }
    metrics = {k: conv(fastest(xs)) if xs else None for k, (xs, conv) in timings.items()}
    metrics["c_bytes"] = len(first.text.encode()) if first else None
    metrics["generate_peak_rss_mb"] = ledger.run(
        "peak RSS child", peak_rss_mb, works[0].text, workdir)

    print("rounds {}; simulate {} steps, interpreter and binary {} steps per run; "
          "binary times {} loops of {} passes".format(
              len(rounds), spec.sim_steps, spec.interp_steps, W.C_LOOPS, W.C_PASSES))
    if first:
        print(sha_report(first.text, name, seed))
    for key, unit in END_TO_END_UNITS.items():
        xs, conv = timings.get(key, ([], None))
        note = " (fastest of {} samples; median {:.6g})".format(
            len(xs), conv(statistics.median(xs))) if xs else ""
        print_metric(key, metrics[key], unit, note)
    return metrics, END_TO_END_UNITS


# ---------------------------------------------------------------------------
# traced run


def install(tracer, bg, recorded):
    """Wrap the attributes the pipeline calls. Each span is named after the
    module attribute it wraps."""
    def on_finalize(ctx, *args, **kwargs):
        recorded["instr_recorded"] = sum(len(fn.body) for fn in ctx.functions)

    md, opt = bg.model, bg.optimizer
    targets = [
        (md, "parse_model", "model.parse_model"), (md, "generate", "model.generate"),
        (md, "simulate", "model.simulate"), (md, "infer", "model.infer"),
        (md, "propagate_constants", "model.propagate_constants"),
        (md, "schedule", "model.schedule"), (md, "_init_states", "model._init_states"),
        (opt, "optimize_body", "optimizer.optimize_body"),
        (opt, "_pass_fold", "optimizer._pass_fold"),
        (opt, "_pass_inline", "optimizer._pass_inline"),
        (opt, "_pass_dce", "optimizer._pass_dce"),
        (bg.cemit, "emit_program", "cemit.emit_program"),
        (bg.irinterp.Machine, "run_steps", "irinterp.run_steps"),
    ]
    for owner, attr, name in targets:
        tracer.wrap(owner, attr, name)
    # generate calls the name it imported from directives
    tracer.wrap(md, "finalize_program", "directives.finalize_program", on_enter=on_finalize)
    tracer.count(bg.blocks, "behavior", "blocks.behavior")


def generate_layers(tracer, phase):
    """Layer times below one parse + generate phase."""
    gen = tracer.under(phase, "model.generate")[0]
    return {
        "model.parse_s": tracer.total(phase, "model.parse_model"),
        "model.infer_s": tracer.total(gen, "model.infer"),
        "model.propagate_constants_s": tracer.total(gen, "model.propagate_constants"),
        "model.schedule_s": tracer.total(gen, "model.schedule"),
        "trace.record_s": tracer.self_time(gen),
        "optimizer.finalize_s": tracer.total(gen, "directives.finalize_program"),
        "optimizer.fold_s": tracer.total(gen, "optimizer._pass_fold"),
        "optimizer.inline_s": tracer.total(gen, "optimizer._pass_inline"),
        "optimizer.dce_s": tracer.total(gen, "optimizer._pass_dce"),
        "cemit.emit_s": tracer.total(gen, "cemit.emit_program"),
    }


def round_layers(tracer, r, program, recorded, sim_steps):
    values = generate_layers(tracer, r["phases"]["generate"])
    instr_out = sum(len(fn.body) for fn in program.functions)
    values.update({
        "trace.instr_recorded": recorded["instr_recorded"],
        "optimizer.instr_out": instr_out,
        "optimizer.kept_ratio": instr_out / recorded["instr_recorded"],
        "optimizer.statics": len(program.statics),
        "cemit.functions": len(program.functions) + 1,
    })
    if "simulate_s" in r:
        sim = tracer.under(r["phases"]["simulate"], "model.simulate")[0]
        runs = tracer.counts.get(("blocks.behavior", "model.simulate"), 0)
        values["model.simulate_self_s"] = tracer.self_time(sim)
        values["model.block_runs"] = runs / sim_steps
        values["model.us_per_block_run"] = tracer.self_time(sim) / runs * 1e6
    if "interp_s" in r:
        values["irinterp.run_s"] = tracer.total(r["phases"]["interp"], "irinterp.run_steps")
    if "binary_bytes" in r:
        values["cc.binary_bytes"] = r["binary_bytes"]
    tracer.counts.clear()
    return values


def chain_scaling(work, tracer, ledger):
    """Layer times of the chain at 240 and 960 blocks: SCALE_REPS traced
    generates and simulates of each size, the sizes alternating."""
    md, steps = work.bg.model, SCALE_SIM_STEPS
    times = {stages: [] for stages in SCALE_STAGES}
    for stages in SCALE_STAGES * SCALE_REPS:
        rng = random.Random(work.seed)
        text = W.chain_text(stages, rng)
        stimuli = W.stimuli("chain-{}".format(3 * stages), rng, steps, work.bg.matval)
        with tracer.span("scale.generate") as gen_phase:
            ledger.run("generate chain-{}".format(3 * stages), work.generate, text)
        fresh = md.parse_model(text)
        with tracer.span("scale.simulate") as sim_phase:
            ledger.run("simulate chain-{}".format(3 * stages), md.simulate, fresh, stimuli, steps)
        t = generate_layers(tracer, gen_phase)
        t["model.simulate_self_s"] = tracer.self_time(
            tracer.under(sim_phase, "model.simulate")[0])
        times[stages].append(t)
    tracer.counts.clear()
    values = {}
    for layer in GROWTH_LAYERS:
        small, large = (fastest([t[layer + "_s"] for t in times[stages]])
                        for stages in SCALE_STAGES)
        values[layer + ".t240_s"] = small
        values[layer + ".t960_s"] = large
        values[layer + ".growth"] = math.log(large / small) / math.log(4)
    return values


def count_instructions(work, tracer, program):
    """Interpreter instructions executed per step, from a separate counted
    run so that counting does not slow the timed interpreter runs."""
    tracer.count(work.bg.irinterp.Machine, "_exec", "irinterp.exec")
    _interpret(work, program)
    executed = tracer.counts.get(("irinterp.exec", "irinterp.run_steps"), 0)
    tracer.counts.clear()
    return executed / work.spec.interp_steps


def traced(work, ledger, workdir, seconds):
    bg, tracer, recorded = work.bg, spans.Tracer(), {}
    untraced, per_round = [], []

    def next_round():
        """An untraced generate before each traced round, so that the two
        interleave and `trace_overhead_ratio` compares like with like."""
        tracer.restore()
        gc.collect()
        t0 = time.perf_counter()
        if ledger.run("generate", work.generate) is not None:
            untraced.append(time.perf_counter() - t0)
        install(tracer, bg, recorded)
        return work

    try:
        rounds, first = measure_rounds(
            next_round, ledger, workdir, seconds, tracer,
            on_round=lambda r, result: per_round.append(
                round_layers(tracer, r, result.program, recorded, work.spec.sim_steps)))
        executed = first and ledger.run("count interpreter instructions",
                                        count_instructions, work, tracer, first.program)
        scaling = ledger.run("chain scaling", chain_scaling, work, tracer, ledger) or {}
    finally:
        wrapped = tracer.wrapped()
        tracer.restore()
        for owner, attr, orig in wrapped:
            ledger.check("restored {}.{}".format(owner.__name__, attr),
                         vars(owner)[attr] is orig)
    BUILD.mkdir(exist_ok=True)
    tracer.dump(BUILD / "perfbench-trace-{}-seed{}.json".format(work.name, work.seed))

    metrics = {k: fastest([v[k] for v in per_round if k in v]) for k in PER_LAYER_UNITS}
    metrics.update(scaling)
    metrics["irinterp.instr_executed"] = executed
    if executed and metrics["irinterp.run_s"]:
        metrics["irinterp.us_per_instr"] = metrics["irinterp.run_s"] / (
            work.spec.interp_steps * executed) * 1e6
    traced_gen = fastest(samples(rounds, "generate_s"))
    if traced_gen and untraced:
        metrics["trace_overhead_ratio"] = traced_gen / fastest(untraced)

    print("traced rounds {}; growth = log(t960 / t240) / log 4 on the chain".format(
        len(rounds)))
    print("optimizer.kept_ratio base: optimizer.instr_out / trace.instr_recorded = "
          "{} / {}".format(metrics["optimizer.instr_out"], metrics["trace.instr_recorded"]))
    for key, unit in PER_LAYER_UNITS.items():
        print_metric(key, metrics[key], unit)
    return metrics, PER_LAYER_UNITS


# ---------------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(W.SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in (SRC / "blockgen" / "__init__.py", FIXTURES / "kalman.model"):
        if not needed.is_file():
            print("error: {} not found; run from the root of a blockgen checkout"
                  .format(needed), file=sys.stderr)
            return 2
    sys.path.insert(0, str(SRC))

    print("workload {} seed {} seconds {} trace {}".format(
        args.workload, args.seed, args.seconds, args.trace))
    print("python {}".format(sys.version.split()[0]))
    if cdriver.cc_path():
        print("cc: {}; flags: {} {} -o prog unit.c driver.c {}".format(
            cdriver.cc_version(), cdriver.CC, " ".join(cdriver.CC_FLAGS),
            " ".join(cdriver.LIBS)))
    else:
        print("cc: not found on PATH; cc-layer metrics unavailable")

    ledger = Ledger()
    BUILD.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="perfbench-", dir=BUILD)
    try:
        if args.trace:
            metrics, units = traced(Workload(args.workload, args.seed), ledger, workdir,
                                    args.seconds)
        else:
            metrics, units = end_to_end(args.workload, args.seed, ledger, workdir,
                                        args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("error_rate {} = {} failed / {} attempted (operations: generate, simulate, "
          "interpret, compile, run binary; comparisons: one per output port per step)"
          .format(ledger.failed / ledger.attempted, ledger.failed, ledger.attempted))
    print(json_line(ledger, metrics, units))
    return 0


def json_line(ledger, metrics, units):
    return json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    })


if __name__ == "__main__":
    sys.exit(main())
