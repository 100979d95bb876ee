"""Command-line front end: generate, simulate, validate, dump-ir."""

from __future__ import annotations

import argparse
import math
import random
import sys

from . import matval as mv
from .cemit import EmitConfig, format_number
from .irinterp import Machine
from .model import generate, parse_model, simulate


def _load(path):
    with open(path) as f:
        return parse_model(f.read())


def _config(args, model) -> EmitConfig:
    return EmitConfig(block_id=model.base_id,
                      include_runtime_header=(args.emit == "runtime"))


def _random_stimuli(model, steps, seed):
    rng = random.Random(seed)
    inputs = []
    for _ in range(steps):
        row = []
        for p in sorted(model.inputs, key=lambda p: p.index):
            data = []
            for _ in range(p.rows * p.cols):
                if p.dtype.is_float:
                    data.append(rng.uniform(-10.0, 10.0))
                elif p.dtype.is_bool:
                    data.append(rng.random() < 0.5)
                elif p.dtype.signed:
                    data.append(rng.randint(-5, 5))
                else:
                    data.append(rng.randint(0, 10))
            row.append(mv.make(p.dtype, p.rows, p.cols, data))
        inputs.append(row)
    return inputs


def cmd_generate(args) -> int:
    model = _load(args.model)
    result = generate(model, _config(args, model), not args.no_opt)
    out = args.out or (args.model.rsplit(".", 1)[0] + ".c")
    with open(out, "w", newline="\n") as f:
        f.write(result.text)
    n_instr = sum(len(fn.body) for fn in result.program.functions)
    print("wrote {} ({} statics, {} instructions, {} functions)".format(
        out, len(result.program.statics), n_instr, len(result.program.functions)))
    return 0


def cmd_simulate(args) -> int:
    model = _load(args.model)
    inputs = _random_stimuli(model, args.steps, args.seed)
    outputs = simulate(model, inputs, args.steps)
    ports = sorted(model.outputs, key=lambda p: p.index)
    header = ["step"]
    for p in ports:
        header.extend("out{}[{}]".format(p.index, k) for k in range(p.rows * p.cols))
    print("\t".join(header))
    for step, row in enumerate(outputs):
        cells = [str(step)]
        for value in row:
            cells.extend(format_number(v, value.dtype) for v in value.data)
        print("\t".join(cells))
    return 0


def _deviation(a: mv.MatValue, b: mv.MatValue):
    """(worst deviation, its element index) between two values of one port;
    (0.0, None) when they agree. Values of different dtypes or shapes have
    no elements to pair: they deviate infinitely, at "shape". An f64
    deviation is relative; a NaN on exactly one side, or an infinity against
    any other value, deviates infinitely, and NaN on both sides agrees. Any
    other dtype deviates by 1.0 per unequal element."""
    if a.dtype is not b.dtype or a.shape != b.shape:
        return math.inf, "shape"
    worst, at = 0.0, None
    for k, (x, y) in enumerate(zip(a.data, b.data)):
        if x == y:
            continue
        if a.dtype.is_float:
            if math.isnan(x) and math.isnan(y):
                continue
            dev = abs(x - y) / max(abs(x), abs(y), 1.0)
            if math.isnan(dev):
                dev = math.inf
        else:
            dev = 1.0
        if at is None or dev > worst:
            worst, at = dev, k
    return worst, at


def cmd_validate(args) -> int:
    model = _load(args.model)
    inputs = _random_stimuli(model, args.steps, args.seed)
    simulated = simulate(model, inputs, args.steps)
    result = generate(model, _config(args, model), not args.no_opt)
    machine = Machine(result.program).run_init()
    interpreted = machine.run_steps(inputs, args.steps)
    ports = sorted(model.outputs, key=lambda p: p.index)
    worst, bad = 0.0, None
    for step, (srow, irow) in enumerate(zip(simulated, interpreted)):
        for port, s, i in zip(ports, srow, irow):
            dev, k = _deviation(s, i)
            if k is not None and (bad is None or dev > worst):
                worst, bad = dev, (step, port.index, k, s, i)
    tol = 0.0 if all(not p.dtype.is_float for p in model.outputs) else 1e-12
    print("max deviation {} over {} steps".format(worst, args.steps))
    if worst > tol:
        step, port, k, s, i = bad
        if k == "shape":
            where = ""
            s_text = "{} {}x{}".format(s.dtype, *s.shape)
            i_text = "{} {}x{}".format(i.dtype, *i.shape)
        else:
            where = " element {}".format(k)
            s_text, i_text = format_number(s.data[k], s.dtype), format_number(i.data[k], i.dtype)
        print("MISMATCH at step {} output {}{}: simulation {}, generated code {}".format(
            step, port, where, s_text, i_text), file=sys.stderr)
        return 1
    print("simulation and generated code agree")
    return 0


def cmd_dump_ir(args) -> int:
    model = _load(args.model)
    result = generate(model, _config(args, model), not args.no_opt)
    prog = result.program
    for s in prog.statics:
        print("static {} {} {}x{} = {}".format(
            s.name, s.dtype, s.rows, s.cols, list(s.init.data)))
    for fn in [prog.init_fn] + prog.functions:
        print("function {}({})".format(fn.name, ", ".join(p.name for p in fn.params)))
        for d in fn.decls.values():
            print("  decl {} {} {}x{}{}".format(
                d.name, d.dtype, d.rows, d.cols,
                " init" if d.init is not None else ""))
        for instr in fn.body:
            print("  {!r}".format(instr))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="blockgen",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, steps=False, generates=True):
        p.add_argument("model", help="model file")
        if generates:
            p.add_argument("--emit", choices=("runtime", "freestanding"), default="runtime")
            p.add_argument("--no-opt", action="store_true",
                           help="emit the recorded trace without folding, inlining or DCE")
        if steps:
            p.add_argument("--steps", type=int, default=20)
            p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("generate", help="emit the C program for a model")
    common(p)
    p.add_argument("--out", help="output path (default: model path with .c)")
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("simulate", help="run the model numerically")
    common(p, steps=True, generates=False)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("validate", help="compare simulation against the generated code")
    common(p, steps=True)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("dump-ir", help="print the optimized pseudo-code")
    common(p)
    p.set_defaults(fn=cmd_dump_ir)

    args = parser.parse_args(argv)
    if getattr(args, "steps", 1) < 0:
        parser.error("--steps must be nonnegative")
    try:
        return args.fn(args)
    except Exception as e:  # surface pipeline errors as diagnostics
        print("error: {}".format(e), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
