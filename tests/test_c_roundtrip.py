"""Compile the freestanding output with the system C compiler and compare
a stepped run against the interpreter: bitwise for integers and booleans,
exact for doubles (both sides perform the operations in the same order).

Skipped when no C compiler is on PATH or BLOCKGEN_SKIP_CC is set.
"""

import math
import os
import random
import shutil
import struct
import subprocess

import pytest

import blockgen as bg
from blockgen import blocks
from blockgen import matval as mv
from blockgen import trace as tr
from blockgen.cemit import EmitConfig, format_number
from blockgen.directives import finalize_program
from blockgen.irinterp import Machine
from blockgen.model import ModelError

from conftest import load_model_text, random_matvalue

pytestmark = pytest.mark.skipif(
    shutil.which("cc") is None or os.environ.get("BLOCKGEN_SKIP_CC") == "1",
    reason="needs a C toolchain (set BLOCKGEN_SKIP_CC=1 to silence)")

STEPS = 100


def _inputs_for(model, steps, seed):
    rng = random.Random(seed)
    out = []
    for _ in range(steps):
        row = []
        for p in sorted(model.inputs, key=lambda p: p.index):
            if p.dtype.tag == "i32":
                row.append(mv.make(p.dtype, p.rows, p.cols,
                                   [rng.randint(0, 1) for _ in range(p.rows * p.cols)]))
            else:
                row.append(random_matvalue(rng, p.dtype, p.rows, p.cols))
        out.append(row)
    return out


def _c_literal(v, dtype):
    if dtype.is_float:
        return float(v).hex() if math.isfinite(v) else format_number(v, dtype)
    return str(int(v))


def _driver_source(model, entry, inputs):
    ports = sorted(model.inputs, key=lambda p: p.index) + \
        sorted(model.outputs, key=lambda p: p.index)
    names = ["inouts{}".format(k + 1) for k in range(len(ports))]
    lines = ["#include <math.h>", "#include <stdio.h>", "#include <string.h>",
             "#include <stdint.h>", ""]
    lines.append("extern void {}(int flag,{});".format(
        entry, ",".join("{} *{}".format(p.dtype.ctype, n)
                        for p, n in zip(ports, names))))
    n_in = len(model.inputs)
    for k, p in enumerate(ports[:n_in]):
        rows = []
        for step in inputs:
            vals = step[k]
            rows.append("{" + ",".join(_c_literal(v, p.dtype) for v in vals.data) + "}")
        lines.append("static {} stim{}[{}][{}] = {{{}}};".format(
            p.dtype.ctype, k + 1, len(inputs), p.rows * p.cols, ",".join(rows)))
    lines.append("int main(void){")
    for p, n in zip(ports, names):
        lines.append("  {} {}[{}] = {{0}};".format(p.dtype.ctype, n, p.rows * p.cols))
    lines.append("  {}(4,{});".format(entry, ",".join(names)))
    lines.append("  for (int s = 0; s < {}; s++) {{".format(len(inputs)))
    for k, p in enumerate(ports[:n_in]):
        lines.append("    memcpy({}, stim{}[s], sizeof({}));".format(
            names[k], k + 1, names[k]))
    lines.append("    {}(1,{});".format(entry, ",".join(names)))
    for k, p in enumerate(ports[n_in:], start=n_in):
        fmt = "%a" if p.dtype.is_float else "%d"
        lines.append("    for (int i = 0; i < {}; i++) printf(\"{} \", {}[i]);"
                     .format(p.rows * p.cols, fmt, names[k]))
    lines.append("    printf(\"\\n\");")
    lines.append("    {}(2,{});".format(entry, ",".join(names)))
    lines.append("  }")
    lines.append("  return 0;")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _parse_output(text, model):
    out_ports = sorted(model.outputs, key=lambda p: p.index)
    rows = []
    for line in text.strip().splitlines():
        toks = line.split()
        row = []
        pos = 0
        for p in out_ports:
            n = p.rows * p.cols
            vals = toks[pos:pos + n]
            pos += n
            if p.dtype.is_float:
                row.append([float.fromhex(t) for t in vals])
            else:
                row.append([int(t) for t in vals])
        rows.append(row)
    return rows


def _same_f64(x, y):
    """Equal bit patterns, or NaN on both sides (as `validate` counts it)."""
    return struct.pack("<d", x) == struct.pack("<d", y) or (math.isnan(x) and math.isnan(y))


def _roundtrip(tmp_path, model, inputs, opt="-O0"):
    model = bg.infer(model)
    result = bg.generate(model, EmitConfig(block_id=model.base_id,
                                           include_runtime_header=False))
    entry = "toto{}".format(model.base_id)
    unit = tmp_path / "gen.c"
    unit.write_text(result.text)
    driver = tmp_path / "main.c"
    driver.write_text(_driver_source(model, entry, inputs))
    exe = tmp_path / "prog"
    subprocess.run(["cc", opt, "-o", str(exe), str(unit), str(driver), "-lm"],
                   check=True, capture_output=True)
    run = subprocess.run([str(exe)], check=True, capture_output=True, text=True)
    compiled = _parse_output(run.stdout, model)

    machine = Machine(result.program).run_init()
    interpreted = machine.run_steps(inputs, len(inputs))
    assert len(compiled) == len(inputs)
    for step, (crow, irow) in enumerate(zip(compiled, interpreted)):
        for cvals, ival in zip(crow, irow):
            if ival.dtype.is_float:
                assert len(cvals) == ival.size and all(map(_same_f64, cvals, ival.data)), \
                    "step {}: {} vs {}".format(step, cvals, list(ival.data))
            else:
                assert cvals == [int(v) for v in ival.data], "step {}".format(step)
    return compiled


@pytest.mark.parametrize("fixture,seed", [
    ("twodelays.model", 1), ("coding.model", 2), ("kalman.model", 3)])
def test_compiled_matches_interpreter(tmp_path, fixture, seed):
    model = bg.parse_model(load_model_text(fixture))
    _roundtrip(tmp_path, model, _inputs_for(model, STEPS, seed))


def test_compiled_integer_wraparound(tmp_path):
    from test_model import MIXED_INT_MODEL
    model = bg.parse_model(MIXED_INT_MODEL)
    rng = random.Random(9)
    inputs = [[mv.make(mv.DTYPES["i16"], 1, 1, [rng.randint(-30000, 30000)])]
              for _ in range(STEPS)]
    _roundtrip(tmp_path, model, inputs)


def test_compiled_vector_ports(tmp_path):
    from test_model import VECTOR_MODEL
    model = bg.parse_model(VECTOR_MODEL)
    inputs = _inputs_for(model, STEPS, 10)
    _roundtrip(tmp_path, model, inputs)


def test_compiled_nonfinite_literals(tmp_path):
    from test_cemit import NONFINITE_MODEL
    model = bg.parse_model(NONFINITE_MODEL)
    _roundtrip(tmp_path, model, _inputs_for(model, STEPS, 11))


def test_compiled_constant_fed_ports(tmp_path):
    from test_model import CONST_PORT_MODEL
    model = bg.parse_model(CONST_PORT_MODEL)
    _roundtrip(tmp_path, model, [[]] * STEPS)


def test_compiled_input_fed_ports(tmp_path):
    from test_model import ECHO_PORT_MODEL
    model = bg.parse_model(ECHO_PORT_MODEL)
    inputs = _inputs_for(model, STEPS, 12)
    compiled = _roundtrip(tmp_path, model, inputs)
    simulated = bg.simulate(bg.parse_model(ECHO_PORT_MODEL), inputs, STEPS)
    for row, crow, srow in zip(inputs, compiled, simulated):
        assert crow[0] == list(srow[0].data) == list(row[0].data)
        assert crow[2] == list(srow[2].data) == list(row[1].data)


# a comparison drives an i32 link into block 2, whose other input (if any)
# is input 1; the block kind and its parameters fill the gap
COMPARE_FEED_MODEL = """model 96
input 1 i32 1 1
input 2 i32 1 1
output 1 i32 {rows} 1
block 1 relational_op op=gt
block 2 {block}
link 1 in:1 -> 1.1{second}
link 2 in:2 -> 1.2
link 3 1.1 -> 2.1
link 4 2.1 -> out:1
"""

COMPARE_FEEDS = {
    "mux": ("mux", True, 2),
    "relational_op": ("relational_op op=ne", True, 1),
    "summation1": ("summation signs=f64[1x1](-1)", False, 1),
    "summation": ("summation signs=f64[1x2](1 -1)", True, 1),
    "gain": ("gain gain=f64[1x1](3)", False, 1),
    "unit_delay": ("unit_delay init=i32[1x1](5)", False, 1),
}


@pytest.mark.parametrize("opt", ["-O0", "-O2"])
@pytest.mark.parametrize("feed", sorted(COMPARE_FEEDS))
def test_compiled_comparison_through_i32_link(tmp_path, feed, opt):
    """A comparison converted to an i32 link reaches each consumer as an
    i32 value: simulate, the interpreter and the C agree."""
    block, second, rows = COMPARE_FEEDS[feed]
    text = COMPARE_FEED_MODEL.format(block=block, rows=rows, second=", 2.2" if second else "")
    assert bg.infer(bg.parse_model(text)).links[3].dtype is mv.I32
    model = bg.parse_model(text)
    inputs = _inputs_for(model, STEPS, 13)
    compiled = _roundtrip(tmp_path, model, inputs, opt)
    simulated = bg.simulate(bg.parse_model(text), inputs, STEPS)
    assert [[list(v.data) for v in row] for row in simulated] == compiled


NEGATIVE_ZERO_MODEL = """model 97
output 1 f64 1 1
block 1 const value=f64[1x1](-0)
link 1 1.1 -> out:1
"""


@pytest.mark.parametrize("opt", ["-O0", "-O2"])
def test_compiled_negative_zero_literal(tmp_path, opt):
    """A negative zero keeps its sign in simulate, the interpreter and the C."""
    model = bg.parse_model(NEGATIVE_ZERO_MODEL)
    compiled = _roundtrip(tmp_path, model, [[]] * 3, opt)
    simulated = bg.simulate(bg.parse_model(NEGATIVE_ZERO_MODEL), [[]] * 3, 3)
    for crow, srow in zip(compiled, simulated):
        assert math.copysign(1.0, crow[0][0]) == math.copysign(1.0, srow[0].data[0]) == -1.0


ONE_INPUT_SUM_MODEL = """model 3
input 1 f64 3 1
output 1 f64 1 1
block 1 summation signs=f64[1x1](-1)
link 1 in:1 -> 1.1
link 2 1.1 -> out:1
"""


def test_compiled_one_input_summation(tmp_path):
    """A summation of one input adds up its elements, so a 3x1 input gives
    a 1x1 output in simulate, the interpreter and the C; a 3x1 output port
    on it conflicts."""
    inputs = [[mv.make(mv.F64, 3, 1, [1.0, 2.0, 3.0])], [mv.make(mv.F64, 3, 1, [0.5, -4.0, 0.25])]]
    compiled = _roundtrip(tmp_path, bg.parse_model(ONE_INPUT_SUM_MODEL), inputs)
    simulated = bg.simulate(bg.parse_model(ONE_INPUT_SUM_MODEL), inputs, len(inputs))
    assert [[list(v.data) for v in row] for row in simulated] == compiled == [[[-6.0]], [[3.25]]]
    wide = ONE_INPUT_SUM_MODEL.replace("output 1 f64 1 1", "output 1 f64 3 1")
    with pytest.raises(bg.Conflict, match="^link 2: shape 3x1 vs 1x1$"):
        bg.infer(bg.parse_model(wide))


@pytest.mark.parametrize("opt", ["-O0", "-O2"])
def test_compiled_conversion_to_bool(tmp_path, opt):
    """A conversion to bool gives 0 or 1 in C, as in the interpreter: of a
    1x2 f64 array, and of a 1x1 f64 and a 1x1 i32 through a Cast definition.
    The directive-built program has no update functions, so its dispatcher
    opens with the initialize branch."""
    sources = {"x": mv.from_rows([[0.5, -0.25]]), "y": mv.scalar(0.25),
               "n": mv.make(mv.I32, 1, 1, [2])}
    ctx = bg.codegen_init()
    io = bg.inouts(ctx)
    for name, v in sources.items():
        bg.inouts_insert(io, name, v)
        bg.inouts_insert(io, "b" + name, mv.zeros(mv.BOOL, v.rows, v.cols))
    ctx.push_function("convert", io)
    for name in sources:
        bg.inouts_insert(io, "b" + name, tr.bv_convert(io.entries[name], mv.BOOL))
    ctx.pop_function("convert")
    program = finalize_program(ctx)
    fn = program.function("convert")
    values = [sources.get(p.name, mv.zeros(p.dtype, p.rows, p.cols)) for p in fn.params]
    want = Machine(program).run_init().run_function("convert", values)
    unit = tmp_path / "gen.c"
    unit.write_text(bg.emit_program(program, EmitConfig(include_runtime_header=False)))
    driver = tmp_path / "main.c"
    driver.write_text("\n".join(
        ["#include <stdio.h>", "#include <stdint.h>",
         "void toto1000(int flag);",
         "void convert({});".format(",".join("{} *{}".format(p.dtype.ctype, p.name)
                                             for p in fn.params)),
         "int main(void){"]
        + ["  {} {}[] = {{{}}};".format(p.dtype.ctype, p.name,
                                       ",".join(_c_literal(x, p.dtype) for x in v.data))
           for p, v in zip(fn.params, values)]
        + ["  toto1000(4);", "  convert({});".format(",".join(p.name for p in fn.params))]
        + ['  for (int i = 0; i < {}; i++) printf("%d ", {}[i]);'.format(p.size, p.name)
           for p in fn.params if p.dtype is mv.BOOL]
        + ["  return 0;", "}", ""]))
    exe = tmp_path / "prog"
    subprocess.run(["cc", opt, "-o", str(exe), str(unit), str(driver), "-lm"],
                   check=True, capture_output=True)
    run = subprocess.run([str(exe)], check=True, capture_output=True, text=True)
    assert run.stdout.split() == [str(int(x)) for v in want if v.dtype is mv.BOOL
                                  for x in v.data]
    assert run.stdout.split() == ["1"] * 4


# a 3x5 gain times a 5x3 input: a 3x3 `mult` helper call, inner dimension 5
PRODUCT_MODEL = """model 95
input 1 f64 5 3
output 1 f64 3 3
block 1 gain gain=f64[3x5](0 -0 1e300 -1e300 2 inf 1 -0 3 0.5 1e-310 -1 1e308 -inf 0.25)
link 1 in:1 -> 1.1
link 2 1.1 -> out:1
"""


@pytest.mark.parametrize("opt", ["-O0", "-O2"])
def test_compiled_product_helper_nonfinite(tmp_path, opt):
    """The `mult` helper, the interpreter and simulate agree bit for bit on
    products of signed zeros, infinities and overflowing finite values."""
    rng = random.Random(95)
    pool = [0.0, -0.0, 1e308, -1e308, 1e300, 3.5, -0.75, 5e-324]
    rows = [[0.0, -0.0] * 8, [1e308, -1e308, 1e300] * 5, [math.inf, -math.inf, -0.0] * 5]
    rows += [[rng.choice([math.inf, -math.inf]) if rng.random() < 0.15 else rng.choice(pool)
              for _ in range(15)] for _ in range(60)]
    inputs = [[mv.make(mv.F64, 5, 3, row[:15])] for row in rows]
    model = bg.parse_model(PRODUCT_MODEL)
    assert "mult(" in bg.generate(bg.infer(model)).text
    compiled = _roundtrip(tmp_path, model, inputs, opt)
    simulated = bg.simulate(bg.parse_model(PRODUCT_MODEL), inputs, len(inputs))
    for step, (crow, srow) in enumerate(zip(compiled, simulated)):
        assert all(map(_same_f64, crow[0], srow[0].data)), "step {}".format(step)
    values = [v for crow in compiled for v in crow[0]]
    assert any(map(math.isnan, values)) and math.inf in values and -math.inf in values
    assert any(v != 0 and math.isfinite(v) for v in values) and 0.0 in values


def _sqrt_of_i32(blk, flag):
    """A registered behavior writing an f64 value to its i32 output."""
    if flag == blocks.OUTPUT:
        blk.io[2] = tr.sqrt(tr.bv_convert(blk.io[1], mv.F64))


def _bare_number(blk, flag):
    """A registered behavior writing a bare number to its i32 output."""
    if flag == blocks.OUTPUT:
        blk.io[2] = 3.7


# the behavior's matrix output goes to an output port; its 1x1 output feeds
# a gain, which must see the link's i32 value, as must the gain after the
# bare number, which the io record wraps as an f64 Num
CONVERTED_OUTPUT_MODELS = {
    "matrix": ("""model 96
input 1 i32 2 1
output 1 i32 2 1
block 1 sciblk behavior=sqrt_of_i32 out1=i32[2x1]
link 1 in:1 -> 1.1
link 2 1.1 -> out:1
""", [[2, 5], [9, 16]], [[1, 2], [3, 4]]),
    "scalar": ("""model 97
input 1 i32 1 1
output 1 i32 1 1
block 1 sciblk behavior=sqrt_of_i32 out1=i32[1x1]
block 2 gain gain=i32[1x1](3)
link 1 in:1 -> 1.1
link 2 1.1 -> 2.1
link 3 2.1 -> out:1
""", [[2], [9]], [[3], [9]]),
    "number": ("""model 89
input 1 i32 1 1
output 1 i32 1 1
block 1 sciblk behavior=bare_number out1=i32[1x1]
block 2 gain gain=i32[1x1](3)
link 1 in:1 -> 1.1
link 2 1.1 -> 2.1
link 3 2.1 -> out:1
""", [[2], [-9]], [[9], [9]]),
}


@pytest.mark.parametrize("opt", ["-O0", "-O2"])
@pytest.mark.parametrize("shape", sorted(CONVERTED_OUTPUT_MODELS))
def test_block_output_converts_to_its_link_dtype(tmp_path, monkeypatch, opt, shape):
    """A block output of another dtype than its link, symbolic or numeric,
    is converted to the link's dtype, as simulate converts it: simulate, the
    interpreter and the C agree."""
    monkeypatch.setitem(blocks.BEHAVIORS, "sqrt_of_i32", _sqrt_of_i32)
    monkeypatch.setitem(blocks.BEHAVIORS, "bare_number", _bare_number)
    text, stimuli, want = CONVERTED_OUTPUT_MODELS[shape]
    inputs = [[mv.make(mv.I32, len(v), 1, v)] for v in stimuli]
    compiled = _roundtrip(tmp_path, bg.parse_model(text), inputs, opt)
    simulated = bg.simulate(bg.parse_model(text), inputs, len(inputs))
    assert [list(row[0].data) for row in simulated] == [row[0] for row in compiled] == want


# an input summed with itself, compared with a const 0 of its own dtype:
# the sum wraps to the dtype in simulate and the interpreter, and C, which
# computes it in int, must cast it back before comparing
NARROW_COMPARE_MODEL = """model 98
input 1 {tag} 1 1
output 1 bool 1 1
block 1 summation signs=f64[1x2](1 1)
block 2 const value={tag}[1x1](0)
block 3 relational_op op=gt
link 1 in:1 -> 1.1, 1.2
link 2 1.1 -> 3.1
link 3 2.1 -> 3.2
link 4 3.1 -> out:1
"""

NARROW_STIMULI = {"i8": [100, -100, 64, -64, 127, -128, 1, 0],
                  "i16": [30000, -30000, 16384, -16384, 32767, -32768, 1, 0],
                  "u8": [100, 200, 127, 128, 255, 1, 0],
                  "u16": [30000, 40000, 32767, 32768, 65535, 1, 0]}


@pytest.mark.parametrize("opt", ["-O0", "-O2"])
@pytest.mark.parametrize("tag", sorted(NARROW_STIMULI))
def test_compiled_narrow_integer_comparison(tmp_path, tag, opt):
    """A narrow-integer sum that wraps compares alike in simulate, the
    interpreter and the C: the C casts the sum back to its type first."""
    text = NARROW_COMPARE_MODEL.format(tag=tag)
    dtype = mv.DTYPES[tag]
    model = bg.parse_model(text)
    c = bg.generate(bg.parse_model(text), EmitConfig(include_runtime_header=False)).text
    assert "*inouts2=((({})(*inouts1+*inouts1))>0);".format(dtype.ctype) in c
    inputs = [[mv.make(dtype, 1, 1, [v])] for v in NARROW_STIMULI[tag]]
    compiled = _roundtrip(tmp_path, model, inputs, opt)
    simulated = bg.simulate(bg.parse_model(text), inputs, len(inputs))
    assert [[list(map(int, v.data)) for v in row] for row in simulated] == compiled
    if tag == "i8":
        assert compiled[:2] == [[[0]], [[1]]]  # 100+100 wraps to -56, -100-100 to 56


# an i32 sum and a u16 product that C, computing them in int, would
# overflow: the printer computes both through uint32_t, and all three
# executions wrap them to the dtype
OVERFLOW_CASES = {
    "i32-sum": (NARROW_COMPARE_MODEL.format(tag="i32"),
                "*inouts2=(((int32_t)((uint32_t)*inouts1+(uint32_t)*inouts1))>0);",
                [2 ** 30, -2 ** 30, 2 * 10 ** 9, -2 * 10 ** 9], [0, 0, 0, 1]),
    "u16-product": ("model 94\ninput 1 u16 1 1\noutput 1 u16 1 1\n"
                    "block 1 gain gain=u16[1x1](65535)\nlink 1 in:1 -> 1.1\nlink 2 1.1 -> out:1\n",
                    "*inouts2=((uint16_t)((uint32_t)65535*(uint32_t)*inouts1));",
                    [65535, 60000, 2, 0], [1, 5536, 65534, 0]),
}


@pytest.mark.parametrize("opt", ["-O0", "-O2"])
@pytest.mark.parametrize("case", sorted(OVERFLOW_CASES))
def test_compiled_overflowing_integer_operations_wrap(tmp_path, case, opt):
    text, line, stimuli, want = OVERFLOW_CASES[case]
    c = bg.generate(bg.parse_model(text), EmitConfig(include_runtime_header=False)).text
    assert line in c
    dtype = bg.parse_model(text).inputs[0].dtype
    inputs = [[mv.make(dtype, 1, 1, [v])] for v in stimuli]
    compiled = _roundtrip(tmp_path, bg.parse_model(text), inputs, opt)
    simulated = bg.simulate(bg.parse_model(text), inputs, len(inputs))
    assert [[list(map(int, v.data)) for v in row] for row in simulated] == compiled == \
        [[[v]] for v in want]


def _quotient(blk, flag):
    """A registered behavior dividing its first input by its second."""
    if flag == blocks.OUTPUT:
        blk.io[3] = blk.io[1] / blk.io[2]


QUOTIENT_MODEL = """model 93
input 1 i32 1 1
input 2 i32 1 1
output 1 i32 1 1
block 1 sciblk behavior=quotient out1=i32[1x1]
link 1 in:1 -> 1.1
link 2 in:2 -> 1.2
link 3 1.1 -> out:1
"""


@pytest.mark.parametrize("opt", ["-O0", "-O2"])
def test_compiled_i32_division_by_minus_one_wraps(tmp_path, monkeypatch, opt):
    """INT32_MIN / -1 wraps to INT32_MIN in simulate, the interpreter and the
    C, where a plain division traps; other quotients truncate toward zero."""
    monkeypatch.setitem(blocks.BEHAVIORS, "quotient", _quotient)
    c = bg.generate(bg.parse_model(QUOTIENT_MODEL), EmitConfig(include_runtime_header=False)).text
    assert "*inouts3=(*inouts2==-1?(int32_t)(0u-(uint32_t)*inouts1):*inouts1/ *inouts2);" in c
    pairs = [(-2 ** 31, -1), (2 ** 31 - 1, -1), (-7, 2), (7, -2), (-2 ** 31, 1), (5, -1)]
    inputs = [[mv.make(mv.I32, 1, 1, [a]), mv.make(mv.I32, 1, 1, [b])] for a, b in pairs]
    compiled = _roundtrip(tmp_path, bg.parse_model(QUOTIENT_MODEL), inputs, opt)
    simulated = bg.simulate(bg.parse_model(QUOTIENT_MODEL), inputs, len(inputs))
    assert [[list(map(int, v.data)) for v in row] for row in simulated] == compiled == \
        [[[v]] for v in (-2 ** 31, -2 ** 31 + 1, -3, -3, -2 ** 31, -5)]


def _libm_functions(blk, flag):
    """A registered behavior giving sqrt, sin and cos of its input."""
    if flag == blocks.OUTPUT:
        x = blk.io[1]
        blk.io[2], blk.io[3], blk.io[4] = tr.sqrt(x), tr.sin(x), tr.cos(x)


LIBM_MODEL = """model 92
input 1 f64 1 1
output 1 f64 1 1
output 2 f64 1 1
output 3 f64 1 1
block 1 sciblk behavior=libm_functions out1=f64[1x1] out2=f64[1x1] out3=f64[1x1]
link 1 in:1 -> 1.1
link 2 1.1 -> out:1
link 3 1.2 -> out:2
link 4 1.3 -> out:3
"""


@pytest.mark.parametrize("opt", ["-O0", "-O2"])
def test_compiled_math_functions_outside_their_domain(tmp_path, monkeypatch, opt):
    """sqrt of a negative number and sin or cos of an infinity give NaN in
    simulate and the interpreter, as libm does in the C; sqrt(-0.0) is -0.0."""
    monkeypatch.setitem(blocks.BEHAVIORS, "libm_functions", _libm_functions)
    stimuli = [-1.0, -math.inf, math.inf, -0.0, 4.0, math.nan]
    inputs = [[mv.scalar(v)] for v in stimuli]
    compiled = _roundtrip(tmp_path, bg.parse_model(LIBM_MODEL), inputs, opt)
    simulated = bg.simulate(bg.parse_model(LIBM_MODEL), inputs, len(inputs))
    for step, (crow, srow) in enumerate(zip(compiled, simulated)):
        assert all(_same_f64(c[0], s.data[0]) for c, s in zip(crow, srow)), step
    nan = [[math.isnan(c[0]) for c in row] for row in compiled]
    assert nan == [[True, False, False], [True, True, True], [False, True, True],
                   [False, False, False], [False, False, False], [True, True, True]]
    assert math.copysign(1.0, compiled[3][0][0]) == -1.0 and compiled[4][0] == [2.0]


def _atan2_of_inputs(blk, flag):
    """A registered behavior giving atan2 of its first input by its second."""
    if flag == blocks.OUTPUT:
        blk.io[3] = tr.atan2(blk.io[1], blk.io[2])


# atan2 of a 1x1 y by a 2x1 x; the 1x1 one broadcasts
ATAN2_MODEL = """model 90
input 1 f64 1 1
input 2 f64 2 1
output 1 f64 2 1
block 1 sciblk behavior=atan2_of_inputs out1=f64[2x1]
link 1 in:1 -> 1.1
link 2 in:2 -> 1.2
link 3 1.1 -> out:1
"""


@pytest.mark.parametrize("opt", ["-O0", "-O2"])
def test_compiled_atan2_broadcasts_a_scalar(tmp_path, monkeypatch, opt):
    """atan2 of a 1x1 and a 2x1 value gives a 2x1 one in simulate, the
    interpreter and the C alike; of a 2x1 and a 1x2 value, or of an f64 and
    an i32 one, simulate and generate reject it alike."""
    monkeypatch.setitem(blocks.BEHAVIORS, "atan2_of_inputs", _atan2_of_inputs)
    pairs = [(1.0, (1.0, -1.0)), (-0.0, (0.0, -0.0)), (2.5, (math.inf, -math.inf)),
             (math.inf, (3.0, math.nan))]
    inputs = [[mv.scalar(y), mv.make(mv.F64, 2, 1, x)] for y, x in pairs]
    compiled = _roundtrip(tmp_path, bg.parse_model(ATAN2_MODEL), inputs, opt)
    simulated = bg.simulate(bg.parse_model(ATAN2_MODEL), inputs, len(inputs))
    for step, ((y, x), crow, srow) in enumerate(zip(pairs, compiled, simulated)):
        want = [math.atan2(y, v) for v in x]
        assert all(map(_same_f64, crow[0], srow[0].data)), step
        assert all(map(_same_f64, crow[0], want)), step
    shapes = ATAN2_MODEL.replace("input 1 f64 1 1", "input 1 f64 2 1") \
        .replace("input 2 f64 2 1", "input 2 f64 1 2")
    dtypes = ATAN2_MODEL.replace("input 2 f64 2 1", "input 2 i32 2 1")
    for text, stimuli, message in [
            (shapes, [mv.zeros(mv.F64, 2, 1), mv.zeros(mv.F64, 1, 2)],
             r"ShapeMismatch: shapes \(2, 1\) and \(1, 2\) incompatible$"),
            (dtypes, [mv.scalar(0.0), mv.zeros(mv.I32, 2, 1)], r"DtypeMismatch: f64 vs i32$")]:
        with pytest.raises(ModelError, match=message):
            bg.simulate(bg.parse_model(text), [stimuli], 1)
        with pytest.raises(ModelError, match=message):
            bg.generate(bg.parse_model(text))


def _outer_product(blk, flag):
    """A registered behavior filling a bvarempty of its session with u, 2u
    and 3u, and writing that column times its transpose."""
    if flag == blocks.OUTPUT:
        u = blk.io[1]
        out = tr.bvarempty(blk.ctx, tr.numerics(mv.zeros(mv.F64, 3, 1)))
        out[1], out[2], out[3] = u, u * 2.0, u * 3.0
        blk.io[2] = out * out.T


OUTER_PRODUCT_MODEL = """model 91
input 1 f64 1 1
output 1 f64 3 3
block 1 sciblk behavior=outer_product out1=f64[3x3]
link 1 in:1 -> 1.1
link 2 1.1 -> out:1
"""


def _doubles_first_element(blk, flag):
    """A registered behavior writing only element 1 of a bvarempty of its
    input: the others keep the input's."""
    if flag == blocks.OUTPUT:
        out = tr.bvarempty(blk.ctx, blk.io[1])
        out[1] = blk.io[1][1] * 2.0
        blk.io[2] = out


FIRST_ELEMENT_MODEL = """model 92
input 1 f64 3 1
output 1 f64 3 1
block 1 sciblk behavior=doubles_first_element out1=f64[3x1]
link 1 in:1 -> 1.1
link 2 1.1 -> out:1
"""


@pytest.mark.parametrize("opt", ["-O0", "-O2"])
def test_bvarempty_agrees_three_ways(tmp_path, monkeypatch, opt):
    """A numeric run has no session, so bvarempty gives it a number to fill
    and the 3x3 product computes, as the mult helper does in the
    interpreter and the C. Of a symbolic source, bvarempty copies it in, so
    the elements a behavior leaves unwritten are the source's in all three."""
    monkeypatch.setitem(blocks.BEHAVIORS, "outer_product", _outer_product)
    monkeypatch.setitem(blocks.BEHAVIORS, "doubles_first_element", _doubles_first_element)
    for text, inputs, first in [
            (OUTER_PRODUCT_MODEL, [[mv.scalar(v)] for v in (2.0, -0.5)],
             [4.0, 8.0, 12.0, 8.0, 16.0, 24.0, 12.0, 24.0, 36.0]),
            (FIRST_ELEMENT_MODEL, [[mv.make(mv.F64, 3, 1, v)] for v in ((1, 2, 3), (-4, 5, 0.5))],
             [2.0, 2.0, 3.0])]:
        compiled = _roundtrip(tmp_path, bg.parse_model(text), inputs, opt)
        simulated = bg.simulate(bg.parse_model(text), inputs, len(inputs))
        assert [list(row[0].data) for row in simulated] == [row[0] for row in compiled]
        assert compiled[0][0] == first


def test_random_models_compile(tmp_path):
    # every random model the fuzzer accepts must emit syntactically valid C
    from test_model import _random_model
    from blockgen import model as md
    rng = random.Random(777)
    compiled = 0
    for trial in range(16):
        text = _random_model(rng, rng.choice(["f64", "i32"]))
        try:
            model = bg.infer(bg.parse_model(text))
        except (md.ParseError, md.ModelError):
            continue
        result = bg.generate(model, EmitConfig(block_id=model.base_id,
                                               include_runtime_header=False))
        unit = tmp_path / "fuzz{}.c".format(trial)
        unit.write_text(result.text)
        subprocess.run(["cc", "-fsyntax-only", str(unit)],
                       check=True, capture_output=True)
        compiled += 1
    assert compiled >= 8
