import pathlib
import random

from blockgen import matval as mv
from blockgen.directives import codegen_init, finalize_program, inouts, inouts_insert
from blockgen.irinterp import Machine
from blockgen.trace import numerics

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def load_model_text(name):
    return (FIXTURES / name).read_text()


# one copy of the coding fixture, its ids and ports left to format
_CODING_COPY = """input {i} i32 1 1
output {o} i32 1 1
output {p} i32 1 1
block {b1} unit_delay init=i32[1x1](0)
block {b2} relational_op op=ne
block {b3} unit_delay init=i32[1x1](0)
block {b4} ifthenelse
block {b5} const value=i32[1x1](0)
block {b6} select
block {b7} summation signs=f64[1x2](1 1)
block {b8} const value=i32[1x1](1)
link {b1} in:{i} -> {b1}.1, {b2}.1
link {b2} {b1}.1 -> {b2}.2
link {b3} {b2}.1 -> out:{p}, {b4}.1
link {b5} {b3}.1 -> out:{o}, {b6}.2
link {b7} {b5}.1 -> {b6}.1
link {b6} {b6}.1 -> {b7}.1
link {b9} {b8}.1 -> {b7}.2
link {b8} {b7}.1 -> {b3}.1
region {b4} then=[{b5}] else=[] select={b6}
"""


def coding_copies(n):
    """A model of n independent copies of the coding fixture, so n regions:
    copy k adds 10k to each block and link id, reads input k + 1 and writes
    outputs 2k + 1 and 2k + 2. One copy is the fixture itself."""
    return "model 1004\n" + "".join(
        _CODING_COPY.format(i=k + 1, o=2 * k + 1, p=2 * k + 2,
                            **{"b{}".format(j): 10 * k + j for j in range(1, 10)})
        for k in range(n))


def random_matvalue(rng: random.Random, dtype, rows, cols):
    data = []
    for _ in range(rows * cols):
        if dtype.is_float:
            data.append(rng.uniform(-10.0, 10.0))
        elif dtype.is_bool:
            data.append(rng.random() < 0.5)
        elif dtype.signed:
            data.append(rng.randint(-(1 << (dtype.width - 1)), (1 << (dtype.width - 1)) - 1))
        else:
            data.append(rng.randint(0, (1 << dtype.width) - 1))
    return mv.make(dtype, rows, cols, data)


def trace_op(op_fn, input_templates, nominal_fn=None):
    """Record op_fn over symbolic arguments and seal it as a one-function
    program whose last argument receives the result.

    input_templates fix dtype/shape; nominal values are zeros so that any
    accidental constant folding of nominals shows up when the program is
    replayed on real data.
    """
    probe = op_fn(*[numerics(v) for v in input_templates])
    out_template = probe.value
    ctx = codegen_init()
    io = inouts(ctx)
    names = []
    for k, v in enumerate(input_templates, 1):
        name = "a{}".format(k)
        names.append(name)
        inouts_insert(io, name, mv.zeros(v.dtype, v.rows, v.cols))
    inouts_insert(io, "res", mv.zeros(out_template.dtype, out_template.rows,
                                      out_template.cols))
    ctx.push_function("f", io)
    result = op_fn(*[io.entries[n] for n in names])
    inouts_insert(io, "res", result)
    ctx.pop_function("f")
    return finalize_program(ctx), out_template


def run_traced(program, out_template, input_values):
    machine = Machine(program)
    args = list(input_values) + [mv.zeros(out_template.dtype, out_template.rows,
                                          out_template.cols)]
    return machine.run_function("f", args)[-1]


def assert_close(a: mv.MatValue, b: mv.MatValue, rel=1e-12):
    assert a.shape == b.shape, "{} vs {}".format(a.shape, b.shape)
    if not a.dtype.is_float:
        assert a.data == b.data, "{} vs {}".format(a.data, b.data)
        return
    for x, y in zip(a.data, b.data):
        denom = max(abs(x), abs(y), 1.0)
        assert abs(x - y) <= rel * denom, "{} vs {}".format(x, y)
