"""Acceptance suite. One test per criterion, each printing a PASS/FAIL line
(run with `pytest -s tests/test_acceptance.py` to see them inline).

Golden bodies are token-compared modulo whitespace and temporary numbering:
whitespace is stripped per line and tmp_<n> names are renumbered in order of
first appearance on both sides before comparison.
"""

import functools
import math
import random
import re
import time

import pytest

import blockgen as bg
from blockgen import matval as mv
from blockgen.matval import BOOL, F64, I32
from blockgen.cemit import code_printer_c
from blockgen.directives import codegen_init, finalize_program
from blockgen.irinterp import Machine
from blockgen.optimizer import optimize_body
from blockgen import trace as tr
from blockgen.trace import bv_inv, numerics, symbolics

from conftest import assert_close, load_model_text, random_matvalue, run_traced, trace_op
from test_model import synthetic_trajectory
from test_optimizer import build_random_trace, finalize_program_copy, run_program


def criterion(number, description):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                print("ACCEPTANCE {}: FAIL - {}".format(number, description))
                raise
            print("ACCEPTANCE {}: PASS - {}".format(number, description))
            return out
        return run
    return wrap


def canonical_tokens(lines):
    """Strip whitespace and renumber temporaries by first appearance."""
    mapping = {}

    def rename(m):
        name = m.group(0)
        if name not in mapping:
            mapping[name] = "tmp#{}".format(len(mapping))
        return mapping[name]

    out = []
    for line in lines:
        line = re.sub(r"\s+", "", line)
        if not line:
            continue
        out.append(re.sub(r"tmp_\d+", rename, line))
    return out


def function_body_lines(text, name):
    """Body of one emitted function, local declarations dropped."""
    m = re.search(r"void {}\([^)]*\)\{{\n(.*?)\n\}}".format(re.escape(name)),
                  text, re.S)
    assert m, "function {} not found".format(name)
    body = []
    decl = re.compile(r"^\s*(static\s+)?(double|int|int\d+_t|uint\d+_t)\s")
    for line in m.group(1).splitlines():
        if decl.match(line):
            continue
        body.append(line.strip())
    return body


# ---------------------------------------------------------------------------
# criterion 1


GOLDEN_TWODELAYS_OUTPUT = """
/* Gain block begins.*/
/* Gain block ends.*/
tmp_1=z_10001;
/* Sum block begins with 2 inputs.*/
link10004=(tmp_1-z_10002);
/* MUX block begins with 2 inputs.*/
tmp_5[0]=tmp_1;
tmp_5[1]=*inouts1;
/* MUX block ends.*/
inouts2[0]=tmp_5[0];
inouts2[1]=tmp_5[1];
""".strip().splitlines()

GOLDEN_TWODELAYS_STATE = """
z_10001=link10004;
z_10002=*inouts1;
""".strip().splitlines()


@criterion(1, "golden structure, simple two-delay subsystem")
def test_criterion_1_twodelays_golden():
    started = time.monotonic()
    model = bg.parse_model(load_model_text("twodelays.model"))
    result = bg.generate(model)
    statics = {s.name for s in result.program.statics}
    assert statics == {"z_10001", "z_10002", "link10004"}, statics
    assert result.program.init_fn.name == "initialize1000"
    assert [f.name for f in result.program.functions] == \
        ["updateOutput10001", "updateState10001"]
    # 3-way flag dispatcher
    assert "void toto1000(scicos_block *block,int flag)" in result.text
    for clause in ("if (flag == 1)", "else if (flag == 2)", "else if (flag == 4)"):
        assert clause in result.text
    # token-level match with the published bodies
    got_out = canonical_tokens(function_body_lines(result.text, "updateOutput10001"))
    assert got_out == canonical_tokens(GOLDEN_TWODELAYS_OUTPUT)
    got_state = canonical_tokens(function_body_lines(result.text, "updateState10001"))
    assert got_state == canonical_tokens(GOLDEN_TWODELAYS_STATE)
    assert time.monotonic() - started < 1.0


# ---------------------------------------------------------------------------
# criterion 2


GOLDEN_INV_2X2 = """
tmp_2[0]=(tmp_1[3]);
tmp_2[3]=(tmp_1[0]);
tmp_2[2]=(-(tmp_1[2]));
tmp_2[1]=(-(tmp_1[1]));
tmp_19=(((tmp_1[0])*(tmp_1[3]))-((tmp_1[2])*(tmp_1[1])));
tmp_20[0]=((tmp_2[0])/ tmp_19);
tmp_20[2]=((tmp_2[2])/ tmp_19);
tmp_20[1]=((tmp_2[1])/ tmp_19);
tmp_20[3]=((tmp_2[3])/ tmp_19);
""".strip().splitlines()


@criterion(2, "golden structure, symbolic 2x2 inverse")
def test_criterion_2_inverse_golden():
    ctx = codegen_init()
    a = symbolics(ctx, mv.zeros(F64, 2, 2))
    bv_inv(a)
    body, _ = optimize_body(ctx.module.body, ctx.module.decls, (), {}, ctx.pinned,
                            extra_names=ctx._names)
    lines = code_printer_c(body, {})
    assert len(lines) == 9
    assert canonical_tokens(lines) == canonical_tokens(GOLDEN_INV_2X2)


# ---------------------------------------------------------------------------
# criterion 3


@criterion(3, "directive session replay: pools, copies, initialize")
def test_criterion_3_directive_session():
    from test_directives import session_4_1
    ctx = session_4_1()
    program = finalize_program(ctx)
    from blockgen.cemit import render_core
    text = render_core(program)
    assert "x3" not in text
    assert re.search(r"memcpy\(x1,tmp_\d+,3\*sizeof\(double\)\);", text)
    assert "x2=8;" in text
    machine = Machine(program)
    machine.run_function("foo", [])
    machine.run_init()
    assert list(machine.statics["x1"].data) == [1.0, 2.0, 3.0]
    assert machine.statics["x2"].scalar() == 7.0


# ---------------------------------------------------------------------------
# criterion 4


@criterion(4, "conditional subsampling: branch functions and equivalence")
def test_criterion_4_conditional_subsampling():
    model = bg.parse_model(load_model_text("coding.model"))
    result = bg.generate(model)
    names = [f.name for f in result.program.functions]
    assert names[:2] == ["updateOutput10041", "updateOutput10042"]
    # exactly one if statement, on a strictly-positive test of the
    # comparison result
    main = result.program.function("updateOutput10043")
    guards = [i for i in main.body if isinstance(i, tr.IfExpr)]
    assert len(guards) == 1
    cond_def = [i for i in main.body
                if isinstance(i, tr.Def) and i.name == guards[0].cond]
    assert len(cond_def) == 1
    expr = cond_def[0].expr
    assert isinstance(expr, tr.Op) and expr.op == "gt"
    assert isinstance(expr.args[1], tr.Lit) and expr.args[1].value.data[0] == 0
    assert result.text.count("if (") >= 1
    # 200 random 0/1 steps, bit-exact between simulation and interpretation
    rng = random.Random(404)
    inputs = [[mv.make(I32, 1, 1, [rng.randint(0, 1)])] for _ in range(200)]
    simulated = bg.simulate(model, inputs, 200)
    machine = Machine(result.program).run_init()
    interpreted = machine.run_steps(inputs, 200)
    for srow, irow in zip(simulated, interpreted):
        for s, i in zip(srow, irow):
            assert s.data == i.data


# ---------------------------------------------------------------------------
# criterion 5


@criterion(5, "Kalman fixture: statics, helper calls, 100-step equivalence")
def test_criterion_5_kalman():
    started = time.monotonic()
    model = bg.parse_model(load_model_text("kalman.model"))
    result = bg.generate(model)
    statics = {s.name: s for s in result.program.statics}
    assert list(statics["z_10021"].init.data) == [-900.0, 80.0, 950.0, 20.0]
    assert list(statics["z_10022"].init.data) == [0.0] * 16
    # helper calls appear exactly for the >6-element products/transposes:
    # seven products and the two transposes of the symbolic 2x4 Jacobian
    main = result.program.function("updateOutput10021")
    calls = [i for i in main.body if isinstance(i, tr.Call)]
    assert [c.fn for c in calls].count("mult") == 7
    assert [c.fn for c in calls].count("quote") == 2
    notes = [i.text for i in main.body if isinstance(i, tr.Annot)]
    helper_notes = [t for t in notes if "calling external function" in t]
    assert len(helper_notes) == 9
    assert all(re.search(r"size (8|16)>6", t) for t in helper_notes)
    # products at or below the threshold stay unrolled: the 2x2 and 4x1
    # products appear as element stores, not calls
    assert len([i for i in main.body if isinstance(i, tr.SetElem)]) > 16
    # 100 steps of a synthetic trajectory: simulate vs interpret <= 1e-12
    meas = synthetic_trajectory(100, seed=55)
    inputs = [[mv.from_rows([[r], [b]])] for r, b in meas]
    simulated = bg.simulate(model, inputs, 100)
    machine = Machine(result.program).run_init()
    interpreted = machine.run_steps(inputs, 100)
    for srow, irow in zip(simulated, interpreted):
        for s, i in zip(srow, irow):
            assert_close(s, i, rel=1e-12)
    assert time.monotonic() - started < 10.0


# ---------------------------------------------------------------------------
# criterion 6


@criterion(6, "property suites: closure, faithfulness, optimizer, emission rules")
def test_criterion_6_property_suites():
    _6a_numeric_closure()
    _6b_trace_faithfulness()
    _6c_optimizer_properties()
    _6d_emission_rules()


def _rand_value(rng, dtype, r, c):
    return random_matvalue(rng, dtype, r, c)


_OPS = [
    ("add", 2, lambda a, b: a + b),
    ("sub", 2, lambda a, b: a - b),
    ("elmul", 2, lambda a, b: tr.bv_binop("mul", a, b)),
    ("matmul", 2, lambda a, b: a * b),
    ("concat", 2, tr.bv_concat_rows),
    ("lt", 2, lambda a, b: tr.bv_binop("lt", a, b)),
    ("eq", 2, lambda a, b: tr.bv_binop("eq", a, b)),
    ("neg", 1, lambda a: -a),
    ("transpose", 1, tr.bv_transpose),
    ("sum", 1, tr.bv_sum),
    ("sqrtsq", 1, lambda a: tr.sqrt(tr.bv_binop("mul", a, a))),
    ("convert", 1, lambda a: tr.bv_convert(a, I32)),
]


def _args_for(rng, name, dtype):
    hi = 3
    if not dtype.is_float and name in ("matmul", "transpose"):
        hi = 2  # integer products/transposes stay below the helper threshold
    r, c = rng.randint(1, hi), rng.randint(1, hi)
    a = _rand_value(rng, dtype, r, c)
    if name == "matmul":
        return [a, _rand_value(rng, dtype, c, rng.randint(1, hi))]
    if name == "concat":
        return [a, _rand_value(rng, dtype, rng.randint(1, 3), c)]
    return [a, _rand_value(rng, dtype, r, c)]


def _6a_numeric_closure():
    rng = random.Random(600)
    ctx = codegen_init()
    count = 0
    while count < 1000:
        name, arity, fn = _OPS[rng.randrange(len(_OPS))]
        dtype = F64 if name in ("sqrtsq", "matmul", "convert") else \
            (F64 if rng.random() < 0.7 else I32)
        args = _args_for(rng, name, dtype)[:arity]
        fn(*[numerics(v) for v in args])
        count += 1
    assert not ctx.module.body, "numeric closure violated"


def _6b_trace_faithfulness():
    rng = random.Random(601)
    for _ in range(1000):
        name, arity, fn = _OPS[rng.randrange(len(_OPS))]
        dtype = F64 if name in ("sqrtsq", "matmul") else \
            (F64 if rng.random() < 0.6 else I32)
        args = _args_for(rng, name, dtype)[:arity]
        program, template = trace_op(fn, args)
        got = run_traced(program, template, args)
        want = fn(*[numerics(v) for v in args]).value
        if want.dtype.is_float:
            assert_close(got, want, rel=1e-12)
        else:
            assert got.data == want.data


def _6c_optimizer_properties():
    rng = random.Random(602)
    for _ in range(200):
        ctx, templates = build_random_trace(rng, n_ops=6)
        raw_len = len(ctx.functions[0].body)
        raw = finalize_program_copy(ctx, optimize=False)
        opt = finalize_program_copy(ctx)
        opt2 = finalize_program_copy(ctx)
        assert len(opt.functions[0].body) <= raw_len
        assert [repr(i) for i in opt.functions[0].body] == \
            [repr(i) for i in opt2.functions[0].body], "not idempotent"
        inputs = [random_matvalue(rng, F64, t.rows, t.cols) for t in templates]
        assert run_program(raw, inputs).data == run_program(opt, inputs).data


def _6d_emission_rules():
    decl_re = re.compile(
        r"^\s*(static\s+)?(double|int|int\d+_t|uint\d+_t)\s+(\w+)(=|\[|;)")
    for fixture in ("twodelays.model", "coding.model", "kalman.model"):
        model = bg.parse_model(load_model_text(fixture))
        result = bg.generate(model)
        # scalar/array declaration rule
        for fn in [result.program.init_fn] + result.program.functions:
            for d in fn.decls.values():
                line = None
                for cand in result.text.splitlines():
                    m = decl_re.match(cand)
                    if m and m.group(3) == d.name:
                        line = cand
                        break
                assert line is not None, d.name
                if d.is_scalar:
                    assert "[" not in line, line
                else:
                    assert "[" in line, line
        # every function parameter is a pointer
        for m in re.finditer(r"void \w+\(([^)]*)\)", result.text):
            params = m.group(1)
            if not params or params.startswith("int flag"):
                continue
            for p in params.split(","):
                if p.strip() in ("scicos_block *block", "int flag"):
                    continue
                assert "*" in p, m.group(0)
        # copy-size rule over the emitted instructions
        for fn in [result.program.init_fn] + result.program.functions:
            for instr in fn.body:
                if isinstance(instr, tr.CopyMat):
                    assert instr.n >= 2
                    if instr.n >= 3:
                        assert re.search(
                            r"memcpy\({},".format(instr.dst), result.text), instr
        # column-major initializers for every constant declaration
        for fn in [result.program.init_fn] + result.program.functions:
            for d in fn.decls.values():
                if d.init is not None and not d.is_scalar:
                    from blockgen.cemit import format_init_list
                    assert format_init_list(d.init) in result.text


# ---------------------------------------------------------------------------
# criterion 7 lives in test_c_roundtrip.py (optional, toolchain-gated); the
# stub records its status here


@criterion(7, "C toolchain round-trip (delegated to test_c_roundtrip)")
def test_criterion_7_pointer():
    import shutil
    if shutil.which("cc") is None:
        pytest.skip("no C toolchain on PATH")
