"""Directive-level sessions: program statics, function arguments,
initialized declarations, copies and the structural conditional."""

import pytest

from blockgen import matval as mv
from blockgen.matval import BOOL, I32
from blockgen.cemit import code_printer_c, render_core
from blockgen.directives import (
    CallTarget, codegen_init, finalize_program, if_cos, inouts, inouts_insert,
    put_annotation,
)
from blockgen.irinterp import Machine
from blockgen import trace as tr
from blockgen.trace import (
    Call, IfExpr, NoOpenFunction, UnbalancedFunction, _copy_into, bvarempty, numerics,
    symbolics,
)


def r13():
    return mv.from_rows([[1, 2, 3]])


def test_codegen_init_fresh():
    ctx = codegen_init()
    assert not ctx.module.body and ctx.counter == 0
    other = codegen_init()
    ctx.getunique()
    assert other.counter == 0


def session_4_1():
    """Static session: x1 and x2 written inside foo, x3 unused."""
    ctx = codegen_init()
    ctx.register_static("x1", r13())
    ctx.register_static("x2", mv.scalar(7.0))
    ctx.register_static("x3", mv.from_rows([[1, 2, 3, 4, 5, 6]]))
    ctx.push_function("foo", inouts(ctx))
    put_annotation(ctx, "copy [4:6] into x1 with memcpy")
    _copy_into(ctx, "x1", numerics(mv.from_rows([[4, 5, 6]])))
    put_annotation(ctx, "copy with assign since x2 is 1x1")
    _copy_into(ctx, "x2", numerics(mv.scalar(8.0)))
    ctx.pop_function("foo")
    return ctx


def test_persistent_session_text():
    text = render_core(finalize_program(session_4_1()))
    assert "static double x1[]={ 1, 2, 3 };" in text
    assert "static double x2=7;" in text
    assert "x3" not in text  # never used, no static emitted
    assert "memcpy(x1,tmp_1,3*sizeof(double));" in text
    assert "x2=8;" in text
    assert "void foo(){" in text
    assert "void initialize(){" in text
    assert "/* copy [4:6] into x1 with memcpy*/" in text


def test_persistent_session_initialize_restores_defaults():
    program = finalize_program(session_4_1())
    machine = Machine(program)
    machine.run_function("foo", [])
    assert list(machine.statics["x1"].data) == [4.0, 5.0, 6.0]
    assert machine.statics["x2"].scalar() == 8.0
    machine.run_init()
    assert list(machine.statics["x1"].data) == [1.0, 2.0, 3.0]
    assert machine.statics["x2"].scalar() == 7.0
    machine.run_init()  # idempotent
    assert machine.statics["x2"].scalar() == 7.0


def test_empty_session_finalize():
    text = render_core(finalize_program(codegen_init()))
    assert "initialize" in text and "static" not in text


def test_unbalanced_function_detected():
    ctx = codegen_init()
    ctx.push_function("foo", inouts(ctx))
    with pytest.raises(UnbalancedFunction):
        finalize_program(ctx)


def test_nested_and_mismatched_functions():
    ctx = codegen_init()
    io = inouts(ctx)
    ctx.push_function("foo", io)
    ctx.push_function("bar", io)
    with pytest.raises(NoOpenFunction):
        ctx.pop_function("foo")
    ctx.pop_function("bar")
    ctx.pop_function("foo")
    with pytest.raises(NoOpenFunction):
        ctx.pop_function("foo")
    assert [fn.name for fn in ctx.functions] == ["bar", "foo"]


def test_inouts_session_copies_into_argument():
    """Argument session: x1 filled from the argument, then the argument
    overwritten with a constant."""
    ctx = codegen_init()
    ctx.register_static("x1", r13())
    io = inouts(ctx)
    io = inouts_insert(io, "inouts1", mv.from_rows([[4, 8, 9]]))
    ctx.push_function("foo", io)
    _copy_into(ctx, "x1", io.entries["inouts1"])
    io = inouts_insert(io, "inouts1", mv.from_rows([[7, 8, 9]]))
    ctx.pop_function("foo")
    program = finalize_program(ctx)
    text = render_core(program)
    assert "void foo(double *inouts1){" in text
    assert "memcpy(x1,inouts1,3*sizeof(double));" in text
    machine = Machine(program)
    machine.run_init()
    (arg,) = machine.run_function("foo", [mv.from_rows([[4.0, 8.0, 9.0]])])
    assert list(machine.statics["x1"].data) == [4.0, 8.0, 9.0]
    assert list(arg.data) == [7.0, 8.0, 9.0]


def test_scalar_argument_reinsert_uses_deref():
    ctx = codegen_init()
    io = inouts(ctx)
    io = inouts_insert(io, "inouts1", mv.scalar(0.0))
    ctx.push_function("foo", io)
    inouts_insert(io, "inouts1", mv.scalar(7.0))
    ctx.pop_function("foo")
    text = render_core(finalize_program(ctx))
    assert "*inouts1=7;" in text


def test_argument_mismatch_errors():
    ctx = codegen_init()
    io = inouts(ctx)
    io = inouts_insert(io, "inouts1", mv.scalar(0.0))
    io = inouts_insert(io, "inouts2", r13())
    with pytest.raises(mv.ShapeMismatch, match=r"^argument inouts1: \(1, 3\) vs \(1, 1\)$"):
        inouts_insert(io, "inouts1", r13())
    with pytest.raises(mv.DtypeMismatch, match="^argument inouts2: i32 vs f64$"):
        inouts_insert(io, "inouts2", mv.make(I32, 1, 3, [1, 2, 3]))
    assert not ctx.module.body  # a refused write records nothing


def _declare(ctx, name, value):
    """An initialized local, as bvarempty declares one from a numeric value."""
    ctx.claim_name(name)
    ctx.declare(name, value.dtype, value.rows, value.cols, init=value)


def test_constant_prints_column_major():
    ctx = codegen_init()
    _declare(ctx, "x1", mv.from_rows([[5, 0], [7, 8]]))
    lines = code_printer_c(ctx.module.body, ctx.module.decls)
    assert lines == ["double x1[]={ 5, 7, 0, 8 };"]


def test_constant_scalar_and_bool():
    ctx = codegen_init()
    _declare(ctx, "s", mv.scalar(5.0))
    _declare(ctx, "b", mv.make(BOOL, 1, 2, [True, False]))
    lines = code_printer_c(ctx.module.body, ctx.module.decls)
    assert "double s=5;" in lines
    assert "int b[]={ TRUE, FALSE };" in lines


def test_copy_into_numeric_matrix_text():
    # a numeric matrix is copied from a fresh local initialized with it
    ctx = codegen_init()
    src = mv.from_rows([[0.25, 0.5, 0.75], [1.0, 1.25, 1.5]])
    v = bvarempty(ctx, numerics(src))
    _copy_into(ctx, v.name, numerics(src))
    lines = code_printer_c(ctx.module.body, ctx.module.decls)
    assert any(line.startswith("memcpy({},".format(v.name)) for line in lines)
    assert sum("[]={" in line for line in lines) == 2  # source and copy decls


def test_put_annotation_format():
    ctx = codegen_init()
    put_annotation(ctx, "Gain block begins.")
    assert code_printer_c(ctx.module.body, {}) == ["/* Gain block begins.*/"]


# ---------------------------------------------------------------------------
# conditionals


def test_if_cos_symbolic_emits_guarded_calls():
    ctx = codegen_init()
    x = symbolics(ctx, mv.zeros(I32, 1, 1), "x")
    f1 = CallTarget("thenfn", ("inouts1",))
    f2 = CallTarget("elsefn", ("inouts1",))
    assert if_cos(ctx, x, f1, f2) is None
    kinds = [type(i).__name__ for i in ctx.module.body]
    assert kinds[-1] == "IfExpr"
    guard = ctx.module.body[-1]
    # the test definition (x > 0) precedes the if
    test_def = [i for i in ctx.module.body if isinstance(i, tr.Def)][-1]
    assert guard.cond == test_def.name
    assert guard.then_call.fn == "thenfn" and guard.else_call.fn == "elsefn"


def test_if_cos_numeric_partial_evaluates():
    for value, expected in ((1, "thenfn"), (0, "elsefn"), (-2, "elsefn")):
        ctx = codegen_init()
        f1, f2 = CallTarget("thenfn", ()), CallTarget("elsefn", ())
        if_cos(ctx, numerics(mv.make(I32, 1, 1, [value])), f1, f2)
        (call,) = [i for i in ctx.module.body if isinstance(i, Call)]
        assert call.fn == expected
        assert not [i for i in ctx.module.body if isinstance(i, IfExpr)]
