"""Interpreter semantics: C-style assignment conversion, statics across
steps, determinism, and function-scoped locals."""

import math
import random

import pytest

from blockgen import matval as mv
from blockgen.matval import F64, I8, I32
from blockgen.directives import (
    codegen_init, end_function, finalize_program, inouts, inouts_insert,
    persistent_create, persistent_insert, start_function,
)
from blockgen.irinterp import InterpError, Machine, UnboundName
from blockgen import trace as tr
from blockgen.optimizer import fold_expr
from blockgen.trace import (
    Bin, Call, CallTarget, Cond, Decl, Def, ElemRef, FunctionDef, IfExpr, Lit, Param,
    Program, Ref, SetElem, StaticDecl, Store, numerics,
)

from conftest import random_matvalue


def _program_with(body_builder, statics=(), args=()):
    ctx = codegen_init()
    pool = persistent_create(ctx)
    for name, value in statics:
        pool = persistent_insert(pool, name, value)
    io = inouts(ctx)
    for name, value in args:
        io = inouts_insert(io, name, value)
    start_function(ctx, "f", io)
    body_builder(ctx, io, pool)
    end_function(ctx, "f", io)
    return finalize_program(ctx)


def test_unknown_function():
    program = _program_with(lambda ctx, io, pool: None)
    with pytest.raises(KeyError):
        Machine(program).run_function("ghost", [])


def test_wrong_arity():
    program = _program_with(lambda ctx, io, pool: None,
                            args=[("inouts1", mv.scalar(0.0))])
    with pytest.raises(InterpError):
        Machine(program).run_function("f", [])


def test_store_converts_like_c_assignment():
    def build(ctx, io, pool):
        inouts_insert(io, "inouts1", mv.make(I8, 1, 1, [0]))

    program = _program_with(lambda ctx, io, pool: None,
                            args=[("inouts1", mv.make(I8, 1, 1, [0]))])
    program.function("f").body.append(Store("inouts1", Lit(mv.scalar(257.9))))
    (out,) = Machine(program).run_function("f", [mv.make(I8, 1, 1, [0])])
    assert out.scalar() == 1  # truncate then wrap, as a C int8 assignment


def test_division_by_zero_yields_inf():
    def build(ctx, io, pool):
        a = io.entries["a"]
        inouts_insert(io, "res", numerics(mv.scalar(1.0)) / a)

    program = _program_with(build, args=[("a", mv.scalar(1.0)),
                                         ("res", mv.scalar(0.0))])
    _, res = Machine(program).run_function("f", [mv.scalar(0.0), mv.scalar(0.0)])
    assert res.scalar() == math.inf


def test_statics_persist_until_reinitialized():
    def build(ctx, io, pool):
        persistent_insert(pool, "acc", io.entries["a"])

    program = _program_with(build, statics=[("acc", mv.scalar(0.0))],
                            args=[("a", mv.scalar(0.0))])
    machine = Machine(program).run_init()
    machine.run_function("f", [mv.scalar(5.0)])
    assert machine.statics["acc"].scalar() == 5.0
    machine.run_function("f", [mv.scalar(7.0)])
    assert machine.statics["acc"].scalar() == 7.0
    machine.run_init()
    assert machine.statics["acc"].scalar() == 0.0


def test_locals_are_function_scoped():
    def build(ctx, io, pool):
        t = io.entries["a"] + numerics(1.0)
        persistent_insert(pool, "acc", t)

    program = _program_with(build, statics=[("acc", mv.scalar(0.0))],
                            args=[("a", mv.scalar(0.0))])
    machine = Machine(program).run_init()
    machine.run_function("f", [mv.scalar(1.0)])
    first = machine.statics["acc"].scalar()
    machine.run_function("f", [mv.scalar(1.0)])
    assert machine.statics["acc"].scalar() == first == 2.0


def test_determinism():
    rng = random.Random(3)
    values = [random_matvalue(rng, F64, 1, 1) for _ in range(5)]

    def build(ctx, io, pool):
        t = io.entries["a"] * io.entries["a"] + numerics(2.0)
        persistent_insert(pool, "acc", t)

    program = _program_with(build, statics=[("acc", mv.scalar(0.0))],
                            args=[("a", mv.scalar(0.0))])
    for v in values:
        m1 = Machine(program).run_init()
        m2 = Machine(program).run_init()
        m1.run_function("f", [v])
        m2.run_function("f", [v])
        assert m1.statics["acc"].data == m2.statics["acc"].data


def test_unbound_name():
    program = _program_with(lambda ctx, io, pool: None)
    program.function("f").body.append(Store("nowhere", Lit(mv.scalar(1.0))))
    with pytest.raises(UnboundName):
        Machine(program).run_function("f", [])


def test_def_of_undeclared_name_is_unbound():
    # a Def stores into its declared local, as the emitted `name=expr;` does
    program = _program_with(lambda ctx, io, pool: None)
    program.function("f").body.append(Def("nowhere", Lit(mv.scalar(1.0))))
    with pytest.raises(UnboundName):
        Machine(program).run_function("f", [])


def test_integer_wrap_in_interpreter():
    def build(ctx, io, pool):
        t = io.entries["a"] + io.entries["a"]
        persistent_insert(pool, "acc", t)

    program = _program_with(build, statics=[("acc", mv.make(I32, 1, 1, [0]))],
                            args=[("a", mv.make(I32, 1, 1, [0]))])
    machine = Machine(program).run_init()
    machine.run_function("f", [mv.make(I32, 1, 1, [2 ** 31 - 1])])
    assert machine.statics["acc"].scalar() == -2


def test_run_steps_against_fixture():
    import blockgen as bg
    from conftest import load_model_text
    model = bg.parse_model(load_model_text("twodelays.model"))
    result = bg.generate(model)
    machine = Machine(result.program).run_init()
    outs = machine.run_steps([[mv.scalar(1.0)], [mv.scalar(2.0)], [mv.scalar(3.0)]], 3)
    assert len(outs) == 3
    # delay2 state lags the input by one step; the mux's second slot is the
    # current input
    assert [o[0].get_linear(1) for o in outs] == [1.0, 2.0, 3.0]
    assert machine.run_steps([], 0) == []


# -- hand-built programs ------------------------------------------------------


def _hand_program(body, params, decls=(), statics=(), functions=()):
    """Function f over the given params, locals and statics, beside the
    other functions given."""
    fn = FunctionDef("f", list(params), decls={d.name: d for d in decls}, body=list(body))
    statics = [StaticDecl(name, v.dtype, v.rows, v.cols, v) for name, v in statics]
    return Program(statics=statics, init_fn=FunctionDef("init", []),
                   functions=[fn, *functions], helpers=[])


def _i32(v):
    return mv.make(I32, 1, 1, [v])


def test_only_the_taken_cond_arm_runs():
    untaken = Bin("/", Lit(_i32(1)), Lit(_i32(0)))
    program = _hand_program(
        [Store("res", Cond(Ref("c"), Lit(_i32(7)), untaken))],
        [Param("c", I32, 1, 1), Param("res", I32, 1, 1)])
    _, res = Machine(program).run_function("f", [_i32(1), _i32(0)])
    assert res.scalar() == 7
    with pytest.raises(mv.DivisionByZero):
        Machine(program).run_function("f", [_i32(0), _i32(0)])


def test_unfolded_division_by_zero_raises_when_it_executes():
    expr = Bin("/", Lit(_i32(1)), Lit(_i32(0)))
    assert fold_expr(expr) == expr  # folding leaves the failure to run time
    program = _hand_program([Store("acc", Lit(_i32(7))), Store("res", expr)],
                            [Param("res", I32, 1, 1)], statics=[("acc", _i32(0))])
    machine = Machine(program)
    with pytest.raises(mv.DivisionByZero):
        machine.run_function("f", [_i32(0)])
    assert machine.statics["acc"].scalar() == 7  # the store before it ran


def test_branch_function_never_called_is_never_lowered():
    def branch(name, body):
        return FunctionDef(name, [Param("x", F64, 1, 1)], body=body)

    good = branch("good", [Store("x", Lit(mv.scalar(2.0)))])
    broken = branch("broken", [Store("nowhere", Lit(mv.scalar(1.0)))])
    program = _hand_program(
        [IfExpr("c", CallTarget("good", ("x",)), CallTarget("broken", ("x",)))],
        [Param("c", F64, 1, 1), Param("x", F64, 1, 1)], functions=[good, broken])
    _, x = Machine(program).run_function("f", [mv.scalar(1.0), mv.scalar(0.0)])
    assert x.scalar() == 2.0
    with pytest.raises(UnboundName):
        Machine(program).run_function("f", [mv.scalar(0.0), mv.scalar(0.0)])


def test_statics_reflect_writes_and_run_init_resets_them():
    import blockgen as bg
    from conftest import load_model_text
    program = bg.generate(bg.parse_model(load_model_text("twodelays.model"))).program
    defaults = {s.name: s.default for s in program.statics}
    machine = Machine(program).run_init()
    assert machine.statics == defaults
    machine.run_steps([[mv.scalar(5.0)], [mv.scalar(6.0)]], 2)
    assert machine.statics != defaults
    assert all(isinstance(v, mv.MatValue) for v in machine.statics.values())
    machine.run_init()
    assert machine.statics == defaults


@pytest.mark.parametrize("instr", [
    Store("acc", ElemRef("v", 0)), Store("acc", ElemRef("v", 4)),
    SetElem("v", 0, Lit(mv.scalar(1.0))), SetElem("v", 4, Lit(mv.scalar(1.0))),
])
def test_element_index_out_of_range_rejected_at_lowering(instr):
    program = _hand_program([Store("acc", Lit(mv.scalar(9.0))), instr],
                            [Param("v", F64, 3, 1)], statics=[("acc", mv.scalar(0.0))])
    machine = Machine(program)
    with pytest.raises(InterpError, match=r"^f: element \d of v is outside its 3 elements"):
        machine.run_function("f", [mv.make(F64, 3, 1, [1.0, 2.0, 3.0])])
    assert machine.statics["acc"].scalar() == 0.0  # nothing ran


@pytest.mark.parametrize("stimulus", [mv.make(I32, 2, 2, [1, 2, 3, 4]),
                                      mv.make(I32, 1, 1, [1]),
                                      mv.make(F64, 2, 1, [1.0, 2.0])])
def test_run_steps_rejects_stimulus_unlike_its_port(stimulus):
    import blockgen as bg
    from conftest import load_model_text
    program = bg.generate(bg.parse_model(load_model_text("twodelays.model"))).program
    machine = Machine(program).run_init()
    with pytest.raises(InterpError, match=r"^step 1: input port 1 \(inouts1\) is f64 1x1"):
        machine.run_steps([[mv.scalar(1.0)], [stimulus]], 2)


def test_run_function_rejects_argument_unlike_its_param():
    program = _hand_program([], [Param("a", F64, 1, 1)])
    with pytest.raises(InterpError, match="f's a is f64 1x1, got i32 1x1"):
        Machine(program).run_function("f", [_i32(1)])


def test_callee_writes_through_to_caller_local_and_static():
    # a recorded function gets the caller's storage by reference, as the
    # emitted C passes `&name`, whatever kind of storage the caller names
    g = FunctionDef("g", [Param("x", F64, 1, 1), Param("y", F64, 1, 1)],
                    body=[Store("x", Lit(mv.scalar(5.0))), Store("y", Lit(mv.scalar(6.0)))])
    program = _hand_program(
        [Call("g", ("t", "acc")), Store("res", Ref("t"))],
        [Param("res", F64, 1, 1)], decls=[Decl("t", F64, 1, 1)],
        statics=[("acc", mv.scalar(0.0))], functions=[g])
    machine = Machine(program)
    (res,) = machine.run_function("f", [mv.scalar(0.0)])
    assert res.scalar() == 5.0
    assert machine.statics["acc"].scalar() == 6.0
