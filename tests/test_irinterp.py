"""Interpreter semantics: C-style assignment conversion, statics across
steps, determinism, and function-scoped locals."""

import math
import random

import pytest

from blockgen import matval as mv
from blockgen.matval import F64, I8, I32
from blockgen.cemit import C_OPS
from blockgen.directives import codegen_init, finalize_program, inouts, inouts_insert
from blockgen.irinterp import InterpError, Machine, UnboundName
from blockgen import trace as tr
from blockgen.optimizer import fold_expr
from blockgen.trace import (
    Call, CallTarget, Cast, Decl, Def, ElemRef, FunctionDef, IfExpr, Lit, Op,
    Program, Ref, SetElem, Store, _copy_into, numerics,
)

from conftest import random_matvalue


def _program_with(body_builder, statics=(), args=()):
    ctx = codegen_init()
    for name, value in statics:
        ctx.register_static(name, value)
    io = inouts(ctx)
    for name, value in args:
        io = inouts_insert(io, name, value)
    ctx.push_function("f", io)
    body_builder(ctx, io)
    ctx.pop_function("f")
    return finalize_program(ctx)


def test_unknown_function():
    program = _program_with(lambda ctx, io: None)
    with pytest.raises(KeyError):
        Machine(program).run_function("ghost", [])


def test_wrong_arity():
    program = _program_with(lambda ctx, io: None,
                            args=[("inouts1", mv.scalar(0.0))])
    with pytest.raises(InterpError):
        Machine(program).run_function("f", [])


def test_store_converts_like_c_assignment():
    def build(ctx, io):
        inouts_insert(io, "inouts1", mv.make(I8, 1, 1, [0]))

    program = _program_with(lambda ctx, io: None,
                            args=[("inouts1", mv.make(I8, 1, 1, [0]))])
    program.function("f").body.append(Store("inouts1", Lit(mv.scalar(257.9))))
    (out,) = Machine(program).run_function("f", [mv.make(I8, 1, 1, [0])])
    assert out.scalar() == 1  # truncate then wrap, as a C int8 assignment


def test_division_by_zero_yields_inf():
    def build(ctx, io):
        a = io.entries["a"]
        inouts_insert(io, "res", numerics(mv.scalar(1.0)) / a)

    program = _program_with(build, args=[("a", mv.scalar(1.0)),
                                         ("res", mv.scalar(0.0))])
    _, res = Machine(program).run_function("f", [mv.scalar(0.0), mv.scalar(0.0)])
    assert res.scalar() == math.inf


def test_statics_persist_until_reinitialized():
    def build(ctx, io):
        _copy_into(ctx, "acc", io.entries["a"])

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
    def build(ctx, io):
        t = io.entries["a"] + numerics(1.0)
        _copy_into(ctx, "acc", t)

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

    def build(ctx, io):
        t = io.entries["a"] * io.entries["a"] + numerics(2.0)
        _copy_into(ctx, "acc", t)

    program = _program_with(build, statics=[("acc", mv.scalar(0.0))],
                            args=[("a", mv.scalar(0.0))])
    for v in values:
        m1 = Machine(program).run_init()
        m2 = Machine(program).run_init()
        m1.run_function("f", [v])
        m2.run_function("f", [v])
        assert m1.statics["acc"].data == m2.statics["acc"].data


def test_unbound_name():
    program = _program_with(lambda ctx, io: None)
    program.function("f").body.append(Store("nowhere", Lit(mv.scalar(1.0))))
    with pytest.raises(UnboundName):
        Machine(program).run_function("f", [])


def test_def_of_undeclared_name_is_unbound():
    # a Def stores into its declared local, as the emitted `name=expr;` does
    program = _program_with(lambda ctx, io: None)
    program.function("f").body.append(Def("nowhere", Lit(mv.scalar(1.0))))
    with pytest.raises(UnboundName):
        Machine(program).run_function("f", [])


def test_integer_wrap_in_interpreter():
    def build(ctx, io):
        t = io.entries["a"] + io.entries["a"]
        _copy_into(ctx, "acc", t)

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
    assert [o[0].data[1] for o in outs] == [1.0, 2.0, 3.0]
    assert machine.run_steps([], 0) == []


# -- hand-built programs ------------------------------------------------------


def _hand_program(body, params, decls=(), statics=(), functions=()):
    """Function f over the given params, locals and statics, beside the
    other functions given."""
    fn = FunctionDef("f", list(params), decls={d.name: d for d in decls}, body=list(body))
    statics = [Decl(name, v.dtype, v.rows, v.cols, v, static=True) for name, v in statics]
    return Program(statics=statics, init_fn=FunctionDef("init", []),
                   functions=[fn, *functions], helpers=[])


def _i32(v):
    return mv.make(I32, 1, 1, [v])


def test_unfolded_division_by_zero_raises_when_it_executes():
    expr = Op("div", (Lit(_i32(1)), Lit(_i32(0))))
    assert fold_expr(expr) == expr  # folding leaves the failure to run time
    program = _hand_program([Store("acc", Lit(_i32(7))), Store("res", expr)],
                            [Decl("res", I32, 1, 1)], statics=[("acc", _i32(0))])
    machine = Machine(program)
    with pytest.raises(mv.DivisionByZero):
        machine.run_function("f", [_i32(0)])
    assert machine.statics["acc"].scalar() == 7  # the store before it ran


def test_branch_function_never_called_is_never_lowered():
    def branch(name, body):
        return FunctionDef(name, [Decl("x", F64, 1, 1)], body=body)

    good = branch("good", [Store("x", Lit(mv.scalar(2.0)))])
    broken = branch("broken", [Store("nowhere", Lit(mv.scalar(1.0)))])
    program = _hand_program(
        [IfExpr("c", CallTarget("good", ("x",)), CallTarget("broken", ("x",)))],
        [Decl("c", F64, 1, 1), Decl("x", F64, 1, 1)], functions=[good, broken])
    _, x = Machine(program).run_function("f", [mv.scalar(1.0), mv.scalar(0.0)])
    assert x.scalar() == 2.0
    with pytest.raises(UnboundName):
        Machine(program).run_function("f", [mv.scalar(0.0), mv.scalar(0.0)])


def test_statics_reflect_writes_and_run_init_resets_them():
    import blockgen as bg
    from conftest import load_model_text
    program = bg.generate(bg.parse_model(load_model_text("twodelays.model"))).program
    defaults = {s.name: s.init for s in program.statics}
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
                            [Decl("v", F64, 3, 1)], statics=[("acc", mv.scalar(0.0))])
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
    program = _hand_program([], [Decl("a", F64, 1, 1)])
    with pytest.raises(InterpError, match="f's a is f64 1x1, got i32 1x1"):
        Machine(program).run_function("f", [_i32(1)])


def test_callee_writes_through_to_caller_local_and_static():
    # a recorded function gets the caller's storage by reference, as the
    # emitted C passes `&name`, whatever kind of storage the caller names
    g = FunctionDef("g", [Decl("x", F64, 1, 1), Decl("y", F64, 1, 1)],
                    body=[Store("x", Lit(mv.scalar(5.0))), Store("y", Lit(mv.scalar(6.0)))])
    program = _hand_program(
        [Call("g", ("t", "acc")), Store("res", Ref("t"))],
        [Decl("res", F64, 1, 1)], decls=[Decl("t", F64, 1, 1)],
        statics=[("acc", mv.scalar(0.0))], functions=[g])
    machine = Machine(program)
    (res,) = machine.run_function("f", [mv.scalar(0.0)])
    assert res.scalar() == 5.0
    assert machine.statics["acc"].scalar() == 6.0


# -- the lowering, operand kind by operand kind -------------------------------
#
# Function f(l, r, t, res) computes one expression into res. Each operand is
# one of three kinds, which the lowering treats differently: a cell (element
# 2 of the 2x1 param l on the left, the 1x1 param r on the right), a literal,
# or a nested expression (an operator node whose value is the cell's: a
# product with 1, or for a bool a conversion to i32 and back). l holds the
# left value twice, r the right one, and t is true.

KINDS = ("cell", "literal", "nested")
PAIRS = [(a, b) for a in KINDS for b in KINDS]
EDGE_F64 = [(1.0, 0.0), (-0.0, 0.0), (math.inf, -math.inf), (math.nan, 2.5), (-3.5, -0.0)]


def _operand(kind, side, dtype, v):
    cell = ElemRef("l", 2) if side == 0 else Ref("r")
    if kind == "cell":
        return cell
    if kind == "literal":
        return Lit(mv.make(dtype, 1, 1, [v]))
    if dtype.is_bool:
        return Cast(dtype, Cast(I32, cell))
    return Op("mul", (cell, Lit(mv.make(dtype, 1, 1, [1]))))


def _lowered(expr, dtype, res_dtype):
    return _hand_program([Store("res", expr)],
                         [Decl("l", dtype, 2, 1), Decl("r", dtype, 1, 1),
                          Decl("t", mv.BOOL, 1, 1), Decl("res", res_dtype, 1, 1)])


def _run(program, dtype, x, y, res_dtype, taken=True):
    """res after f runs on l = [x, x], r = y and t = taken."""
    args = [mv.make(dtype, 2, 1, [x, x]), mv.make(dtype, 1, 1, [y]),
            mv.make(mv.BOOL, 1, 1, [taken]), mv.zeros(res_dtype, 1, 1)]
    return Machine(program).run_function("f", args)[-1].data[0]


def _values(dtype, seed):
    """Pairs of element values: random ones, plus IEEE edge cases for f64
    and zero divisors and the extremes for the integers."""
    rng = random.Random(seed)
    pairs = [tuple(random_matvalue(rng, dtype, 1, 2).data) for _ in range(3)]
    if dtype.is_float:
        return pairs + EDGE_F64
    if dtype.is_int:
        top = (1 << (dtype.width - (1 if dtype.signed else 0))) - 1
        bottom = -top - 1 if dtype.signed else 0
        return pairs + [(top, 1), (bottom, -1 if dtype.signed else 1), (top, 0)]
    return pairs + [(False, True), (True, True)]


def _same(got, want):
    """Equal in type and value: -0.0 is not 0.0, 1 is not True, NaN is NaN."""
    return repr(got) == repr(want)


def _expect(kernel, *args):
    """kernel's element, or the exception type it raises."""
    try:
        return kernel(*args)
    except (mv.MatError, ValueError, OverflowError) as exc:
        return type(exc)


def _check_element(program, want, dtype, x, y, res_dtype, taken=True):
    if isinstance(want, type):
        with pytest.raises(want):
            _run(program, dtype, x, y, res_dtype, taken)
    else:
        got = _run(program, dtype, x, y, res_dtype, taken)
        assert _same(got, want), (got, want)


def _check_fold(expr, want, dtype):
    """An all-literal expression folds to the element the interpreter
    computes, through the same lowering, or stays unfolded when computing it
    fails."""
    folded = fold_expr(expr)
    if isinstance(want, type):
        assert folded == expr
    else:
        assert isinstance(folded, Lit) and folded.value.dtype is dtype
        assert _same(folded.value.data[0], want)


@pytest.mark.parametrize("op", ["add", "sub", "mul", "div", "eq", "ne", "lt", "le", "gt", "ge"],
                         ids=lambda op: C_OPS[op].strip())
def test_lowered_binary_operator_matches_its_kernel(op):
    for dtype in mv.DTYPES.values():
        try:
            kernel = mv.elem_kernel(op, dtype)
        except mv.MatError as exc:
            # refused at lowering, with the kernel table's message
            with pytest.raises(type(exc), match="^{}$".format(exc)):
                _run(_lowered(Op(op, (ElemRef("l", 2), Ref("r"))), dtype, dtype),
                     dtype, True, True, dtype)
            continue
        res_dtype = mv.BOOL if op in mv.COMPARE else dtype
        # seeded by the length of the operator's C spelling
        for x, y in _values(dtype, len(C_OPS[op].strip()) + dtype.width):
            want = _expect(kernel, x, y)
            for left, right in PAIRS:
                expr = Op(op, (_operand(left, 0, dtype, x), _operand(right, 1, dtype, y)))
                _check_element(_lowered(expr, dtype, res_dtype), want, dtype, x, y, res_dtype)
                if left == right == "literal":
                    _check_fold(expr, want, res_dtype)


def test_lowered_negation_matches_its_kernel():
    for dtype in mv.DTYPES.values():
        if dtype.is_bool:
            with pytest.raises(mv.DtypeMismatch, match="^bool negation$"):
                _run(_lowered(Op("neg", (Ref("r"),)), dtype, dtype), dtype, True, True, dtype)
            continue
        kernel = mv.elem_kernel("neg", dtype)
        for x, _ in _values(dtype, 7):
            want = _expect(kernel, x)
            for kind in KINDS:
                expr = Op("neg", (_operand(kind, 0, dtype, x),))
                _check_element(_lowered(expr, dtype, dtype), want, dtype, x, x, dtype)
                if kind == "literal":
                    _check_fold(expr, want, dtype)


def test_lowered_cast_matches_its_conversion():
    for src in mv.DTYPES.values():
        for dst in mv.DTYPES.values():
            kernel = mv.convert_kernel(src, dst)
            for x, _ in _values(src, 11):
                want = kernel(x) if src is not dst else x
                for kind in KINDS:
                    expr = Cast(dst, _operand(kind, 0, src, x))
                    _check_element(_lowered(expr, src, dst), want, src, x, x, dst)
                    if kind == "literal":
                        _check_fold(expr, want, dst)


@pytest.mark.parametrize("fn", ["sqrt", "sin", "cos", "atan2"])
def test_lowered_math_call_matches_its_kernel(fn):
    kernel = mv.elem_kernel(fn, F64)
    for x, y in _values(F64, 13) + [(4.0, 9.0), (-1.0, 0.5)]:
        want = _expect(kernel, x, y) if fn == "atan2" else _expect(kernel, x)
        pairs = PAIRS if fn == "atan2" else [(k, None) for k in KINDS]
        for left, right in pairs:
            args = (_operand(left, 0, F64, x),)
            if right is not None:
                args += (_operand(right, 1, F64, y),)
            expr = Op(fn, args)
            _check_element(_lowered(expr, F64, F64), want, F64, x, y, F64)
            if all(isinstance(a, Lit) for a in args):
                _check_fold(expr, want, F64)
    args = (Ref("r"),) * (2 if fn == "atan2" else 1)
    with pytest.raises(mv.DtypeMismatch, match="^{} needs f64$".format(fn)):
        _run(_lowered(Op(fn, args), I32, F64), I32, 1, 1, F64)


@pytest.mark.parametrize("leaf", ["literal", "ref", "elemref"])
def test_lowered_leaf_store_copies_its_element(leaf):
    for dtype in mv.DTYPES.values():
        for x, _ in _values(dtype, 19):
            expr = {"literal": Lit(mv.make(dtype, 1, 1, [x])), "ref": Ref("r"),
                    "elemref": ElemRef("l", 2)}[leaf]
            _check_element(_lowered(expr, dtype, dtype), x, dtype, x, x, dtype)


@pytest.mark.parametrize("kind", KINDS)
def test_lowered_stores_convert_to_their_destination(kind):
    """Def, Store and SetElem store a cell, a literal or a nested value,
    converting it the way a C assignment does when the destination's dtype
    differs."""
    for src in mv.DTYPES.values():
        for dst in mv.DTYPES.values():
            for x, _ in _values(src, 23):
                want = mv.convert_kernel(src, dst)(x)
                value = _operand(kind, 0, src, x)
                program = _hand_program(
                    [Def("d", value), Store("s", value), SetElem("e", 2, value),
                     Store("res", Ref("d"))],
                    [Decl("l", src, 2, 1), Decl("r", src, 1, 1), Decl("t", mv.BOOL, 1, 1),
                     Decl("s", dst, 1, 1), Decl("e", dst, 2, 1), Decl("res", dst, 1, 1)],
                    decls=[Decl("d", dst, 1, 1)])
                zero = mv.zeros(dst, 1, 1).data[0]
                out = Machine(program).run_function("f", [
                    mv.make(src, 2, 1, [x, x]), mv.make(src, 1, 1, [x]),
                    mv.make(mv.BOOL, 1, 1, [True]), mv.zeros(dst, 1, 1), mv.zeros(dst, 2, 1),
                    mv.zeros(dst, 1, 1)])
                s, e, res = (v.data for v in out[3:])
                assert all(map(_same, (s[0], e[0], e[1], res[0]), (want, zero, want, want)))


@pytest.mark.parametrize("expr,error,message", [
    (Ref("ghost"), UnboundName, "f: ghost"),
    (Op("add", (Ref("r"), ElemRef("ghost", 1))), UnboundName, "f: ghost"),
    (ElemRef("l", 3), InterpError, "f: element 3 of l is outside its 2 elements"),
    (Op("mul", (Lit(mv.scalar(1.0)), ElemRef("l", 0))), InterpError,
     "f: element 0 of l is outside its 2 elements"),
    (Op("add", (Ref("r"), Lit(_i32(1)))), mv.DtypeMismatch, "f64 vs i32"),
    (Op("sub", (Op("neg", (Ref("r"),)), Lit(_i32(1)))), mv.DtypeMismatch, "f64 vs i32"),
    (Op("atan2", (Ref("r"), Lit(_i32(1)))), mv.DtypeMismatch, "f64 vs i32"),
    (Op("add", (Ref("t"), Ref("t"))), mv.DtypeMismatch,
     "bool participates in arithmetic only after conversion"),
])
def test_lowering_errors_keep_their_messages(expr, error, message):
    with pytest.raises(error, match="^{}$".format(message)):
        _run(_lowered(expr, F64, F64), F64, 1.0, 2.0, F64)
