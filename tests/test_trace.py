"""Partial-evaluation behavior of the overloaded operations: all-numeric
operands fold silently, symbolic operands record pseudo-code that replays
faithfully under the interpreter."""

import random

import pytest

from blockgen import matval as mv
from blockgen.matval import BOOL, F64, I32
from blockgen.directives import codegen_init
from blockgen import trace as tr
from blockgen.trace import (
    Annot, Call, Def, SetElem, Store, bv_binop, bv_concat_rows, bv_convert,
    bv_datatype, bv_index_get, bv_index_set, bv_inv, bv_matmul, bv_sum,
    bv_transpose, bvarempty, numerics, symbolics, _copy_into,
)

from conftest import assert_close, random_matvalue, run_traced, trace_op


def test_numerics_round_trip():
    v = mv.from_rows([[4, 8, 9]])
    b = numerics(v)
    assert not b.sym
    assert b.value == v


def test_numerics_of_a_symbolic_value_raises():
    x = symbolics(codegen_init(), mv.scalar(3.0), "x")
    with pytest.raises(tr.SymbolicConditionError, match="^numerics of symbolic value 'x'$"):
        numerics(x)


def test_symbolics_flags_and_names():
    ctx = codegen_init()
    a = symbolics(ctx, mv.scalar(67.0), "x")
    assert a.sym and a.name == "x"
    b = symbolics(ctx, mv.zeros(F64, 2, 2))
    assert b.name.startswith("tmp_")
    with pytest.raises(tr.DuplicateName):
        symbolics(ctx, mv.scalar(0.0), "x")


def test_getunique_monotone():
    ctx = codegen_init()
    names = [ctx.getunique() for _ in range(5)]
    assert names[0] == "tmp_1"
    assert len(set(names)) == 5


def test_size_and_datatype_stay_numeric():
    ctx = codegen_init()
    a = symbolics(ctx, mv.zeros(I32, 2, 3))
    assert (a.shape, a.rows, a.cols, a.size) == ((2, 3), 2, 3, 6)
    assert bv_datatype(a) == I32
    assert symbolics(ctx, mv.scalar(0.0)).shape == (1, 1)
    assert not ctx.module.body  # shape queries never emit


def test_numeric_fold_emits_nothing():
    ctx = codegen_init()
    out = numerics(2.0) + numerics(3.0)
    assert not out.sym and out.value.scalar() == 5.0
    assert not ctx.module.body


def test_scalar_sub_emits_one_def():
    ctx = codegen_init()
    a = symbolics(ctx, mv.scalar(0.0), "u")
    b = symbolics(ctx, mv.scalar(0.0), "v")
    out = a - b
    assert out.sym
    defs = [i for i in ctx.module.body if isinstance(i, Def)]
    assert len(defs) == 1 and defs[0].name == out.name


def test_unary_minus_matrix_unrolls_row_major():
    ctx = codegen_init()
    a = symbolics(ctx, mv.zeros(F64, 2, 2), "m")
    out = -a
    sets = [i for i in ctx.module.body if isinstance(i, SetElem)]
    assert [s.index for s in sets] == [1, 3, 2, 4]
    assert all(s.name == out.name for s in sets)


def test_elementwise_add_always_unrolls():
    # even 16-element results stay unrolled; only products and transposes
    # go through the runtime helpers
    ctx = codegen_init()
    a = symbolics(ctx, mv.zeros(F64, 4, 4))
    b = symbolics(ctx, mv.zeros(F64, 4, 4))
    out = a + b
    sets = [i for i in ctx.module.body if isinstance(i, SetElem) and i.name == out.name]
    assert len(sets) == 16
    assert not [i for i in ctx.module.body if isinstance(i, Call)]


def test_matmul_above_threshold_calls_helper():
    ctx = codegen_init()
    a = symbolics(ctx, mv.zeros(F64, 4, 4))
    b = symbolics(ctx, mv.zeros(F64, 4, 4))
    out = a * b
    calls = [i for i in ctx.module.body if isinstance(i, Call)]
    assert len(calls) == 1 and calls[0].fn == "mult"
    assert calls[0].args[0] == out.name
    notes = [i.text for i in ctx.module.body if isinstance(i, Annot)]
    assert "Product of matrices resulting size 16>6: calling external function" in notes
    assert ctx.helpers_used == ["mult"]
    # helper results carry zero nominal values
    assert all(v == 0.0 for v in out.value.data)


def test_matmul_at_threshold_unrolls():
    ctx = codegen_init()
    a = symbolics(ctx, mv.zeros(F64, 2, 3))
    b = symbolics(ctx, mv.zeros(F64, 3, 2))
    a * b
    assert not [i for i in ctx.module.body if isinstance(i, Call)]


def test_transpose_above_threshold_uses_quote():
    ctx = codegen_init()
    h = symbolics(ctx, mv.zeros(F64, 2, 4))
    h.T
    calls = [i for i in ctx.module.body if isinstance(i, Call)]
    assert len(calls) == 1 and calls[0].fn == "quote"
    notes = [i.text for i in ctx.module.body if isinstance(i, Annot)]
    assert "Transpose of matrix of size 8>6: calling external function" in notes
    assert "End of Transpose" in notes


def test_identity_gain_is_silent():
    ctx = codegen_init()
    x = symbolics(ctx, mv.scalar(0.0), "x")
    assert (numerics(1.0) * x) is x
    assert (x + numerics(0.0)) is x
    assert (x - numerics(0.0)) is x
    assert not ctx.module.body


# (op, side of the literal, literal) -> what trace.identity returns; every
# other case, and every bool literal, is no identity
IDENTITY_TABLE = {
    ("add", "a", 0): "b", ("add", "b", 0): "a",
    ("sub", "b", 0): "a", ("sub", "a", 0): "-b",
    ("mul", "a", 1): "b", ("mul", "b", 1): "a", ("mul", "a", 0): "0", ("mul", "b", 0): "0",
    ("div", "b", 1): "a",
}
BINARY_OPS = ["add", "sub", "mul", "div", *sorted(mv.COMPARE), "atan2"]


@pytest.mark.parametrize("dtype", list(mv.DTYPES.values()), ids=str)
@pytest.mark.parametrize("side", ["a", "b"])
@pytest.mark.parametrize("op", BINARY_OPS)
def test_identity_table(op, side, dtype):
    literals = [0, 1, 2, -1] + ([-0.0, 0.5] if dtype is F64 else [])
    for literal in literals:
        value = mv.make(dtype, 1, 1, [literal]).data[0]
        got = tr.identity(op, *((value, None) if side == "a" else (None, value)))
        if dtype.is_bool:
            want = None
        else:  # -0.0 counts as 0; -1 wraps to the maximum of an unsigned dtype
            want = IDENTITY_TABLE.get((op, side, 0 if value == 0 else 1 if value == 1 else None))
        assert got == want, (literal, value)
    assert tr.identity(op, None, None) is None


def test_mul_by_zero_folds_to_numeric():
    ctx = codegen_init()
    x = symbolics(ctx, mv.scalar(5.0), "x")
    out = numerics(0.0) * x
    assert not out.sym and out.value.scalar() == 0.0
    assert not ctx.module.body


def test_index_get_numeric_and_symbolic():
    assert bv_index_get(numerics(mv.from_rows([[5, 6]])), 1, 2).value.scalar() == 6.0
    ctx = codegen_init()
    z = symbolics(ctx, mv.zeros(F64, 2, 2), "z")
    out = bv_index_get(z, 1, 1)
    d = ctx.module.body[-1]
    assert isinstance(d, Def) and d.name == out.name
    assert d.expr == tr.ElemRef("z", 1)


def test_index_get_linear_column_major():
    v = numerics(mv.from_rows([[1, 3], [2, 4]]))
    assert bv_index_get(v, 3).value.scalar() == 3.0  # column-major order


def test_index_set_numeric_fold():
    ctx = codegen_init()
    a = numerics(mv.zeros(F64, 2, 2))
    bv_index_set(a, 1, 2, rhs=numerics(9.0))
    assert a.value.get(0, 1) == 9.0
    assert not a.sym and not ctx.module.body


def test_index_set_promotes_numeric_target():
    ctx = codegen_init()
    a = numerics(mv.from_rows([[1.0, 2.0]]))
    x = symbolics(ctx, mv.scalar(0.0), "x")
    bv_index_set(a, 1, 2, rhs=x)
    assert a.sym and a.name.startswith("tmp_")
    decl = ctx.module.decls[a.name]
    assert decl.init is not None and list(decl.init.data) == [1.0, 2.0]
    assert isinstance(ctx.module.body[-1], SetElem)


def test_out_of_range_indexing():
    with pytest.raises(mv.ShapeMismatch):
        bv_index_get(numerics(mv.zeros(F64, 2, 2)), 3, 1)


@pytest.mark.parametrize("sym", [False, True])
@pytest.mark.parametrize("key", [(3, 1), (0, 2), (1, 3), (5, None), (0, None)])
def test_index_set_checks_each_index(sym, key):
    # reads and writes resolve indexes alike: (3, 1) on a 2x2 is out of
    # range even though its linear index 3 is not
    ctx = codegen_init()
    a = symbolics(ctx, mv.zeros(F64, 2, 2), "a") if sym else numerics(mv.zeros(F64, 2, 2))
    with pytest.raises(mv.ShapeMismatch):
        bv_index_get(a, *key)
    with pytest.raises(mv.ShapeMismatch):
        bv_index_set(a, *key, rhs=7.0)
    assert a.value == mv.zeros(F64, 2, 2) and not ctx.module.body


@pytest.mark.parametrize("sym", [False, True])
def test_index_set_checks_dtype_before_promoting(sym):
    ctx = codegen_init()
    a = numerics(mv.from_rows([[1.0, 2.0]]))
    rhs = symbolics(ctx, mv.zeros(I32, 1, 1), "x") if sym else numerics(mv.zeros(I32, 1, 1))
    with pytest.raises(mv.DtypeMismatch):
        bv_index_set(a, 1, 2, rhs=rhs)
    assert not a.sym and list(a.value.data) == [1.0, 2.0]
    assert not ctx.module.decls and not ctx.module.body


def test_sum_vector_emits_single_def():
    ctx = codegen_init()
    v = symbolics(ctx, mv.zeros(F64, 3, 1), "v")
    bv_sum(v)
    defs = [i for i in ctx.module.body if isinstance(i, Def)]
    assert len(defs) == 1


def test_compare_scalar_bool_def():
    ctx = codegen_init()
    x = symbolics(ctx, mv.zeros(I32, 1, 1), "x")
    out = bv_binop("ne", x, numerics(mv.make(I32, 1, 1, [0])))
    assert out.dtype == BOOL and out.sym


def test_convert_scalar_defines_a_cast_and_pins():
    ctx = codegen_init()
    x = symbolics(ctx, mv.zeros(BOOL, 1, 1), "flagv")
    out = bv_convert(x, I32)
    assert out.sym and out.dtype == I32 and out.value.dtype == I32
    assert x.name in ctx.pinned
    assert ctx.module.body == [Def(out.name, tr.Cast(I32, tr.Ref("flagv")))]


CONVERTED_SCALAR_OPS = {
    "neg": lambda c: -c,
    "compare": lambda c: bv_binop("lt", c, 3),
    "vertcat": lambda c: tr.vertcat(c, c),
    "horzcat": lambda c: tr.horzcat(c, c),
    "index_get": lambda c: bv_index_get(c, 1),
    "sum": bv_sum,
}


@pytest.mark.parametrize("op", sorted(CONVERTED_SCALAR_OPS))
def test_ops_on_converted_scalar_see_its_dtype(op):
    """A converted symbolic scalar is an ordinary scalar of the new dtype:
    every operation reads that dtype and replays the conversion."""
    fn = CONVERTED_SCALAR_OPS[op]
    out = fn(bv_convert(symbolics(codegen_init(), mv.zeros(BOOL, 1, 1), "flagv"), I32))
    assert out.sym and out.dtype == (BOOL if op == "compare" else I32)
    program, template = trace_op(lambda b: fn(bv_convert(b, I32)), [mv.zeros(BOOL, 1, 1)])
    for flag in (False, True):
        arg = mv.make(BOOL, 1, 1, [flag])
        assert run_traced(program, template, [arg]) == fn(numerics(mv.convert(arg, I32))).value


@pytest.mark.parametrize("cat,shape", [(tr.vertcat, (2, 1)), (tr.horzcat, (1, 2))])
@pytest.mark.parametrize("sym", [False, True])
def test_concat_coerces_bare_numbers(cat, shape, sym):
    """A bare number joined to an i32 bvar becomes an i32 element."""
    ctx = codegen_init()
    x = symbolics(ctx, mv.zeros(I32, 1, 1), "x") if sym else numerics(mv.make(I32, 1, 1, [5]))
    out = cat(x, 0)
    assert out.dtype == I32 and out.shape == shape and out.sym == sym
    if not sym:
        assert list(out.value.data) == [5, 0]


@pytest.mark.parametrize("cat,shape", [(tr.vertcat, (2, 1)), (tr.horzcat, (1, 2))])
@pytest.mark.parametrize("sym", [False, True])
def test_concat_leading_bare_number_adopts_the_first_bvar_dtype(cat, shape, sym):
    """A bare number before an i32 bvar becomes an i32 element too, and the
    recorded join replays to the same elements."""
    ctx = codegen_init()
    x = symbolics(ctx, mv.zeros(I32, 1, 1), "x") if sym else numerics(mv.make(I32, 1, 1, [5]))
    out = cat(0, x)
    assert out.dtype == I32 and out.shape == shape and out.sym == sym
    want = mv.make(I32, *shape, [0, 5])
    if not sym:
        assert out.value == want
    program, template = trace_op(lambda b: cat(0, b), [mv.zeros(I32, 1, 1)])
    assert run_traced(program, template, [mv.make(I32, 1, 1, [5])]) == want


def test_convert_same_dtype_is_identity():
    ctx = codegen_init()
    x = symbolics(ctx, mv.zeros(F64, 2, 2), "x")
    assert bv_convert(x, F64) is x


def test_bvarempty_and_copy_into():
    ctx = codegen_init()
    src = numerics(mv.from_rows([[1, 2, 3], [4, 5, 6]]))
    empty = bvarempty(ctx, src)
    assert empty.sym and ctx.module.decls[empty.name].init == src.value
    _copy_into(ctx, empty.name, src)
    copies = [i for i in ctx.module.body if isinstance(i, tr.CopyMat)]
    assert copies and copies[-1].dst == empty.name and copies[-1].n == 6


def test_bvarempty_without_a_session_is_a_fresh_number():
    src = numerics(mv.from_rows([[1, 2, 3], [4, 5, 6]]))
    empty = bvarempty(None, src)
    assert type(empty) is tr.Num and empty is not src and empty.value == src.value
    empty[1] = 7
    assert src.value.data[0] == 1 and empty.value.data[0] == 7


def test_inv_nonsquare_message():
    ctx = codegen_init()
    with pytest.raises(mv.NonSquare, match="Division by non square matrix"):
        bv_inv(symbolics(ctx, mv.zeros(F64, 2, 3)))


def test_inv_numeric_folds():
    ctx = codegen_init()
    out = bv_inv(numerics(mv.from_rows([[2.0, 0.0], [0.0, 4.0]])))
    assert not out.sym
    assert out.value.get(0, 0) == 0.5 and out.value.get(1, 1) == 0.25
    assert not ctx.module.body


def test_pow_squares_by_multiplying():
    ctx = codegen_init()
    x = symbolics(ctx, mv.scalar(3.0), "x")
    out = x ** 2
    d = [i for i in ctx.module.body if isinstance(i, Def)][-1]
    assert d.expr == tr.Op("mul", (tr.Ref("x"), tr.Ref("x")))
    assert out.sym


def test_shape_propagation_matches_matval():
    rng = random.Random(31)
    ctx = codegen_init()
    for _ in range(50):
        m, k, n = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        a = symbolics(ctx, random_matvalue(rng, F64, m, k))
        b = symbolics(ctx, random_matvalue(rng, F64, k, n))
        assert (a * b).shape == (m, n)
        assert (a.T).shape == (k, m)
        assert bv_concat_rows(a, symbolics(ctx, random_matvalue(rng, F64, 2, k))).shape \
            == (m + 2, k)


# ---------------------------------------------------------------------------
# numeric closure and trace faithfulness, randomized


_UNARY_OPS = [
    ("neg", lambda a: -a),
    ("transpose", bv_transpose),
    ("sumall", bv_sum),
    ("sqrt_abs", lambda a: tr.sqrt(tr.bv_binop("mul", a, a))),
]

_BINARY_OPS = [
    ("add", lambda a, b: a + b),
    ("sub", lambda a, b: a - b),
    ("elmul", lambda a, b: tr.bv_binop("mul", a, b)),
    ("matmul", lambda a, b: a * b),
    ("concat", bv_concat_rows),
    ("lt", lambda a, b: bv_binop("lt", a, b)),
]


def test_value_consistency_numeric_ops_match_kernels():
    rng = random.Random(37)
    for _ in range(100):
        r, c = rng.randint(1, 3), rng.randint(1, 3)
        a = random_matvalue(rng, F64, r, c)
        b = random_matvalue(rng, F64, r, c)
        assert (numerics(a) + numerics(b)).value == mv.elem_binop("add", a, b)
        assert (numerics(a) - numerics(b)).value == mv.elem_binop("sub", a, b)
        assert tr.bv_binop("mul", numerics(a), numerics(b)).value == mv.elem_binop("mul", a, b)
        assert bv_transpose(numerics(a)).value == mv.transpose(a)
        assert bv_sum(numerics(a)).value == mv.sum_all(a)
        assert bv_binop("le", numerics(a), numerics(b)).value == mv.elem_binop("le", a, b)
        k = random_matvalue(rng, F64, c, rng.randint(1, 3))
        assert (numerics(a) * numerics(k)).value == mv.matmul(a, k)


def test_symbolic_condition_rejected():
    ctx = codegen_init()
    x = symbolics(ctx, mv.scalar(1.0), "x")
    with pytest.raises(tr.SymbolicConditionError, match="x"):
        if x:
            pass
    flag = bv_binop("gt", x, numerics(0.0))
    with pytest.raises(tr.SymbolicConditionError, match=flag.name):
        bool(flag)


def test_numeric_condition_partial_evaluates():
    assert bool(numerics(mv.scalar(2.0)))
    assert not bool(numerics(mv.scalar(0.0)))
    assert bool(numerics(mv.from_rows([[1.0, 2.0]])))
    assert not bool(numerics(mv.from_rows([[1.0, 0.0]])))


def test_numeric_closure_randomized():
    # acceptance criterion 6a lives in test_acceptance; this is the smoke copy
    rng = random.Random(41)
    ctx = codegen_init()
    for _ in range(200):
        r, c = rng.randint(1, 3), rng.randint(1, 3)
        a = numerics(random_matvalue(rng, F64, r, c))
        b = numerics(random_matvalue(rng, F64, r, c))
        name, fn = _BINARY_OPS[rng.randrange(4)]
        if name == "matmul":
            b = numerics(random_matvalue(rng, F64, c, rng.randint(1, 3)))
        out = fn(a, b)
        assert not out.sym
    assert not ctx.module.body


def test_trace_faithfulness_single_ops():
    rng = random.Random(43)
    for trial in range(120):
        r, c = rng.randint(1, 3), rng.randint(1, 3)
        choice = rng.randrange(len(_BINARY_OPS))
        name, fn = _BINARY_OPS[choice]
        a = random_matvalue(rng, F64, r, c)
        if name == "matmul":
            b = random_matvalue(rng, F64, c, rng.randint(1, 4))
        elif name == "concat":
            b = random_matvalue(rng, F64, rng.randint(1, 3), c)
        else:
            b = random_matvalue(rng, F64, r, c)
        program, out_template = trace_op(fn, [a, b])
        got = run_traced(program, out_template, [a, b])
        want = fn(numerics(a), numerics(b)).value
        assert_close(got, want)


def test_trace_faithfulness_inverse_3x3_helper():
    rng = random.Random(47)
    for _ in range(10):
        a = mv.elem_binop("add", random_matvalue(rng, F64, 3, 3),
                          mv.make(F64, 3, 3, [6.0 if i in (0, 4, 8) else 0.0
                                              for i in range(9)]))
        program, out_template = trace_op(bv_inv, [a])
        got = run_traced(program, out_template, [a])
        assert_close(got, mv.invert(a), rel=1e-12)


def test_trace_faithfulness_integer_exact():
    rng = random.Random(53)
    for _ in range(60):
        a = random_matvalue(rng, I32, 2, 2)
        b = random_matvalue(rng, I32, 2, 2)
        for name, fn in _BINARY_OPS[:3]:
            program, out_template = trace_op(fn, [a, b])
            got = run_traced(program, out_template, [a, b])
            want = fn(numerics(a), numerics(b)).value
            assert got.data == want.data
