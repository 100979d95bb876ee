"""Numeric kernel tests. numpy is the independent oracle throughout; the
kernels themselves are hand-written so that interpreted and emitted C
arithmetic agree bit for bit."""

import copy
import math
import operator
import pickle
import random
import struct
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blockgen import matval as mv
from blockgen.matval import BOOL, F64, I8, I16, I32, U8, U16, U32

from conftest import random_matvalue


def to_np(a: mv.MatValue):
    return np.array(a.data, dtype=float).reshape((a.cols, a.rows)).T


def test_column_major_layout():
    a = mv.from_rows([[5, 0], [7, 8]])
    assert list(a.data) == [5, 7, 0, 8]
    assert a.get(0, 1) == 0
    assert mv.to_rows(a) == [[5.0, 0.0], [7.0, 8.0]]


def test_column_major_round_trip():
    rng = random.Random(11)
    for _ in range(50):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        a = random_matvalue(rng, F64, r, c)
        again = mv.from_rows(mv.to_rows(a))
        assert again == a


def test_bad_data_length():
    with pytest.raises(mv.ShapeMismatch):
        mv.MatValue(F64, 2, 2, (1.0, 2.0, 3.0))


def test_elem_add():
    a = mv.from_rows([[1, 2], [3, 4]])
    b = mv.from_rows([[10, 10], [10, 10]])
    assert mv.to_rows(mv.elem_binop("add", a, b)) == [[11, 12], [13, 14]]


def test_sub_scalars():
    a, b = mv.scalar(5.0), mv.scalar(3.0)
    assert mv.elem_binop("sub", a, b).scalar() == 2.0


def test_scalar_broadcast_mul():
    out = mv.elem_binop("mul", mv.scalar(2.0), mv.from_rows([[1, 2, 3]]))
    assert list(out.data) == [2.0, 4.0, 6.0]
    assert out.shape == (1, 3)


def test_broadcast_commutes_with_expansion():
    rng = random.Random(5)
    for op in ("add", "sub", "mul", "div"):
        s = mv.scalar(rng.uniform(1, 3))
        b = random_matvalue(rng, F64, 3, 2)
        expanded = mv.make(F64, 3, 2, [s.scalar()] * 6)
        assert mv.elem_binop(op, s, b) == mv.elem_binop(op, expanded, b)


def test_shape_mismatch():
    with pytest.raises(mv.ShapeMismatch):
        mv.elem_binop("add", mv.zeros(F64, 2, 2), mv.zeros(F64, 3, 1))


def test_dtype_mismatch():
    with pytest.raises(mv.DtypeMismatch):
        mv.elem_binop("add", mv.zeros(F64, 1, 1), mv.zeros(I32, 1, 1))


def test_bool_arithmetic_rejected():
    with pytest.raises(mv.DtypeMismatch):
        mv.elem_binop("add", mv.zeros(BOOL, 1, 1), mv.zeros(BOOL, 1, 1))


@pytest.mark.parametrize("dtype", [I8, I16, I32, U8, U16, U32])
def test_integer_wrap_matches_c(dtype):
    rng = random.Random(hash(dtype.tag) & 0xFFFF)
    lo, hi = (-(1 << (dtype.width - 1)), (1 << (dtype.width - 1)) - 1) \
        if dtype.signed else (0, (1 << dtype.width) - 1)
    for _ in range(200):
        x, y = rng.randint(lo, hi), rng.randint(lo, hi)
        for op, pyop in (("add", x + y), ("sub", x - y), ("mul", x * y)):
            got = mv.elem_kernel(op, dtype)(x, y)
            assert got == mv.wrap_int(pyop, dtype)
            assert lo <= got <= hi


def test_int_division_truncates_toward_zero():
    assert mv.elem_kernel("div", I32)(-7, 2) == -3
    assert mv.elem_kernel("div", I32)(7, -2) == -3
    assert mv.elem_kernel("div", I32)(7, 2) == 3
    with pytest.raises(mv.DivisionByZero):
        mv.elem_kernel("div", I32)(1, 0)


def test_f64_division_by_zero_is_ieee():
    assert mv.elem_kernel("div", F64)(1.0, 0.0) == math.inf
    assert mv.elem_kernel("div", F64)(-1.0, 0.0) == -math.inf
    assert math.isnan(mv.elem_kernel("div", F64)(0.0, 0.0))


def test_matmul_frozen_kalman_prediction():
    # independent oracle: hand product of the transition matrix with the
    # initial tracking state, frozen: [-892, 80, 952, 20]
    F = mv.from_rows([[1, 0.1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0.1], [0, 0, 0, 1]])
    xhat = mv.from_rows([[-900], [80], [950], [20]])
    out = mv.matmul(F, xhat)
    assert list(out.data) == [-892.0, 80.0, 952.0, 20.0]


def test_matmul_scalar_cases():
    a = mv.from_rows([[1, 2], [3, 4]])
    assert mv.to_rows(mv.matmul(mv.scalar(3.0), a)) == [[3, 6], [9, 12]]
    assert mv.to_rows(mv.matmul(a, mv.scalar(3.0))) == [[3, 6], [9, 12]]


def test_matmul_identity():
    rng = random.Random(2)
    a = random_matvalue(rng, F64, 2, 2)
    assert mv.matmul(mv.eye(2), a) == a


def test_matmul_against_numpy():
    rng = random.Random(7)
    for _ in range(100):
        m, k, n = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        a = random_matvalue(rng, F64, m, k)
        b = random_matvalue(rng, F64, k, n)
        got = to_np(mv.matmul(a, b))
        np.testing.assert_allclose(got, to_np(a) @ to_np(b), rtol=1e-12)


def test_matmul_associativity():
    rng = random.Random(13)
    for _ in range(50):
        a = random_matvalue(rng, F64, 3, 3)
        b = random_matvalue(rng, F64, 3, 3)
        c = random_matvalue(rng, F64, 3, 3)
        left = mv.matmul(mv.matmul(a, b), c)
        right = mv.matmul(a, mv.matmul(b, c))
        np.testing.assert_allclose(to_np(left), to_np(right), rtol=1e-9, atol=1e-9)


def _reference_matmul_flat(a, ar, ac, b, br, bc):
    """The f64 product as matmul_flat computed it with a loop over the
    element kernels: a 1x1 operand scales, else each element is
    reduce(add, map(mul, row, col), 0.0)."""
    if ar == ac == 1:
        return [a[0] * y for y in b]
    if br == bc == 1:
        return [x * b[0] for x in a]
    rows = [a[i::ar] for i in range(ar)]
    cols = [b[j * br:(j + 1) * br] for j in range(bc)]
    return [reduce(operator.add, map(operator.mul, row, col), 0.0) for col in cols for row in rows]


def _bits(values):
    """Each value's bit pattern; every NaN alike. Where two NaNs meet, which
    one an add or multiply returns depends on the machine instruction's
    operand order, which differs even between operator.add and the `+`
    bytecode's float path, so a NaN's sign and payload are not part of the
    semantics."""
    return [b"nan" if math.isnan(v) else struct.pack("<d", v) for v in values]


def _assert_product_bits(a, ar, n, b, bc):
    rows, cols, got = mv.matmul_flat(F64, a, ar, n, b, n, bc)
    assert (rows, cols) == (ar, bc)
    assert _bits(got) == _bits(_reference_matmul_flat(a, ar, n, b, n, bc))


SPECIAL_F64 = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
               -1.5e-310, 1e308, -1e308, 1.7976931348623157e308, 1e200, -3.0, 0.1, 1.0]


def test_f64_product_kernels_are_the_element_kernels():
    assert mv.elem_kernel("add", F64) is operator.add
    assert mv.elem_kernel("mul", F64) is operator.mul


def test_f64_product_every_shape_matches_loop():
    rng = random.Random(17)
    for ar in range(9):
        for n in range(9):
            for bc in range(9):
                a = [rng.choice(SPECIAL_F64) for _ in range(ar * n)]
                b = [rng.choice(SPECIAL_F64) for _ in range(n * bc)]
                _assert_product_bits(a, ar, n, b, bc)


@st.composite
def _f64_operands(draw):
    ar, n, bc = (draw(st.integers(0, 8)) for _ in range(3))
    elem = st.one_of(st.sampled_from(SPECIAL_F64), st.floats(-1e3, 1e3), st.floats())
    a = draw(st.lists(elem, min_size=ar * n, max_size=ar * n))
    b = draw(st.lists(elem, min_size=n * bc, max_size=n * bc))
    return a, ar, n, b, bc


@settings(max_examples=100, deadline=None)
@given(_f64_operands())
def test_f64_product_matches_loop_bit_for_bit(operands):
    _assert_product_bits(*operands)


def test_matmul_shape_error():
    with pytest.raises(mv.ShapeMismatch):
        mv.matmul(mv.zeros(F64, 2, 3), mv.zeros(F64, 2, 3))


def test_transpose():
    a = mv.from_rows([[1, 2], [3, 4]])
    assert mv.to_rows(mv.transpose(a)) == [[1, 3], [2, 4]]


def test_transpose_involution_and_shape():
    rng = random.Random(3)
    a = random_matvalue(rng, F64, 2, 4)
    assert mv.transpose(a).shape == (4, 2)
    assert mv.transpose(mv.transpose(a)) == a


def test_concat_rows():
    assert list(mv.concat_rows(mv.scalar(1.0), mv.scalar(2.0)).data) == [1.0, 2.0]
    a = mv.from_rows([[1, 2]])
    b = mv.from_rows([[3, 4], [5, 6]])
    assert mv.to_rows(mv.concat_rows(a, b)) == [[1, 2], [3, 4], [5, 6]]


def test_concat_rows_empty_identity():
    v = mv.from_rows([[1], [2]])
    empty = mv.zeros(F64, 0, 1)
    assert mv.concat_rows(empty, v) == v
    assert mv.concat_rows(v, empty) == v


def test_concat_rows_column_mismatch():
    with pytest.raises(mv.ShapeMismatch):
        mv.concat_rows(mv.zeros(F64, 1, 2), mv.zeros(F64, 1, 3))


def test_concat_cols():
    a = mv.from_rows([[1], [2]])
    b = mv.from_rows([[3], [4]])
    assert mv.to_rows(mv.concat_cols(a, b)) == [[1, 3], [2, 4]]


def test_convert_truncates_toward_zero():
    # oracle: C cast semantics, truncation toward zero
    out = mv.convert(mv.from_rows([[1.9, -1.9]]), I32)
    assert list(out.data) == [1, -1]


def test_convert_identity_and_bool():
    x = mv.from_rows([[0.0, 3.0]])
    assert mv.convert(x, F64) is x
    assert list(mv.convert(x, BOOL).data) == [False, True]


def test_convert_narrowing_wraps():
    assert mv.convert(mv.make(I32, 1, 1, [257]), I8).scalar() == 1
    assert mv.convert(mv.make(I32, 1, 1, [-1]), U8).scalar() == 255


def test_convert_idempotent():
    rng = random.Random(17)
    for dtype in (I8, I32, U16, BOOL, F64):
        x = random_matvalue(rng, F64, 2, 3)
        once = mv.convert(x, dtype)
        assert mv.convert(once, dtype) == once


def test_sum_all():
    assert mv.sum_all(mv.from_rows([[1, 2], [3, 4]])).scalar() == 10.0
    assert mv.sum_all(mv.zeros(F64, 0, 0)).scalar() == 0.0
    assert mv.sum_all(mv.scalar(7.0)).scalar() == 7.0
    with pytest.raises(mv.DtypeMismatch):
        mv.sum_all(mv.zeros(BOOL, 1, 1))


def test_compare():
    assert mv.elem_binop("ne", mv.scalar(3.0), mv.scalar(3.0)).scalar() is False
    out = mv.elem_binop("gt", mv.from_rows([[1, 5]]), mv.scalar(2.0))
    assert list(out.data) == [False, True]
    assert out.dtype == BOOL


def test_invert_2x2_adjugate():
    a = mv.from_rows([[4, 7], [2, 6]])
    inv = mv.invert(a)
    det = 4 * 6 - 7 * 2
    assert inv.get(0, 0) == 6 / det and inv.get(1, 1) == 4 / det
    assert inv.get(0, 1) == -7 / det and inv.get(1, 0) == -2 / det


def test_invert_identity_and_reciprocal():
    assert mv.invert(mv.eye(3)) == mv.eye(3)
    assert mv.invert(mv.scalar(4.0)).scalar() == 0.25


def test_invert_residual_random_4x4():
    rng = random.Random(23)
    for _ in range(20):
        a = mv.elem_binop("add", random_matvalue(rng, F64, 4, 4),
                          mv.make(F64, 4, 4, [8.0 if i % 5 == 0 else 0.0
                                              for i in range(16)]))
        residual = mv.matmul(mv.invert(a), a)
        np.testing.assert_allclose(to_np(residual), np.eye(4), atol=1e-12)


def test_invert_errors():
    with pytest.raises(mv.NonSquare):
        mv.invert(mv.zeros(F64, 2, 3))
    with pytest.raises(mv.Singular):
        mv.invert(mv.zeros(F64, 2, 2))
    with pytest.raises(mv.Singular):
        mv.invert(mv.make(F64, 3, 3, [1, 1, 0, 2, 2, 0, 0, 0, 1]))


def test_elem_math():
    assert mv.elem_math("sqrt", mv.scalar(4.0)).scalar() == 2.0
    assert mv.elem_math("cos", mv.scalar(0.0)).scalar() == 1.0
    # bearing of the initial tracking state, host math library as oracle
    got = mv.elem_math("atan2", mv.scalar(950.0), mv.scalar(-900.0)).scalar()
    assert got == math.atan2(950.0, -900.0)


def test_elem_math_elementwise_and_shape_check():
    a = mv.from_rows([[1.0, 4.0], [9.0, 16.0]])
    assert mv.to_rows(mv.elem_math("sqrt", a)) == [[1, 2], [3, 4]]
    with pytest.raises(mv.ShapeMismatch):
        mv.elem_math("atan2", mv.zeros(F64, 2, 1), mv.zeros(F64, 1, 2))


def test_constructors():
    assert mv.to_rows(mv.diag([1.0, 2.0])) == [[1, 0], [0, 2]]
    assert mv.ones(I32, 2, 2).data == (1, 1, 1, 1)
    assert mv.eye(2, I32).data == (1, 0, 0, 1)


# ---------------------------------------------------------------------------
# value semantics: interned dtypes, immutable tuple-backed values


@pytest.mark.parametrize("dtype", list(mv.DTYPES.values()), ids=list(mv.DTYPES))
def test_dtype_is_one_instance_through_copies(dtype):
    assert copy.copy(dtype) is dtype
    assert copy.deepcopy(dtype) is dtype
    assert pickle.loads(pickle.dumps(dtype)) is dtype
    assert mv.Dtype(dtype.tag) is dtype
    assert hash(dtype) == hash(dtype.tag)
    held = copy.deepcopy({"v": mv.zeros(dtype, 2, 1)})["v"]
    assert held.dtype is dtype


def test_dtypes_and_values_are_immutable():
    with pytest.raises(AttributeError):
        F64.tag = "i32"
    with pytest.raises(AttributeError):
        del F64.width
    v = mv.scalar(1.0)
    with pytest.raises(AttributeError):
        v.rows = 2
    with pytest.raises(AttributeError):
        v.extra = 1
    with pytest.raises(TypeError):
        v + v  # not the tuple's concatenation
    with pytest.raises(TypeError):
        v * 2  # nor its repetition


def test_matvalue_validation_and_equality():
    with pytest.raises(mv.ShapeMismatch, match=r"^data length 3 != 2x2$"):
        mv.MatValue(F64, 2, 2, (1.0, 2.0, 3.0))
    with pytest.raises(mv.ShapeMismatch, match=r"^negative dimension$"):
        mv.MatValue(F64, -1, 0, ())
    a, b = mv.make(I32, 1, 2, [1, 2]), mv.make(I32, 1, 2, [1.0, 2.0])
    assert a == b and hash(a) == hash(b) and not a != b
    assert a != tuple(a) and tuple(a) != a
    assert a != mv.make(I16, 1, 2, [1, 2])
    assert repr(a) == "MatValue(i32, 1x2, [1, 2])"
    assert pickle.loads(pickle.dumps(a)) == a
