"""The two kinds of traced value: a numeric handle (Num) computes with
matval directly and records nothing, a symbolic one (BVar) records. Every
overloaded operator is checked on every pairing of the two, and of a bare
number with either, in both orders and on every dtype it accepts."""

import operator

import pytest

import blockgen as bg
from blockgen import matval as mv
from blockgen import trace as tr
from blockgen.directives import codegen_init
from blockgen.trace import BVar, Num, numerics, symbolics

from conftest import load_model_text

NUMERIC = ["f64", "i8", "i16", "i32", "u8", "u16", "u32"]

# two 2x2 operands per dtype, chosen so that + - * wrap on the integer types
# and no division is by zero, and a bare number of each dtype's kind
VALUES = {
    "f64": ([7.5, -2.0, 0.25, 3.0], [1.5, 4.0, -0.5, 2.0], 2.5),
    "i8": ([100, -3, 90, 7], [-100, 5, 60, 3], 3),
    "i16": ([30000, 7, -300, 2], [9, 30000, 41, -5], 3),
    "i32": ([2 ** 31 - 5, 9, -7, 3], [11, 2 ** 30, 5, -6], 3),
    "u8": ([3, 250, 17, 9], [250, 7, 2, 30], 3),
    "u16": ([5, 60000, 300, 4], [60000, 9, 7, 600], 3),
    "u32": ([7, 2 ** 32 - 2, 12, 5], [2 ** 31, 3, 9, 2 ** 20], 3),
}

ELEM = lambda op: (lambda a, b: mv.elementwise(op, a, b))  # noqa: E731

# operator -> (apply it to two operands, matval's result on two values)
BINARY = {
    "+": (operator.add, ELEM("add")),
    "-": (operator.sub, ELEM("sub")),
    "*": (operator.mul, mv.matmul),
    "/": (operator.truediv, mv.divide),
}


def _operands(tag, shape_b=(2, 2)):
    d = mv.DTYPES[tag]
    x, y, bare = VALUES[tag]
    b = mv.make(d, 1, 1, y[:1]) if shape_b == (1, 1) else mv.make(d, 2, 2, y)
    return mv.make(d, 2, 2, x), b, bare


def _divisor_shape(op, tag):
    # a matrix divisor needs an f64 inverse; integers divide by a 1x1 value
    return (1, 1) if op == "/" and tag != "f64" else (2, 2)


def _numeric_result(result):
    assert type(result) is Num and not result.sym
    return result.value


@pytest.mark.parametrize("tag", NUMERIC)
@pytest.mark.parametrize("op", sorted(BINARY))
def test_numeric_operands_compute_as_matval(op, tag):
    apply, kernel = BINARY[op]
    a, b, _ = _operands(tag, _divisor_shape(op, tag))
    assert _numeric_result(apply(numerics(a), numerics(b))) == kernel(a, b)
    if op != "/":
        assert _numeric_result(apply(numerics(b), numerics(a))) == kernel(b, a)


@pytest.mark.parametrize("tag", NUMERIC)
@pytest.mark.parametrize("op", sorted(BINARY))
def test_bare_number_adopts_the_numeric_operand_dtype(op, tag):
    apply, kernel = BINARY[op]
    a, _, bare = _operands(tag)
    d = mv.DTYPES[tag]
    scalar = mv.make(d, 1, 1, [bare])
    assert apply(numerics(a), bare).value == kernel(a, scalar)
    if op != "/":  # a 1x1 value divides by a square matrix only through its inverse
        assert apply(bare, numerics(a)).value == kernel(scalar, a)
    else:
        assert apply(bare, numerics(scalar)).value == kernel(scalar, scalar)


@pytest.mark.parametrize("tag", NUMERIC)
@pytest.mark.parametrize("op", sorted(BINARY))
@pytest.mark.parametrize("shape", [(1, 1), (2, 2)])
@pytest.mark.parametrize("bare", [3, 2.75, -2.0])
def test_bare_number_equals_the_number_converted_first(op, tag, shape, bare):
    """A bare int or float meeting a Num, on either side, gives what the
    number converted to the Num's dtype first gives, in dtype and value."""
    apply, _ = BINARY[op]
    d = mv.DTYPES[tag]
    a = _operands(tag, shape)[1]
    converted = numerics(mv.convert(mv.scalar(bare), d))
    pairs = [((numerics(a), bare), (numerics(a), converted))]
    if op != "/" or shape == (1, 1) or d is mv.F64:  # only an f64 square divisor inverts
        pairs.append(((bare, numerics(a)), (converted, numerics(a))))
    for given, first in pairs:
        got, want = _numeric_result(apply(*given)), _numeric_result(apply(*first))
        assert got == want and got.dtype is want.dtype


@pytest.mark.parametrize("tag", NUMERIC)
@pytest.mark.parametrize("op", sorted(BINARY))
@pytest.mark.parametrize("sym_side", ["left", "right"])
def test_mixed_operands_record(op, tag, sym_side):
    apply, kernel = BINARY[op]
    a, b, _ = _operands(tag, _divisor_shape(op, tag))
    want = kernel(a, b)
    ctx = codegen_init()
    if sym_side == "left":
        out = apply(symbolics(ctx, a, "s"), numerics(b))
    else:
        out = apply(numerics(a), symbolics(ctx, b, "s"))
    assert type(out) is BVar and out.sym
    assert (out.dtype, out.shape) == (want.dtype, want.shape)
    assert ctx.module.body  # the operation was recorded


OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
             "__truediv__", "__rtruediv__", "__neg__", "T")


def test_one_operator_table():
    """Handle holds the operators of both kinds; neither defines its own."""
    for name in OPERATORS:
        assert name in vars(tr.Handle)
        assert name not in vars(Num) and name not in vars(BVar)


@pytest.mark.parametrize("tag", [t for t in NUMERIC if mv.DTYPES[t].is_int])
@pytest.mark.parametrize("op", sorted(BINARY))
@pytest.mark.parametrize("bare_side", ["left", "right"])
def test_bare_number_meeting_a_bvar_records_in_its_dtype(op, tag, bare_side):
    apply, _ = BINARY[op]
    d = mv.DTYPES[tag]
    ctx = codegen_init()
    x = symbolics(ctx, mv.make(d, 1, 1, [5]), "x")
    out = apply(3, x) if bare_side == "left" else apply(x, 3)
    assert type(out) is BVar and out.dtype is d and ctx.module.decls[out.name].dtype is d
    (instr,) = ctx.module.body
    assert type(instr) is tr.Def and instr.name == out.name
    three, ref = (tr.Lit(mv.make(d, 1, 1, [3])), tr.Ref("x"))
    kernel = {"+": "add", "-": "sub", "*": "mul", "/": "div"}[op]
    assert instr.expr == tr.Op(kernel, (three, ref) if bare_side == "left" else (ref, three))


@pytest.mark.parametrize("op", sorted(BINARY))
def test_bool_operands_keep_their_errors(op):
    apply, _ = BINARY[op]
    t = mv.make(mv.BOOL, 1, 1, [True])
    ctx = codegen_init()
    s = symbolics(ctx, t, "s")
    message = "bool participates in arithmetic only after conversion"
    pairs = [(numerics(t), numerics(t)), (numerics(t), s), (s, numerics(t)),
             (numerics(t), 1.0), (1.0, numerics(t))]
    if op in "+-":  # elementwise checks the dtype before the shapes, and so does the recorder
        column, row = mv.zeros(mv.BOOL, 2, 1), mv.zeros(mv.BOOL, 1, 2)
        pairs += [(numerics(column), numerics(row)), (symbolics(ctx, column), numerics(row))]
    for left, right in pairs:
        with pytest.raises(mv.DtypeMismatch, match=message):
            apply(left, right)


@pytest.mark.parametrize("op", sorted(BINARY))
def test_dtype_mismatch_keeps_its_message(op):
    apply, _ = BINARY[op]
    f, i = mv.scalar(2.0), mv.make(mv.I32, 1, 1, [3])
    ctx = codegen_init()
    for left, right in [(numerics(f), numerics(i)), (numerics(f), symbolics(ctx, i)),
                        (symbolics(ctx, f), numerics(i))]:
        with pytest.raises(mv.DtypeMismatch, match="^f64 vs i32$"):
            apply(left, right)
    with pytest.raises(mv.DtypeMismatch, match="^f64 vs bool$"):
        apply(numerics(f), True)  # a bare bool keeps its dtype


@pytest.mark.parametrize("tag", NUMERIC)
def test_unary_operators(tag):
    a, _, _ = _operands(tag)
    s = mv.make(a.dtype, 1, 1, a.data[:1])
    n = numerics(a)
    assert (-n).value == mv.elementwise("neg", a) and type(-n) is Num
    assert n.T.value == mv.transpose(a) and type(n.T) is Num
    assert (numerics(s) ** 3).value == mv.matmul(mv.matmul(s, s), s)
    assert (numerics(s) ** 0).value == mv.make(a.dtype, 1, 1, [1])
    ctx = codegen_init()
    x = symbolics(ctx, a, "x")
    for out in (-x, x.T, symbolics(ctx, s) ** 2):
        assert type(out) is BVar
    assert len(ctx.module.body) > 0


def test_bool_unary_operators():
    t = mv.make(mv.BOOL, 1, 2, [True, False])
    ctx = codegen_init()
    for v in (numerics(t), symbolics(ctx, t)):
        assert v.T.dtype is mv.BOOL and v.T.shape == (2, 1)
        with pytest.raises(mv.DtypeMismatch, match="^bool negation$"):
            -v
        with pytest.raises(mv.DtypeMismatch, match="only after conversion"):
            v[1] ** 2


def test_power_exponent_kinds():
    s = numerics(mv.scalar(3.0))
    assert (s ** numerics(mv.scalar(2.0))).value == mv.scalar(9.0)
    ctx = codegen_init()
    with pytest.raises(tr.SymbolicConditionError, match="exponent must be numeric"):
        s ** symbolics(ctx, mv.scalar(2.0))
    with pytest.raises(tr.TraceError, match="nonnegative integer"):
        s ** 1.5


@pytest.mark.parametrize("tag", NUMERIC + ["bool"])
def test_element_read_and_write(tag):
    d = mv.DTYPES[tag]
    data = [True, False, False, True] if d.is_bool else VALUES[tag][0]
    a = mv.make(d, 2, 2, data)
    n = numerics(a)
    assert n[3].value == n[1, 2].value == mv.make(d, 1, 1, [a.data[2]])
    assert type(n[3]) is Num
    n[2, 1] = numerics(mv.make(d, 1, 1, [data[0]]))
    n[4] = True if d.is_bool else VALUES[tag][2]  # a bare number adopts the dtype
    assert n.value == mv.make(d, 2, 2, [data[0], data[0], data[2], VALUES[tag][2]
                                        if not d.is_bool else True])
    assert type(n) is Num
    ctx = codegen_init()
    x = symbolics(ctx, a, "x")
    assert type(x[3]) is BVar and ctx.module.body


def test_truth_value():
    assert bool(numerics(mv.from_rows([[1.0, 2.0]])))
    assert not bool(numerics(mv.from_rows([[1.0, 0.0]])))
    with pytest.raises(tr.SymbolicConditionError):
        bool(symbolics(codegen_init(), mv.scalar(1.0), "x"))


STIMULI = {
    "kalman.model": lambda k: [mv.make(mv.F64, 2, 1, [1000.0 + k, 0.75 - 0.01 * k])],
    "chain40.model": lambda k: [mv.scalar(0.5 * k)],
    "coding.model": lambda k: [mv.make(mv.I32, 1, 1, [k // 3])],
    "twodelays.model": lambda k: [mv.scalar(1.0 - k)],
}


@pytest.mark.parametrize("fixture", sorted(STIMULI))
def test_simulate_records_nothing(monkeypatch, fixture):
    """A numeric run builds no symbolic value and emits no instruction."""
    calls = {"BVar": 0, "emit": 0}
    bvar_init, emit = BVar.__init__, tr.TraceContext.emit

    def counting_bvar(self, *args):
        calls["BVar"] += 1
        bvar_init(self, *args)

    def counting_emit(self, instr):
        calls["emit"] += 1
        emit(self, instr)

    monkeypatch.setattr(BVar, "__init__", counting_bvar)
    monkeypatch.setattr(tr.TraceContext, "emit", counting_emit)
    model = bg.parse_model(load_model_text(fixture))
    outputs = bg.simulate(model, [STIMULI[fixture](k) for k in range(8)], 8)
    assert len(outputs) == 8
    assert calls == {"BVar": 0, "emit": 0}
    symbolics(codegen_init(), mv.scalar(0.0)).ctx.emit(tr.Annot("x"))
    assert calls == {"BVar": 1, "emit": 1}  # the counters do count
