"""Every operator of trace.OPS through its three consumers, the C printer,
literal folding and the interpreter, with Python's own arithmetic as the
reference. Adding an operator means adding one table entry and, if its C
spelling needs it, one printer case; this test then covers it on every
numeric dtype."""

import operator

import pytest

from blockgen import matval as mv
from blockgen.cemit import SymTab, expr_str, format_number
from blockgen.irinterp import Machine
from blockgen.optimizer import fold_expr
from blockgen.trace import (
    OPS, Bin, Decl, Def, FunctionDef, Lit, Param, Program, Ref, Store,
)

# two operands per numeric dtype, chosen so that +, - or * wraps on the
# integer types and no division is by zero; each operator runs on (x, y),
# (y, x) and (x, x), so that every comparison is told from its neighbours
OPERANDS = {
    "f64": (7.5, -2.0),
    "i8": (100, -3),
    "i16": (30000, 7),
    "i32": (2 ** 31 - 5, 9),
    "u8": (3, 250),
    "u16": (5, 60000),
    "u32": (7, 2 ** 32 - 2),
}

PYTHON = {
    "+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
    "==": operator.eq, "!=": operator.ne, "<": operator.lt, "<=": operator.le,
    ">": operator.gt, ">=": operator.ge,
}


def _reference(op, x, y, dtype):
    """What `x op y` means in the emitted C, computed by Python directly:
    comparisons give a truth value, integer division truncates, integer
    results wrap to the operand width."""
    if op in ("==", "!=", "<", "<=", ">", ">=") or dtype.is_float:
        return PYTHON[op](x, y)
    return mv.wrap_int(int(x / y) if op == "/" else PYTHON[op](x, y), dtype)


def _machine_value(expr, dtype):
    """Run `t = expr; res = t` as a one-function program."""
    fn = FunctionDef("f", [Param("res", dtype, 1, 1)],
                     decls={"t": Decl("t", dtype, 1, 1)},
                     body=[Def("t", expr), Store("res", Ref("t"))])
    program = Program(statics=[], init_fn=FunctionDef("init", []), functions=[fn],
                      helpers=[])
    (res,) = Machine(program).run_function("f", [mv.zeros(dtype, 1, 1)])
    return res


@pytest.mark.parametrize("tag", sorted(OPERANDS))
@pytest.mark.parametrize("op", sorted(OPS))
def test_operator_consumers_agree(op, tag):
    dtype = mv.DTYPES[tag]
    x, y = OPERANDS[tag]
    for u, v in ((x, y), (y, x), (x, x)):
        a, b = mv.make(dtype, 1, 1, [u]), mv.make(dtype, 1, 1, [v])
        expr = Bin(op, Lit(a), Lit(b))

        printed = expr_str(expr, SymTab())
        assert printed.replace(" ", "") == "({}{}{})".format(
            format_number(u, dtype), op, format_number(v, dtype))

        folded = fold_expr(expr)
        assert isinstance(folded, Lit)
        assert folded.value.data == (_reference(op, u, v, dtype),)

        assert _machine_value(expr, folded.value.dtype) == folded.value
