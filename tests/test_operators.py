"""Every trace.Op through its consumers, the C printer, literal folding, the
interpreter and the compiled C, with Python's own arithmetic as the
reference. Adding an operator means adding its matval.elem_kernel and its
cemit.C_OPS spelling; these tests then cover it on every numeric dtype."""

import math
import operator
import shutil
import subprocess

import pytest

from blockgen import matval as mv
from blockgen.cemit import C_OPS, SymTab, expr_str, format_number
from blockgen.irinterp import Machine
from blockgen.optimizer import fold_expr
from blockgen.trace import Decl, Def, FunctionDef, Lit, Op, Program, Ref, Store

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
    "add": operator.add, "sub": operator.sub, "mul": operator.mul, "div": operator.truediv,
    "eq": operator.eq, "ne": operator.ne, "lt": operator.lt, "le": operator.le,
    "gt": operator.gt, "ge": operator.ge,
}
COMPARISONS = ("eq", "ne", "lt", "le", "gt", "ge")

# the operations C computes in int, where they can overflow: the printer
# spells them through uint32_t and converts back
THROUGH_UINT32 = {("add", "i32"), ("sub", "i32"), ("mul", "i32"), ("neg", "i32"), ("mul", "u16")}

# operands inside the math functions' domains
MATH_OPERANDS = (7.5, 0.25)
MATH = {"sqrt": math.sqrt, "sin": math.sin, "cos": math.cos, "atan2": math.atan2}


def _reference(op, x, y, dtype):
    """What `x op y` means in the emitted C, computed by Python directly:
    comparisons give a truth value, integer division truncates, integer
    results wrap to the operand width."""
    if op in COMPARISONS or dtype.is_float:
        return PYTHON[op](x, y)
    return mv.wrap_int(int(x / y) if op == "div" else PYTHON[op](x, y), dtype)


def _printed(op, texts, dtype):
    """The C text the printer gives op on operand texts, by its rule."""
    spelling = C_OPS[op].strip()
    if (op, dtype.tag) in THROUGH_UINT32:
        texts = ["(uint32_t)" + t for t in texts]
    if op == "neg":
        operand = texts[0] if texts[0].startswith("(") else "(" + texts[0] + ")"
        text = "(-{})".format(operand)
    else:
        text = "({}{}{})".format(texts[0], spelling, texts[1])
    if (op, dtype.tag) in THROUGH_UINT32:
        return "(({}){})".format(dtype.ctype, text)
    return text


def _machine_value(expr, dtype):
    """Run `t = expr; res = t` as a one-function program."""
    fn = FunctionDef("f", [Decl("res", dtype, 1, 1)],
                     decls={"t": Decl("t", dtype, 1, 1)},
                     body=[Def("t", expr), Store("res", Ref("t"))])
    program = Program(statics=[], init_fn=FunctionDef("init", []), functions=[fn],
                      helpers=[])
    (res,) = Machine(program).run_function("f", [mv.zeros(dtype, 1, 1)])
    return res


def _fold_and_run(expr, want):
    folded = fold_expr(expr)
    assert isinstance(folded, Lit)
    assert repr(folded.value.data) == repr((want,))
    assert _machine_value(expr, folded.value.dtype) == folded.value


@pytest.mark.parametrize("tag", sorted(OPERANDS))
@pytest.mark.parametrize("op", sorted(PYTHON), ids=lambda op: C_OPS[op].strip())
def test_operator_consumers_agree(op, tag):
    dtype = mv.DTYPES[tag]
    x, y = OPERANDS[tag]
    for u, v in ((x, y), (y, x), (x, x)):
        expr = Op(op, (Lit(mv.make(dtype, 1, 1, [u])), Lit(mv.make(dtype, 1, 1, [v]))))
        printed = expr_str(expr, SymTab())
        assert printed.replace(" ", "") == _printed(
            op, [format_number(u, dtype), format_number(v, dtype)], dtype)
        _fold_and_run(expr, _reference(op, u, v, dtype))


@pytest.mark.parametrize("tag", sorted(OPERANDS))
def test_negation_consumers_agree(tag):
    dtype = mv.DTYPES[tag]
    for u in OPERANDS[tag]:
        expr = Op("neg", (Lit(mv.make(dtype, 1, 1, [u])),))
        assert expr_str(expr, SymTab()) == _printed("neg", [format_number(u, dtype)], dtype)
        _fold_and_run(expr, -u if dtype.is_float else mv.wrap_int(-u, dtype))


@pytest.mark.parametrize("fn", sorted(MATH))
def test_math_function_consumers_agree(fn):
    x, y = MATH_OPERANDS
    pairs = [(x, y), (y, x), (x, x)] if fn == "atan2" else [(x,), (y,)]
    for values in pairs:
        expr = Op(fn, tuple(Lit(mv.scalar(v)) for v in values))
        assert expr_str(expr, SymTab()) == "{}({})".format(
            fn, ",".join(format_number(v, mv.F64) for v in values))
        _fold_and_run(expr, MATH[fn](*values))


def _cases():
    """Every Op on every dtype its kernel accepts, on each operand order:
    (op, dtype, operand values)."""
    cases = []
    for op in C_OPS:
        for tag, (x, y) in [*OPERANDS.items(), ("bool", (True, False))]:
            dtype = mv.DTYPES[tag]
            if op in MATH:
                x, y = MATH_OPERANDS
            try:
                kernel = mv.elem_kernel(op, dtype)
            except mv.MatError:
                continue
            if op == "neg" or op in MATH and op != "atan2":
                cases += [(op, dtype, (x,)), (op, dtype, (y,))]
            else:
                cases += [(op, dtype, pair) for pair in ((x, y), (y, x), (x, x), (y, y))]
    return cases


def _unit(cases):
    """One C translation unit. Per case, a function returns the printed Op
    over pointer parameters as a double or a long long, so that the value C
    computes is seen before any conversion to the dtype: a store into the
    dtype would let the compiler narrow the operation itself. A main calls
    each on operands read from volatile storage, so that the compiler folds
    none of them, and prints each result, converted to its dtype, on a line
    of its own."""
    lines = ["#include <math.h>", "#include <stdint.h>", "#include <stdio.h>",
             "#define TRUE 1", "#define FALSE 0"]
    calls = []
    for k, (op, dtype, values) in enumerate(cases):
        names = ("x", "y")[:len(values)]
        tab = SymTab({n: Decl(n, dtype, 1, 1) for n in names}, frozenset(names))
        res = mv.BOOL if op in COMPARISONS else dtype
        lines.append("{} case{}({}) {{ return {}; }}".format(
            "double" if res.is_float else "long long", k,
            ",".join("{} *{}".format(dtype.ctype, n) for n in names),
            expr_str(Op(op, tuple(map(Ref, names))), tab)))
        literals = ",".join(format_number(v, dtype) for v in values)
        calls.append("  {{ static volatile {0} in[] = {{{1}}}; {0} v[2] = {{in[0], in[{2}]}}; "
                     "printf({3}({4})case{5}({6})); }}".format(
                         dtype.ctype, literals, len(values) - 1,
                         '"%a\\n", ' if res.is_float else '"%lld\\n", (long long)', res.ctype, k,
                         ",".join("&v[{}]".format(i) for i in range(len(values)))))
    return "\n".join(lines + ["int main(void) {"] + calls + ["  return 0;", "}"]) + "\n"


def _compile_and_run(tmp_path, source, flags):
    unit, exe = tmp_path / "ops.c", tmp_path / "ops"
    unit.write_text(source)
    subprocess.run(["cc", *flags, "-o", str(exe), str(unit), "-lm"], check=True,
                   capture_output=True)
    return subprocess.run([str(exe)], capture_output=True, text=True)


UBSAN = ["-O0", "-fsanitize=undefined", "-fno-sanitize-recover=undefined"]


@pytest.mark.skipif(shutil.which("cc") is None, reason="needs a C compiler")
def test_compiled_operators_agree_with_the_fold_under_ubsan(tmp_path):
    probe = subprocess.run(["cc", *UBSAN, "-x", "c", "-o", str(tmp_path / "probe"), "-"],
                           input=b"int main(void) { return 0; }\n", capture_output=True)
    if probe.returncode != 0:
        pytest.skip("the undefined-behaviour sanitizer does not link")
    cases = _cases()
    source = _unit(cases)
    for flags in (["-O2"], UBSAN):
        run = _compile_and_run(tmp_path, source, flags)
        assert run.returncode == 0, (flags, run.stderr)
        results = run.stdout.split()
        assert len(results) == len(cases)
        for (op, dtype, values), text in zip(cases, results):
            want = fold_expr(Op(op, tuple(Lit(mv.make(dtype, 1, 1, [v])) for v in values)))
            want = want.value.data[0]
            got = float.fromhex(text) if isinstance(want, float) else int(text)
            assert got == want or got != got and want != want, (flags, op, dtype, values, text)
