"""Emission conventions: declarations, literals, copies, helpers, the
dispatcher, and the scalar/array and dtype-mapping rules."""

import pathlib
import re

import pytest

from blockgen import matval as mv
from blockgen.matval import BOOL, DTYPES, F64, I8, I32, U16
from blockgen import cemit, generate, parse_model
from blockgen.cemit import (
    EmitConfig, SymTab, code_printer_c, decl_line, emit_helper, emit_program,
    expr_str, format_number, instr_lines,
)
from blockgen.directives import codegen_init, finalize_program, inouts, inouts_insert
from blockgen import trace as tr
from blockgen.trace import (
    Cast, CallTarget, CopyMat, Decl, ElemRef, IfExpr, Lit, Op,
    Ref, SetElem, Store,
)

from conftest import load_model_text

GOLDEN = pathlib.Path(__file__).parent / "golden"


def tab_with(args=(), **decls):
    return SymTab(decls, frozenset(args))


def test_dtype_map_total():
    want = {"f64": "double", "bool": "int", "i8": "int8_t", "i16": "int16_t",
            "i32": "int32_t", "u8": "uint8_t", "u16": "uint16_t", "u32": "uint32_t"}
    for tag, d in DTYPES.items():
        assert cemit.ctype(d) == want[tag]


def test_number_formats():
    assert format_number(0.0, F64) == "0"
    assert format_number(-900.0, F64) == "-900"
    assert format_number(0.1, F64) == "0.1"
    assert format_number(2500.0, F64) == "2500"
    assert format_number(2.5e-05, F64) == "2.5e-05"
    assert format_number(True, BOOL) == "TRUE"
    assert format_number(False, BOOL) == "FALSE"
    assert format_number(-7, I32) == "-7"
    # shortest round-trip representation, up to 17 significant digits
    assert float(format_number(1 / 3, F64)) == 1 / 3


# an infinite gain and a delay starting at minus infinity; simulate has
# always run it, and the emitter must print the literals math.h spells
NONFINITE_MODEL = """model 5
input 1 f64 1 1
output 1 f64 1 1
output 2 f64 1 1
block 1 gain gain=f64[1x1](inf)
block 2 unit_delay init=f64[1x1](-inf)
link 1 in:1 -> 1.1, 2.1
link 2 1.1 -> out:1
link 3 2.1 -> out:2
"""


def test_nonfinite_number_formats():
    assert format_number(float("inf"), F64) == "INFINITY"
    assert format_number(float("-inf"), F64) == "-INFINITY"
    assert format_number(float("nan"), F64) == "NAN"


def test_generate_nonfinite_literals():
    model = parse_model(NONFINITE_MODEL)
    text = generate(model, EmitConfig(block_id=model.base_id)).text
    assert "*inouts2=(INFINITY**inouts1);" in text
    assert "=-INFINITY;" in text


def test_decl_lines():
    assert decl_line(Decl("x", F64, 1, 1)) == "double x;"
    assert decl_line(Decl("x", F64, 1, 1, init=mv.scalar(5.0))) == "double x=5;"
    assert decl_line(Decl("v", F64, 2, 1)) == "double v[2];"
    assert decl_line(Decl("v", F64, 2, 2, init=mv.from_rows([[5, 0], [7, 8]]))) \
        == "double v[]={ 5, 7, 0, 8 };"
    assert decl_line(Decl("t", F64, 1, 1, init=mv.scalar(0.0), static=True)) \
        == "static double t=0;"
    assert decl_line(Decl("b", BOOL, 1, 2, init=mv.make(BOOL, 1, 2, [1, 0]))) \
        == "int b[]={ TRUE, FALSE };"


def test_expr_printing_conventions():
    tab = tab_with(("inouts1", "inouts2"), t=Decl("t", F64, 1, 1),
                   inouts1=Decl("inouts1", F64, 1, 1), inouts2=Decl("inouts2", F64, 2, 1))
    assert expr_str(Ref("t"), tab) == "t"
    assert expr_str(Ref("inouts1"), tab) == "*inouts1"
    assert expr_str(ElemRef("z", 1), tab) == "(z[0])"
    assert expr_str(ElemRef("inouts2", 2), tab) == "(inouts2[1])"
    assert expr_str(Op("sub", (Ref("t"), Ref("z"))), tab) == "(t-z)"
    assert expr_str(Op("div", (ElemRef("a", 1), Ref("t"))), tab) == "((a[0])/ t)"
    assert expr_str(Op("neg", (ElemRef("a", 3),)), tab) == "(-(a[2]))"
    assert expr_str(Op("neg", (Ref("t"),)), tab) == "(-(t))"
    assert expr_str(Op("sqrt", (Op("mul", (Ref("t"), Ref("t"))),)), tab) \
        == "sqrt((t*t))"
    assert expr_str(Op("atan2", (ElemRef("z", 3), ElemRef("z", 1))), tab) \
        == "atan2((z[2]),(z[0]))"
    assert expr_str(Cast(I32, Ref("t")), tab) == "((int32_t)(t))"


def test_nested_binop_parenthesization():
    tab = SymTab()
    det = Op("sub", (Op("mul", (ElemRef("a", 1), ElemRef("a", 4))),
                     Op("mul", (ElemRef("a", 3), ElemRef("a", 2)))))
    assert expr_str(det, tab) == "(((a[0])*(a[3]))-((a[2])*(a[1])))"


def test_store_and_setelem_lines():
    tab = tab_with(t=Decl("t", F64, 1, 1), v=Decl("v", F64, 2, 1))
    assert instr_lines(Store("t", Lit(mv.scalar(4.0))), tab) == ["t=4;"]
    assert instr_lines(SetElem("v", 2, Ref("t")), tab) == ["v[1]=t;"]
    # a 1x1 set prints as a plain assignment
    assert instr_lines(SetElem("t", 1, Lit(mv.scalar(4.0))), tab) == ["t=4;"]


def test_store_drops_matching_cast():
    tab = tab_with(t=Decl("t", I32, 1, 1), b=Decl("b", BOOL, 1, 1))
    assert instr_lines(Store("t", Cast(I32, Ref("b"))), tab) == ["t=b;"]
    assert instr_lines(Store("t", Cast(I8, Ref("b"))), tab) == ["t=((int8_t)(b));"]


def test_copy_size_rule():
    tab = tab_with(d2=Decl("d2", F64, 2, 1), s2=Decl("s2", F64, 2, 1),
                   d3=Decl("d3", F64, 3, 1), s3=Decl("s3", F64, 3, 1),
                   di=Decl("di", I32, 4, 1), si=Decl("si", I32, 4, 1))
    assert instr_lines(CopyMat("d2", "s2", 2), tab) == ["d2[0]=s2[0];", "d2[1]=s2[1];"]
    assert instr_lines(CopyMat("d3", "s3", 3), tab) == ["memcpy(d3,s3,3*sizeof(double));"]
    assert instr_lines(CopyMat("di", "si", 4), tab) == ["memcpy(di,si,4*sizeof(int32_t));"]


def test_call_argument_addressing():
    tab = tab_with(res=Decl("res", F64, 4, 1), a=Decl("a", F64, 4, 2),
                   d1=Decl("d1", F64, 1, 1), d2=Decl("d2", F64, 1, 1),
                   args=("inouts1",), inouts1=Decl("inouts1", F64, 1, 1),
                   z=Decl("z", F64, 8, 1, mv.zeros(F64, 8, 1), static=True))
    (line,) = instr_lines(tr.Call("quote", ("res", "a", "d1", "d2")), tab)
    assert line == "quote(res,a,&d1,&d2);"
    (line,) = instr_lines(tr.Call("f", ("inouts1", "z")), tab)
    assert line == "f(inouts1,z);"


def test_if_expr_lines():
    tab = tab_with(c=Decl("c", BOOL, 1, 1))
    lines = instr_lines(IfExpr("c", CallTarget("f1", ("inouts1",)),
                               CallTarget("f2", ("inouts1",))), tab)
    assert lines[0] == "if (c) {"
    assert lines[1].strip() == "f1(inouts1);"
    assert "} else {" in lines
    assert lines[-1] == "}"


def test_helpers_exact_bodies():
    quote = emit_helper("quote")
    assert "res[j+(n1)*i]= a[i+(m1)*j];" in quote
    assert quote.startswith("void quote(double *res, double *a, double *dm,double *dn)")
    mult = emit_helper("mult")
    assert "res[i+m1*j]=0;" in mult  # accumulator zeroed before the k loop
    assert "res[i+(m1)*j] += a[i+(m1)*k]*b[k+(m2)*j];" in mult
    assert "matinv" in cemit.HELPER_SOURCES


def test_code_printer_with_free_names():
    lines = code_printer_c([SetElem("tmp_2", 1, ElemRef("tmp_1", 4))], {})
    assert lines == ["tmp_2[0]=(tmp_1[3]);"]


def _tiny_program(include_runtime=True, statics=True):
    ctx = codegen_init()
    if statics:
        ctx.register_static("z_1", mv.scalar(0.0))
    io = inouts(ctx)
    io = inouts_insert(io, "inouts1", mv.scalar(0.0))
    io = inouts_insert(io, "inouts2", mv.scalar(0.0))
    ctx.push_function("updateOutput5", io)
    if statics:
        tr._copy_into(ctx, "z_1", io.entries["inouts1"])
    inouts_insert(io, "inouts2", mv.scalar(2.0))
    ctx.pop_function("updateOutput5")
    ctx.push_function("updateState5", io)
    ctx.pop_function("updateState5")
    meta = {"ports": [
        {"name": "inouts1", "dtype": F64, "rows": 1, "cols": 1, "input": True},
        {"name": "inouts2", "dtype": F64, "rows": 1, "cols": 1, "input": False},
    ], "update_output": "updateOutput5", "update_state": "updateState5"}
    return finalize_program(ctx, init_name="initialize5", meta=meta)


def test_emit_program_runtime_dispatcher():
    text = emit_program(_tiny_program(), EmitConfig(block_id=5))
    assert "#include <scicos/scicos_block4.h>" in text
    assert "/* Start5*/" in text and "/* End5*/" in text
    assert "void toto5(scicos_block *block,int flag)" in text
    assert "if (flag == 1) {" in text
    assert "updateOutput5((GetRealInPortPtrs(block,1)),(GetRealOutPortPtrs(block,1)));" in text
    assert "else if (flag == 2) {" in text
    assert "else if (flag == 4) {" in text
    assert "initialize5();" in text
    assert "typedef int boolean;" in text


def test_emit_program_freestanding():
    text = emit_program(_tiny_program(), EmitConfig(block_id=5, include_runtime_header=False))
    assert "scicos" not in text
    assert "void toto5(int flag,double *inouts1,double *inouts2)" in text
    assert "updateOutput5(inouts1,inouts2);" in text


def test_emitted_scalar_array_rule():
    # every 1x1 declares as a scalar C type, everything else as an array,
    # and every parameter is a pointer
    text = emit_program(_tiny_program(), EmitConfig(block_id=5))
    for m in re.finditer(r"void (update\w+|initialize5)\(([^)]*)\)", text):
        params = m.group(2)
        if params:
            assert all("*" in p for p in params.split(","))
    assert "static double z_1=0;" in text


def test_program_without_persistents_has_empty_initialize():
    text = emit_program(_tiny_program(statics=False), EmitConfig(block_id=5))
    assert "void initialize5(){\n}" in text


def test_unknown_helper_rejected():
    with pytest.raises(KeyError):
        emit_helper("gemm")


@pytest.mark.parametrize("name", ["twodelays", "coding", "kalman", "chain40",
                                  "twodelays.raw", "coding.raw", "kalman.raw", "chain40.raw"])
def test_generated_c_matches_golden(name):
    # tests/golden holds the runtime-emit C of each fixture; any change to
    # scheduling, tracing, optimizing or printing that alters it shows here.
    # <fixture>.raw.c is the trace emitted unoptimized, so that a change in
    # the tracer shows even where inlining would hide it.
    fixture, _, raw = name.partition(".")
    model = parse_model(load_model_text(fixture + ".model"))
    text = generate(model, EmitConfig(block_id=model.base_id), optimize=not raw).text
    assert text == (GOLDEN / (name + ".c")).read_text()


MATRIX_OPS_INPUTS = {
    "a": mv.from_rows([[1.0, -2.0, 3.0], [0.5, 4.0, -1.0]]),
    "b": mv.from_rows([[2.0, 1.0, -3.0], [1.5, -4.0, 2.0]]),
    "c": mv.from_rows([[1.0, 2.0], [-1.0, 0.5], [3.0, 1.0]]),
    "s": mv.scalar(2.5),
    "r": mv.from_rows([[1.0, 2.0, 3.0, 4.0]]),
    "q": mv.from_rows([[4.0], [3.0], [2.0], [1.0]]),
    "m": mv.from_rows([[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]]),
}


def _matrix_ops(v):
    """Every per-element and helper-call site of the tracer, at non-square
    shapes where the shape matters: a and b are 2x3, c is 3x2, r is 1x4, q
    is 4x1, m is 3x3, s is 1x1. Results are yielded one at a time, so that
    each can be stored before the next is traced."""
    a, b, c, s, r, q, m = (v[k] for k in ("a", "b", "c", "s", "r", "q", "m"))
    mask = tr.numerics(mv.from_rows([[0.0, 2.0, 0.0], [1.0, 0.0, 3.0]]))
    picks = tr.numerics(mv.from_rows([[1.0, 0.0], [0.0, 0.0], [2.0, 1.0]]))
    # elementwise arithmetic, broadcasting and the numeric-operand identities
    yield a + b
    yield a - s
    yield s - c
    yield tr.bv_binop("mul", s, a)
    yield a / s
    yield a + 0
    yield 0 - a
    yield 1 * a
    yield tr.bv_binop("mul", 0, a)
    yield a + mask
    yield mask - a
    yield tr.bv_binop("mul", a, mask)
    yield -a
    yield -c
    yield -s
    # transposes: unrolled, and through quote
    yield a.T
    yield c.T
    yield m.T
    # concatenations, conversions, comparisons and math functions
    yield tr.vertcat(a, b, tr.numerics(mv.from_rows([[7.0, 8.0, 9.0]])))
    yield tr.vertcat(c, s * c)
    yield tr.horzcat(a, tr.numerics(mv.from_rows([[5.0], [6.0]])))
    yield tr.horzcat(s, s, r)
    yield tr.bv_convert(a, I32)
    yield tr.bv_convert(c, BOOL)
    yield tr.bv_convert(s, I32)
    yield tr.bv_binop("gt", a, b)
    yield tr.bv_binop("lt", c, 0.0)
    yield tr.bv_binop("ge", 1.0, s)
    yield tr.sin(a)
    yield tr.cos(c)
    yield tr.sqrt(s)
    yield tr.atan2(a, b)
    yield tr.atan2(s, 1.0)
    # products: unrolled, with statically zero terms, 1x1, and through mult
    yield a * c
    yield c * tr.numerics(mv.from_rows([[1.0, 0.0], [1.0, 0.0]]))
    yield a * picks
    yield r * q
    yield q * r
    yield m * m
    yield s * m
    # inverses: through matinv, the unrolled 2x2, and a right division
    yield tr.bv_inv(m)
    yield tr.bv_inv(a * c)
    yield a / m
    yield tr.bv_sum(a)
    yield tr.bv_index_get(a, 2, 3)
    yield tr.bv_index_get(c, 5)
    t = tr.numerics(mv.zeros(F64, 2, 2))
    t[1, 2] = s
    yield t


@pytest.mark.parametrize("name", ["matrix_ops", "matrix_ops.raw"])
def test_matrix_ops_c_matches_golden(name):
    # a directive-built program that reaches each tracer site at shapes the
    # fixtures do not: kalman's products are 4x4, its vectors 4x1 and 2x1
    probe = list(_matrix_ops({k: tr.numerics(x) for k, x in MATRIX_OPS_INPUTS.items()}))
    ctx = codegen_init()
    io = inouts(ctx)
    for k, x in MATRIX_OPS_INPUTS.items():
        inouts_insert(io, k, x)
    for k, out in enumerate(probe, 1):
        inouts_insert(io, "out{}".format(k), mv.zeros(out.dtype, out.rows, out.cols))
    ctx.push_function("ops", io)
    for k, out in enumerate(_matrix_ops(io.entries), 1):
        inouts_insert(io, "out{}".format(k), out)
    ctx.pop_function("ops")
    program = finalize_program(ctx, optimize=name == "matrix_ops")
    assert program.helpers == ["quote", "mult", "matinv"]
    assert cemit.render_core(program) == (GOLDEN / (name + ".c")).read_text()


@pytest.mark.parametrize("tag,cast", [("i8", "int8_t"), ("i16", "int16_t"), ("u8", "uint8_t"),
                                      ("u16", "uint16_t"), ("i32", None), ("u32", None),
                                      ("f64", None)])
def test_narrow_integer_results_cast_back_where_c_would_promote(tag, cast):
    """An i8, i16, u8 or u16 + - * / or negation is cast back to its type
    where it feeds a comparison, a division or a conversion; where it feeds
    another ring operation or a store, and for wider types, it is not. An
    i32 + - * or negation and a u16 *, which C would overflow in int, go
    through uint32_t and are cast back wherever they are."""
    d = DTYPES[tag]
    tab = SymTab({n: Decl(n, d, 1, 1) for n in "xyz"} | {"w": Decl("w", I32, 1, 1)})
    through = {"i32": ("add", "sub", "mul", "neg"), "u16": ("mul",)}.get(tag, ())

    def ring(op, *texts, feeds=False):
        """The C text of op on operand texts; feeds: it feeds a comparison,
        a division or a conversion."""
        if op in through:
            texts = ["(uint32_t)" + t for t in texts]
        if op == "neg":
            text = "(-{})".format(texts[0] if texts[0].startswith("(") else "(" + texts[0] + ")")
        else:
            text = "({}{}{})".format(texts[0], {"add": "+", "sub": "-", "mul": "*"}[op], texts[1])
        return "(({}){})".format(d.ctype, text) if op in through or feeds and cast else text

    s, plain = Op("add", (Ref("x"), Ref("y"))), ring("add", "x", "y")
    assert expr_str(Op("gt", (s, Ref("z"))), tab) == \
        "({}>z)".format(ring("add", "x", "y", feeds=True))
    assert expr_str(Op("div", (Op("neg", (Ref("x"),)), s)), tab) == \
        "({}/ {})".format(ring("neg", "x", feeds=True), ring("add", "x", "y", feeds=True))
    assert expr_str(Cast(F64, Op("mul", (s, Ref("z")))), tab) == \
        "((double)({}))".format(ring("mul", plain, "z", feeds=True))
    assert expr_str(Op("sub", (s, Op("neg", (s,)))), tab) == ring("sub", plain, ring("neg", plain))
    assert instr_lines(Store("w", Cast(I32, s)), tab) == \
        ["w={};".format(ring("add", "x", "y", feeds=True))]
