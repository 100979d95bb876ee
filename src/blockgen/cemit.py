"""Pretty-print optimized pseudo-code as a C translation unit.

Conventions mirrored from the generated listings: every named storage
declares from its one record (trace.Decl), a 1x1 one as a scalar C variable,
anything else as an array, with `static` and an initializer when it has
them; function arguments are always pointers; 1-based trace indices shift to
0-based; element reads print parenthesized, bare names do not; copies of one
element are assignments, of two elements a pair of assignments, of three or
more a memcpy.

An operation (trace.Op) is spelled from C_OPS, the one table of C
spellings, or, for a conversion, as a cast to its dtype's C type, and
printed so that C computes what matval.elem_kernel defines (see _op_str).
"""

from __future__ import annotations

import math
from collections import namedtuple

from .matval import COMPARE, BOOL, DTYPES, Dtype, MatValue, F64, Record
from .trace import (
    Annot, Call, CopyMat, Decl, Def, ElemRef, IfExpr, Lit, Op, Program, Ref, SetElem,
    Store,
)


class UnsupportedInstr(Exception):
    pass


COPY_UNROLL_LIMIT = 2  # copies of more elements than this use memcpy


class EmitConfig(Record, namedtuple("EmitConfig", "block_id include_runtime_header")):
    """block_id names the entry point, toto<block_id>."""
    __slots__ = ()

    def __new__(cls, block_id=1000, include_runtime_header=True):
        if block_id < 0:
            raise ValueError("block_id must be nonnegative")
        return tuple.__new__(cls, (block_id, include_runtime_header))

    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace checks too


def ctype(d: Dtype) -> str:
    return d.ctype


def format_number(v, dtype: Dtype) -> str:
    if dtype.is_bool:
        return "TRUE" if v else "FALSE"
    if dtype.is_float:
        if math.isnan(v):
            return "NAN"
        if math.isinf(v):
            return "INFINITY" if v > 0 else "-INFINITY"
        if v == 0 and math.copysign(1.0, v) < 0:
            return "-0.0"  # int() would drop the sign
        if v == int(v) and abs(v) < 1e16:
            return str(int(v))
        return repr(v)
    return str(v)


def format_init_list(value: MatValue) -> str:
    return "{ " + ", ".join(format_number(v, value.dtype) for v in value.data) + " }"


# ---------------------------------------------------------------------------
# name resolution


class SymTab:
    """Every name visible inside one function, and which are its arguments."""
    __slots__ = ("decls", "args")

    def __init__(self, decls=None, args=frozenset()):
        self.decls, self.args = {} if decls is None else decls, args  # name -> Decl

    def is_scalar(self, name):
        d = self.decls.get(name)
        return d is not None and d.is_scalar  # free names keep their subscripts

    def dtype_of(self, name):
        d = self.decls.get(name)
        return F64 if d is None else d.dtype


def _ref_str(name: str, tab: SymTab) -> str:
    if name in tab.args and tab.is_scalar(name):
        return "*" + name
    return name


def _addr_str(name: str, tab: SymTab) -> str:
    """Pass-by-address form for call arguments: an argument is a pointer already."""
    return "&" + name if name not in tab.args and tab.is_scalar(name) else name


# ---------------------------------------------------------------------------
# expressions


# trace.Op name -> an infix operator, the prefix "-" or a math.h function;
# "/ " never opens a comment with a following "*" dereference
C_OPS = {
    "add": "+", "sub": "-", "mul": "*", "div": "/ ",
    "eq": "==", "ne": "!=", "lt": "<", "le": "<=", "gt": ">", "ge": ">=",
    "neg": "-", "sqrt": "sqrt", "sin": "sin", "cos": "cos", "atan2": "atan2",
}

# (op, dtype tag) of the operations C would overflow in int
_THROUGH_UINT32 = {("add", "i32"), ("sub", "i32"), ("mul", "i32"), ("neg", "i32"), ("mul", "u16")}


def _parenthesized(text: str) -> str:
    return text if text.startswith("(") else "(" + text + ")"


def expr_str(e, tab: SymTab, narrow: bool = False) -> str:
    """C text of e; narrow: e feeds a comparison, a division or a
    conversion (see _op_str)."""
    t = type(e)
    if t is Lit:
        return format_number(e.value.data[0], e.value.dtype)
    if t is Ref:
        return _ref_str(e.name, tab)
    if t is ElemRef:
        return "({}[{}])".format(e.name, e.index - 1)
    if t is Op:
        return _op_str(e, tab, narrow)
    raise UnsupportedInstr("unknown expression {!r}".format(e))


def _dtype(e, tab: SymTab) -> Dtype:
    """The dtype of e's value, read down its first operands: an Op's value
    has its operands' dtype, except a comparison's, which is bool, and a
    conversion's, which is the one it names."""
    while type(e) is Op and e.op not in COMPARE and e.op not in DTYPES:
        e = e.args[0]
    t = type(e)
    if t is Op:
        return DTYPES.get(e.op, BOOL)
    return e.value.dtype if t is Lit else tab.dtype_of(e.name)


def _op_str(e: Op, tab: SymTab, narrow: bool) -> str:
    """C text of an Op. C computes an integer operation narrower than int in
    int, where matval wraps each result to its dtype: the two agree through
    + - * and negation, so such a result is cast back only where it feeds a
    comparison, a division or a conversion. Those of _THROUGH_UINT32 are
    computed through uint32_t, which wraps as matval does, and cast back, and
    an i32 division by -1 is such a negation: INT32_MIN / -1 traps in C."""
    if e.op in DTYPES:  # a conversion, of a narrowed operand
        operand = expr_str(e.args[0], tab, True)
        if e.op == "bool":  # C's conversion to int would truncate
            return "({}!=0)".format(_parenthesized(operand))
        return "(({})({}))".format(ctype(DTYPES[e.op]), operand)
    spelling = C_OPS[e.op]
    if spelling.isidentifier():  # a math.h function
        return "{}({})".format(spelling, ",".join(expr_str(a, tab) for a in e.args))
    feeds = e.op == "div" or e.op in COMPARE
    operands = [expr_str(a, tab, feeds) for a in e.args]
    d = _dtype(e, tab)
    wraps = (e.op, d.tag) in _THROUGH_UINT32
    if wraps:
        operands = ["(uint32_t)" + text for text in operands]
    if e.op == "div" and d.tag == "i32":
        return "({1}==-1?(int32_t)(0u-(uint32_t){0}):{0}/ {1})".format(*operands)
    if len(operands) == 1:
        text = "({}{})".format(spelling, _parenthesized(operands[0]))
    else:
        text = "({}{}{})".format(operands[0], spelling, operands[1])
    if wraps or narrow and d.is_int and d.width < 32:
        return "(({}){})".format(ctype(d), text)
    return text


def _store_rhs(e, dst_dtype: Dtype, tab: SymTab) -> str:
    # a top-level cast to the destination dtype is C's implicit conversion,
    # except to bool, which C's int would not truncate to 0 or 1; the
    # operand it converts is still narrowed
    narrow = type(e) is Op and e.op == dst_dtype.tag != "bool"
    if narrow:
        e = e.args[0]
    return expr_str(e, tab, narrow)


# ---------------------------------------------------------------------------
# instructions


def instr_lines(i, tab: SymTab):
    if type(i) is Annot:
        return ["/* {}*/".format(i.text)]
    if type(i) is Store:
        rhs = _store_rhs(i.expr, tab.dtype_of(i.name), tab)
        return ["{}={};".format(_ref_str(i.name, tab), rhs)]
    if type(i) is Def:
        return ["{}={};".format(_ref_str(i.name, tab), expr_str(i.expr, tab))]
    if type(i) is SetElem:
        rhs = _store_rhs(i.expr, tab.dtype_of(i.name), tab)
        if tab.is_scalar(i.name):  # the one element of a 1x1 storage is the storage
            return ["{}={};".format(_ref_str(i.name, tab), rhs)]
        return ["{}[{}]={};".format(i.name, i.index - 1, rhs)]
    if isinstance(i, CopyMat):
        if i.n <= COPY_UNROLL_LIMIT:
            return ["{}[{}]={}[{}];".format(i.dst, k, i.src, k) for k in range(i.n)]
        return ["memcpy({},{},{}*sizeof({}));".format(i.dst, i.src, i.n,
                                                      ctype(tab.dtype_of(i.dst)))]
    if isinstance(i, Call):
        return ["{}({});".format(i.fn, ",".join(_addr_str(a, tab) for a in i.args))]
    if isinstance(i, IfExpr):
        lines = ["if ({}) {{".format(_ref_str(i.cond, tab))]
        lines.append("  {}({});".format(i.then_call.fn,
                                        ",".join(_addr_str(a, tab) for a in i.then_call.args)))
        lines.append("} else {")
        lines.append("  {}({});".format(i.else_call.fn,
                                        ",".join(_addr_str(a, tab) for a in i.else_call.args)))
        lines.append("}")
        return lines
    raise UnsupportedInstr("unknown instruction {!r}".format(i))


def decl_line(d: Decl) -> str:
    prefix = "static " if d.static else ""
    if d.is_scalar:
        if d.init is not None:
            return "{}{} {}={};".format(prefix, ctype(d.dtype), d.name,
                                        format_number(d.init.data[0], d.dtype))
        return "{}{} {};".format(prefix, ctype(d.dtype), d.name)
    if d.init is not None:
        return "{}{} {}[]={};".format(prefix, ctype(d.dtype), d.name,
                                      format_init_list(d.init))
    return "{}{} {}[{}];".format(prefix, ctype(d.dtype), d.name, d.size)


def code_printer_c(code, declarations, statics=(), params=()):
    """One line per declaration (name -> Decl) and instruction, in order;
    statics and params are Decls the code may also name."""
    decls = {d.name: d for d in (*statics, *declarations.values(), *params)}
    tab = SymTab(decls, frozenset(p.name for p in params))
    return [decl_line(d) for d in declarations.values()] + \
        [line for instr in code for line in instr_lines(instr, tab)]


def render_function(fn, statics) -> str:
    params = ",".join("{} *{}".format(ctype(p.dtype), p.name) for p in fn.params)
    body = code_printer_c(fn.body, fn.decls, statics, fn.params)
    return "\n".join(["void {}({}){{".format(fn.name, params)]
                     + ["  " + line for line in body] + ["}"])


def render_core(program: Program) -> str:
    """Statics, the initialize function and the recorded functions:
    the shape returned by the finalize directive."""
    parts = ["\n".join(decl_line(s) for s in program.statics)] if program.statics else []
    for fn in [program.init_fn, *program.functions]:
        parts.append(render_function(fn, program.statics))
    return "\n\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# fixed runtime helpers (double-typed; dimensions passed by address)


HELPER_SOURCES = {
    "quote": """\
void quote(double *res, double *a, double *dm,double *dn)
{
 int i,j, m1=(int) (*dm), n1 = (int) (*dn) ;
 for (i = 0 ; i < (m1); i++)
   for (j = 0 ; j < (n1); j++)
     {
       res[j+(n1)*i]= a[i+(m1)*j];
     }
}""",
    "mult": """\
void mult(double *res, double *a, double *b,double *md1,double *nd1,double *md2,double *nd2)
{
 int i,j,k,m1=(int) (*md1),n1= (int) (*nd1),m2= (int) (*md2),n2=(int) (*nd2);
 for (i = 0 ; i < m1; i++)
   for (j = 0 ; j < n2; j++)
     {
       res[i+m1*j]=0;
       for (k = 0 ; k < n1; k++)
         res[i+(m1)*j] += a[i+(m1)*k]*b[k+(m2)*j];
     }
}""",
    "matinv": """\
void matinv(double *res, double *a, double *dn)
{
 int i,j,k,piv,n=(int) (*dn);
 double w[64], f, pmax, tol;
 for (j = 0 ; j < n; j++)
   for (i = 0 ; i < n; i++)
     {
       w[i+n*j]=a[i+n*j];
       res[i+n*j]= (i==j) ? 1.0 : 0.0;
     }
 tol=0.0;
 for (i = 0 ; i < n*n; i++) if (w[i]>tol || -w[i]>tol) tol = (w[i]>0) ? w[i] : -w[i];
 tol = 1e-12*tol;
 for (k = 0 ; k < n; k++)
   {
     piv=k; pmax = (w[k+n*k]>0) ? w[k+n*k] : -w[k+n*k];
     for (i = k+1 ; i < n; i++)
       {
         f = (w[i+n*k]>0) ? w[i+n*k] : -w[i+n*k];
         if (f>pmax) { pmax=f; piv=i; }
       }
     for (j = 0 ; j < n; j++)
       {
         f=w[k+n*j]; w[k+n*j]=w[piv+n*j]; w[piv+n*j]=f;
         f=res[k+n*j]; res[k+n*j]=res[piv+n*j]; res[piv+n*j]=f;
       }
     f=w[k+n*k];
     for (j = 0 ; j < n; j++) { w[k+n*j]=w[k+n*j]/f; res[k+n*j]=res[k+n*j]/f; }
     for (i = 0 ; i < n; i++)
       if (i!=k && w[i+n*k]!=0.0)
         {
           f=w[i+n*k];
           for (j = 0 ; j < n; j++)
             { w[i+n*j] -= f*w[k+n*j]; res[i+n*j] -= f*res[k+n*j]; }
         }
   }
}""",
}


def emit_helper(name: str) -> str:
    return HELPER_SOURCES[name]


_ACCESSOR = {
    "f64": "Real", "bool": "int32", "i8": "int8", "i16": "int16", "i32": "int32",
    "u8": "uint8", "u16": "uint16", "u32": "uint32",
}


def _port_accessor(dtype: Dtype, is_input: bool, index: int) -> str:
    direction = "In" if is_input else "Out"
    return "(Get{}{}PortPtrs(block,{}))".format(_ACCESSOR[dtype.tag], direction, index)


def emit_program(program: Program, cfg: EmitConfig = None) -> str:
    """The full translation unit: includes, helpers, statics, initialize,
    functions, and the flag dispatcher (1 output, 2 state, 4 initialize)."""
    cfg = cfg or EmitConfig()
    ports = program.meta.get("ports", [])
    out = []
    if cfg.include_runtime_header:
        out.append("#include <scicos/scicos_block4.h>")
    out.extend([
        "#include <string.h>",
        "#include <stdio.h>",
        "#include <stdlib.h>",
        "#include <stdint.h>",
        "#include <math.h>",
        "typedef int boolean;",
        "#ifndef TRUE",
        "#define TRUE 1",
        "#define FALSE 0",
        "#endif",
        "/* Start{}*/".format(cfg.block_id),
        "",
    ])
    for h in program.helpers:
        out.append(emit_helper(h))
        out.append("")
    out.append(render_core(program))
    out.append("/* End{}*/".format(cfg.block_id))
    out.append("")
    out.extend(_dispatcher(program, cfg, ports))
    return "\n".join(out) + "\n"


def _dispatcher(program, cfg, ports):
    """The entry point: one call per flag, with the ports as arguments. With
    the runtime header they come from the block structure, otherwise they
    are the entry point's own pointer parameters."""
    if cfg.include_runtime_header:
        sig = "scicos_block *block,int flag"
        args, n_in, n_out = [], 0, 0
        for p in ports:
            if p["input"]:
                n_in += 1
                args.append(_port_accessor(p["dtype"], True, n_in))
            else:
                n_out += 1
                args.append(_port_accessor(p["dtype"], False, n_out))
    else:
        sig = ",".join(["int flag"] + ["{} *{}".format(ctype(p["dtype"]), p["name"])
                                       for p in ports])
        args = [p["name"] for p in ports]
    call_args = ",".join(args)
    lines = ["void toto{}({})".format(cfg.block_id, sig), "{"]
    calls = [(1, program.meta.get("update_output"), call_args),
             (2, program.meta.get("update_state"), call_args),
             (4, program.init_fn.name, "")]
    keyword = "if"  # opens the chain at the first function present
    for flag, fn, fn_args in calls:
        if fn:
            lines += ["{} (flag == {}) {{".format(keyword, flag),
                      "  {}({});".format(fn, fn_args), "}"]
            keyword = "else if"
    return lines + ["}"]
