"""The bvar wrapper, the recording session and the overloaded operations.

A BVar is either numeric (its value is authoritative) or symbolic (only the
dtype and shape of its value are meaningful; the entries are a nominal value
carried along to keep shape inference honest, never consulted for folding).
Its dtype is always its value's. Operations on all-numeric operands fold
silently; anything touching a symbolic operand appends pseudo-code
instructions to the active session. A conversion is one such operation: a
converted symbolic value is a new one defined by a Cast per element.

Each operation says only what element k of its result is. _per_element
records that as one definition for a 1x1 result (the optimizer later folds
single-use definitions into their use site, which gives generated programs
their compact expressions), else as per-element stores into a fresh array.
Products and transposes of more than UNROLL_LIMIT result elements, and
inverses from 3x3 to 8x8, call the f64 runtime helpers mult, quote and
matinv instead, all through _helper_call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import matval as mv
from .matval import MatValue, Dtype, F64


UNROLL_LIMIT = 6


class TraceError(Exception):
    pass


class DuplicateName(TraceError):
    pass


class SymbolicConditionError(TraceError):
    """A control decision depended on a value unknown at generation time."""


class NestedFunction(TraceError):
    pass


class NoOpenFunction(TraceError):
    pass


class UnbalancedFunction(TraceError):
    pass


# ---------------------------------------------------------------------------
# expressions


@dataclass(frozen=True)
class Expr:
    pass


@dataclass(frozen=True)
class Lit(Expr):
    value: MatValue  # always 1x1


@dataclass(frozen=True)
class Ref(Expr):
    name: str


@dataclass(frozen=True)
class ElemRef(Expr):
    name: str
    index: int  # 1-based linear, column-major; the emitter shifts to 0-based


@dataclass(frozen=True)
class Bin(Expr):
    op: str  # a key of OPS
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Un(Expr):
    op: str  # "-"
    a: Expr


@dataclass(frozen=True)
class CallFn(Expr):
    fn: str  # sqrt sin cos atan2
    args: tuple


@dataclass(frozen=True)
class Cast(Expr):
    dtype: Dtype
    a: Expr


@dataclass(frozen=True)
class Cond(Expr):
    cond: Expr
    a: Expr
    b: Expr


# The C spelling of every Bin operator and the matval kernel that computes
# it, for folding and for the interpreter alike.
OPS = {
    "+": "add", "-": "sub", "*": "mul", "/": "div",
    "==": "eq", "!=": "ne", "<": "lt", "<=": "le", ">": "gt", ">=": "ge",
}
_SPELLING = {name: op for op, name in OPS.items()}  # for the tracer


def _common_dtype(dtypes) -> Dtype:
    first, *rest = dtypes
    for d in rest:
        if d != first:
            raise mv.DtypeMismatch("{} vs {}".format(first, d))
    return first


def lower_expr(e: Expr, slot):
    """Lower an expression once into (fn, dtype): fn(env) computes its one
    element as a raw float, int or bool, and dtype, resolved here, is that
    element's dtype. slot(name, k) lowers the read of element k (0-based) of
    a name the same way. Each operator's kernel comes from
    matval.elem_kernel, its one definition. Only the taken arm of a Cond runs."""
    if isinstance(e, Lit):
        v = e.value.data[0]
        return (lambda env: v), e.value.dtype
    if isinstance(e, Ref):
        return slot(e.name, 0)
    if isinstance(e, ElemRef):
        return slot(e.name, e.index - 1)
    if isinstance(e, Bin):
        (fa, da), (fb, db) = lower_expr(e.a, slot), lower_expr(e.b, slot)
        op = OPS[e.op]
        kernel = mv.elem_kernel(op, _common_dtype((da, db)))
        return (lambda env: kernel(fa(env), fb(env))), (mv.BOOL if op in mv.COMPARE else da)
    if isinstance(e, Un):
        fa, da = lower_expr(e.a, slot)
        kernel = mv.elem_kernel("neg", da)
        return (lambda env: kernel(fa(env))), da
    if isinstance(e, Cast):
        fa, da = lower_expr(e.a, slot)
        if da == e.dtype:
            return fa, da
        kernel = mv.convert_kernel(da, e.dtype)
        return (lambda env: kernel(fa(env))), e.dtype
    if isinstance(e, CallFn):
        args = [lower_expr(a, slot) for a in e.args]
        kernel = mv.elem_kernel(e.fn, _common_dtype([d for _, d in args]))
        if len(args) == 1:
            (fa, _), = args
            return (lambda env: kernel(fa(env))), F64
        (fa, _), (fb, _) = args
        return (lambda env: kernel(fa(env), fb(env))), F64
    if isinstance(e, Cond):
        fc, _ = lower_expr(e.cond, slot)
        (fa, da), (fb, db) = lower_expr(e.a, slot), lower_expr(e.b, slot)
        return (lambda env: fa(env) if fc(env) else fb(env)), _common_dtype((da, db))
    raise TypeError("unknown expression {!r}".format(e))


def children(e: Expr) -> tuple:
    """The direct sub-expressions of e, in evaluation order."""
    if isinstance(e, (Lit, Ref, ElemRef)):
        return ()
    if isinstance(e, Bin):
        return (e.a, e.b)
    if isinstance(e, (Un, Cast)):
        return (e.a,)
    if isinstance(e, CallFn):
        return e.args
    if isinstance(e, Cond):
        return (e.cond, e.a, e.b)
    raise TypeError("unknown expression {!r}".format(e))


def map_children(e: Expr, f) -> Expr:
    """e rebuilt from f applied to each of its children; e itself when f
    returns every child unchanged."""
    if isinstance(e, (Lit, Ref, ElemRef)):
        return e
    if isinstance(e, Bin):
        a, b = f(e.a), f(e.b)
        return e if a is e.a and b is e.b else Bin(e.op, a, b)
    if isinstance(e, Un):
        a = f(e.a)
        return e if a is e.a else Un(e.op, a)
    if isinstance(e, Cast):
        a = f(e.a)
        return e if a is e.a else Cast(e.dtype, a)
    if isinstance(e, CallFn):
        args = tuple(f(a) for a in e.args)
        return e if all(x is y for x, y in zip(args, e.args)) else CallFn(e.fn, args)
    if isinstance(e, Cond):
        c, a, b = f(e.cond), f(e.a), f(e.b)
        return e if c is e.cond and a is e.a and b is e.b else Cond(c, a, b)
    raise TypeError("unknown expression {!r}".format(e))


# ---------------------------------------------------------------------------
# instructions


@dataclass
class Instr:
    pass


@dataclass
class Def(Instr):
    """Bind a fresh scalar name to an expression."""
    name: str
    expr: Expr


@dataclass
class Store(Instr):
    """Assign into existing scalar storage (local, static or argument)."""
    name: str
    expr: Expr


@dataclass
class SetElem(Instr):
    name: str
    index: int  # 1-based linear
    expr: Expr


@dataclass
class CopyMat(Instr):
    """Whole-matrix copy between same-dtype storages of n >= 2 elements."""
    dst: str
    src: str
    n: int


@dataclass
class Annot(Instr):
    text: str


@dataclass
class CallTarget:
    fn: str
    args: tuple  # argument names, resolved against the enclosing io


@dataclass
class IfExpr(Instr):
    cond: str  # scalar name, tested > 0 upstream
    then_call: CallTarget
    else_call: CallTarget


@dataclass
class Call(Instr):
    """Call a recorded function or a runtime helper; args are names."""
    fn: str
    args: tuple


# ---------------------------------------------------------------------------
# declarations / functions


@dataclass
class Decl:
    """Named storage: a function argument, a local, or a program static
    (static=True, reset to init by the initialize function)."""
    name: str
    dtype: Dtype
    rows: int
    cols: int
    init: MatValue = None
    static: bool = False

    @property
    def is_scalar(self):
        return self.rows == 1 and self.cols == 1

    @property
    def size(self):
        return self.rows * self.cols


@dataclass
class FunctionDef:
    name: str
    params: list  # of Decl
    decls: dict = field(default_factory=dict)  # name -> Decl, creation order
    body: list = field(default_factory=list)   # of Instr


@dataclass
class Program:
    """A finalized, optimized unit ready for printing or interpretation."""
    statics: list                 # of static Decl, registration order
    init_fn: FunctionDef
    functions: list               # of FunctionDef, completion order
    helpers: list                 # helper names used, stable order
    meta: dict = field(default_factory=dict)

    def function(self, name):
        if self.init_fn.name == name:
            return self.init_fn
        for f in self.functions:
            if f.name == name:
                return f
        raise KeyError(name)


class TraceContext:
    """One recording session: code, declaration pools, unique counter."""

    def __init__(self):
        self.counter = 0
        self.module = FunctionDef("<module>", [])
        self._open = []            # stack of (FunctionDef, IoSeq)
        self.functions = []        # sealed FunctionDefs, completion order
        self.statics = {}          # name -> static Decl, registration order
        self.pinned = set()        # def names that must not be inlined
        self.helpers_used = []
        self._names = set()        # every name handed out or registered

    # -- naming ------------------------------------------------------------

    def getunique(self) -> str:
        self.counter += 1
        name = "tmp_{}".format(self.counter)
        self._names.add(name)
        return name

    def claim_name(self, name: str):
        if name in self._names:
            raise DuplicateName(name)
        self._names.add(name)

    # -- frames ------------------------------------------------------------

    @property
    def frame(self) -> FunctionDef:
        return self._open[-1][0] if self._open else self.module

    def emit(self, instr: Instr):
        self.frame.body.append(instr)

    def annotate(self, text: str):
        """Record a comment; a numeric context drops it unbuilt."""
        self.emit(Annot(text))

    def declare(self, name, dtype, rows, cols, init=None, static=False):
        self.frame.decls[name] = Decl(name, dtype, rows, cols, init, static)

    def use_helper(self, name):
        if name not in self.helpers_used:
            self.helpers_used.append(name)

    def register_static(self, name, default: MatValue):
        if name in self.statics:
            raise DuplicateName(name)
        self.claim_name(name)
        self.statics[name] = Decl(name, default.dtype, default.rows, default.cols, default,
                                  static=True)

    # internal push/pop used both by the directives and the model driver;
    # the public StartFunction/EndFunction wrappers forbid nesting
    def push_function(self, name, io):
        fn = FunctionDef(name, [Decl(e.name, e.value.dtype, e.value.rows, e.value.cols)
                                for e in io.entries.values()])
        self._open.append((fn, io))
        return fn

    def pop_function(self, name=None):
        if not self._open:
            raise NoOpenFunction("no function open")
        fn = self._open[-1][0]
        if name is not None and fn.name != name:
            raise NoOpenFunction("open function is {!r}, not {!r}".format(fn.name, name))
        self._open.pop()
        self.functions.append(fn)
        return fn

    @property
    def open_depth(self):
        return len(self._open)


# ---------------------------------------------------------------------------
# bvar


class BVar:
    """A matrix value, numeric or symbolic; a symbolic one also has its
    recording session and its IR name. The dtype is the value's."""

    __slots__ = ("ctx", "sym", "value", "name")

    def __init__(self, ctx, sym, value, name=""):
        self.ctx = ctx
        self.sym = sym
        self.value = value
        self.name = name

    @property
    def dtype(self):
        return self.value.dtype

    @property
    def shape(self):
        return self.value.shape

    @property
    def rows(self):
        return self.value.rows

    @property
    def cols(self):
        return self.value.cols

    @property
    def size(self):
        return self.value.size

    @property
    def is_scalar(self):
        return self.value.is_scalar

    def __repr__(self):
        kind = "sym" if self.sym else "num"
        return "BVar({} {} {}x{} {!r})".format(kind, self.dtype, self.rows, self.cols, self.name)

    def __bool__(self):
        # control decisions must be partial-evaluable at generation time
        if self.sym:
            raise SymbolicConditionError(
                "conditional depends on symbolic value {!r}".format(self.name or "?"))
        return all(bool(v) for v in self.value.data)

    # matrix-language operators: * is the matrix product, / divides by
    # a scalar or right-divides by a square matrix
    def __add__(self, other):
        return bv_binop("add", self, other)

    def __radd__(self, other):
        return bv_binop("add", other, self)

    def __sub__(self, other):
        return bv_binop("sub", self, other)

    def __rsub__(self, other):
        return bv_binop("sub", other, self)

    def __mul__(self, other):
        return bv_matmul(self, other)

    def __rmul__(self, other):
        return bv_matmul(other, self)

    def __truediv__(self, other):
        return bv_div(self, other)

    def __rtruediv__(self, other):
        return bv_div(other, self)

    def __neg__(self):
        return bv_neg(self)

    def __pow__(self, n):
        return bv_pow(self, n)

    @property
    def T(self):
        return bv_transpose(self)

    def __getitem__(self, key):
        if isinstance(key, tuple):
            return bv_index_get(self, key[0], key[1])
        return bv_index_get(self, key)

    def __setitem__(self, key, rhs):
        if isinstance(key, tuple):
            bv_index_set(self, key[0], key[1], rhs=rhs)
        else:
            bv_index_set(self, key, rhs=rhs)


def numerics(v) -> BVar:
    """Wrap a concrete value as a numeric bvar."""
    return BVar(None, False, v if isinstance(v, MatValue) else _as_matvalue(v))


def symbolics(ctx: TraceContext, v, name: str = None) -> BVar:
    """A free symbolic bvar; only dtype and shape of v are meaningful."""
    value = _as_matvalue(v)
    if name is None:
        name = ctx.getunique()
    else:
        ctx.claim_name(name)
    return BVar(ctx, True, value, name)


def _as_matvalue(v) -> MatValue:
    if isinstance(v, MatValue):  # before the sequences: a MatValue is a tuple
        return v
    if isinstance(v, BVar):
        return v.value
    if isinstance(v, (bool, int, float)):
        return mv.scalar(v)
    if isinstance(v, (list, tuple)):
        return mv.from_rows([list(v)] if not isinstance(v[0], (list, tuple)) else [list(r) for r in v])
    raise TypeError("cannot interpret {!r} as a matrix value".format(v))


def _as_bvar(v, like: BVar = None) -> BVar:
    if isinstance(v, BVar):
        return v
    m = _as_matvalue(v)
    if like is not None and m.dtype != like.dtype and not m.dtype.is_bool:
        # bare python numbers adopt the dtype of the bvar they meet
        m = mv.convert(m, like.dtype)
    return BVar(None, False, m)


def _coerce_pair(a, b):
    """Both operands as bvars; a bare number adopts the other operand's dtype."""
    a = _as_bvar(a, like=b if isinstance(b, BVar) else None)
    return a, _as_bvar(b, like=a)


def _ctx_of(*bvars) -> TraceContext:
    for b in bvars:
        if b.ctx is not None:
            return b.ctx
    return None


def unwrap(b: BVar) -> MatValue:
    return b.value


# ---------------------------------------------------------------------------
# emission primitives


def _operand_expr(b: BVar) -> Expr:
    """Embed a scalar bvar as an expression operand."""
    return Ref(b.name) if b.sym else Lit(b.value)


def _elem_expr(b: BVar, k: int) -> Expr:
    """Element k (0-based) of a bvar as an expression operand; a 1x1 bvar
    broadcasts, standing for every element."""
    if b.is_scalar:
        return _operand_expr(b)
    if not b.sym:
        return Lit(MatValue(b.value.dtype, 1, 1, (b.value.data[k],)))
    return ElemRef(b.name, k + 1)


def _def_scalar(ctx, expr: Expr, nominal: MatValue) -> BVar:
    name = ctx.getunique()
    ctx.declare(name, nominal.dtype, 1, 1)
    ctx.emit(Def(name, expr))
    return BVar(ctx, True, nominal, name)


def _new_array(ctx, nominal: MatValue, init: MatValue = None) -> BVar:
    name = ctx.getunique()
    ctx.declare(name, nominal.dtype, nominal.rows, nominal.cols, init=init)
    return BVar(ctx, True, nominal, name)


def _per_element(ctx, nominal: MatValue, expr_at, order) -> BVar:
    """The symbolic result whose element k (0-based, column-major) is
    expr_at(k): one scalar definition when nominal is 1x1, else a fresh array
    stored element by element, visiting the linear indices in order."""
    if nominal.is_scalar:
        return _def_scalar(ctx, expr_at(0), nominal)
    res = _new_array(ctx, nominal)
    for k in order:
        ctx.emit(SetElem(res.name, k + 1, expr_at(k)))
    return res


def _row_major(rows: int, cols: int) -> list:
    """The linear indices of a rows x cols matrix, row by row."""
    return [i + rows * j for i in range(rows) for j in range(cols)]


def _helper_call(ctx, fn: str, note: str, shape, operands, dims) -> BVar:
    """A runtime helper call writing a fresh f64 result of the given shape:
    the operands are passed by name and the dimensions as materialized
    doubles. The result's nominal value stays zero; the helper computes it."""
    if any(b.dtype != F64 for b in operands):
        raise TraceError("runtime helper {} supports f64 only".format(fn))
    ctx.emit(Annot(note))
    names = tuple(b.name if b.sym else _materialize(ctx, b.value).name for b in operands)
    names += tuple(_materialize(ctx, mv.scalar(float(d))).name for d in dims)
    res = _new_array(ctx, mv.zeros(F64, *shape))
    ctx.use_helper(fn)
    ctx.emit(Call(fn, (res.name,) + names))
    return res


def _constant_decl(ctx, value: MatValue) -> BVar:
    """Declare a fresh local initialized with a concrete value."""
    return _new_array(ctx, value, init=value)


def _copy_into(ctx, dst: str, b: BVar):
    """Copy a value into existing named storage of its shape and dtype: one
    store for a 1x1 value, else one whole copy from the value's own storage
    or, for a numeric matrix, from a fresh initialized local."""
    if b.is_scalar:
        ctx.emit(Store(dst, _operand_expr(b)))
    else:
        ctx.emit(CopyMat(dst, (b if b.sym else _constant_decl(ctx, b.value)).name, b.size))


def _materialize(ctx, value: MatValue) -> BVar:
    """Declaration plus per-element literal stores, linear order.

    Used to hand concrete operands to the runtime helpers.
    """
    out = _constant_decl(ctx, value)
    if value.is_scalar:
        ctx.emit(Store(out.name, Lit(value)))
    else:
        for k in range(value.size):
            ctx.emit(SetElem(out.name, k + 1, Lit(MatValue(value.dtype, 1, 1, (value.data[k],)))))
    return out


def _lit_is(e: Expr, v) -> bool:
    return isinstance(e, Lit) and not e.value.dtype.is_bool and e.value.data[0] == v


def _simplified_bin(op: str, ea: Expr, eb: Expr):
    """Partial-evaluation identities applied per element; at least one
    operand is symbolic.

    Returns an Expr, or None when the result is statically zero.
    """
    if op == "+":
        if _lit_is(ea, 0):
            return eb
        if _lit_is(eb, 0):
            return ea
    elif op == "-":
        if _lit_is(eb, 0):
            return ea
        if _lit_is(ea, 0):
            return Un("-", eb)
    elif op == "*":
        if _lit_is(ea, 1):
            return eb
        if _lit_is(eb, 1):
            return ea
        if _lit_is(ea, 0) or _lit_is(eb, 0):
            return None
    return Bin(op, ea, eb)


def _soft_nominal(fn, fallback: MatValue, *args):
    """Nominal values ride along for shape honesty; value-level failures
    (division by zero, singular, domain errors) must not abort a trace."""
    try:
        return fn(*args)
    except (mv.DivisionByZero, mv.Singular, ValueError, OverflowError):
        return fallback


# ---------------------------------------------------------------------------
# overloaded operations


def bv_binop(op: str, a, b) -> BVar:
    if not (isinstance(a, BVar) and isinstance(b, BVar)):
        return bv_binop(op, *_coerce_pair(a, b))
    if not (a.sym or b.sym):
        return BVar(None, False, mv.elem_binop(op, a.value, b.value))
    if a.dtype is not b.dtype:
        raise mv.DtypeMismatch("{} vs {}".format(a.dtype, b.dtype))
    if a.dtype.is_bool:
        raise mv.DtypeMismatch("bool participates in arithmetic only after conversion")
    rows, cols = mv.broadcast_pair(a.value, b.value)
    nominal = _soft_nominal(mv.elem_binop, mv.zeros(a.dtype, rows, cols), op, a.value, b.value)
    sym = _SPELLING[mv.ELEM_OPS[op]]
    # scalar-level identities: x+0, x-0, 0-x, 1*x, 0*x on the whole value
    num, other = (a, b) if not a.sym else ((b, a) if not b.sym else (None, None))
    if num is not None and (num.is_scalar or num.shape == other.shape):
        if other.shape == nominal.shape:
            if op == "add" and all(v == 0 for v in num.value.data):
                return other
            if op == "sub" and num is b and all(v == 0 for v in num.value.data):
                return a
            if op == "sub" and num is a and all(v == 0 for v in num.value.data):
                return bv_neg(b)
            if op == "mul_elem" and num.is_scalar and num.value.data[0] == 1:
                return other
        if op == "mul_elem" and num.is_scalar and num.value.data[0] == 0:
            return BVar(None, False, nominal)
        if op == "div_elem" and num is b and num.is_scalar and num.value.data[0] == 1:
            return a

    def expr_at(k):
        e = _simplified_bin(sym, _elem_expr(a, k), _elem_expr(b, k))
        return Lit(mv.zeros(nominal.dtype, 1, 1)) if e is None else e

    return _per_element(_ctx_of(a, b), nominal, expr_at, _row_major(*nominal.shape))


def bv_neg(a) -> BVar:
    a = _as_bvar(a)
    nominal = mv.neg(a.value)
    if not a.sym:
        return BVar(None, False, nominal)
    return _per_element(a.ctx, nominal, lambda k: Un("-", _elem_expr(a, k)),
                        _row_major(*nominal.shape))


def bv_matmul(a, b) -> BVar:
    if not (isinstance(a, BVar) and isinstance(b, BVar)):
        return bv_matmul(*_coerce_pair(a, b))
    if not (a.sym or b.sym):
        return BVar(None, False, mv.matmul(a.value, b.value))  # a 1x1 operand scales
    if a.is_scalar or b.is_scalar:
        return bv_binop("mul_elem", a, b)  # scalar * matrix scales elementwise
    rows, cols = mv.matmul_shape(a, b)
    ctx = _ctx_of(a, b)
    if rows * cols > UNROLL_LIMIT:  # the helper computes the value: no nominal product
        return _helper_call(ctx, "mult", "Product of matrices resulting size {}>{}: calling "
                            "external function".format(rows * cols, UNROLL_LIMIT),
                            (rows, cols), (a, b), (a.rows, a.cols, b.rows, b.cols))
    nominal = mv.matmul(a.value, b.value)

    def expr_at(k):
        # row i of a times column j of b, without the statically zero terms
        i, j = k % a.rows, k // a.rows
        acc = None
        for m in range(a.cols):
            term = _simplified_bin("*", _elem_expr(a, i + a.rows * m),
                                   _elem_expr(b, m + b.rows * j))
            if term is not None:
                acc = term if acc is None else _simplified_bin("+", acc, term)
        return Lit(mv.zeros(nominal.dtype, 1, 1)) if acc is None else acc

    if nominal.is_scalar:  # a row times a column stays a one-element array: the C goldens fix it
        res = _new_array(ctx, nominal)
        ctx.emit(SetElem(res.name, 1, expr_at(0)))
        return res
    return _per_element(ctx, nominal, expr_at, _row_major(*nominal.shape))


def bv_transpose(a) -> BVar:
    a = _as_bvar(a)
    nominal = mv.transpose(a.value)
    if not a.sym:
        return BVar(None, False, nominal)
    ctx = a.ctx
    if a.is_scalar:
        return a
    if nominal.size > UNROLL_LIMIT:
        res = _helper_call(ctx, "quote", "Transpose of matrix of size {}>{}: calling external "
                           "function".format(nominal.size, UNROLL_LIMIT),
                           nominal.shape, (a,), (a.rows, a.cols))
        ctx.emit(Annot("End of Transpose"))
        return res
    # element (i, j) of the result is element (j, i) of a
    return _per_element(ctx, nominal, lambda k: _elem_expr(a, k // a.cols + a.rows * (k % a.cols)),
                        _row_major(*nominal.shape))


def bv_concat_rows(a, b) -> BVar:
    a, b = _as_bvar(a), _as_bvar(b)
    if a.size == 0:
        return b
    if b.size == 0:
        return a
    nominal = mv.concat_rows(a.value, b.value)
    if not (a.sym or b.sym):
        return BVar(None, False, nominal)

    def expr_at(k):
        # column j of the result is column j of a over column j of b
        j, r = divmod(k, nominal.rows)
        if r < a.rows:
            return _elem_expr(a, r + a.rows * j)
        return _elem_expr(b, r - a.rows + b.rows * j)

    return _per_element(_ctx_of(a, b), nominal, expr_at, range(nominal.size))


def bv_concat_cols(a, b) -> BVar:
    a, b = _as_bvar(a), _as_bvar(b)
    if a.size == 0:
        return b
    if b.size == 0:
        return a
    nominal = mv.concat_cols(a.value, b.value)
    if not (a.sym or b.sym):
        return BVar(None, False, nominal)
    ctx = _ctx_of(a, b)
    ctx.emit(Annot("Begin concatr of {} with {}".format(a.name or "unknown", b.name or "unknown")))
    res = _per_element(ctx, nominal,
                       lambda k: _elem_expr(a, k) if k < a.size else _elem_expr(b, k - a.size),
                       range(nominal.size))
    ctx.emit(Annot("end concatr of {} with {}".format(a.name or "unknown", b.name or "unknown")))
    return res


def _concat(join, parts) -> BVar:
    """The parts joined left to right; a bare number adopts the dtype of
    what it is joined to."""
    out = _as_bvar(parts[0])
    for p in parts[1:]:
        out = join(out, _as_bvar(p, like=out))
    return out


def vertcat(*parts) -> BVar:
    return _concat(bv_concat_rows, parts)


def horzcat(*parts) -> BVar:
    return _concat(bv_concat_cols, parts)


def _linear_index(a: BVar, i, j) -> int:
    """The 0-based linear index of 1-based element i (column-major) or (i, j),
    checked against a's shape."""
    if j is None:
        if not 1 <= i <= a.size:
            raise mv.ShapeMismatch("index {} out of {} elements".format(i, a.size))
        return i - 1
    if not (1 <= i <= a.rows and 1 <= j <= a.cols):
        raise mv.ShapeMismatch("index ({},{}) out of {}x{}".format(i, j, a.rows, a.cols))
    return (i - 1) + a.rows * (j - 1)


def bv_index_get(a: BVar, i, j=None) -> BVar:
    """1-based element read; linear indices are column-major."""
    k = _linear_index(a, i, j)
    elem = MatValue(a.value.dtype, 1, 1, (a.value.data[k],))
    if not a.sym:
        return BVar(None, False, elem)
    return _def_scalar(a.ctx, _elem_expr(a, k), elem)


def bv_index_set(a: BVar, i, j=None, *, rhs) -> BVar:
    """1-based element write; promotes a numeric target when rhs is symbolic."""
    rhs = _as_bvar(rhs, like=a)
    if not rhs.is_scalar:
        raise mv.ShapeMismatch("element write needs a 1x1 rhs")
    k = _linear_index(a, i, j)
    if rhs.dtype != a.value.dtype:
        raise mv.DtypeMismatch("element write {} into {}".format(rhs.dtype, a.value.dtype))
    if not a.sym and not rhs.sym:
        a.value = a.value.set_linear(k, rhs.value.data[0])
        return a
    ctx = _ctx_of(a, rhs)
    if not a.sym:
        # promote: a fresh local initialized with the current value
        a.ctx, a.sym, a.name = ctx, True, _constant_decl(ctx, a.value).name
    ctx.emit(SetElem(a.name, k + 1, _operand_expr(rhs)))
    a.value = a.value.set_linear(k, rhs.value.data[0])
    return a


def bv_size(a: BVar) -> MatValue:
    """Always numeric, even for symbolic operands."""
    return mv.make(F64, 1, 2, [a.rows, a.cols])


def bv_datatype(a: BVar) -> Dtype:
    return a.dtype


def bv_convert(a, dtype: Dtype) -> BVar:
    if not isinstance(a, BVar):
        a = _as_bvar(a)
    if a.dtype is dtype:
        return a
    if not a.sym:
        return BVar(None, False, mv.convert(a.value, dtype))
    # pin the source's definition so the conversion point survives optimization
    a.ctx.pinned.add(a.name)
    return _per_element(a.ctx, mv.convert(a.value, dtype),
                        lambda k: Cast(dtype, _elem_expr(a, k)), range(a.size))


def bv_sum(a) -> BVar:
    a = _as_bvar(a)
    nominal = mv.sum_all(a.value)
    if not a.sym:
        return BVar(None, False, nominal)
    if a.is_scalar:
        return a
    acc = _elem_expr(a, 0)
    for k in range(1, a.size):
        acc = Bin("+", acc, _elem_expr(a, k))
    return _def_scalar(a.ctx, acc, nominal)


def bv_compare(op: str, a, b) -> BVar:
    a, b = _coerce_pair(a, b)
    nominal = mv.compare(op, a.value, b.value)
    if not (a.sym or b.sym):
        return BVar(None, False, nominal)
    sym = _SPELLING[op]
    return _per_element(_ctx_of(a, b), nominal,
                        lambda k: Bin(sym, _elem_expr(a, k), _elem_expr(b, k)),
                        _row_major(*nominal.shape))


def bv_elem_math(fn: str, *args) -> BVar:
    args = [_as_bvar(a) for a in args]
    if not any(a.sym for a in args):
        return BVar(None, False, mv.elem_math(fn, *[a.value for a in args]))
    if fn == "atan2" and args[0].shape != args[1].shape:
        raise mv.ShapeMismatch("atan2 args {} vs {}".format(args[0].shape, args[1].shape))
    shape = args[0].shape
    nominal = _soft_nominal(mv.elem_math, mv.zeros(F64, *shape), fn, *[a.value for a in args])
    return _per_element(_ctx_of(*args), nominal,
                        lambda k: CallFn(fn, tuple(_elem_expr(a, k) for a in args)),
                        range(nominal.size))


def sqrt(a):
    return bv_elem_math("sqrt", a)


def sin(a):
    return bv_elem_math("sin", a)


def cos(a):
    return bv_elem_math("cos", a)


def atan2(y, x):
    return bv_elem_math("atan2", y, x)


def bv_pow(a, n) -> BVar:
    a = _as_bvar(a)
    if isinstance(n, BVar):
        if n.sym:
            raise SymbolicConditionError("exponent must be numeric")
        n = n.value.scalar()
    if n != int(n) or n < 0:
        raise TraceError("only nonnegative integer powers are supported")
    n = int(n)
    if not a.is_scalar:
        raise mv.ShapeMismatch("power of a non-scalar")
    if n == 0:
        return BVar(None, False, mv.make(a.value.dtype, 1, 1, [1]))
    out = a
    for _ in range(n - 1):
        out = bv_matmul(out, a)
    return out


def bv_inv(a) -> BVar:
    a = _as_bvar(a)
    if a.rows != a.cols:
        raise mv.NonSquare("Division by non square matrix not supported.")
    nominal = mv.invert(a.value) if not a.sym else None
    if not a.sym:
        return BVar(None, False, nominal)
    ctx = a.ctx
    n = a.rows
    if n == 1:
        return bv_div(numerics(mv.scalar(1.0)), a)
    if n == 2:
        out = bvarempty(ctx, a)
        bv_index_set(out, 1, 1, rhs=bv_index_get(a, 2, 2))
        bv_index_set(out, 2, 2, rhs=bv_index_get(a, 1, 1))
        bv_index_set(out, 1, 2, rhs=bv_neg(bv_index_get(a, 1, 2)))
        bv_index_set(out, 2, 1, rhs=bv_neg(bv_index_get(a, 2, 1)))
        det = bv_index_get(a, 1, 1) * bv_index_get(a, 2, 2) - bv_index_get(a, 1, 2) * bv_index_get(a, 2, 1)
        return bv_binop("div_elem", out, det)
    if n > 8:
        raise TraceError("helper-call inverse limited to 8x8")
    return _helper_call(ctx, "matinv", "Inverse of matrix of size {}>2: calling external "
                        "function".format(n * n), (n, n), (a,), (n,))


def bv_div(a, b) -> BVar:
    """a / b: elementwise when b is 1x1, else a * inv(b) for square b."""
    a, b = _coerce_pair(a, b)
    if b.is_scalar:
        return bv_binop("div_elem", a, b)
    if b.rows != b.cols:
        raise mv.NonSquare("Division by non square matrix not supported.")
    return bv_matmul(a, bv_inv(b))


def el_mul(a, b) -> BVar:
    """Elementwise product (the .* of the matrix language)."""
    return bv_binop("mul_elem", a, b)


def bvarempty(ctx: TraceContext, in_) -> BVar:
    """Fresh symbolic with in's dtype and shape; declared, never copied.

    A numeric source contributes its value as the declaration initializer.
    """
    b = _as_bvar(in_)
    return _new_array(ctx, b.value, init=None if b.sym else b.value)


def bvarcopy(ctx: TraceContext, in_) -> BVar:
    """Like bvarempty, plus code copying the source into the new variable."""
    b = _as_bvar(in_)
    res = bvarempty(ctx, b)
    _copy_into(ctx, res.name, b)
    return res


def expand(ctx: TraceContext, in_, m: int, n: int) -> BVar:
    """A fresh symbolic m x n variable filled with a 1x1 source."""
    b = _as_bvar(in_)
    if not b.is_scalar:
        raise mv.ShapeMismatch("expand needs a 1x1 source")
    replicated = MatValue(b.value.dtype, m, n, b.value.data * (m * n))
    res = _new_array(ctx, replicated, init=replicated)
    if b.sym:
        for k in range(m * n):
            ctx.emit(SetElem(res.name, k + 1, _operand_expr(b)))
    return res
