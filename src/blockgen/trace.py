"""Traced values, the recording session and the overloaded operations.

A value a behavior computes with is a Handle of one of two kinds. A Num is
numeric: its value is authoritative. A BVar is symbolic: it is known only by
its signature, the dtype and shape of its value, and operations on it append
pseudo-code instructions to its session. Generation computes only with
numeric values: a recorder works out its result's signature from its
operands' (raising the dtype and shape errors of its matval operation) and
builds the result on a zero of it, and nothing reads a BVar's entries. Handle
holds the one operator table of both kinds. Each operator calls an
overloaded operation, the recorder of its symbolic case made by _operation:
with no symbolic operand it is its matval kernel instead, so numeric code
records nothing and runs without a session.
An operation on one element is an Op node named by its matval.elem_kernel,
the one name the tracer, the optimizer, the interpreter and matval share;
only the C printer spells it in C. A conversion is the one other operator
node: a converted symbolic value is a new one defined by a Cast per element.

Each recorder says only what element k of its result is, unsimplified:
identity (x+0, 0-x, 1*x, 0*x, ...) is applied per element by the optimizer's
fold, and here only to a whole value. _per_element records an element as
one definition for a 1x1 result (the optimizer later folds single-use
definitions into their use site, which gives generated programs their
compact expressions), else as per-element stores into a fresh array.
Products and transposes of more than UNROLL_LIMIT result elements, and
inverses from 3x3 to 8x8, call the f64 runtime helpers mult, quote and
matinv instead, all through _helper_call.
"""

from __future__ import annotations

from collections import namedtuple
from functools import reduce, wraps

from . import matval as mv
from .matval import MatValue, Dtype, F64, Record


UNROLL_LIMIT = 6


class TraceError(Exception):
    pass


class DuplicateName(TraceError):
    pass


class SymbolicConditionError(TraceError):
    """A control decision depended on a value unknown at generation time."""


class NoOpenFunction(TraceError):
    pass


class UnbalancedFunction(TraceError):
    pass


class HeldValue(TraceError):
    """An element write into a bvar that a model link holds (args[0]): every
    other reader of the link would see the write."""


# ---------------------------------------------------------------------------
# expressions


class Expr(Record):
    __slots__ = ()


class Lit(Expr, namedtuple("Lit", "value")):  # value: a 1x1 MatValue
    __slots__ = ()


class Ref(Expr, namedtuple("Ref", "name")):
    __slots__ = ()


class ElemRef(Expr, namedtuple("ElemRef", "name index")):
    """index: 1-based linear, column-major; the emitter shifts to 0-based."""
    __slots__ = ()


class Op(Expr, namedtuple("Op", "op args")):
    """An operation on one element: op names its matval.elem_kernel (add sub
    mul div eq ne lt le gt ge neg sqrt sin cos atan2), args is the tuple of
    its one or two operands."""
    __slots__ = ()


class Cast(Expr, namedtuple("Cast", "dtype a")):
    __slots__ = ()


# The lowered functions below take what they read as parameter defaults, not
# closure cells: a function that holds cells (also for a comprehension that
# reads its locals) makes every one of them on each call, whichever branch
# runs, and building and reading defaults is cheaper.

def operand_fn(x):
    """A lowered operand as fn(env): x is a cell, a literal constant or
    already such a function (see lower_expr)."""
    if type(x) is tuple:
        return lambda env, i=x[0], k=x[1]: env[i][k]
    return x if callable(x) else (lambda env, x=x: x)


def kernel_fn(kernel, a, b=None):
    """fn(env) applying kernel to the lowered operand a, or to a and b; a
    cell or literal operand is read inline rather than through a call."""
    if b is None:
        if type(a) is tuple:
            return lambda env, f=kernel, i=a[0], k=a[1]: f(env[i][k])
        return lambda env, f=kernel, a=operand_fn(a): f(a(env))
    if type(a) is tuple:
        if type(b) is tuple:
            return lambda env, f=kernel, i=a[0], k=a[1], j=b[0], m=b[1]: f(env[i][k], env[j][m])
        if callable(b):
            return lambda env, f=kernel, i=a[0], k=a[1], b=b: f(env[i][k], b(env))
        return lambda env, f=kernel, i=a[0], k=a[1], b=b: f(env[i][k], b)
    if callable(a):
        if type(b) is tuple:
            return lambda env, f=kernel, a=a, j=b[0], m=b[1]: f(a(env), env[j][m])
        if callable(b):
            return lambda env, f=kernel, a=a, b=b: f(a(env), b(env))
        return lambda env, f=kernel, a=a, b=b: f(a(env), b)
    if type(b) is tuple:
        return lambda env, f=kernel, a=a, j=b[0], m=b[1]: f(a, env[j][m])
    return lambda env, f=kernel, a=a, b=operand_fn(b): f(a, b(env))


def lower_expr(e: Expr, cell):
    """Lower an expression in one pass into (x, dtype): dtype, resolved
    here, is its element's dtype, and x the operand computing that element
    as a raw float, int or bool. x is a cell, the pair (i, k) standing for
    env[i][k]; a literal constant; or else a function fn(env). cell(name, k)
    resolves element k (0-based) of a name to (cell, dtype). Each operator's
    kernel comes from matval.elem_kernel, its one definition. Nothing is
    evaluated here."""
    t = type(e)
    if t is Ref:
        return cell(e.name, 0)
    if t is ElemRef:
        return cell(e.name, e.index - 1)
    if t is Lit:
        return e.value.data[0], e.value.dtype
    if t is Op:
        args = e.args
        a, da = lower_expr(args[0], cell)
        if len(args) == 1:
            return kernel_fn(mv.elem_kernel(e.op, da), a), da
        b, db = lower_expr(args[1], cell)
        if db is not da:
            raise mv.DtypeMismatch("{} vs {}".format(da, db))
        return kernel_fn(mv.elem_kernel(e.op, da), a, b), mv.BOOL if e.op in mv.COMPARE else da
    if t is Cast:
        a, da = lower_expr(e.a, cell)
        if da == e.dtype:
            return a, da
        return kernel_fn(mv.convert_kernel(da, e.dtype), a), e.dtype
    raise TypeError("unknown expression {!r}".format(e))


def children(e: Expr) -> tuple:
    """The direct sub-expressions of e, in evaluation order."""
    t = type(e)
    if t is Op:
        return e.args
    if t is Cast:
        return (e.a,)
    if t is Lit or t is Ref or t is ElemRef:
        return ()
    raise TypeError("unknown expression {!r}".format(e))


def map_children(e: Expr, f) -> Expr:
    """e rebuilt from f applied to each of its children; e itself when f
    returns every child unchanged."""
    t = type(e)
    if t is Op:
        args = e.args
        if len(args) == 1:
            a = f(args[0])
            return e if a is args[0] else Op(e.op, (a,))
        a, b = f(args[0]), f(args[1])
        return e if a is args[0] and b is args[1] else Op(e.op, (a, b))
    if t is Cast:
        a = f(e.a)
        return e if a is e.a else Cast(e.dtype, a)
    if t is Lit or t is Ref or t is ElemRef:
        return e
    raise TypeError("unknown expression {!r}".format(e))


# ---------------------------------------------------------------------------
# instructions


class Instr(Record):
    __slots__ = ()


class Def(Instr, namedtuple("Def", "name expr")):
    """Bind a fresh scalar name to an expression."""
    __slots__ = ()


class Store(Instr, namedtuple("Store", "name expr")):
    """Assign into existing scalar storage (local, static or argument)."""
    __slots__ = ()


class SetElem(Instr, namedtuple("SetElem", "name index expr")):  # index: 1-based linear
    __slots__ = ()


class CopyMat(Instr, namedtuple("CopyMat", "dst src n")):
    """Whole-matrix copy between same-dtype storages of n >= 2 elements."""
    __slots__ = ()


class Annot(Instr, namedtuple("Annot", "text")):
    __slots__ = ()


class CallTarget(Record, namedtuple("CallTarget", "fn args")):
    """args: argument names, resolved against the enclosing io."""
    __slots__ = ()


class IfExpr(Instr, namedtuple("IfExpr", "cond then_call else_call")):
    """cond: a scalar name, tested > 0 upstream; then_call, else_call: CallTargets."""
    __slots__ = ()


class Call(Instr, namedtuple("Call", "fn args")):
    """Call a recorded function or a runtime helper; args are names."""
    __slots__ = ()


# ---------------------------------------------------------------------------
# declarations / functions


class Decl:
    """Named storage: a function argument, a local, or a program static
    (static=True, reset to init by the initialize function). Slotted for
    its many field reads; see model.BlockSpec."""
    __slots__ = ("name", "dtype", "rows", "cols", "init", "static")

    def __init__(self, name, dtype, rows, cols, init=None, static=False):
        self.name, self.dtype, self.rows, self.cols = name, dtype, rows, cols
        self.init, self.static = init, static

    is_scalar = property(lambda self: self.rows == 1 and self.cols == 1)
    size = property(lambda self: self.rows * self.cols)


class FunctionDef:
    __slots__ = ("name", "params", "decls", "body")

    def __init__(self, name, params, decls=None, body=None):
        self.name, self.params = name, params  # params: a list of Decl
        self.decls = {} if decls is None else decls  # name -> Decl, creation order
        self.body = [] if body is None else body     # of Instr


class Program:
    """A finalized, optimized unit ready for printing or interpretation."""
    __slots__ = ("statics", "init_fn", "functions", "helpers", "meta")

    def __init__(self, statics, init_fn, functions, helpers, meta=None):
        self.statics = statics      # of static Decl, registration order
        self.init_fn = init_fn
        self.functions = functions  # of FunctionDef, completion order
        self.helpers = helpers      # helper names used, stable order
        self.meta = {} if meta is None else meta

    def function(self, name):
        for f in (self.init_fn, *self.functions):
            if f.name == name:
                return f
        raise KeyError(name)


class TraceContext:
    """One recording session: code, declaration pools, unique counter."""

    def __init__(self):
        self.counter = 0
        self.module = FunctionDef("<module>", [])
        self._open = []            # stack of open FunctionDefs
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

    frame = property(lambda self: self._open[-1] if self._open else self.module)

    def emit(self, instr: Instr):
        self.frame.body.append(instr)

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

    def push_function(self, name, io):
        """Open function name, whose parameters are io's entries (see
        directives.inouts); until it is popped, code records into it."""
        fn = FunctionDef(name, [Decl(e.name, e.value.dtype, e.value.rows, e.value.cols)
                                for e in io.entries.values()])
        self._open.append(fn)
        return fn

    def pop_function(self, name=None):
        if not self._open:
            raise NoOpenFunction("no function open")
        fn = self._open[-1]
        if name is not None and fn.name != name:
            raise NoOpenFunction("open function is {!r}, not {!r}".format(fn.name, name))
        self._open.pop()
        self.functions.append(fn)
        return fn

    open_depth = property(lambda self: len(self._open))


# ---------------------------------------------------------------------------
# values: numeric handles and symbolic bvars


class Handle:
    """A matrix value as behaviors see it: a Num, numeric, or a BVar,
    symbolic. The dtype is the value's. The model drivers set `held` on a
    value they bind to a link, which makes it read only to element writes;
    unset, it reads as not held. Both kinds share this one layout, so that
    an element write of a symbolic value promotes a Num in place."""

    __slots__ = ("value", "held", "ctx", "name")

    dtype = property(lambda self: self.value.dtype)
    shape = property(lambda self: self.value.shape)
    rows = property(lambda self: self.value.rows)
    cols = property(lambda self: self.value.cols)
    size = property(lambda self: self.value.size)
    is_scalar = property(lambda self: self.value.is_scalar)

    def __repr__(self):
        return "{}({} {}x{} {!r})".format(type(self).__name__, self.dtype, *self.shape, self.name)

    def __getitem__(self, key):
        return bv_index_get(self, *key) if type(key) is tuple else bv_index_get(self, key)

    def __setitem__(self, key, rhs):
        bv_index_set(self, *(key if type(key) is tuple else (key,)), rhs=rhs)

    def __pow__(self, n):
        return bv_pow(self, n)

    # the one operator table, for both kinds: * is the matrix product, /
    # divides by a scalar or right-divides by a square matrix
    __add__ = lambda self, other: bv_binop("add", self, other)
    __radd__ = lambda self, other: bv_binop("add", other, self)
    __sub__ = lambda self, other: bv_binop("sub", self, other)
    __rsub__ = lambda self, other: bv_binop("sub", other, self)
    __mul__ = lambda self, other: bv_matmul(self, other)
    __rmul__ = lambda self, other: bv_matmul(other, self)
    __truediv__ = lambda self, other: bv_div(self, other)
    __rtruediv__ = lambda self, other: bv_div(other, self)
    __neg__ = lambda self: bv_neg(self)
    T = property(lambda self: bv_transpose(self))


class BVar(Handle):
    """A symbolic value: its recording session, its IR name, and a value of
    its signature whose entries nothing reads (a recorded result's is a
    zero)."""

    __slots__ = ()
    sym = True

    def __init__(self, ctx, value, name):
        self.ctx, self.value, self.name = ctx, value, name

    def __bool__(self):
        # control decisions must be partial-evaluable at generation time
        raise SymbolicConditionError(
            "conditional depends on symbolic value {!r}".format(self.name or "?"))


class Num(Handle):
    """A numeric value, authoritative."""

    __slots__ = ()
    sym, ctx, name = False, None, ""

    def __init__(self, value):
        self.value = value

    __bool__ = lambda self: all(self.value.data)


def numerics(v) -> Num:
    """Wrap a concrete value as a numeric handle; a symbolic one has no
    concrete value to give."""
    if type(v) is BVar:
        raise SymbolicConditionError("numerics of symbolic value {!r}".format(v.name))
    return Num(v if isinstance(v, MatValue) else _as_matvalue(v))


def session(ctx: TraceContext, what: str) -> TraceContext:
    """ctx, the recording session `what` needs; a numeric run has none."""
    if ctx is None:
        raise TraceError("{} needs a recording session, and a numeric run has none".format(what))
    return ctx


def symbolics(ctx: TraceContext, v, name: str = None) -> BVar:
    """A free symbolic bvar; only dtype and shape of v are meaningful."""
    ctx, value = session(ctx, "symbolics"), _as_matvalue(v)
    if name is None:
        name = ctx.getunique()
    else:
        ctx.claim_name(name)
    return BVar(ctx, value, name)


def _as_matvalue(v) -> MatValue:
    if isinstance(v, MatValue):  # before the sequences: a MatValue is a tuple
        return v
    if isinstance(v, Handle):
        return v.value
    if isinstance(v, (bool, int, float)):
        return mv.scalar(v)
    if isinstance(v, (list, tuple)):
        return mv.from_rows([list(v)] if not isinstance(v[0], (list, tuple)) else [list(r) for r in v])
    raise TypeError("cannot interpret {!r} as a matrix value".format(v))


def _coerced(v, args) -> MatValue:
    """A bare operand's value: a number adopts the dtype of the first handle
    among args, except a bool."""
    m = _as_matvalue(v)
    for like in args:
        if isinstance(like, Handle):
            if m.dtype is not like.dtype and not m.dtype.is_bool:
                m = mv.convert(m, like.dtype)
            break
    return m


def _as_handle(v, like: Handle = None) -> Handle:
    return v if isinstance(v, Handle) else Num(_coerced(v, (like,)))


def _operation(kernel):
    """Make an overloaded operation from the recorder of its symbolic case:
    with a symbolic operand (any argument but operator names and dtypes) the
    recorder runs, else kernel on the operands' values, as a Num. This is
    the one place that chooses between the two. A bare number becomes a Num
    in the same pass, of the first handle's dtype except a bool."""
    def wrap(record):
        def op(*args):
            vals, sym, handles = [], False, None
            for a in args:
                t = type(a)
                if t is Num:
                    vals.append(a.value)
                elif t is str or t is Dtype:
                    vals.append(a)
                elif t is BVar:
                    sym = True
                    vals.append(a)
                else:  # a bare number, replaced in a copy of args
                    if handles is None:
                        handles = list(args)
                    handles[len(vals)] = h = Num(_coerced(a, args))
                    vals.append(h.value)
            if sym:
                return record(*(handles or args))
            return Num(kernel(*vals))
        return wraps(record)(op)
    return wrap


def _ctx_of(*handles) -> TraceContext:
    for b in handles:
        if b.ctx is not None:
            return b.ctx


# ---------------------------------------------------------------------------
# emission primitives


def _operand_expr(b: Handle) -> Expr:
    """Embed a scalar handle as an expression operand."""
    return Ref(b.name) if b.sym else Lit(b.value)


def _elem_expr(b: Handle, k: int) -> Expr:
    """Element k (0-based) of a handle as an expression operand; a 1x1 one
    broadcasts, standing for every element."""
    if b.is_scalar:
        return _operand_expr(b)
    if not b.sym:
        return Lit(MatValue(b.value.dtype, 1, 1, (b.value.data[k],)))
    return ElemRef(b.name, k + 1)


def _def_scalar(ctx, expr: Expr, sig: MatValue) -> BVar:
    name = ctx.getunique()
    ctx.declare(name, sig.dtype, 1, 1)
    ctx.emit(Def(name, expr))
    return BVar(ctx, sig, name)


def _new_array(ctx, sig: MatValue, init: MatValue = None) -> BVar:
    name = ctx.getunique()
    ctx.declare(name, sig.dtype, sig.rows, sig.cols, init=init)
    return BVar(ctx, sig, name)


def _per_element(ctx, sig: MatValue, expr_at, order) -> BVar:
    """The symbolic result of sig's signature whose element k (0-based,
    column-major) is expr_at(k): one scalar definition when 1x1, else a
    fresh array stored element by element, visiting the linear indices in
    order."""
    if sig.is_scalar:
        return _def_scalar(ctx, expr_at(0), sig)
    res = _new_array(ctx, sig)
    for k in order:
        ctx.emit(SetElem(res.name, k + 1, expr_at(k)))
    return res


def _row_major(rows: int, cols: int) -> list:
    """The linear indices of a rows x cols matrix, row by row."""
    return [i + rows * j for i in range(rows) for j in range(cols)]


def _helper_call(ctx, fn: str, note: str, shape, operands, dims) -> BVar:
    """A runtime helper call writing a fresh f64 result of the given shape:
    the operands are passed by name and the dimensions as materialized
    doubles. The result is a zero of the shape; the helper computes its value."""
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
    """Declaration plus per-element literal stores, linear order: a concrete
    operand handed to a runtime helper."""
    out = _constant_decl(ctx, value)
    if value.is_scalar:
        ctx.emit(Store(out.name, Lit(value)))
    else:
        for k in range(value.size):
            ctx.emit(SetElem(out.name, k + 1, Lit(MatValue(value.dtype, 1, 1, (value.data[k],)))))
    return out


# binary op -> (operand, literal, what identity returns), first match wins
_IDENTITIES = {
    "add": ((0, 0, "b"), (1, 0, "a")),
    "sub": ((1, 0, "a"), (0, 0, "-b")),
    "mul": ((0, 1, "b"), (1, 1, "a"), (0, 0, "0"), (1, 0, "0")),
    "div": ((1, 1, "a"),),
}


def identity(op: str, a, b):
    """What op's result is, given the literal element value of operand a or b
    (None when unknown): "a" or "b" when that operand, "-b" when b negated,
    "0" when zero, else None. Only a non-bool literal equal to 0 or 1 counts,
    -0.0 as 0, also where IEEE disagrees (0*x for x inf, NaN or -0.0)."""
    for side, literal, result in _IDENTITIES.get(op, ()):
        x = b if side else a
        if x == literal and type(x) is not bool:
            return result
    return None


# ---------------------------------------------------------------------------
# overloaded operations


@_operation(mv.elem_binop)
def bv_binop(op: str, a, b) -> Handle:
    """The binary elem_kernel op element by element, a 1x1 operand
    broadcasting."""
    if a.dtype is not b.dtype:
        raise mv.DtypeMismatch("{} vs {}".format(a.dtype, b.dtype))
    shape = mv.broadcast_pair(a.value, b.value)
    mv.elem_kernel(op, a.dtype)  # raises for an op the dtype lacks
    zero = mv.zeros(mv.BOOL if op in mv.COMPARE else a.dtype, *shape)
    # identity on the whole value: a numeric operand that is 1x1, or all zeros
    # of the other's shape, is a literal; only a 1x1 one gives a zero result
    num, other = (b, a) if a.sym else (a, b)
    if not num.sym and (num.is_scalar or (num.shape == other.shape and not any(num.value.data))):
        lit = num.value.data[0]
        kind = identity(op, *((lit, None) if num is a else (None, lit)))
        if kind == "-b":
            return bv_neg(b)
        if kind in ("a", "b") or kind == "0" and num.is_scalar:
            return a if kind == "a" else b if kind == "b" else Num(zero)
    return _per_element(_ctx_of(a, b), zero,
                        lambda k: Op(op, (_elem_expr(a, k), _elem_expr(b, k))), _row_major(*shape))


@_operation(mv.neg)
def bv_neg(a) -> BVar:
    mv.elem_kernel("neg", a.dtype)  # raises for a bool
    return _per_element(a.ctx, mv.zeros(a.dtype, *a.shape),
                        lambda k: Op("neg", (_elem_expr(a, k),)), _row_major(*a.shape))


@_operation(mv.matmul)
def bv_matmul(a, b) -> Handle:
    if a.is_scalar or b.is_scalar:
        return bv_binop("mul", a, b)  # scalar * matrix scales elementwise
    rows, cols = mv.matmul_shape(a, b)
    ctx = _ctx_of(a, b)
    if rows * cols > UNROLL_LIMIT:
        return _helper_call(ctx, "mult", "Product of matrices resulting size {}>{}: calling "
                            "external function".format(rows * cols, UNROLL_LIMIT),
                            (rows, cols), (a, b), (a.rows, a.cols, b.rows, b.cols))
    zero = mv.zeros(a.dtype, rows, cols)

    def expr_at(k):
        # row i of a times column j of b
        i, j = k % a.rows, k // a.rows
        terms = [Op("mul", (_elem_expr(a, i + a.rows * m), _elem_expr(b, m + b.rows * j)))
                 for m in range(a.cols)]
        return reduce(lambda acc, term: Op("add", (acc, term)), terms)

    if zero.is_scalar:  # a row times a column stays a one-element array: the C goldens fix it
        res = _new_array(ctx, zero)
        ctx.emit(SetElem(res.name, 1, expr_at(0)))
        return res
    return _per_element(ctx, zero, expr_at, _row_major(rows, cols))


@_operation(mv.transpose)
def bv_transpose(a) -> BVar:
    if a.is_scalar:
        return a
    ctx = a.ctx
    if a.size > UNROLL_LIMIT:
        res = _helper_call(ctx, "quote", "Transpose of matrix of size {}>{}: calling external "
                           "function".format(a.size, UNROLL_LIMIT), (a.cols, a.rows), (a,),
                           (a.rows, a.cols))
        ctx.emit(Annot("End of Transpose"))
        return res
    # element (i, j) of the result is element (j, i) of a
    return _per_element(ctx, mv.zeros(a.dtype, a.cols, a.rows),
                        lambda k: _elem_expr(a, k // a.cols + a.rows * (k % a.cols)),
                        _row_major(a.cols, a.rows))


@_operation(mv.concat_rows)
def bv_concat_rows(a, b) -> Handle:
    if a.size == 0:
        return b
    if b.size == 0:
        return a
    rows, cols = mv.concat_shape(a, b, vertical=True)

    def expr_at(k):
        # column j of the result is column j of a over column j of b
        j, r = divmod(k, rows)
        if r < a.rows:
            return _elem_expr(a, r + a.rows * j)
        return _elem_expr(b, r - a.rows + b.rows * j)

    return _per_element(_ctx_of(a, b), mv.zeros(a.dtype, rows, cols), expr_at, range(rows * cols))


@_operation(mv.concat_cols)
def bv_concat_cols(a, b) -> Handle:
    if a.size == 0:
        return b
    if b.size == 0:
        return a
    zero, ctx = mv.zeros(a.dtype, *mv.concat_shape(a, b, vertical=False)), _ctx_of(a, b)
    ctx.emit(Annot("Begin concatr of {} with {}".format(a.name or "unknown", b.name or "unknown")))
    res = _per_element(ctx, zero,
                       lambda k: _elem_expr(a, k) if k < a.size else _elem_expr(b, k - a.size),
                       range(zero.size))
    ctx.emit(Annot("end concatr of {} with {}".format(a.name or "unknown", b.name or "unknown")))
    return res


def _concat(join, parts) -> Handle:
    """The parts joined left to right; a bare number adopts the dtype of
    what it is joined to, a leading one that of the first handle part."""
    out = parts[0] if isinstance(parts[0], Handle) else Num(_coerced(parts[0], parts))
    for p in parts[1:]:
        out = join(out, p)
    return out


def vertcat(*parts) -> Handle:
    return _concat(bv_concat_rows, parts)


def horzcat(*parts) -> Handle:
    return _concat(bv_concat_cols, parts)


def _linear_index(a: MatValue, i, j) -> int:
    """The 0-based linear index of 1-based element i (column-major) or (i, j),
    checked against a's shape."""
    if j is None:
        if not 1 <= i <= a.size:
            raise mv.ShapeMismatch("index {} out of {} elements".format(i, a.size))
        return i - 1
    if not (1 <= i <= a.rows and 1 <= j <= a.cols):
        raise mv.ShapeMismatch("index ({},{}) out of {}x{}".format(i, j, a.rows, a.cols))
    return (i - 1) + a.rows * (j - 1)


def bv_index_get(a: Handle, i, j=None) -> Handle:
    """1-based element read; linear indices are column-major."""
    v = a.value
    k = _linear_index(v, i, j)
    if a.sym:
        return _def_scalar(a.ctx, _elem_expr(a, k), mv.zeros(v.dtype, 1, 1))
    return Num(MatValue(v.dtype, 1, 1, (v.data[k],)))


def bv_index_set(a: Handle, i, j=None, *, rhs) -> Handle:
    """1-based element write; promotes a numeric target when rhs is symbolic."""
    if getattr(a, "held", False):
        raise HeldValue(a)
    rhs = _as_handle(rhs, like=a)
    if not rhs.is_scalar:
        raise mv.ShapeMismatch("element write needs a 1x1 rhs")
    k = _linear_index(a.value, i, j)
    if rhs.dtype != a.value.dtype:
        raise mv.DtypeMismatch("element write {} into {}".format(rhs.dtype, a.value.dtype))
    if rhs.sym or a.sym:
        ctx = _ctx_of(a, rhs)
        if not a.sym:
            # promote: a BVar of a fresh local initialized with the current value
            a.__class__, a.ctx, a.name = BVar, ctx, _constant_decl(ctx, a.value).name
        ctx.emit(SetElem(a.name, k + 1, _operand_expr(rhs)))
    else:
        a.value = a.value.set_linear(k, rhs.value.data[0])
    return a


def bv_datatype(a: Handle) -> Dtype:
    return a.dtype


@_operation(mv.convert)
def bv_convert(a, dtype: Dtype) -> BVar:
    if a.dtype is dtype:
        return a
    # pin the source's definition so the conversion point survives optimization
    a.ctx.pinned.add(a.name)
    return _per_element(a.ctx, mv.zeros(dtype, *a.shape),
                        lambda k: Cast(dtype, _elem_expr(a, k)), range(a.size))


@_operation(mv.sum_all)
def bv_sum(a) -> BVar:
    mv.elem_kernel("add", a.dtype)  # raises for a bool
    if a.is_scalar:
        return a
    acc = _elem_expr(a, 0)
    for k in range(1, a.size):
        acc = Op("add", (acc, _elem_expr(a, k)))
    return _def_scalar(a.ctx, acc, mv.zeros(a.dtype, 1, 1))


@_operation(mv.elem_math)
def bv_elem_math(fn: str, *args) -> BVar:
    if fn == "atan2" and args[0].shape != args[1].shape:
        raise mv.ShapeMismatch("atan2 args {} vs {}".format(args[0].shape, args[1].shape))
    for a in args:
        mv.elem_kernel(fn, a.dtype)  # raises unless every operand is f64
    return _per_element(_ctx_of(*args), mv.zeros(F64, *args[0].shape),
                        lambda k: Op(fn, tuple(_elem_expr(a, k) for a in args)),
                        range(args[0].size))


def sqrt(a):
    return bv_elem_math("sqrt", a)


def sin(a):
    return bv_elem_math("sin", a)


def cos(a):
    return bv_elem_math("cos", a)


def atan2(y, x):
    return bv_elem_math("atan2", y, x)


def bv_pow(a, n) -> Handle:
    a = _as_handle(a)
    if isinstance(n, Handle):
        if n.sym:
            raise SymbolicConditionError("exponent must be numeric")
        n = n.value.scalar()
    if n != int(n) or n < 0:
        raise TraceError("only nonnegative integer powers are supported")
    n = int(n)
    if not a.is_scalar:
        raise mv.ShapeMismatch("power of a non-scalar")
    if n == 0:
        return Num(mv.make(a.value.dtype, 1, 1, [1]))
    out = a
    for _ in range(n - 1):
        out = out * a
    return out


@_operation(mv.invert)
def bv_inv(a) -> BVar:
    if a.rows != a.cols:
        raise mv.NonSquare("Division by non square matrix not supported.")
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
        return bv_binop("div", out, det)
    if n > 8:
        raise TraceError("helper-call inverse limited to 8x8")
    return _helper_call(ctx, "matinv", "Inverse of matrix of size {}>2: calling external "
                        "function".format(n * n), (n, n), (a,), (n,))


@_operation(mv.divide)
def bv_div(a, b) -> Handle:
    """a / b: elementwise when b is 1x1, else a * inv(b) for square b."""
    if b.is_scalar:
        return bv_binop("div", a, b)
    if b.rows != b.cols:
        raise mv.NonSquare("Division by non square matrix not supported.")
    return bv_matmul(a, bv_inv(b))


def bvarempty(ctx: TraceContext, in_) -> Handle:
    """Fresh symbolic with in's dtype and shape; declared, never copied. A
    numeric source's value is the declaration's initializer, and with no
    session (a numeric run) a fresh Num of it."""
    b = _as_handle(in_)
    if ctx is None:
        return Num(b.value)
    return _new_array(ctx, b.value, init=None if b.sym else b.value)

