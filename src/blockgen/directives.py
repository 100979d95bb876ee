"""Code-generation directives: session lifecycle, function boundaries,
persistent pools, function arguments, constants and structural conditionals.

Block authors never see these; they are the vocabulary of the generation
driver (and of tests). The CamelCase script-style names StartFunction and
EndFunction are exported as aliases of start_function/end_function.
"""

from __future__ import annotations

from . import matval as mv
from . import optimizer
from . import cemit
from .trace import (
    BVar, Call, CallTarget, Cond, CopyMat, Decl, FunctionDef, Handle, IfExpr,
    NestedFunction, Program, Ref, Store, TraceContext,
    UnbalancedFunction, bv_compare, bvarcopy, bvarempty, expand,
    _as_handle, _as_matvalue, _copy_into, _operand_expr, _elem_expr, _per_element,
)


class UnknownName(Exception):
    pass


def codegen_init() -> TraceContext:
    """A fresh, empty recording session."""
    return TraceContext()


# ---------------------------------------------------------------------------
# function arguments


class IoSeq:
    """Ordered function arguments; insertion order is parameter order."""
    __slots__ = ("ctx", "entries")

    def __init__(self, ctx: TraceContext):
        self.ctx, self.entries = ctx, {}  # name -> BVar

    def __getattr__(self, name):
        entries = object.__getattribute__(self, "entries")
        if name in entries:
            return entries[name]
        raise AttributeError(name)


def inouts(ctx: TraceContext) -> IoSeq:
    return IoSeq(ctx)


def inouts_insert(io: IoSeq, name: str, v) -> IoSeq:
    """First insertion declares an argument; re-insertion copies into it."""
    if name in io.entries:
        _reinsert("argument", io.entries[name], v)
    else:
        io.ctx.claim_name(name)
        io.entries[name] = BVar(io.ctx, _as_matvalue(v), name)
    return io


def _reinsert(what: str, handle: BVar, v):
    """Copy v into the storage of an existing entry, whose shape and dtype
    it must have."""
    b = _as_handle(v)
    if b.shape != handle.shape:
        raise mv.ShapeMismatch("{} {}: {} vs {}".format(what, handle.name, b.shape, handle.shape))
    if b.dtype != handle.dtype:
        raise mv.DtypeMismatch("{} {}: {} vs {}".format(what, handle.name, b.dtype, handle.dtype))
    _copy_into(handle.ctx, handle.name, b)


def start_function(ctx: TraceContext, name: str, io: IoSeq):
    if ctx.open_depth:
        raise NestedFunction("a function is already open")
    ctx.push_function(name, io)


def end_function(ctx: TraceContext, name: str, io: IoSeq):
    ctx.pop_function(name)


StartFunction = start_function
EndFunction = end_function


# ---------------------------------------------------------------------------
# persistent variables


class PersistentPool:
    __slots__ = ("ctx", "entries")

    def __init__(self, ctx: TraceContext):
        self.ctx, self.entries = ctx, {}  # name -> BVar


def persistent_create(ctx: TraceContext) -> PersistentPool:
    return PersistentPool(ctx)


def persistent_insert(pool: PersistentPool, name: str, v) -> PersistentPool:
    """First insertion registers the default; later ones emit a copy."""
    if name in pool.entries:
        _reinsert("persistent", pool.entries[name], v)
    else:
        value = _as_matvalue(v)
        pool.ctx.register_static(name, value)
        pool.entries[name] = BVar(pool.ctx, value, name)
    return pool


def persistent_extract(pool: PersistentPool, name: str) -> BVar:
    if name not in pool.entries:
        raise UnknownName(name)
    handle = pool.entries[name]
    return BVar(pool.ctx, handle.value, name)


# ---------------------------------------------------------------------------
# constants and annotations


def constant(ctx: TraceContext, v, name: str) -> BVar:
    """Declare-and-initialize a local; returns the symbolic handle."""
    value = _as_matvalue(v)
    ctx.claim_name(name)
    ctx.declare(name, value.dtype, value.rows, value.cols, init=value)
    return BVar(ctx, value, name)


def put_annotation(ctx: TraceContext, text: str):
    ctx.annotate(text)


def code_insert(ctx: TraceContext, kind: str, *payload):
    if kind == "annotation":
        ctx.annotate(payload[0])
    elif kind == "if_expr":
        cond, f1, f2 = payload
        name = cond.name if isinstance(cond, BVar) else cond
        ctx.emit(IfExpr(name, f1, f2))
    elif kind == "ident":
        target = payload[0]
        ctx.emit(Call(target.fn, tuple(target.args)))
    else:
        raise ValueError("unknown code kind {!r}".format(kind))


# ---------------------------------------------------------------------------
# expression- and structure-level conditionals


def if_exp(ctx: TraceContext, cond, e1, e2) -> Handle:
    """Eager conditional select; both expressions are already evaluated."""
    cond = _as_handle(cond)
    e1, e2 = _as_handle(e1), _as_handle(e2)
    if not cond.is_scalar:
        raise mv.ShapeMismatch("condition must be 1x1")
    if e1.shape != e2.shape:
        raise mv.ShapeMismatch("branches {} vs {}".format(e1.shape, e2.shape))
    if e1.dtype != e2.dtype:
        raise mv.DtypeMismatch("branches {} vs {}".format(e1.dtype, e2.dtype))
    if not cond.sym:
        return e1 if cond.value.data[0] else e2
    nominal = e1.value if cond.value.data[0] else e2.value
    return _per_element(ctx, nominal,
                        lambda k: Cond(_operand_expr(cond), _elem_expr(e1, k), _elem_expr(e2, k)),
                        range(nominal.size))


def select_exp(ctx: TraceContext, selector, *choices) -> Handle:
    """1-based selection, lowered to a chain of if_exp equality tests."""
    selector = _as_handle(selector)
    if not choices:
        raise ValueError("select_exp needs at least one choice")
    if not selector.sym:
        k = int(selector.value.data[0])
        if not 1 <= k <= len(choices):
            raise IndexError("selector {} out of 1..{}".format(k, len(choices)))
        return _as_handle(choices[k - 1])
    out = _as_handle(choices[-1])
    for k in range(len(choices) - 1, 0, -1):
        test = bv_compare("eq", selector, k)
        out = if_exp(ctx, test, _as_handle(choices[k - 1]), out)
    return out


def if_cos(ctx: TraceContext, in_, f1: CallTarget, f2: CallTarget):
    """Structural conditional: a real if over two generated-function calls.

    Returns nothing; the branch targets write shared arguments or globals.
    """
    in_ = _as_handle(in_)
    if in_.sym:
        test = bv_compare("gt", in_, 0)
        code_insert(ctx, "if_expr", test, f1, f2)
    elif in_.value.data[0] > 0:
        code_insert(ctx, "ident", f1)
    else:
        code_insert(ctx, "ident", f2)


# ---------------------------------------------------------------------------
# finalize


def finalize_program(ctx: TraceContext, optimize: bool = True,
                     init_name: str = "initialize", meta: dict = None) -> Program:
    """Optimize every recorded function, drop unused statics, and build the
    initialize function that resets used persistents to their defaults."""
    if ctx.open_depth:
        raise UnbalancedFunction("a function is still open")
    known = set(ctx._names) | set(ctx.statics)
    referenced = set()
    for fn in ctx.functions:
        params = [p.name for p in fn.params]
        fn.body, names = optimizer.optimize_body(fn.body, fn.decls, params, ctx.statics,
                                                 ctx.pinned, optimize, extra_names=known)
        referenced |= names
    used = [s for s in ctx.statics.values() if s.name in referenced]
    init_fn = FunctionDef(init_name, [])
    for s in used:
        local = ctx.getunique()
        init_fn.decls[local] = Decl(local, s.dtype, s.rows, s.cols, s.init, static=True)
        init_fn.body.append(Store(s.name, Ref(local)) if s.is_scalar
                            else CopyMat(s.name, local, s.size))
    return Program(statics=used, init_fn=init_fn, functions=list(ctx.functions),
                   helpers=list(ctx.helpers_used), meta=meta)


def codegen_finalize(ctx: TraceContext, optimize: bool = True) -> str:
    """Optimizer plus printer: the full core text of the session."""
    return cemit.render_core(finalize_program(ctx, optimize))
