"""Code-generation directives: the recording session, function arguments,
annotations, the structural conditional and finalization.

Block authors never see these but put_annotation; they are the vocabulary of
the generation driver (and of tests). A function is opened and closed on the
session itself (TraceContext.push_function/pop_function), and a program
static is registered on it (TraceContext.register_static).
"""

from __future__ import annotations

from . import matval as mv
from . import optimizer
from .trace import (
    Annot, BVar, Call, CallTarget, CopyMat, Decl, FunctionDef, IfExpr, Program, Ref, Store,
    TraceContext, UnbalancedFunction, bv_binop, session, _as_handle, _copy_into,
)


def codegen_init() -> TraceContext:
    """A fresh, empty recording session."""
    return TraceContext()


# ---------------------------------------------------------------------------
# function arguments


class IoSeq:
    """Ordered function arguments, in parameter order; a numeric run's has no ctx."""
    __slots__ = ("ctx", "entries")

    def __init__(self, ctx: TraceContext):
        self.ctx, self.entries = ctx, {}  # name -> its handle


def inouts(ctx: TraceContext) -> IoSeq:
    return IoSeq(session(ctx, "inouts"))


def inouts_insert(io: IoSeq, name: str, v) -> IoSeq:
    """First insertion declares an argument; re-insertion copies v into it,
    whose shape and dtype v must have. A session-less IoSeq (a numeric run's)
    holds handles: the argument is v itself, checked the same way."""
    ctx, b = io.ctx, _as_handle(v)
    if name in io.entries:
        arg = io.entries[name].value
        if b.value.rows != arg.rows or b.value.cols != arg.cols:
            raise mv.ShapeMismatch("argument {}: {} vs {}".format(name, b.shape, arg.shape))
        if b.value.dtype is not arg.dtype:
            raise mv.DtypeMismatch("argument {}: {} vs {}".format(name, b.dtype, arg.dtype))
        if ctx is not None:
            _copy_into(ctx, name, b)
            return io
    elif ctx is not None:
        ctx.claim_name(name)
        b = BVar(ctx, b.value, name)
    io.entries[name] = b
    return io


# ---------------------------------------------------------------------------
# annotations and the structural conditional


def put_annotation(ctx: TraceContext, text: str, *args):
    """Record a comment, text formatted with args; a numeric run, which has
    no session, drops it unbuilt."""
    if ctx is not None:
        ctx.emit(Annot(text.format(*args) if args else text))


def if_cos(ctx: TraceContext, in_, f1: CallTarget, f2: CallTarget):
    """Structural conditional: a real if over two generated-function calls,
    taking f1 when in_ > 0, or the one call a numeric in_ selects.

    Returns nothing; the branch targets write shared arguments or globals.
    """
    ctx, in_ = session(ctx, "if_cos"), _as_handle(in_)
    if in_.sym:
        test = bv_binop("gt", in_, 0)
        ctx.emit(IfExpr(test.name, f1, f2))
    else:
        target = f1 if in_.value.data[0] > 0 else f2
        ctx.emit(Call(target.fn, tuple(target.args)))


# ---------------------------------------------------------------------------
# finalize


def finalize_program(ctx: TraceContext, optimize: bool = True,
                     init_name: str = "initialize", meta: dict = None) -> Program:
    """Optimize every recorded function, drop unused statics, and build the
    initialize function that resets used persistents to their defaults."""
    if ctx.open_depth:
        raise UnbalancedFunction("a function is still open")
    referenced = set()
    for fn in ctx.functions:
        params = [p.name for p in fn.params]
        fn.body, names = optimizer.optimize_body(fn.body, fn.decls, params, ctx.statics,
                                                 ctx.pinned, optimize, extra_names=ctx._names)
        referenced |= names
    used = [s for s in ctx.statics.values() if s.name in referenced]
    init_fn = FunctionDef(init_name, [])
    for s in used:
        local = ctx.getunique()
        init_fn.decls[local] = Decl(local, s.dtype, s.rows, s.cols, s.init, True)
        init_fn.body.append(Store(s.name, Ref(local)) if s.is_scalar
                            else CopyMat(s.name, local, s.size))
    return Program(statics=used, init_fn=init_fn, functions=list(ctx.functions),
                   helpers=list(ctx.helpers_used), meta=meta)
