"""Post-trace cleanup of straight-line pseudo-code.

One pipeline: literal folding, one forward pass that inlines single-use
scalar definitions into their (sole) use site, and dead-code elimination.
Folding lowers an all-literal expression through trace.lower_expr, the
interpreter's own lowering, and calls it once, so a folded literal is the
value the interpreter would compute.
The inlining is what collapses the def-per-operation trace into the compact
expressions of the generated listings; definitions pinned by a dtype
conversion, referenced from name slots (copies, calls, if conditions) or
used more than once always survive. There is no copy propagation: the C
compiler does that anyway. With optimize=False the trace is only validated
and its unused declarations pruned.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import replace

from . import matval as mv
from .trace import (
    Call, CopyMat, Def, ElemRef, IfExpr, Lit, Ref, SetElem, Store, children,
    expr_refs, lower_expr, map_children,
)


class MalformedIR(Exception):
    pass


# ---------------------------------------------------------------------------
# expression rewriting


def _subst(e, name, replacement):
    if isinstance(e, Ref) and e.name == name:
        return replacement
    return map_children(e, lambda c: _subst(c, name, replacement))


def _ref_names(e):
    """Every name an expression reads, once per occurrence."""
    if isinstance(e, (Ref, ElemRef)):
        yield e.name
    for c in children(e):
        yield from _ref_names(c)


def fold_expr(e):
    """e with every subtree whose operands are all literals evaluated to a
    literal, unless evaluating it fails (the failure then happens at run
    time, where it belongs)."""
    if isinstance(e, (Lit, Ref, ElemRef)):
        return e
    e = map_children(e, fold_expr)
    if all(isinstance(c, Lit) for c in children(e)):
        try:
            fn, dtype = lower_expr(e, None)
            return Lit(mv.MatValue(dtype, 1, 1, (fn(None),)))
        except (mv.MatError, ValueError, OverflowError):
            pass
    return e


# ---------------------------------------------------------------------------
# instruction helpers


def _instr_exprs(i):
    return [i.expr] if isinstance(i, (Def, Store, SetElem)) else []


def _instr_reads(i) -> set:
    out = set()
    for e in _instr_exprs(i):
        out |= expr_refs(e)
    if isinstance(i, CopyMat):
        out.add(i.src)
    if isinstance(i, Call):
        out.update(i.args)
    if isinstance(i, IfExpr):
        out.add(i.cond)
        out.update(i.then_call.args)
        out.update(i.else_call.args)
    return out


def _instr_writes(i) -> set:
    if isinstance(i, (Def, Store, SetElem)):
        return {i.name}
    if isinstance(i, CopyMat):
        return {i.dst}
    if isinstance(i, Call):
        return set(i.args)  # helper results / branch-visible buffers
    if isinstance(i, IfExpr):
        return set(i.then_call.args) | set(i.else_call.args)
    return set()


def _any_between(positions, lo, hi) -> bool:
    """Whether a sorted position list has an entry strictly inside (lo, hi)."""
    k = bisect_right(positions, lo)
    return k < len(positions) and positions[k] < hi


def referenced(instrs) -> set:
    """Every name the instructions read or write."""
    out = set()
    for instr in instrs:
        out |= _instr_reads(instr) | _instr_writes(instr)
    return out


# ---------------------------------------------------------------------------
# passes


def _pass_fold(body):
    return [replace(i, expr=fold_expr(i.expr)) if isinstance(i, (Def, Store, SetElem)) else i
            for i in body]


def _pass_inline(body, nonlocals, pinned):
    """Fold each single-use scalar def into its use site, when safe.

    One forward pass over use positions counted once. A def is inlined when
    it is not pinned, its only use is in an expression slot, none of its
    operands is written between the def and the use, and, if it reads a
    param or static, no call or if lies between them (the callee may write
    it). Def names are unique, so a def's operands are defined before it:
    walking forward, each def sees its operands already inlined, and the
    positions recorded here stay valid for every def not yet visited."""
    uses = {}            # name -> positions of its expression-slot reads
    keep = set(pinned)   # plus every name read from a name slot
    writes = {}          # name -> ascending positions of its writes
    barriers = []        # ascending positions of calls and ifs
    for pos, instr in enumerate(body):
        for e in _instr_exprs(instr):
            for name in _ref_names(e):
                uses.setdefault(name, []).append(pos)
        if isinstance(instr, (CopyMat, Call, IfExpr)):
            keep |= _instr_reads(instr)
        if isinstance(instr, (Call, IfExpr)):
            barriers.append(pos)
        for name in _instr_writes(instr):
            writes.setdefault(name, []).append(pos)
    out = list(body)
    for pos, instr in enumerate(out):
        if not isinstance(instr, Def) or instr.name in keep:
            continue
        at = uses.get(instr.name, ())
        if len(at) != 1 or at[0] <= pos:
            continue
        use = at[0]
        refs = expr_refs(instr.expr)
        if any(_any_between(writes.get(r, ()), pos, use) for r in refs):
            continue
        if refs & nonlocals and _any_between(barriers, pos, use):
            continue
        target = out[use]
        out[use] = replace(target, expr=_subst(target.expr, instr.name, instr.expr))
        out[pos] = None
    return [i for i in out if i is not None]


def _pass_dce(body, locals_):
    """Drop definitions whose names are never read afterwards, transitively.

    Only defs are removable: element stores and copies keep their targets
    alive even when nothing reads them (generated listings retain, e.g., the
    element stores of an otherwise-unused result array)."""
    live = set()
    out = []
    for instr in reversed(body):
        keep = True
        if isinstance(instr, Def):
            keep = instr.name in live or instr.name not in locals_
            if keep:
                live.discard(instr.name)
        if keep:
            live |= _instr_reads(instr)
            out.append(instr)
    out.reverse()
    return out


def _validate(body, known):
    for instr in body:
        for name in _instr_reads(instr) | _instr_writes(instr):
            if name not in known:
                raise MalformedIR("dangling reference to {!r}".format(name))


def optimize_body(body, decls, params, statics, pinned, optimize=True,
                  extra_names=()):
    """Optimize one straight-line instruction list; returns the new body and
    prunes unused local declarations. extra_names are free symbols accepted
    by validation only. With optimize=False the body is returned as recorded."""
    local_names = set(decls)
    nonlocals = set(params) | set(statics)
    _validate(body, local_names | nonlocals | set(extra_names))
    out = list(body)
    if optimize:
        out = _pass_fold(out)
        out = _pass_inline(out, nonlocals, pinned)
        out = _pass_dce(out, local_names)
    used = referenced(out)
    for name in list(decls):
        if name not in used:
            del decls[name]
    return out


def code_optimize(code, declarations, top_declarations, optimize=True,
                  params=(), extra_names=(), pinned=()):
    """Clean one instruction sequence: fold literals, inline single-use
    definitions, remove dead code and unused declarations.

    declarations is the local pool (name -> Decl), top_declarations the
    static pool; both are pruned to what the surviving code references.
    """
    decls = dict(declarations)
    body = optimize_body(list(code), decls, params, top_declarations, set(pinned),
                         optimize, extra_names=extra_names)
    used = referenced(body)
    top = {k: v for k, v in top_declarations.items() if k in used}
    return body, decls, top
