"""Post-trace cleanup of straight-line pseudo-code.

One pipeline: literal folding, one forward pass that inlines single-use
scalar definitions into their (sole) use site, and dead-code elimination.
Each instruction is walked once per body for the names it reads (in
expression slots, with counts, and in name slots) and writes; validation,
every pass and the pruning of declarations and statics reuse that record,
and inlining updates only its use site's.
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

from . import matval as mv
from .trace import (
    Call, CopyMat, Def, ElemRef, IfExpr, Lit, Ref, SetElem, Store, children,
    lower_expr, map_children, operand_fn,
)


class MalformedIR(Exception):
    pass


# ---------------------------------------------------------------------------
# expression rewriting


def _subst(e, name, replacement):
    if isinstance(e, Ref) and e.name == name:
        return replacement
    return map_children(e, lambda c: _subst(c, name, replacement))


def fold_expr(e):
    """e with every subtree whose operands are all literals evaluated to a
    literal, unless evaluating it fails (the failure then happens at run
    time, where it belongs)."""
    if isinstance(e, (Lit, Ref, ElemRef)):
        return e
    e = map_children(e, fold_expr)
    if all(isinstance(c, Lit) for c in children(e)):
        try:
            x, dtype = lower_expr(e, None)
            return Lit(mv.MatValue(dtype, 1, 1, (operand_fn(x)(None),)))
        except (mv.MatError, ValueError, OverflowError):
            pass
    return e


# ---------------------------------------------------------------------------
# per-instruction names


def _count_names(e, counts):
    """Add one to counts[name] for each time expression e reads name."""
    if isinstance(e, (Ref, ElemRef)):
        counts[e.name] = counts.get(e.name, 0) + 1
    else:
        for c in children(e):
            _count_names(c, counts)
    return counts


def _names_of(i):
    """The names one instruction touches: (expression-slot reads as
    name -> count, name-slot reads, writes)."""
    if isinstance(i, (Def, Store, SetElem)):
        return _count_names(i.expr, {}), (), (i.name,)
    if isinstance(i, CopyMat):
        return {}, (i.src,), (i.dst,)
    if isinstance(i, Call):
        return {}, i.args, i.args  # helper results / branch-visible buffers
    if isinstance(i, IfExpr):
        args = (*i.then_call.args, *i.else_call.args)
        return {}, (i.cond, *args), args
    return {}, (), ()


def _any_between(positions, lo, hi) -> bool:
    """Whether a sorted position list has an entry strictly inside (lo, hi)."""
    k = bisect_right(positions, lo)
    return k < len(positions) and positions[k] < hi


# ---------------------------------------------------------------------------
# passes


def _pass_fold(body):
    """Fold the literal subtrees of every expression; an instruction with
    nothing to fold is kept as the same object. Folding only evaluates
    name-free subtrees, so it leaves every instruction's names as they were."""
    out = []
    for i in body:
        if isinstance(i, (Def, Store, SetElem)):
            e = fold_expr(i.expr)
            if e is not i.expr:
                i = i._replace(expr=e)
        out.append(i)
    return out


def _pass_inline(body, names, nonlocals, pinned):
    """Fold each single-use scalar def into its use site, when safe; returns
    the new body and its names (see _names_of), one record per instruction.

    One forward pass over use positions counted once. A def is inlined when
    it is not pinned, its only use is in an expression slot, none of its
    operands is written between the def and the use, and, if it reads a
    param or static, no call or if lies between them (the callee may write
    it). Def names are unique, so a def's operands are defined before it:
    walking forward, each def sees its operands already inlined, and the
    positions recorded here stay valid for every def not yet visited. The
    use site's record takes the def's reads in place of the def's name."""
    uses = {}            # name -> (expression-slot reads, position of the last)
    keep = set(pinned)   # plus every name read from a name slot
    writes = {}          # name -> ascending positions of its writes
    barriers = []        # ascending positions of calls and ifs
    for pos, (instr, (counts, reads, written)) in enumerate(zip(body, names)):
        for name, n in counts.items():
            uses[name] = (uses[name][0] + n if name in uses else n, pos)
        keep.update(reads)
        if isinstance(instr, (Call, IfExpr)):
            barriers.append(pos)
        for name in written:
            writes.setdefault(name, []).append(pos)
    out, names = list(body), list(names)
    for pos, instr in enumerate(out):
        if not isinstance(instr, Def) or instr.name in keep:
            continue
        n, use = uses.get(instr.name, (0, pos))
        if n != 1 or use <= pos:
            continue
        refs = names[pos][0]
        if any(_any_between(writes.get(r, ()), pos, use) for r in refs):
            continue
        if not nonlocals.isdisjoint(refs) and _any_between(barriers, pos, use):
            continue
        target = out[use]
        out[use] = target._replace(expr=_subst(target.expr, instr.name, instr.expr))
        counts = names[use][0]
        del counts[instr.name]
        for r, k in refs.items():
            counts[r] = counts.get(r, 0) + k
        out[pos] = names[pos] = None
    return [i for i in out if i is not None], [r for r in names if r is not None]


def _pass_dce(body, names, locals_):
    """Drop definitions whose names are never read afterwards, transitively;
    returns the new body and its names.

    Only defs are removable: element stores and copies keep their targets
    alive even when nothing reads them (generated listings retain, e.g., the
    element stores of an otherwise-unused result array)."""
    live = set()
    out, kept = [], []
    for instr, rec in zip(reversed(body), reversed(names)):
        if isinstance(instr, Def):
            if instr.name not in live and instr.name in locals_:
                continue
            live.discard(instr.name)
        live.update(rec[0], rec[1])
        out.append(instr)
        kept.append(rec)
    out.reverse()
    kept.reverse()
    return out, kept


def _validate(names, known):
    for counts, reads, writes in names:
        for name in (*counts, *reads, *writes):
            if name not in known:
                raise MalformedIR("dangling reference to {!r}".format(name))


def optimize_body(body, decls, params, statics, pinned, optimize=True,
                  extra_names=()):
    """Optimize one straight-line instruction list and prune unused local
    declarations; returns the new body and every name it reads or writes.
    extra_names are free symbols accepted by validation only. With
    optimize=False the body is returned as recorded."""
    local_names = set(decls)
    nonlocals = set(params) | set(statics)
    names = [_names_of(i) for i in body]
    _validate(names, local_names | nonlocals | set(extra_names))
    out = list(body)
    if optimize:
        out = _pass_fold(out)
        out, names = _pass_inline(out, names, nonlocals, pinned)
        out, names = _pass_dce(out, names, local_names)
    used = set()
    for counts, reads, writes in names:
        used.update(counts, reads, writes)
    for name in list(decls):
        if name not in used:
            del decls[name]
    return out, used


def code_optimize(code, declarations, top_declarations, optimize=True,
                  params=(), extra_names=(), pinned=()):
    """Clean one instruction sequence: fold literals, inline single-use
    definitions, remove dead code and unused declarations.

    declarations is the local pool (name -> Decl), top_declarations the
    static pool; both are pruned to what the surviving code references.
    """
    decls = dict(declarations)
    body, used = optimize_body(list(code), decls, params, top_declarations, set(pinned),
                               optimize, extra_names=extra_names)
    top = {k: v for k, v in top_declarations.items() if k in used}
    return body, decls, top
