"""Post-trace cleanup of straight-line pseudo-code.

One pipeline: the fold, one forward pass that inlines single-use scalar
definitions into their (sole) use site, and dead-code elimination.
Each instruction is walked once per body for the names it reads (in
expression slots, with counts, and in name slots) and writes; validation,
every pass and the pruning of declarations and statics reuse that record;
the fold walks again only what it changes, inlining only its use site.
The fold is the one per-element simplifier (the tracer records elements
unsimplified): it rewrites what trace.identity reduces (x+0, 0-x, 1*x,
0*x, ...), and lowers an all-literal expression through trace.lower_expr,
the interpreter's own lowering, and calls it once, so a folded literal is
the value the interpreter would compute.
The inlining is what collapses the def-per-operation trace into the compact
expressions of the generated listings; definitions pinned by a dtype
conversion, referenced from name slots (copies, calls, if conditions) or
used more than once always survive. There is no copy propagation: the C
compiler does that anyway. With optimize=False the trace is only validated
and its unused declarations pruned: it is printed as recorded.
"""

from __future__ import annotations

from bisect import bisect_right

from . import matval as mv
from .trace import (
    Call, CopyMat, Def, ElemRef, IfExpr, Lit, Op, Ref, SetElem, Store, children,
    identity, lower_expr, map_children, operand_fn,
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
    """e simplified bottom up: a subtree whose operands are all literals is
    evaluated to a literal, unless evaluating it fails (the failure then
    happens at run time, where it belongs); else a binary Op that
    trace.identity reduces becomes its operand, the operand's negation or a
    zero."""
    if isinstance(e, (Lit, Ref, ElemRef)):
        return e
    e = map_children(e, fold_expr)
    args = children(e)
    lits = [c.value.data[0] if type(c) is Lit else None for c in args]
    if None not in lits:
        try:
            x, dtype = lower_expr(e, None)
            return Lit(mv.MatValue(dtype, 1, 1, (operand_fn(x)(None),)))
        except (mv.MatError, ValueError, OverflowError):
            pass
    elif len(lits) == 2 and lits != [None, None]:  # a binary Op with a literal
        kind = identity(e.op, *lits)
        a, b = args
        if kind == "0":
            return Lit(mv.zeros((a if type(a) is Lit else b).value.dtype, 1, 1))
        if kind is not None:
            return a if kind == "a" else b if kind == "b" else Op("neg", (b,))
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


def _pass_fold(body, names):
    """Fold every expression (see fold_expr); returns the new body and its
    names. An instruction with nothing to fold is kept as the same object
    with its record; only a changed one is walked again."""
    out, names = list(body), list(names)
    for pos, i in enumerate(body):
        if isinstance(i, (Def, Store, SetElem)):
            e = fold_expr(i.expr)
            if e is not i.expr:
                out[pos] = i._replace(expr=e)
                names[pos] = _names_of(out[pos])
    return out, names


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
        out, names = _pass_fold(out, names)
        out, names = _pass_inline(out, names, nonlocals, pinned)
        out, names = _pass_dce(out, names, local_names)
    used = set()
    for counts, reads, writes in names:
        used.update(counts, reads, writes)
    for name in list(decls):
        if name not in used:
            del decls[name]
    return out, used

