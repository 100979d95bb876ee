"""Post-trace cleanup of straight-line pseudo-code.

One pipeline: the fold, one forward pass that inlines single-use scalar
definitions into their (sole) use site, and dead-code elimination.
Each instruction is walked once per body for the names it reads (in
expression slots, with counts, and in name slots) and writes, and whether
it has a literal; validation, every pass and the pruning of declarations
and statics reuse that record. The fold, the one per-element simplifier
(the tracer records elements unsimplified), visits only expressions with a
literal, the only ones it can change, and walks again what it changes: it
rewrites what trace.identity reduces (x+0, 0-x, 1*x, 0*x, ...), and
evaluates an all-literal operation with matval.elementwise, the operation a
Num runs in simulate, on the kernels the interpreter runs, so a folded
literal is the value both would compute. The inlining collapses the
def-per-operation trace into the compact expressions of the generated
listings, rebuilding each use site once with every def it takes; definitions
pinned by a dtype conversion, referenced from name slots (copies, calls, if
conditions) or used more than once always survive. There is no copy
propagation: the C compiler does that anyway. With optimize=False the trace
is only validated and its unused declarations pruned: it is printed as
recorded.
"""

from __future__ import annotations

from bisect import bisect_right

from . import matval as mv
from .trace import (
    Call, CopyMat, Def, ElemRef, IfExpr, Lit, Op, Ref, SetElem, Store, children,
    identity, map_children,
)


class MalformedIR(Exception):
    pass


# ---------------------------------------------------------------------------
# expression rewriting


def _expand(e, inlined: dict):
    """e with each Ref to a name in inlined replaced by that name's
    expression, itself expanded."""
    if type(e) is Ref:
        return _expand(inlined[e.name], inlined) if e.name in inlined else e
    return map_children(e, _expand, inlined)


def fold_expr(e):
    """e simplified bottom up: a subtree whose operands are all literals is
    evaluated to a literal, unless evaluating it fails (the failure then
    happens at run time, where it belongs); else a binary Op that
    trace.identity reduces becomes its operand, the operand's negation or a
    zero."""
    if type(e) in (Lit, Ref, ElemRef):
        return e
    e = map_children(e, fold_expr)
    args = children(e)
    lits = [c.value.data[0] if type(c) is Lit else None for c in args]
    if None not in lits:
        try:
            return Lit(mv.elementwise(e.op, *(c.value for c in args)))
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


def _count_names(e, counts) -> bool:
    """Add one to counts[name] for each time expression e reads name;
    whether e has a literal."""
    t = type(e)
    if t is Ref or t is ElemRef:
        counts[e.name] = counts.get(e.name, 0) + 1
        return False
    literal = t is Lit
    for c in children(e):
        literal = _count_names(c, counts) or literal
    return literal


def _names_of(i):
    """The names one instruction touches: (expression-slot reads as
    name -> count, name-slot reads, writes, whether its expression has a
    literal: the fold can change no other)."""
    t = type(i)
    if t is Def or t is Store or t is SetElem:
        counts = {}
        return counts, (), (i.name,), _count_names(i.expr, counts)
    if t is CopyMat:
        return {}, (i.src,), (i.dst,), False
    if t is Call:
        return {}, i.args, i.args, False  # helper results / branch-visible buffers
    if t is IfExpr:
        args = (*i.then_call.args, *i.else_call.args)
        return {}, (i.cond, *args), args, False
    return {}, (), (), False


def _any_between(positions, lo, hi) -> bool:
    """Whether a sorted position list has an entry strictly inside (lo, hi)."""
    k = bisect_right(positions, lo)
    return k < len(positions) and positions[k] < hi


# ---------------------------------------------------------------------------
# passes


def _pass_fold(body, names):
    """Fold every expression with a literal (see fold_expr); returns the new
    body and its names. An instruction with nothing to fold is kept as the
    same object with its record; only a changed one is walked again."""
    out, names = list(body), list(names)
    for pos, i in enumerate(body):
        if names[pos][3]:
            e = fold_expr(i.expr)
            if e is not i.expr:
                out[pos] = type(i)(*i[:-1], e)  # expr is the last field
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
    uses, last = {}, {}  # name -> expression-slot reads; the position of the last
    keep = set(pinned)   # plus every name read from a name slot
    writes = {}          # name -> ascending positions of its writes
    barriers = []        # ascending positions of calls and ifs
    for pos, (instr, (counts, reads, written, _)) in enumerate(zip(body, names)):
        for name, n in counts.items():
            uses[name] = uses.get(name, 0) + n
            last[name] = pos
        keep.update(reads)
        if type(instr) is Call or type(instr) is IfExpr:
            barriers.append(pos)
        for name in written:
            writes.setdefault(name, []).append(pos)
    out, names = list(body), list(names)
    inlined, sites = {}, set()  # def name -> its expression; the use positions
    for pos, instr in enumerate(body):
        if type(instr) is not Def or uses.get(instr.name) != 1 or instr.name in keep:
            continue
        use = last[instr.name]
        refs, _, _, literal = names[pos]
        if use <= pos or any(_any_between(writes[r], pos, use) for r in refs if r in writes):
            continue
        if barriers and not nonlocals.isdisjoint(refs) and _any_between(barriers, pos, use):
            continue
        inlined[instr.name] = instr.expr
        sites.add(use)
        counts = names[use][0]
        del counts[instr.name]
        for r, k in refs.items():
            counts[r] = counts.get(r, 0) + k
        names[use] = names[use][:3] + (literal or names[use][3],)
        out[pos] = names[pos] = None
    for use in sites:
        if out[use] is not None:
            out[use] = type(out[use])(*out[use][:-1], _expand(out[use].expr, inlined))
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
        if type(instr) is Def:
            if instr.name not in live and instr.name in locals_:
                continue
            live.discard(instr.name)
        live.update(rec[0], rec[1])
        out.append(instr)
        kept.append(rec)
    out.reverse()
    kept.reverse()
    return out, kept


def _validate(names, *known) -> set:
    """The names the records touch; raises on the first that no collection
    in known has."""
    seen = set()
    for counts, reads, writes, _ in names:
        seen.update(counts, reads, writes)
    dangling = seen.difference(*known)
    if dangling:
        name = next(n for c, r, w, _ in names for n in (*c, *r, *w) if n in dangling)
        raise MalformedIR("dangling reference to {!r}".format(name))
    return seen


def optimize_body(body, decls, params, statics, pinned, optimize=True,
                  extra_names=()):
    """Optimize one straight-line instruction list and prune unused local
    declarations; returns the new body and every name it reads or writes.
    extra_names are free symbols accepted by validation only. With
    optimize=False the body is returned as recorded."""
    nonlocals = set(params) | set(statics)
    names = [_names_of(i) for i in body]
    used = _validate(names, decls, nonlocals, extra_names)
    out = list(body)
    if optimize:
        out, names = _pass_fold(out, names)
        out, names = _pass_inline(out, names, nonlocals, pinned)
        out, names = _pass_dce(out, names, decls)
        used = _validate(names, decls, nonlocals, extra_names)  # the passes keep names known
    for name in list(decls):
        if name not in used:
            del decls[name]
    return out, used
