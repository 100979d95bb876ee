"""Optimizer passes: dead-code elimination, literal folding, single-use
inlining, and the semantic-preservation / idempotence / monotone-size
properties over randomized straight-line traces."""

import copy
import random

import pytest

from blockgen import matval as mv
from blockgen.matval import F64, I32
from blockgen.directives import codegen_init, finalize_program, inouts, inouts_insert, start_function, end_function
from blockgen.irinterp import Machine
from blockgen.optimizer import MalformedIR, _pass_fold, code_optimize
from blockgen import trace as tr
from blockgen.trace import (
    Annot, Bin, Call, CallTarget, CopyMat, Def, ElemRef, IfExpr, Lit, Ref, SetElem,
    Store, Un, numerics, symbolics,
)

from conftest import assert_close, load_model_text, random_matvalue


def test_unused_def_removed():
    ctx = codegen_init()
    x = symbolics(ctx, mv.scalar(0.0), "x")
    x + numerics(2.0)  # result never used
    body, decls, _ = code_optimize(ctx.module.body, ctx.module.decls, {},
                                   extra_names=ctx._names)
    assert body == [] and decls == {}


def test_transitively_dead_chain_removed():
    ctx = codegen_init()
    x = symbolics(ctx, mv.scalar(0.0), "x")
    t1 = x + numerics(2.0)
    t1 * numerics(mv.scalar(3.0))  # dead, and so transitively is t1
    body, decls, _ = code_optimize(ctx.module.body, ctx.module.decls, {},
                                   extra_names=ctx._names)
    assert body == [] and decls == {}


def test_literal_fold():
    body = [Def("t", Bin("+", Lit(mv.scalar(2.0)), Lit(mv.scalar(3.0)))),
            Store("out", Ref("t"))]
    decls = {"t": tr.Decl("t", F64, 1, 1)}
    out, decls2, _ = code_optimize(body, decls, {}, extra_names={"out", "t"})
    (store,) = out
    assert isinstance(store, Store) and store.expr == Lit(mv.scalar(5.0))


def test_single_use_def_inlines_into_store():
    ctx = codegen_init()
    a = symbolics(ctx, mv.scalar(0.0), "a")
    b = symbolics(ctx, mv.scalar(0.0), "b")
    ctx.register_static("link1", mv.scalar(0.0))
    out = a - b
    ctx.emit(Store("link1", Ref(out.name)))
    body, decls, _ = code_optimize(ctx.module.body, ctx.module.decls, ctx.statics,
                                   extra_names=ctx._names)
    (store,) = body
    assert store.expr == Bin("-", Ref("a"), Ref("b"))
    assert not decls


def test_multi_use_def_survives():
    ctx = codegen_init()
    a = symbolics(ctx, mv.scalar(0.0), "a")
    ctx.register_static("o1", mv.scalar(0.0))
    ctx.register_static("o2", mv.scalar(0.0))
    t = a + numerics(2.0)
    ctx.emit(Store("o1", Ref(t.name)))
    ctx.emit(Store("o2", Ref(t.name)))
    body, decls, _ = code_optimize(ctx.module.body, ctx.module.decls, ctx.statics,
                                   extra_names=ctx._names)
    assert any(isinstance(i, Def) and i.name == t.name for i in body)


def test_pinned_def_not_inlined():
    ctx = codegen_init()
    a = symbolics(ctx, mv.scalar(0.0), "a")
    ctx.register_static("o1", mv.scalar(0.0))
    t = a + numerics(2.0)
    ctx.pinned.add(t.name)
    ctx.emit(Store("o1", Ref(t.name)))
    body, _, _ = code_optimize(ctx.module.body, ctx.module.decls, ctx.statics,
                               extra_names=ctx._names, pinned=ctx.pinned)
    assert any(isinstance(i, Def) and i.name == t.name for i in body)


def test_inline_blocked_by_intervening_write():
    # t captures s; s is overwritten before t's only use, so t must stay
    body = [
        Def("t", Bin("+", Ref("s"), Lit(mv.scalar(1.0)))),
        Store("s", Lit(mv.scalar(9.0))),
        Store("out", Ref("t")),
    ]
    decls = {"t": tr.Decl("t", F64, 1, 1)}
    statics = {"s": tr.Decl("s", F64, 1, 1, mv.scalar(0.0), static=True),
               "out": tr.Decl("out", F64, 1, 1, mv.scalar(0.0), static=True)}
    out, _, _ = code_optimize(body, decls, statics)
    assert any(isinstance(i, Def) and i.name == "t" for i in out)


def test_annotations_preserved_and_not_counted_as_uses():
    ctx = codegen_init()
    x = symbolics(ctx, mv.scalar(0.0), "x")
    ctx.emit(tr.Annot("Gain block begins."))
    x + numerics(1.0)  # dead
    ctx.emit(tr.Annot("Gain block ends."))
    body, _, _ = code_optimize(ctx.module.body, ctx.module.decls, {},
                               extra_names=ctx._names)
    assert [i.text for i in body] == ["Gain block begins.", "Gain block ends."]


def test_unused_static_pruned_by_code_optimize():
    statics = {"dead": tr.Decl("dead", F64, 1, 1, mv.scalar(0.0), static=True),
               "live": tr.Decl("live", F64, 1, 1, mv.scalar(0.0), static=True)}
    body = [Store("live", Lit(mv.scalar(1.0)))]
    _, _, top = code_optimize(body, {}, statics)
    assert list(top) == ["live"]


def test_malformed_ir_rejected():
    with pytest.raises(MalformedIR):
        code_optimize([Store("ghost", Lit(mv.scalar(1.0)))], {}, {})


def _scalar_statics(*names):
    return {n: tr.Decl(n, F64, 1, 1, mv.scalar(0.0), static=True) for n in names}


@pytest.mark.parametrize("between, inlined", [
    (Call("helper", ("u",)), False),
    (IfExpr("c", CallTarget("f1", ("u",)), CallTarget("f2", ("u",))), False),
    (Store("u", Lit(mv.scalar(9.0))), True),
], ids=["call", "if", "store"])
def test_static_read_crosses_no_call_or_if(between, inlined):
    # the callee may write the static s although the call names only u
    body = [Def("t", Bin("+", Ref("s"), Lit(mv.scalar(1.0)))),
            between,
            Store("out", Ref("t"))]
    decls = {"t": tr.Decl("t", F64, 1, 1)}
    out, _, _ = code_optimize(body, decls, _scalar_statics("s", "u", "c", "out"))
    if inlined:
        assert out == [between, Store("out", body[0].expr)]
    else:
        assert out == body


def test_single_use_chain_collapses_into_store():
    a, b = Ref("a"), Ref("b")
    body = [Def("t1", Bin("+", a, b)),
            Def("t2", Bin("*", Ref("t1"), a)),
            Def("t3", Un("-", Ref("t2"))),
            Store("out", Bin("-", Ref("t3"), b))]
    decls = {n: tr.Decl(n, F64, 1, 1) for n in ("t1", "t2", "t3")}
    out, decls2, _ = code_optimize(body, decls, _scalar_statics("a", "b", "out"))
    assert out == [Store("out", Bin("-", Un("-", Bin("*", Bin("+", a, b), a)), b))]
    assert decls2 == {}


def test_optimize_false_returns_recorded_body():
    ctx = codegen_init()
    x = symbolics(ctx, mv.scalar(0.0), "x")
    ctx.register_static("o", mv.scalar(0.0))
    x + numerics(2.0)  # dead
    t = (x * numerics(3.0)) + numerics(1.0)  # single-use chain
    ctx.emit(Store("o", Ref(t.name)))
    ctx.emit(Annot("end"))
    recorded = list(ctx.module.body)
    body, decls, top = code_optimize(ctx.module.body, ctx.module.decls, ctx.statics,
                                     optimize=False, extra_names=ctx._names)
    assert body == recorded
    assert set(decls) == set(ctx.module.decls) and list(top) == ["o"]


# ---------------------------------------------------------------------------
# randomized properties (the full-size runs live in the acceptance suite)


def build_random_trace(rng: random.Random, n_ops=8):
    """A random straight-line session writing its results to statics."""
    ctx = codegen_init()
    io = inouts(ctx)
    inputs = []
    for k in range(2):
        name = "a{}".format(k + 1)
        template = random_matvalue(rng, F64, rng.randint(1, 2), rng.randint(1, 2))
        inouts_insert(io, name, mv.zeros(F64, template.rows, template.cols))
        inputs.append(template)
    ctx.register_static("acc", mv.scalar(0.0))
    start_function(ctx, "f", io)
    vals = [io.entries["a1"], io.entries["a2"]]
    for _ in range(n_ops):
        pick = rng.randrange(5)
        a = vals[rng.randrange(len(vals))]
        b = vals[rng.randrange(len(vals))]
        try:
            if pick == 0:
                vals.append(a + b)
            elif pick == 1:
                vals.append(a - b)
            elif pick == 2:
                vals.append(tr.el_mul(a, b))
            elif pick == 3:
                vals.append(-a)
            else:
                vals.append(tr.bv_sum(a))
        except mv.MatError:
            continue
    total = tr.bv_sum(vals[-1])
    for v in vals[2:-1]:
        if rng.random() < 0.4:
            total = total + tr.bv_sum(v)
    ctx.emit(Store("acc", tr._operand_expr(total)))
    end_function(ctx, "f", io)
    return ctx, inputs


def run_program(program, inputs):
    machine = Machine(program)
    machine.run_init()
    machine.run_function("f", list(inputs))
    return machine.statics["acc"]


def test_semantic_preservation_and_idempotence_random():
    rng = random.Random(71)
    for trial in range(40):
        ctx, templates = build_random_trace(rng)
        raw_len = len(ctx.functions[0].body)
        raw = finalize_program_copy(ctx, optimize=False)
        opt = finalize_program_copy(ctx)
        opt2 = finalize_program_copy(ctx)
        assert len(opt.functions[0].body) <= raw_len
        assert [repr(i) for i in opt.functions[0].body] == \
            [repr(i) for i in opt2.functions[0].body]
        inputs = [random_matvalue(rng, F64, t.rows, t.cols) for t in templates]
        assert run_program(raw, inputs).data == run_program(opt, inputs).data


def finalize_program_copy(ctx, optimize=True):
    return finalize_program(copy.deepcopy(ctx), optimize)


def test_deep_copied_context_finalizes_identically():
    # the copy keeps the interned dtypes, so dtype checks by identity in
    # the optimizer and the printer see the same types as in the original
    from blockgen.cemit import render_core
    rng = random.Random(72)
    for trial in range(10):
        ctx, _ = build_random_trace(rng)
        copied = finalize_program_copy(ctx)
        original = finalize_program(ctx)
        assert [repr(i) for i in copied.functions[0].body] == \
            [repr(i) for i in original.functions[0].body]
        assert render_core(copied) == render_core(original)
        assert all(s.dtype is F64 for s in copied.statics)


# ---------------------------------------------------------------------------
# the names each pass reuses stay those of the surviving code


def _walked_names(body):
    """Every name a body reads or writes, found by a walk of its own: the
    expressions through their record fields, not the optimizer's helpers."""
    names = set()

    def walk(e):
        if isinstance(e, (Ref, ElemRef)):
            names.add(e.name)
        for value in e:  # a record is the tuple of its fields; CallFn.args a bare tuple
            for part in value if type(value) is tuple else (value,):
                if isinstance(part, tr.Expr):
                    walk(part)

    for i in body:
        if isinstance(i, (Def, Store, SetElem)):
            names.add(i.name)
            walk(i.expr)
        elif isinstance(i, CopyMat):
            names.update((i.dst, i.src))
        elif isinstance(i, Call):
            names.update(i.args)
        elif isinstance(i, IfExpr):
            names.update((i.cond, *i.then_call.args, *i.else_call.args))
    return names


def _assert_pruned_to_walk(program, static_names):
    """Each function keeps exactly the locals its body names, and the
    program exactly the statics some function body names."""
    walked = set()
    for fn in program.functions:
        names = _walked_names(fn.body)
        walked |= names
        assert set(fn.decls) == names - {p.name for p in fn.params} - static_names, fn.name
    assert {s.name for s in program.statics} == walked & static_names


@pytest.mark.parametrize("optimize", [True, False], ids=["opt", "raw"])
@pytest.mark.parametrize("fixture", ["chain40", "coding", "kalman", "twodelays"])
def test_fixture_decls_and_statics_match_a_fresh_walk(fixture, optimize):
    from blockgen import model as md
    result = md.generate(md.parse_model(load_model_text(fixture + ".model")),
                         optimize=optimize)
    _assert_pruned_to_walk(result.program, set(result.context.statics))


@pytest.mark.parametrize("optimize", [True, False], ids=["opt", "raw"])
def test_random_decls_and_statics_match_a_fresh_walk(optimize):
    rng = random.Random(73)
    for trial in range(100):
        ctx, _ = build_random_trace(rng)
        _assert_pruned_to_walk(finalize_program_copy(ctx, optimize), set(ctx.statics))


def test_fold_keeps_instructions_without_a_foldable_literal():
    one = Lit(mv.scalar(1.0))
    body = [Def("t", Bin("+", Ref("a"), one)),
            Store("out", Un("-", Ref("t"))),
            SetElem("m", 2, Bin("*", ElemRef("m", 1), one)),
            CopyMat("n", "m", 4),
            Call("helper", ("m", "n")),
            Annot("end")]
    out = _pass_fold(body)
    assert len(out) == len(body) and all(x is y for x, y in zip(out, body))


@pytest.mark.parametrize("optimize", [True, False], ids=["opt", "raw"])
@pytest.mark.parametrize("instr", [
    Call("helper", ("u", "ghost")),
    CopyMat("m", "ghost", 2),
    IfExpr("ghost", CallTarget("f1", ("u",)), CallTarget("f2", ("u",))),
], ids=["call-arg", "copy-source", "if-condition"])
def test_dangling_name_slot_rejected(instr, optimize):
    statics = {**_scalar_statics("u"),
               "m": tr.Decl("m", F64, 2, 1, mv.zeros(F64, 2, 1), static=True)}
    with pytest.raises(MalformedIR, match="ghost"):
        code_optimize([instr], {}, statics, optimize=optimize)
