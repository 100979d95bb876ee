"""Block behaviors run numerically, plus flag purity and init totality."""

import math
import random

import pytest

from blockgen import matval as mv
from blockgen.matval import BOOL, F64, I32
from blockgen import blocks as bl
from blockgen.blocks import BlockRecord, BlockError, IoList, StateList
from blockgen.trace import TraceContext, numerics

from conftest import random_matvalue


def make_block(kind, ins, n_out_shapes, params=None, states=()):
    outs = [numerics(mv.zeros(*shape)) for shape in n_out_shapes]
    io = IoList([numerics(v) for v in ins] + outs, len(ins))
    st = StateList([numerics(v) for v in states])
    return BlockRecord(TraceContext(), io, st, params or {})


def test_unit_delay_phases():
    blk = make_block("unit_delay", [mv.scalar(5.0)], [(F64, 1, 1)],
                     {"init": mv.scalar(3.0)}, states=[mv.scalar(0.0)])
    bl.unit_delay(blk, -1)
    assert blk.state[1].value.scalar() == 3.0
    bl.unit_delay(blk, 1)
    assert blk.io[2].value.scalar() == 3.0
    bl.unit_delay(blk, 2)
    assert blk.state[1].value.scalar() == 5.0


@pytest.mark.parametrize("k", [0, 3])
def test_state_index_outside_1_to_len_raises(k):
    # index 0 used to reach the last state through Python's index -1
    st = StateList([numerics(mv.scalar(1.0)), numerics(mv.scalar(2.0))])
    message = r"^state index {} out of 1\.\.2$".format(k)
    with pytest.raises(BlockError, match=message):
        st[k]
    with pytest.raises(BlockError, match=message):
        st[k] = mv.scalar(5.0)
    assert [e.value.scalar() for e in st.entries] == [1.0, 2.0]
    assert not st.written


def test_unit_delay_scalar_init_expands():
    blk = make_block("unit_delay", [mv.zeros(F64, 2, 2)], [(F64, 2, 2)],
                     {"init": mv.scalar(7.0)}, states=[mv.scalar(0.0)])
    bl.unit_delay(blk, -1)
    assert blk.state[1].value == mv.make(F64, 2, 2, [7.0] * 4)


def test_unit_delay_init_converts_dtype():
    blk = make_block("unit_delay", [mv.zeros(I32, 1, 1)], [(I32, 1, 1)],
                     {"init": mv.scalar(2.9)}, states=[mv.scalar(0.0)])
    bl.unit_delay(blk, -1)
    state = blk.state[1].value
    assert state.dtype == I32 and state.scalar() == 2


def test_init_totality():
    blk = make_block("unit_delay", [mv.zeros(F64, 3, 1)], [(F64, 3, 1)],
                     {"init": mv.scalar(0.0)}, states=[mv.scalar(0.0)])
    bl.unit_delay(blk, -1)
    assert not blk.state[1].sym


def test_gain_scalar_and_matrix():
    blk = make_block("gain", [mv.scalar(4.0)], [(F64, 1, 1)], {"gain": mv.scalar(1.0)})
    bl.gain(blk, 1)
    assert blk.io[2].value.scalar() == 4.0
    g = mv.from_rows([[1.0, 2.0], [3.0, 4.0]])
    blk = make_block("gain", [mv.from_rows([[1.0], [1.0]])], [(F64, 2, 1)], {"gain": g})
    bl.gain(blk, 1)
    assert list(blk.io[2].value.data) == [3.0, 7.0]


def test_gain_converts_parameter_to_io_dtype():
    blk = make_block("gain", [mv.make(I32, 1, 1, [5])], [(I32, 1, 1)],
                     {"gain": mv.scalar(2.0)})
    bl.gain(blk, 1)
    out = blk.io[2].value
    assert out.dtype == I32 and out.scalar() == 10


def test_summation_signs():
    blk = make_block("summation", [mv.scalar(5.0), mv.scalar(3.0)], [(F64, 1, 1)],
                     {"signs": mv.from_rows([[1, -1]])})
    bl.summation(blk, 1)
    assert blk.io[-1].value.scalar() == 2.0


def test_summation_single_input_sums_entries():
    blk = make_block("summation", [mv.from_rows([[1], [2], [3]])], [(F64, 1, 1)],
                     {"signs": mv.from_rows([[1]])})
    bl.summation(blk, 1)
    assert blk.io[-1].value.scalar() == 6.0
    blk = make_block("summation", [mv.from_rows([[1], [2], [3]])], [(F64, 1, 1)],
                     {"signs": mv.from_rows([[-1]])})
    bl.summation(blk, 1)
    assert blk.io[-1].value.scalar() == -6.0


def test_summation_rejects_bad_sign():
    blk = make_block("summation", [mv.scalar(1.0), mv.scalar(1.0)], [(F64, 1, 1)],
                     {"signs": mv.from_rows([[0, 1]])})
    with pytest.raises(BlockError, match="wrong sign: 0"):
        bl.summation(blk, 1)


def test_mux_concatenates_in_port_order():
    blk = make_block("mux", [mv.scalar(1.0), mv.from_rows([[2], [3]]), mv.scalar(4.0)],
                    [(F64, 4, 1)])
    bl.mux(blk, 1)
    assert list(blk.io[-1].value.data) == [1.0, 2.0, 3.0, 4.0]


def test_relational_op():
    blk = make_block("relational_op", [mv.make(I32, 1, 1, [3]), mv.make(I32, 1, 1, [3])],
                     [(I32, 1, 1)], {"op": "ne"})
    bl.relational_op(blk, 1)
    out = blk.io[3].value
    assert out.dtype == I32 and out.scalar() == 0
    blk = make_block("relational_op", [mv.make(I32, 1, 1, [1]), mv.make(I32, 1, 1, [3])],
                     [(BOOL, 1, 1)], {"op": "lt"})
    bl.relational_op(blk, 1)
    assert blk.io[3].value.scalar() is True


def test_const_and_select():
    blk = make_block("const", [], [(I32, 1, 1)], {"value": mv.make(I32, 1, 1, [9])})
    bl.const(blk, 1)
    assert blk.io[1].value.scalar() == 9
    blk = make_block("select", [mv.scalar(1.0), mv.scalar(2.0)], [(F64, 1, 1)],
                     {"active_branch": 2})
    bl.select(blk, 1)
    assert blk.io[-1].value.scalar() == 2.0


def test_io_write_to_input_rejected():
    blk = make_block("gain", [mv.scalar(1.0)], [(F64, 1, 1)], {"gain": mv.scalar(1.0)})
    with pytest.raises(BlockError):
        blk.io[1] = numerics(mv.scalar(0.0))


def test_flag_purity_output_phase():
    # flag 1 must not touch states, flag 2 must not touch outputs
    blk = make_block("unit_delay", [mv.scalar(1.0)], [(F64, 1, 1)],
                     {"init": mv.scalar(0.0)}, states=[mv.scalar(0.0)])
    bl.unit_delay(blk, 1)
    assert not blk.state.written
    assert blk.io.written
    blk = make_block("unit_delay", [mv.scalar(1.0)], [(F64, 1, 1)],
                     {"init": mv.scalar(0.0)}, states=[mv.scalar(0.0)])
    bl.unit_delay(blk, 2)
    assert blk.state.written and not blk.io.written


def test_unknown_kind():
    with pytest.raises(BlockError):
        bl.behavior("spaceship")


def test_sciblk_dispatches_registered_behavior():
    seen = []

    @bl.register_block("probe_behavior")
    def probe(blk, flag):
        seen.append(flag)

    blk = make_block("sciblk", [], [], {"behavior": "probe_behavior"})
    bl.sciblk(blk, 1)
    assert seen == [1]
    del bl.BEHAVIORS["probe_behavior"]


def test_sciblk_symbolic_branch_raises():
    from blockgen.trace import SymbolicConditionError, TraceContext, symbolics
    from blockgen.trace import bv_binop

    @bl.register_block("branchy")
    def branchy(blk, flag):
        if bv_binop("gt", blk.io[1], numerics(mv.scalar(0.0))):
            blk.io[2] = blk.io[1]

    try:
        ctx = TraceContext()
        io = IoList([symbolics(ctx, mv.scalar(0.0), "u"),
                     numerics(mv.scalar(0.0))], 1)
        blk = BlockRecord(ctx, io, StateList([]), {"behavior": "branchy"})
        with pytest.raises(SymbolicConditionError, match="tmp_"):
            bl.sciblk(blk, 1)
    finally:
        del bl.BEHAVIORS["branchy"]


def test_sciblk_numeric_behavior_emits_nothing():
    @bl.register_block("pure_numeric")
    def pure_numeric(blk, flag):
        blk.io[1] = numerics(mv.scalar(2.0)) * numerics(mv.scalar(3.0))

    try:
        from blockgen.trace import TraceContext
        ctx = TraceContext()
        blk = BlockRecord(ctx, IoList([numerics(mv.scalar(0.0))], 0),
                          StateList([]), {"behavior": "pure_numeric"})
        bl.sciblk(blk, 1)
        assert blk.io[1].value.scalar() == 6.0
        assert not ctx.module.body
    finally:
        del bl.BEHAVIORS["pure_numeric"]


def test_ekf_behavior_against_numpy_oracle():
    # independent oracle: numpy transcription of the filter equations
    import numpy as np

    rng = random.Random(9)
    xhat = np.array([-900.0, 80.0, 950.0, 20.0])
    P = np.zeros((4, 4))
    for step in range(5):
        meas = np.array([rng.uniform(1000, 1400), rng.uniform(-2.0, 2.0)])

        blk = make_block(
            "sciblk",
            [mv.from_rows([[meas[0]], [meas[1]]]),
             mv.from_rows([[v] for v in xhat]),
             mv.from_rows([list(row) for row in P])],
            [(F64, 4, 1), (F64, 4, 4)],
            {"behavior": "ekf_range_bearing"})
        bl.sciblk(blk, 1)

        dt = 0.1
        Q = np.diag([0, .1, 0, .1])
        R = np.diag([50 ** 2, 0.005 ** 2])
        F = np.array([[1, dt, 0, 0], [0, 1, 0, 0], [0, 0, 1, dt], [0, 0, 0, 1]])
        rangeHat = math.sqrt(xhat[0] ** 2 + xhat[2] ** 2)
        bearingHat = math.atan2(xhat[2], xhat[0])
        yhat = np.array([rangeHat, bearingHat])
        H = np.array([[math.cos(bearingHat), 0, math.sin(bearingHat), 0],
                      [-math.sin(bearingHat) / rangeHat, 0,
                       math.cos(bearingHat) / rangeHat, 0]])
        xpred = F @ xhat
        Ppred = F @ P @ F.T + Q
        K = Ppred @ H.T @ np.linalg.inv(H @ Ppred @ H.T + R)
        xhat = xpred + K @ (meas - yhat)
        P = (np.eye(4) - K @ H) @ Ppred

        got_x = np.array([blk.io[4].value.get(i, 0) for i in range(4)])
        got_P = np.array([[blk.io[5].value.get(i, j) for j in range(4)]
                          for i in range(4)])
        np.testing.assert_allclose(got_x, xhat, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(got_P, P, rtol=1e-9, atol=1e-9)
