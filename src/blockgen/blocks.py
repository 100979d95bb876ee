"""The block library.

Each behavior is an ordinary function over a block record and a flag
(-1 init, 1 output update, 2 state update), written purely against the
operators and operations of trace's handles, one table for both kinds, so
the same code both simulates numerically, on numeric handles (Num) that
compute with matval directly and with no recording session (the record's
ctx is None), and traces symbolically, on bvars that record. The io and
state lists hold handles of either kind and wrap anything else written to
them as a Num; reading a symbolic scalar state emits its copy. Parameters
are always concrete values, evaluated once at generation time, and PARAMS
declares which each kind takes, so that parse_model checks them.
"""

from __future__ import annotations

from . import matval as mv
from .matval import F64
from .directives import put_annotation
from .trace import (
    Handle, TraceContext, _def_scalar, _operand_expr, atan2, bv_binop,
    bv_convert, bv_datatype, bv_sum, cos, numerics, sin, sqrt, vertcat, horzcat,
)


class BlockError(Exception):
    pass


class FlagPurityError(BlockError):
    pass


INIT, OUTPUT, STATE = -1, 1, 2


class IoList:
    """Block inputs then outputs, 1-based; index -1 is the last slot. It
    keeps the list of slots it is given; `written` tells whether a behavior
    assigned an output.

    A slot may be a zero-argument callable, the driver's stand-in, which the
    slot's first read calls and replaces by its result: a fresh zero for an
    output, an error for the input of a link not computed yet."""

    __slots__ = ("slots", "n_in", "written")

    def __init__(self, slots: list, n_in):
        self.slots = slots
        self.n_in = n_in
        self.written = False

    def _index(self, k):
        if k == -1:
            return len(self.slots) - 1
        if not 1 <= k <= len(self.slots):
            raise BlockError("io index {} out of 1..{}".format(k, len(self.slots)))
        return k - 1

    def __len__(self):
        return len(self.slots)

    def __getitem__(self, k) -> Handle:
        i = k - 1 if 0 < k <= len(self.slots) else self._index(k)
        v = self.slots[i]
        if callable(v):
            v = self.slots[i] = v()
        return v

    def __setitem__(self, k, v):
        i = k - 1 if 0 < k <= len(self.slots) else self._index(k)
        if i < self.n_in:
            raise BlockError("write to input slot {}".format(k))
        if not isinstance(v, Handle):
            v = numerics(v)
        self.slots[i] = v
        self.written = True


class StateList:
    """Block states, 1-based. Reading a symbolic scalar state emits a
    copy-definition; writes are collected for the driver to flush. It keeps
    the list of entries it is given."""

    __slots__ = ("entries", "ctx", "written")

    def __init__(self, entries: list, ctx: TraceContext = None):
        self.entries = entries
        self.ctx = ctx
        self.written = set()

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, k) -> Handle:
        e = self.entries[k - 1]
        if e.sym and e.is_scalar and self.ctx is not None:
            return _def_scalar(self.ctx, _operand_expr(e), e.value)
        return e

    def __setitem__(self, k, v):
        if not isinstance(v, Handle):
            v = numerics(v)
        self.entries[k - 1] = v
        self.written.add(k - 1)


class BlockRecord:
    """What a behavior sees of one block run; ctx is its recording session,
    None in a numeric run."""

    __slots__ = ("ctx", "io", "state", "params")

    def __init__(self, ctx: TraceContext, io: IoList, state: StateList, params: dict):
        self.ctx, self.io, self.state, self.params = ctx, io, state, params


BEHAVIORS = {}


def register_block(kind):
    def wrap(fn):
        BEHAVIORS[kind] = fn
        return fn
    return wrap


def behavior(kind):
    try:
        return BEHAVIORS[kind]
    except KeyError:
        raise BlockError("unknown block kind {!r}".format(kind))


# block kind -> (inputs, outputs, states); None means link-determined. An
# ifthenelse has no behavior: the drivers lower its region, never run it.
ARITY = {
    "unit_delay": (1, 1, 1),
    "gain": (1, 1, 0),
    "summation": (None, 1, 0),
    "mux": (None, 1, 0),
    "relational_op": (2, 1, 0),
    "const": (0, 1, 0),
    "select": (2, 1, 0),
    "ifthenelse": (1, 0, 0),
    "sciblk": (None, None, 0),
}

# block kind -> its parameters, name -> (required, kind): a "matrix" is a
# literal value, a "word" a bare name, and a collection of names a word that
# must be one of them. A sciblk passes any others on to its behavior; the
# driver adds select's active_branch.
PARAMS = {
    "unit_delay": {"init": (True, "matrix")},
    "gain": {"gain": (True, "matrix")},
    "summation": {"signs": (True, "matrix")},
    "mux": {},
    "relational_op": {"op": (True, ("eq", "ne", "lt", "le", "gt", "ge"))},
    "const": {"value": (True, "matrix")},
    "select": {},
    "ifthenelse": {},
    "sciblk": {"behavior": (True, BEHAVIORS)},
}


@register_block("unit_delay")
def unit_delay(blk: BlockRecord, flag: int):
    if flag == OUTPUT:
        blk.io[2] = blk.state[1]
    elif flag == STATE:
        blk.state[1] = blk.io[1]
    elif flag == INIT:
        u = blk.io[1]
        z = bv_convert(numerics(blk.params["init"]), bv_datatype(u))
        if z.size == 1 and u.size > 1:
            rows, cols = u.shape
            z = z * bv_convert(numerics(mv.ones(F64, rows, cols)), z.dtype)
        blk.state[1] = z


@register_block("gain")
def gain(blk: BlockRecord, flag: int):
    if flag == OUTPUT:
        put_annotation(blk.ctx, "Gain block begins.")
        u = blk.io[1]
        blk.io[2] = bv_convert(numerics(blk.params["gain"]), bv_datatype(u)) * u
        put_annotation(blk.ctx, "Gain block ends.")


@register_block("summation")
def summation(blk: BlockRecord, flag: int):
    if flag != OUTPUT:
        return
    nin = len(blk.io) - 1
    signs = blk.params["signs"].data
    put_annotation(blk.ctx, "Sum block begins with {} inputs.", nin)
    for sign in signs:
        if sign not in (1, -1):
            raise BlockError("wrong sign: {}".format(sign))
    if nin == 1:
        put_annotation(blk.ctx, "Using the sum function.")
        out = bv_sum(blk.io[1])
        out = -out if signs[0] == -1 else out
    else:
        out = -blk.io[1] if signs[0] == -1 else blk.io[1]
        for i in range(2, nin + 1):
            out = out - blk.io[i] if signs[i - 1] == -1 else out + blk.io[i]
    blk.io[-1] = out


@register_block("mux")
def mux(blk: BlockRecord, flag: int):
    if flag != OUTPUT:
        return
    nin = len(blk.io) - 1
    y = blk.io[1]
    put_annotation(blk.ctx, "MUX block begins with {} inputs.", nin)
    for i in range(2, nin + 1):
        y = vertcat(y, blk.io[i])
    blk.io[-1] = y
    put_annotation(blk.ctx, "MUX block ends.")


@register_block("relational_op")
def relational_op(blk: BlockRecord, flag: int):
    put_annotation(blk.ctx, "RELATIONALOP block starts")
    if flag == OUTPUT:
        out = bv_binop(blk.params["op"], blk.io[1], blk.io[2])
        blk.io[3] = bv_convert(out, bv_datatype(blk.io[3]))
    put_annotation(blk.ctx, "RELATIONALOP block ends")


@register_block("const")
def const(blk: BlockRecord, flag: int):
    if flag == OUTPUT:
        blk.io[1] = numerics(blk.params["value"])


@register_block("select")
def select(blk: BlockRecord, flag: int):
    if flag == OUTPUT:
        put_annotation(blk.ctx, "Selct block starts")
        put_annotation(blk.ctx, "Selct block ends")
        blk.io[-1] = blk.io[blk.params["active_branch"]]


@register_block("sciblk")
def sciblk(blk: BlockRecord, flag: int):
    fn = behavior(blk.params["behavior"])
    fn(blk, flag)


# ---------------------------------------------------------------------------
# user behaviors (registered through the same interface)


@register_block("ekf_range_bearing")
def ekf_range_bearing(blk: BlockRecord, flag: int):
    """Extended Kalman filter for planar object tracking.

    State [x; vx; y; vy]; measurements [range; bearing]. Inputs: the
    measurement, the delayed state estimate, the delayed covariance.
    Outputs: new state estimate, new covariance.
    """
    if flag != OUTPUT:
        return
    meas = blk.io[1]
    xhat = blk.io[2]
    P = blk.io[3]

    dt = 0.1
    Q = numerics(mv.diag([0.0, 0.1, 0.0, 0.1]))
    R = numerics(mv.diag([50.0 ** 2, 0.005 ** 2]))
    F = numerics(mv.from_rows([
        [1.0, dt, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, dt],
        [0.0, 0.0, 0.0, 1.0],
    ]))

    range_hat = sqrt(xhat[1] ** 2 + xhat[3] ** 2)
    bearing_hat = atan2(xhat[3], xhat[1])
    yhat = vertcat(range_hat, bearing_hat)
    H = vertcat(
        horzcat(cos(bearing_hat), 0.0, sin(bearing_hat), 0.0),
        horzcat(-sin(bearing_hat) / range_hat, 0.0, cos(bearing_hat) / range_hat, 0.0),
    )
    xhat = F * xhat
    P = F * P * F.T + Q
    K = (P * H.T) / (H * P * H.T + R)
    resid = meas - yhat
    xhat = xhat + K * resid
    n = K.shape[0]
    P = (numerics(mv.eye(n)) - K * H) * P

    blk.io[4] = xhat
    blk.io[5] = P
