"""Reference executor for finalized programs.

Runs the same optimized pseudo-code the C emitter prints. Each function is
lowered once, on its first call: its names are resolved into a table of frame
index, dtype and element count, and Machine._exec lowers each instruction over
a frame, one flat element list per name (the statics' buffers, the caller's
for the params, fresh copies of the locals). A scalar store becomes a row
(i, k, operand) writing element k of frame entry i: a copy of a cell, a
constant, or a store of its expression lowered by trace.lower_expr, converted
as a C assignment does. Each run of consecutive rows of one of these three
kinds is one step, that kind's loop; any other instruction is its own step.
Checks that depend only on the program (names, dtypes, sizes, arity, element
indexes) run at lowering time, before any step. It is the in-process stand-in
for "compile the generated C and run it" and the oracle of validate.
"""

from __future__ import annotations

from functools import partial
from itertools import groupby
from operator import itemgetter

from . import matval as mv
from .matval import MatValue
from .trace import Annot, Call, CopyMat, Def, IfExpr, Program, SetElem, Store, kernel_fn, lower_expr


class InterpError(Exception):
    pass


class UnboundName(InterpError):
    pass


def _check(want, got, what, *args):
    """Raise unless got (a value or declaration) has want's dtype and shape,
    which the lowered code assumes, naming got by what.format(*args)."""
    if (got.dtype, got.rows, got.cols) != (want.dtype, want.rows, want.cols):
        raise InterpError("{} is {} {}x{}, got {} {}x{}".format(
            what.format(*args), want.dtype, want.rows, want.cols, got.dtype, got.rows, got.cols))


class _Scope(dict):
    """One function's names, each resolved once: name -> (frame index,
    dtype, element count). The frame holds every static's buffer first,
    then the params' buffers, then the locals'."""

    def __init__(self, fn, program: Program, statics: dict):
        super().__init__(statics)  # the statics' entries, the same in every function
        self.fn = fn
        self.decls = [*program.statics, *fn.params, *fn.decls.values()]
        self.update((d.name, (i, d.dtype, d.rows * d.cols))
                    for i, d in enumerate(self.decls[len(statics):], len(statics)))
        # each local's initial elements, in frame order
        self.inits = [mv.zeros(d.dtype, d.rows, d.cols).data if d.init is None else d.init.data
                      for d in fn.decls.values()]

    def __missing__(self, name):
        raise UnboundName("{}: {}".format(self.fn.name, name))

    def cell(self, name, k):
        """Element k (0-based) of a name as lower_expr's leaf: ((frame
        index, k), dtype)."""
        i, dtype, n = self[name]
        if not 0 <= k < n:
            raise InterpError("{}: element {} of {} is outside its {} elements".format(
                self.fn.name, k + 1, name, n))
        return (i, k), dtype


# one loop per kind of store row (i, k, operand), each writing element k of frame entry i
def _copies(rows, f):
    for i, k, j, m in rows:
        f[i][k] = f[j][m]


def _stores(rows, f):
    for i, k, x in rows:
        f[i][k] = x(f)


def _constants(rows, f):
    for i, k, x in rows:
        f[i][k] = x


# runtime helper -> its argument count: result, operands, their dimensions
HELPER_ARITY = {"mult": 7, "quote": 4, "matinv": 3}


def _helper_step(name, argnames, scope):
    """A runtime helper call lowered into one step: it reads the dimension
    arguments, checks them against the operands' and result's buffers and
    overwrites the result in place, taking what it reads as defaults."""
    res, a, *rest = argnames
    b, dims = (rest[0], rest[1:]) if name == "mult" else (a, rest if name == "quote" else rest * 2)
    dtype = scope[a][1]
    if scope[b][1] != dtype:
        raise mv.DtypeMismatch("{} vs {}".format(dtype, scope[b][1]))
    if name == "matinv" and dtype != mv.F64:
        raise mv.DtypeMismatch("inverse needs f64")
    r, x, y = scope[res][0], scope[a][0], scope[b][0]
    d = [scope.cell(dim, 0)[0][0] for dim in dims]
    if name == "mult":
        def step(f, r=r, x=x, y=y, d0=d[0], d1=d[1], d2=d[2], d3=d[3], dtype=dtype,
                 product=mv.matmul_flat):
            x, y, out = f[x], f[y], f[r]
            ar, ac, br, bc = int(f[d0][0]), int(f[d1][0]), int(f[d2][0]), int(f[d3][0])
            if ar * ac != len(x) or br * bc != len(y):
                raise InterpError("dimension args disagree with {} or {}".format(a, b))
            data = product(dtype, x, ar, ac, y, br, bc)[2]
            if len(data) != len(out):
                raise InterpError("{} has {} elements, the result {}".format(
                    res, len(out), len(data)))
            out[:] = data
        return step

    def step(f, r=r, x=x, d0=d[0], d1=d[1], square=name == "matinv"):
        x, out, rows, cols = f[x], f[r], int(f[d0][0]), int(f[d1][0])
        if rows * cols != len(x) or rows * cols != len(out):
            raise InterpError("dimension args disagree with {} or {}".format(a, res))
        out[:] = mv.invert_flat(x, rows) if square else mv.transpose_flat(x, rows, cols)
    return step


class Machine:
    def __init__(self, program: Program):
        self.program = program
        # one buffer per static, shared by every frame
        self._buffers = [list(s.init.data) for s in program.statics]
        self._static_names = {s.name: (i, s.dtype, s.rows * s.cols)
                              for i, s in enumerate(program.statics)}
        self._lowered = {}  # function name -> runner, filled on first call

    @property
    def statics(self):
        """Each static's current value."""
        return {s.name: MatValue(s.dtype, s.rows, s.cols, tuple(buf))
                for s, buf in zip(self.program.statics, self._buffers)}

    # -- lowering -----------------------------------------------------------

    def _function(self, name):
        """The runner of a recorded function, lowered on first use: it takes
        the list of the argument buffers and writes through them."""
        run = self._lowered.get(name)
        if run is None:
            run = self._lowered[name] = self._lower(self.program.function(name))
        return run

    def _lower(self, fn):
        scope = _Scope(fn, self.program, self._static_names)
        lowered = filter(None, [self._exec(instr, scope) for instr in fn.body])
        steps, second = [], itemgetter(1)  # positional: a keyword partial builds a dict per call
        for loop, run in groupby(lowered, itemgetter(0)):
            steps += [partial(loop, list(map(second, run)))] if loop else map(second, run)
        shared, inits = self._buffers, scope.inits

        def run(args):
            f = shared + args
            f.extend(map(list, inits))
            for step in steps:
                step(f)
        return run

    def _exec(self, instr, scope):
        """Lower one instruction into (loop, row) for a scalar store, (None,
        step) for the closure running any other on a frame, or None for an
        annotation; every decision that depends only on the instruction is taken here."""
        t = type(instr)
        if t is Annot:
            return None
        if t is Def or t is Store or t is SetElem:
            # a Def stores into its declared local, as the emitted C does
            x, src = lower_expr(instr.expr, scope.cell)
            (i, k), dst = scope.cell(instr.name, instr.index - 1 if t is SetElem else 0)
            if src != dst:
                x = kernel_fn(mv.elem_kernel(dst.tag, src), x)
            if type(x) is tuple:
                return _copies, (i, k, *x)
            return _stores if callable(x) else _constants, (i, k, x)
        if t is CopyMat:
            d, dtype, n = scope[instr.dst]
            s, other, m = scope[instr.src]
            if other != dtype or n != instr.n or m != instr.n:
                raise InterpError("{}: bad copy {} <- {}".format(
                    scope.fn.name, instr.dst, instr.src))

            def copy_all(f, d=d, s=s):
                f[d][:] = f[s]
            return None, copy_all
        if t is Call:
            return None, self._call_site(instr.fn, instr.args, scope)
        if t is IfExpr:
            (c, _), _ = scope.cell(instr.cond, 0)
            then = self._call_site(instr.then_call.fn, instr.then_call.args, scope)
            other = self._call_site(instr.else_call.fn, instr.else_call.args, scope)

            def branch(f, c=c, then=then, other=other):
                (then if f[c][0] else other)(f)
            return None, branch
        raise InterpError("unknown instruction {!r}".format(instr))

    def _call_site(self, name, argnames, scope):
        callee = None if name in HELPER_ARITY else self.program.function(name)
        want = HELPER_ARITY[name] if callee is None else len(callee.params)
        if len(argnames) != want:
            raise InterpError("{} expects {} args, got {}".format(name, want, len(argnames)))
        if callee is None:
            return _helper_step(name, argnames, scope)
        # a recorded function: pass the caller's buffers straight through
        slots = []
        for arg, p in zip(argnames, callee.params):
            i = scope[arg][0]
            _check(p, scope.decls[i], "{}'s {} passed from {} in {}",
                   name, p.name, arg, scope.fn.name)
            slots.append(i)
        function = self._function

        def call(f):
            function(name)([f[i] for i in slots])
        return call

    # -- execution ----------------------------------------------------------

    def _check_args(self, name, values):
        fn = self.program.function(name)
        if len(values) != len(fn.params):
            raise InterpError("{} expects {} args, got {}".format(
                name, len(fn.params), len(values)))
        for p, v in zip(fn.params, values):
            _check(p, v, "{}'s {}", name, p.name)

    def run_init(self):
        self.run_function(self.program.init_fn.name, [])
        return self

    def run_function(self, name, arg_values):
        """Execute a recorded function; returns the (possibly mutated)
        argument values."""
        self._check_args(name, arg_values)
        buffers = [list(v.data) for v in arg_values]
        self._function(name)(buffers)
        return [MatValue(v.dtype, v.rows, v.cols, tuple(b))
                for v, b in zip(arg_values, buffers)]

    def run_steps(self, inputs_per_step, steps):
        """Mirror the flag dispatcher: per step, updateOutput then
        updateState over shared port buffers. Returns output-port values."""
        meta = self.program.meta
        zeros = [mv.zeros(p["dtype"], p["rows"], p["cols"]) for p in meta["ports"]]
        update_output, update_state = meta["update_output"], meta["update_state"]
        for name in (update_output, update_state):
            self._check_args(name, zeros)
        buffers = [list(z.data) for z in zeros]
        ports = list(zip(meta["ports"], zeros, buffers))
        inputs = [(p, z, buf) for p, z, buf in ports if p["input"]]
        outputs = []
        for step in range(steps):
            if step >= len(inputs_per_step):
                raise InterpError("step {}: no input row ({} rows for {} steps)"
                                  .format(step, len(inputs_per_step), steps))
            stimuli = inputs_per_step[step]
            if len(stimuli) != len(inputs):
                raise InterpError("step {}: {} input values for {} input ports"
                                  .format(step, len(stimuli), len(inputs)))
            for n, (p, z, buf) in enumerate(inputs):
                _check(z, stimuli[n], "step {}: input port {} ({})", step, n + 1, p["name"])
                buf[:] = stimuli[n].data
            self._function(update_output)(buffers)
            outputs.append([MatValue(z.dtype, z.rows, z.cols, tuple(buf))
                            for p, z, buf in ports if not p["input"]])
            self._function(update_state)(buffers)
        return outputs
