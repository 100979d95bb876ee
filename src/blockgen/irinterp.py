"""Reference executor for finalized programs.

Runs the same optimized pseudo-code the C emitter prints. Each function is
lowered once, on its first call, into one closure per instruction over a
frame: a list holding one flat, mutable element list per storage name (the
caller's buffers for the params, every static's buffer, fresh copies of the
locals). Expressions are lowered by trace.lower_expr, whose kernels come
from matval's one table of operator semantics; a store converts to the
destination dtype the way a C assignment does, and the matrix helpers run
matval's flat-list loops. Every check that depends only on the program
(names, dtypes, sizes, arity, element indexes) runs at lowering time. It is
the in-process stand-in for "compile the generated C and run it" and the
oracle the validation command compares simulation against.
"""

from __future__ import annotations

from . import matval as mv
from .matval import MatValue
from .trace import (
    Annot, Call, CopyMat, Def, IfExpr, Program, SetElem, Store, lower_expr,
)


class InterpError(Exception):
    pass


class UnboundName(InterpError):
    pass


def _check(what, want, got):
    """Raise unless got (a value or declaration) has want's dtype and shape;
    the lowered code assumes them."""
    if (got.dtype, got.rows, got.cols) != (want.dtype, want.rows, want.cols):
        raise InterpError("{} is {} {}x{}, got {} {}x{}".format(
            what, want.dtype, want.rows, want.cols, got.dtype, got.rows, got.cols))


class _Scope:
    """Where each name of one function lives in its frame: the params'
    buffers first, then every static's, then the locals'."""

    def __init__(self, fn, program: Program):
        self.fn = fn
        # name -> (frame index, declaration)
        self.where = {d.name: (i, d) for i, d in
                      enumerate([*fn.params, *program.statics, *fn.decls.values()])}
        # each local's initial elements, in frame order
        self.inits = [list(mv.zeros(d.dtype, d.rows, d.cols).data if d.init is None
                           else d.init.data) for d in fn.decls.values()]

    def lookup(self, name):
        """(frame index, declaration) of a name."""
        try:
            return self.where[name]
        except KeyError:
            raise UnboundName("{}: {}".format(self.fn.name, name)) from None

    def element(self, name, k):
        """(frame index, dtype) of element k (0-based) of a name."""
        i, d = self.lookup(name)
        if not 0 <= k < d.size:
            raise InterpError("{}: element {} of {} is outside its {} elements".format(
                self.fn.name, k + 1, name, d.size))
        return i, d.dtype

    def slot(self, name, k):
        """Element k of a name as lower_expr's leaf: (fn(frame), dtype)."""
        i, dtype = self.element(name, k)
        return (lambda f: f[i][k]), dtype


def _shaped(scope, name, rows_name, cols_name):
    """A runtime helper's operand: fn(frame) gives its buffer and the rows
    and cols its dimension arguments hold."""
    i = scope.lookup(name)[0]
    rows_fn, cols_fn = scope.slot(rows_name, 0)[0], scope.slot(cols_name, 0)[0]

    def operand(f):
        buf, rows, cols = f[i], int(rows_fn(f)), int(cols_fn(f))
        if rows * cols != len(buf):
            raise InterpError("dimension args disagree with {}".format(name))
        return buf, rows, cols
    return operand


def _helper(scope, res, compute):
    """A runtime helper call: compute(frame) gives the result's elements,
    which overwrite res in place."""
    r = scope.lookup(res)[0]

    def helper(f):
        data = compute(f)
        if len(data) != len(f[r]):
            raise mv.ShapeMismatch("{} has {} elements, the result {}".format(
                res, len(f[r]), len(data)))
        f[r][:] = data
    return helper


class Machine:
    def __init__(self, program: Program):
        self.program = program
        # one buffer per static, shared by every frame
        self._buffers = [list(s.init.data) for s in program.statics]
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
        scope = _Scope(fn, self.program)
        steps = [self._exec(instr, scope) for instr in fn.body]
        steps = [step for step in steps if step is not None]
        shared, inits = self._buffers, scope.inits

        def run(args):
            f = args + shared
            f.extend(map(list.copy, inits))
            for step in steps:
                step(f)
        return run

    def _exec(self, instr, scope):
        """Lower one instruction into the closure that runs it on a frame
        (None for an annotation); every decision that depends only on the
        instruction is taken here, once."""
        if isinstance(instr, Annot):
            return None
        if isinstance(instr, (Def, Store, SetElem)):
            # a Def stores into its declared local, as the emitted C does
            fn, src = lower_expr(instr.expr, scope.slot)
            k = instr.index - 1 if isinstance(instr, SetElem) else 0
            i, dst = scope.element(instr.name, k)
            if src == dst:
                def store(f):
                    f[i][k] = fn(f)
            else:
                conv = mv.convert_kernel(src, dst)

                def store(f):
                    f[i][k] = conv(fn(f))
            return store
        if isinstance(instr, CopyMat):
            d, dst = scope.lookup(instr.dst)
            s, src = scope.lookup(instr.src)
            if (src.dtype != dst.dtype or src.rows * src.cols != instr.n
                    or dst.rows * dst.cols != instr.n):
                raise InterpError("{}: bad copy {} <- {}".format(
                    scope.fn.name, instr.dst, instr.src))

            def copy(f):
                f[d][:] = f[s]
            return copy
        if isinstance(instr, Call):
            return self._call_site(instr.fn, instr.args, scope)
        if isinstance(instr, IfExpr):
            cond, _ = scope.slot(instr.cond, 0)
            then = self._call_site(instr.then_call.fn, instr.then_call.args, scope)
            other = self._call_site(instr.else_call.fn, instr.else_call.args, scope)

            def branch(f):
                (then if cond(f) else other)(f)
            return branch
        raise InterpError("unknown instruction {!r}".format(instr))

    def _call_site(self, name, argnames, scope):
        if name == "mult":
            res, a, b, m1, n1, m2, n2 = argnames
            dtype, other = scope.lookup(a)[1].dtype, scope.lookup(b)[1].dtype
            if other != dtype:
                raise mv.DtypeMismatch("{} vs {}".format(dtype, other))
            ad, bd = _shaped(scope, a, m1, n1), _shaped(scope, b, m2, n2)
            return _helper(scope, res, lambda f: mv.matmul_flat(dtype, *ad(f), *bd(f))[2])
        if name == "quote":
            res, a, m1, n1 = argnames
            ad = _shaped(scope, a, m1, n1)
            return _helper(scope, res, lambda f: mv.transpose_flat(*ad(f)))
        if name == "matinv":
            res, a, dn = argnames
            if scope.lookup(a)[1].dtype != mv.F64:
                raise mv.DtypeMismatch("inverse needs f64")
            ad = _shaped(scope, a, dn, dn)
            return _helper(scope, res, lambda f: mv.invert_flat(*ad(f)[:2]))
        # a recorded function: pass the caller's buffers straight through
        callee = self.program.function(name)
        if len(argnames) != len(callee.params):
            raise InterpError("{} expects {} args, got {}".format(
                name, len(callee.params), len(argnames)))
        slots = []
        for arg, p in zip(argnames, callee.params):
            i, like = scope.lookup(arg)
            _check("{}'s {} passed from {} in {}".format(name, p.name, arg, scope.fn.name),
                   p, like)
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
            _check("{}'s {}".format(name, p.name), p, v)

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
                _check("step {}: input port {} ({})".format(step, n + 1, p["name"]),
                       z, stimuli[n])
                buf[:] = stimuli[n].data
            self._function(update_output)(buffers)
            outputs.append([MatValue(z.dtype, z.rows, z.cols, tuple(buf))
                            for p, z, buf in ports if not p["input"]])
            self._function(update_state)(buffers)
        return outputs
