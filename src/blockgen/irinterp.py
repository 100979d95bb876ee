"""Reference executor for finalized programs.

Runs the same optimized pseudo-code the C emitter prints. Each function is
lowered once, on its first call: its names are resolved into a table of frame
index, dtype and element count, Machine._exec lowers each instruction, and
one frame, one flat element list per name, serves every call: the statics'
buffers, a slot per param, which a call fills with the caller's buffers, and
each local's buffer. As in C, an automatic local with an initializer is reset
from it on every call, a function-static one (Decl.static) is initialized
once, one without keeps its storage, and no function re-enters itself.
A scalar store becomes a row (i, k, operand) writing element k of frame entry
i: a copy of a cell, a constant, or a store of its expression lowered by
trace.lower_expr, converted as a C assignment does. Each run of consecutive
rows of one of these three kinds is one step, that kind's loop; any other
instruction is its own step. A helper call binds its loop (matval.product,
a transpose_table) to the dimension arguments it last met, checked when they
change. Checks that depend only on the program (names, dtypes, sizes, arity,
element indexes) run at lowering time, before any step. It is the in-process
stand-in for "compile the generated C and run it" and the oracle of validate.
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
    dtype, element count), and its frame, which holds every static's buffer
    first, then a slot per param, then each local's buffer."""

    def __init__(self, fn, program: Program, statics: dict, buffers: list):
        super().__init__(statics)  # the statics' entries, the same in every function
        self.fn = fn
        self.decls = [*program.statics, *fn.params, *fn.decls.values()]
        self.update((d.name, (i, d.dtype, d.rows * d.cols))
                    for i, d in enumerate(self.decls[len(statics):], len(statics)))
        self.frame = [*buffers, *[None] * len(fn.params)]
        self.resets = []  # (buffer, initializer) of each automatic local that has one
        for d in fn.decls.values():
            self.frame.append(list((d.init or mv.zeros(d.dtype, d.rows, d.cols)).data))
            if d.init is not None and not d.static:
                self.resets.append((self.frame[-1], d.init.data))

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
    """A runtime helper call lowered into one step. The step reads the four
    dimension arguments (quote's two twice, matinv's one four times) and,
    whenever they differ from the ones it last met, checks them against the
    buffers and binds the helper's loop to them; then it overwrites the
    result in place."""
    if len(argnames) != HELPER_ARITY[name]:
        raise InterpError("{} expects {} args, got {}".format(
            name, HELPER_ARITY[name], len(argnames)))
    res, a, *rest = argnames
    b, dims = (rest[0], rest[1:]) if name == "mult" else (a, rest * (4 // len(rest)))
    (r, _, size), (x, dtype, na), (y, other, nb) = scope[res], scope[a], scope[b]
    if other != dtype:
        raise mv.DtypeMismatch("{} vs {}".format(dtype, other))
    if name == "matinv" and dtype != mv.F64:
        raise mv.DtypeMismatch("inverse needs f64")
    d0, d1, d2, d3 = [scope.cell(dim, 0)[0][0] for dim in dims]

    def bind(m, n, m2, n2):
        negative = min(m, n, m2, n2) < 0
        if name != "mult":
            if negative or m * n != na or m * n != size:
                raise InterpError("dimension args disagree with {} or {}".format(a, res))
            if name == "matinv":
                return lambda p, q: mv.invert_flat(p, m)
            table = mv.transpose_table(m, n)
            return lambda p, q: list(map(p.__getitem__, table))
        if negative or m * n != na or m2 * n2 != nb:
            raise InterpError("dimension args disagree with {} or {}".format(a, b))
        if n != m2:
            raise InterpError("inner dims {}x{} * {}x{}".format(m, n, m2, n2))
        if m * n2 != size:
            raise InterpError("{} has {} elements, the result {}".format(res, size, m * n2))
        return mv.product(dtype, m, n, n2)

    last = run = None

    def step(f):
        nonlocal last, run
        key = f[d0][0], f[d1][0], f[d2][0], f[d3][0]
        if key != last:
            run, last = bind(*map(int, key)), key
        f[r][:] = run(f[x], f[y])
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
        the argument buffers and writes through them."""
        run = self._lowered.get(name)
        if run is None:
            run = self._lowered[name] = self._lower(self.program.function(name))
        return run

    def _lower(self, fn):
        scope = _Scope(fn, self.program, self._static_names, self._buffers)
        lowered = filter(None, [self._exec(instr, scope) for instr in fn.body])
        steps, second = [], itemgetter(1)  # positional: a keyword partial builds a dict per call
        for loop, run in groupby(lowered, itemgetter(0)):
            steps += [partial(loop, list(map(second, run)))] if loop else map(second, run)
        frame, resets, running = scope.frame, scope.resets, False
        params = slice(len(self._buffers), len(self._buffers) + len(fn.params))  # the param slots

        def run(args):
            nonlocal running
            if running:
                raise InterpError("{}: reentrant call".format(fn.name))
            running, frame[params] = True, args
            try:
                for buf, init in resets:
                    buf[:] = init
                for step in steps:
                    step(frame)
            finally:
                running = False
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
            (d, dtype, n), (s, other, m) = scope[instr.dst], scope[instr.src]
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
        if name in HELPER_ARITY:
            return _helper_step(name, argnames, scope)
        # a recorded function: pass the caller's buffers straight through
        slots = [scope[arg][0] for arg in argnames]
        self._check_args(name, [scope.decls[i] for i in slots], scope.fn.name)
        function = self._function

        def call(f):
            function(name)([f[i] for i in slots])
        return call

    # -- execution ----------------------------------------------------------

    def _check_args(self, name, args, caller):
        """Check that caller may call the recorded function name with args,
        values or declarations, against its params."""
        try:
            params = self.program.function(name).params
        except KeyError:
            raise UnboundName("{}: no function {}".format(caller, name)) from None
        if len(args) != len(params):
            raise InterpError("{} expects {} args, got {}".format(name, len(params), len(args)))
        for p, v in zip(params, args):
            _check(p, v, "{}: {}'s {}", caller, name, p.name)

    def run_init(self):
        self.run_function(self.program.init_fn.name, [])
        return self

    def run_function(self, name, arg_values):
        """Execute a recorded function; returns the (possibly mutated)
        argument values."""
        self._check_args(name, arg_values, "run_function")
        buffers = [list(v.data) for v in arg_values]
        self._function(name)(buffers)
        return [MatValue(v.dtype, v.rows, v.cols, tuple(b))
                for v, b in zip(arg_values, buffers)]

    def run_steps(self, inputs_per_step, steps):
        """Mirror the flag dispatcher: per step, updateOutput then
        updateState over shared port buffers. Returns output-port values."""
        meta = self.program.meta
        zeros = [mv.zeros(p["dtype"], p["rows"], p["cols"]) for p in meta["ports"]]
        names = meta["update_output"], meta["update_state"]
        for name in names:
            self._check_args(name, zeros, "run_steps")
        update_output, update_state = map(self._function, names)
        buffers = [list(z.data) for z in zeros]
        ports = list(zip(meta["ports"], zeros, buffers))
        inputs = [(p, z, buf) for p, z, buf in ports if p["input"]]
        # each output's buffer has its port's size, so its value needs no check
        outs = [(z[:3], buf) for p, z, buf in ports if not p["input"]]
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
            update_output(buffers)
            outputs.append([mv._unchecked((*shape, tuple(buf))) for shape, buf in outs])
            update_state(buffers)
        return outputs
