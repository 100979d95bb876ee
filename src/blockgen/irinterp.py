"""Reference executor for finalized programs.

Runs the same optimized pseudo-code the C emitter prints. Expressions are
evaluated by trace.eval_expr, the one definition of what each operator
means; this module adds storage: frames, argument cells, statics, and the
conversion to the destination dtype that a C assignment performs. It is the
in-process stand-in for "compile the generated C and run it" and the oracle
the validation command compares simulation against.
"""

from __future__ import annotations

from functools import partial

from . import matval as mv
from .matval import MatValue
from .trace import (
    Annot, Call, CopyMat, Def, IfExpr, Program, SetElem, Store, eval_expr,
)


class InterpError(Exception):
    pass


class UnboundName(InterpError):
    pass


class Cell:
    """Mutable holder so callees can write through to caller buffers."""

    __slots__ = ("value",)

    def __init__(self, value: MatValue):
        self.value = value


class Machine:
    def __init__(self, program: Program):
        self.program = program
        self.statics = {s.name: s.default for s in program.statics}

    # -- storage ------------------------------------------------------------

    def _lookup(self, frame, args, name):
        if name in frame:
            return frame[name]
        if name in args:
            return args[name].value
        if name in self.statics:
            return self.statics[name]
        raise UnboundName(name)

    def _write(self, name, value: MatValue, frame, args, index=None):
        """Scalar or element store; converts to the destination dtype the
        way a C assignment does."""
        if name in args:
            cur = args[name].value
            k = 0 if index is None else index - 1
            converted = mv.convert_elem(value.data[0], value.dtype, cur.dtype)
            args[name].value = cur.set_linear(k, converted)
            return
        pool = frame if name in frame else (self.statics if name in self.statics else None)
        if pool is None:
            raise UnboundName(name)
        cur = pool[name]
        k = 0 if index is None else index - 1
        converted = mv.convert_elem(value.data[0], value.dtype, cur.dtype)
        pool[name] = cur.set_linear(k, converted)

    def _read_whole(self, name, frame, args) -> MatValue:
        return self._lookup(frame, args, name)

    def _write_whole(self, name, value: MatValue, frame, args):
        if name in args:
            args[name].value = value
        elif name in frame:
            frame[name] = value
        elif name in self.statics:
            self.statics[name] = value
        else:
            raise UnboundName(name)

    # -- execution ----------------------------------------------------------

    def run_init(self):
        self.run_function(self.program.init_fn.name, [])
        return self

    def run_function(self, name, arg_values):
        """Execute a recorded function; returns the (possibly mutated)
        argument values."""
        cells = [v if isinstance(v, Cell) else Cell(v) for v in arg_values]
        self._call(name, cells)
        return [c.value for c in cells]

    def _call(self, name, cells):
        fn = self.program.function(name)
        if len(cells) != len(fn.params):
            raise InterpError("{} expects {} args, got {}".format(
                name, len(fn.params), len(cells)))
        args = {p.name: c for p, c in zip(fn.params, cells)}
        frame = {}
        for d in fn.decls.values():
            frame[d.name] = d.init if d.init is not None else mv.zeros(d.dtype, d.rows, d.cols)
        lookup = partial(self._lookup, frame, args)
        for instr in fn.body:
            self._exec(instr, frame, args, lookup)

    def _exec(self, instr, frame, args, lookup):
        if isinstance(instr, Annot):
            return
        if isinstance(instr, (Def, Store)):
            v = eval_expr(instr.expr, lookup)
            if isinstance(instr, Def):
                frame[instr.name] = mv.convert(v, frame[instr.name].dtype) \
                    if instr.name in frame else v
            else:
                self._write(instr.name, v, frame, args)
            return
        if isinstance(instr, SetElem):
            v = eval_expr(instr.expr, lookup)
            self._write(instr.name, v, frame, args, index=instr.index)
            return
        if isinstance(instr, CopyMat):
            src = self._read_whole(instr.src, frame, args)
            dst = self._read_whole(instr.dst, frame, args)
            if src.dtype != dst.dtype or src.size != instr.n or dst.size != instr.n:
                raise InterpError("bad copy {} <- {}".format(instr.dst, instr.src))
            self._write_whole(instr.dst, MatValue(dst.dtype, dst.rows, dst.cols, src.data),
                              frame, args)
            return
        if isinstance(instr, Call):
            self._run_call(instr.fn, instr.args, frame, args)
            return
        if isinstance(instr, IfExpr):
            c = self._lookup(frame, args, instr.cond)
            target = instr.then_call if c.data[0] else instr.else_call
            self._run_call(target.fn, target.args, frame, args)
            return
        raise InterpError("unknown instruction {!r}".format(instr))

    def _run_call(self, fn, argnames, frame, args):
        if fn == "mult":
            res, a, b, m1, n1, m2, n2 = argnames
            av = self._reshaped(a, m1, n1, frame, args)
            bv = self._reshaped(b, m2, n2, frame, args)
            out = mv.matmul(av, bv)
            dst = self._read_whole(res, frame, args)
            self._write_whole(res, MatValue(dst.dtype, dst.rows, dst.cols, out.data), frame, args)
            return
        if fn == "quote":
            res, a, m1, n1 = argnames
            av = self._reshaped(a, m1, n1, frame, args)
            out = mv.transpose(av)
            dst = self._read_whole(res, frame, args)
            self._write_whole(res, MatValue(dst.dtype, dst.rows, dst.cols, out.data), frame, args)
            return
        if fn == "matinv":
            res, a, dn = argnames
            n = int(self._lookup(frame, args, dn).data[0])
            av = self._reshaped(a, None, None, frame, args, shape=(n, n))
            out = mv.invert(av)
            dst = self._read_whole(res, frame, args)
            self._write_whole(res, MatValue(dst.dtype, dst.rows, dst.cols, out.data), frame, args)
            return
        # a recorded function: pass the caller's cells straight through
        cells = []
        for name in argnames:
            if name in args:
                cells.append(args[name])
            else:
                cells.append(Cell(self._lookup(frame, args, name)))
        self._call(fn, cells)

    def _reshaped(self, name, m, n, frame, args, shape=None):
        v = self._lookup(frame, args, name)
        if shape is None:
            rows = int(self._lookup(frame, args, m).data[0])
            cols = int(self._lookup(frame, args, n).data[0])
        else:
            rows, cols = shape
        if rows * cols != v.size:
            raise InterpError("dimension args disagree with {}".format(name))
        return MatValue(v.dtype, rows, cols, v.data)

    # -- stepping -----------------------------------------------------------

    def run_steps(self, inputs_per_step, steps):
        """Mirror the flag dispatcher: per step, updateOutput then
        updateState over shared port buffers. Returns output-port values."""
        ports = self.program.meta["ports"]
        update_output = self.program.meta["update_output"]
        update_state = self.program.meta["update_state"]
        cells = [Cell(mv.zeros(p["dtype"], p["rows"], p["cols"])) for p in ports]
        outputs = []
        for step in range(steps):
            stimuli = inputs_per_step[step]
            in_idx = 0
            for cell, p in zip(cells, ports):
                if p["input"]:
                    cell.value = stimuli[in_idx]
                    in_idx += 1
            self._call(update_output, cells)
            outputs.append([c.value for c, p in zip(cells, ports) if not p["input"]])
            self._call(update_state, cells)
        return outputs
