"""Block-diagram models: parsing, type/size inference, constant propagation,
scheduling, and the one driver that runs a model as a block, numerically
(simulate) or recording (generate).

Model files are line-based text (grammar in the README): a `model` header,
`input`/`output` port declarations, `block`, `link` and `region` lines.
Matrix literals are written row-major with explicit dimensions and stored
column-major.
"""

from __future__ import annotations

import heapq
import itertools
import re
from collections import namedtuple
from functools import partial
from operator import attrgetter, itemgetter

from . import matval as mv
from .matval import Dtype, MatValue, BOOL, Record
from . import blocks as blockmod
from .blocks import INIT, OUTPUT, STATE, BlockRecord, IoList, StateList
from . import cemit
from .cemit import EmitConfig
from .directives import CallTarget, IoSeq, codegen_init, finalize_program, if_cos, inouts_insert
from .trace import BVar, Handle, HeldValue, Num, TraceError, _copy_into, bv_convert


class ModelError(Exception):
    pass


class ParseError(ModelError):
    pass


class Conflict(ModelError):
    pass


class Undetermined(ModelError):
    pass


class AlgebraicLoop(ModelError):
    pass


# ---------------------------------------------------------------------------
# the model


class BlockSpec:
    """A parsed block line. Nothing reassigns it, yet it is slotted, not
    tuple-backed, as are Graph and trace.Decl: their fields are read on
    every block run or traced value, and CPython 3.11 reads a slot in well
    under half the time of a namedtuple field. `line` is its model line."""
    __slots__ = ("id", "kind", "params", "out_sig", "line")  # out_sig: port -> (dtype, rows, cols)

    def __init__(self, id, kind, params, out_sig, line=None):
        self.id, self.kind, self.params, self.out_sig, self.line = id, kind, params, out_sig, line


class LinkSpec:
    __slots__ = ("id", "src", "dsts", "dtype", "rows", "cols", "const_value", "line")

    def __init__(self, id, src, dsts, line=None):
        self.id, self.line = id, line
        self.src = src    # ("block", id, port) or ("in", k)
        self.dsts = dsts  # of ("block", id, port) or ("out", k)
        self.dtype = self.rows = self.cols = self.const_value = None


class PortSpec(Record, namedtuple("PortSpec", "index dtype rows cols input")):
    __slots__ = ()


class RegionSpec(Record, namedtuple("RegionSpec", "ifthenelse then_blocks else_blocks select line",
                                    defaults=(None,))):
    __slots__ = ()

    @property
    def members(self):
        return {self.ifthenelse, self.select, *self.then_blocks, *self.else_blocks}


class Graph:
    """The adjacency of a parsed model, built once by `parse_model`:
    ins:       block id -> input links, port 1 first
    outs:      block id -> connected output links, in port order
    slots:     block id -> per output port: (link or None, template link or None)
    feeds:     superblock input index -> links it feeds
    fed_by:    superblock output index -> the link feeding it
    inputs:    superblock input index -> PortSpec, ascending
    outputs:   superblock output index -> PortSpec, ascending
    region_of: block id -> RegionSpec it belongs to"""
    __slots__ = ("ins", "outs", "slots", "feeds", "fed_by", "inputs", "outputs", "region_of")

    def __init__(self, ins, outs, slots, feeds, fed_by, inputs, outputs, region_of):
        self.ins, self.outs, self.slots, self.feeds = ins, outs, slots, feeds
        self.fed_by, self.inputs, self.outputs, self.region_of = fed_by, inputs, outputs, region_of


class Model:
    __slots__ = ("base_id", "blocks", "links", "inputs", "outputs", "regions", "inferred",
                 "folded_blocks", "graph")

    def __init__(self, base_id=1000):
        self.base_id, self.inferred, self.graph = base_id, False, None
        self.blocks, self.links, self.folded_blocks = {}, {}, set()
        self.inputs, self.outputs, self.regions = [], [], []


class Schedule(Record, namedtuple("Schedule", "output_order state_order branches")):
    """output_order: block ids and ("region", RegionSpec) entries; state_order:
    the stateful blocks, ascending, also the init order; branches: ifthenelse
    id -> (then-branch order, else-branch order)."""
    __slots__ = ()


# ---------------------------------------------------------------------------
# parsing


_LITERAL = re.compile(r"^(f64|bool|i8|i16|i32|u8|u16|u32)\[(\d+)x(\d+)\](?:\((.*)\))?$")
_NUMBER = re.compile(r"^-?(\d+\.?\d*([eE][+-]?\d+)?|\.\d+([eE][+-]?\d+)?)$")
_OUT_KEY = re.compile(r"^out(\d+)$")  # a block parameter giving output port k's signature


def _dims(rows: int, cols: int):
    """A port's or signature's (rows, cols), each at least 1."""
    if rows < 1 or cols < 1:
        raise ParseError("dimensions {}x{}: each must be at least 1".format(rows, cols))
    return rows, cols


def _parse_value(text: str):
    m = _LITERAL.match(text)
    if m:
        dtype = mv.DTYPES[m.group(1)]
        rows, cols = int(m.group(2)), int(m.group(3))
        if m.group(4) is None:
            return ("sig", dtype) + _dims(rows, cols)
        raw = m.group(4).replace(",", " ").split()
        if len(raw) != rows * cols:
            raise ParseError("literal needs {} entries, got {}".format(rows * cols, len(raw)))
        vals = [_scan_number(v, dtype) for v in raw]
        flat = [vals[i * cols + j] for j in range(cols) for i in range(rows)]  # row-major in
        return mv.make(dtype, rows, cols, flat)
    if _NUMBER.match(text):
        return mv.scalar(float(text))
    if text in ("true", "false"):
        return mv.scalar(text == "true", BOOL)
    return text  # bare word: op names, behavior names


def _scan_number(tok: str, dtype: Dtype):
    if dtype.is_bool:
        if tok in ("1", "true", "TRUE"):
            return True
        if tok in ("0", "false", "FALSE"):
            return False
        raise ParseError("bad bool literal {!r}".format(tok))
    return float(tok) if dtype.is_float else int(tok)


# a field of non-space characters and literals "(...)" without nesting, or a stray parenthesis
_FIELD = re.compile(r"(?:[^\s()]|\([^()]*\))+|[()]")


def _split_fields(text: str):
    """Whitespace split keeping each parenthesized literal in its field; a
    parenthesis that opens or closes none, or nests, is unbalanced."""
    fields = _FIELD.findall(text)
    if "(" in fields or ")" in fields:
        raise ParseError("unbalanced parentheses")
    return fields


def _parse_endpoint(text: str, src: bool):
    text = text.strip()
    if text.startswith("in:"):
        if not src:
            raise ParseError("an input port cannot be a destination")
        return ("in", int(text[3:]))
    if text.startswith("out:"):
        if src:
            raise ParseError("an output port cannot be a source")
        return ("out", int(text[4:]))
    b, dot, p = text.partition(".")
    if not dot or "." in p:
        raise ParseError("bad endpoint {!r}".format(text))
    if int(p) < 1:
        raise ParseError("bad endpoint {!r}: block ports count from 1".format(text))
    return ("block", int(b), int(p))


def _check_params(bid: int, kind: str, params: dict):
    """Each parameter blocks.PARAMS declares for kind is present, of its
    kind and, for a word of a given collection, one of them. No word names a
    block kind: a sciblk running one would run the kind's behavior outside
    its block, or itself without end."""
    for name, value_kind in blockmod.PARAMS[kind].items():
        if name not in params:
            raise ParseError("block {} ({}) needs {}=".format(bid, kind, name))
        word = value_kind != "matrix"
        if isinstance(params[name], str) != word:
            raise ParseError("block {} ({}): {}={!r} is not a {}"
                             .format(bid, kind, name, params[name], "word" if word else "matrix"))
        if word and value_kind != "word":
            allowed = [v for v in value_kind if v not in blockmod.ARITY]
            if params[name] not in allowed:
                raise ParseError("block {} ({}): {}={!r} is not one of {}"
                                 .format(bid, kind, name, params[name], " ".join(allowed)))


def parse_model(text: str) -> Model:
    model = Model()
    seen_model = False
    values = {}  # parameter text -> its (truthy) value, shared within this parse
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = (raw[:raw.index("#")] if "#" in raw else raw).strip()
        if not line:
            continue
        try:
            head, rest = (line.split(None, 1) + [""])[:2]
            if head == "model":
                model.base_id = int(rest.split()[0])
                if model.base_id < 0:
                    raise ParseError("model id {} is negative".format(model.base_id))
                seen_model = True
            elif head in ("input", "output"):
                idx, dt, r, c = rest.split()
                port = PortSpec(int(idx), mv.DTYPES[dt], *_dims(int(r), int(c)), head == "input")
                ports = model.inputs if head == "input" else model.outputs
                if any(p.index == port.index for p in ports):
                    raise ParseError("duplicate {} port {}".format(head, port.index))
                ports.append(port)
            elif head == "block":
                parts = _split_fields(rest)
                bid, kind = int(parts[0]), parts[1]
                if bid in model.blocks:
                    raise ParseError("duplicate block id {}".format(bid))
                if kind not in blockmod.ARITY:
                    raise ParseError("unknown block kind {!r}".format(kind))
                params, out_sig, named = {}, {}, set()
                for kv in parts[2:]:
                    key, eq, val = kv.partition("=")
                    if not eq:
                        raise ParseError("bad parameter {!r}".format(kv))
                    if key in named:
                        raise ParseError("parameter {!r} given twice".format(key))
                    named.add(key)
                    parsed = values.get(val) or values.setdefault(val, _parse_value(val))
                    if type(parsed) is not tuple:  # a MatValue is a tuple subclass
                        params[key] = parsed
                    elif _OUT_KEY.match(key):
                        out_sig[int(key[3:])] = parsed[1:]
                    else:
                        raise ParseError("signature value for parameter {!r}".format(key))
                _check_params(bid, kind, params)
                model.blocks[bid] = BlockSpec(bid, kind, params, out_sig, lineno)
            elif head == "link":
                lid_s, rest2 = rest.split(None, 1)
                lid = int(lid_s)
                if lid in model.links:
                    raise ParseError("duplicate link id {}".format(lid))
                src_s, dst_s = rest2.split("->")
                src = _parse_endpoint(src_s, True)
                dsts = [_parse_endpoint(d, False) for d in dst_s.split(",")]
                model.links[lid] = LinkSpec(lid, src, dsts, lineno)
            elif head == "region":
                m = re.match(r"^(\d+)\s+then=\[([\d\s,]*)\]\s+else=\[([\d\s,]*)\]\s+select=(\d+)$",
                             rest)
                if not m:
                    raise ParseError("bad region line")
                then_, else_ = ([int(x) for x in m.group(k).replace(",", " ").split()]
                                for k in (2, 3))
                model.regions.append(RegionSpec(int(m.group(1)), then_, else_, int(m.group(4)),
                                                lineno))
            else:
                raise ParseError("unknown directive {!r}".format(head))
        except Exception as e:
            raise ParseError("line {}: {}".format(lineno, e)) from e
    if not seen_model:
        raise ParseError("missing model header")
    model.graph = _build_graph(model)
    return model


def _fault(spec, what: str, *args, error=ParseError):
    """An error, what.format(*args), naming the model line spec was read from."""
    return error("line {}: {}".format(spec.line, what.format(*args)))


def _build_graph(model: Model) -> Graph:
    """Index the links by endpoint and check the structure: endpoints exist,
    each block input, block output and superblock output has one link, block
    inputs have no gaps, arities hold, and regions are well formed. A fault
    names the line of its link, block or region."""
    inputs = {p.index: p for p in sorted(model.inputs, key=attrgetter("index"))}
    outputs = {p.index: p for p in sorted(model.outputs, key=attrgetter("index"))}
    blocks = model.blocks
    in_ports, out_ports = {bid: {} for bid in blocks}, {bid: {} for bid in blocks}
    feeds, fed_by = {k: [] for k in inputs}, {}
    for link in model.links.values():
        src = link.src
        if src[0] == "in":
            if src[1] not in inputs:
                raise _fault(link, "link {}: unknown input port {}", link.id, src[1])
            feeds[src[1]].append(link)
        elif src[1] not in blocks:
            raise _fault(link, "link {}: unknown source block {}", link.id, src[1])
        elif src[2] in out_ports[src[1]]:
            raise _fault(link, "block {} output {} drives links {} and {}", *src[1:],
                         out_ports[src[1]][src[2]].id, link.id)
        else:
            out_ports[src[1]][src[2]] = link
        for d in link.dsts:
            if d[0] == "out":
                if d[1] not in outputs:
                    raise _fault(link, "link {}: unknown output port {}", link.id, d[1])
                if d[1] in fed_by:
                    raise _fault(link, "output port {} is fed by links {} and {}", d[1],
                                 fed_by[d[1]].id, link.id)
                fed_by[d[1]] = link
            elif d[1] not in blocks:
                raise _fault(link, "link {}: unknown destination block {}", link.id, d[1])
            elif d[2] in in_ports[d[1]]:
                raise _fault(link, "block {} input {} is fed by links {} and {}", *d[1:],
                             in_ports[d[1]][d[2]].id, link.id)
            else:
                in_ports[d[1]][d[2]] = link
    ins, outs, slots = {}, {}, {}
    for bid, b in blocks.items():
        by_port, by_out = in_ports[bid], out_ports[bid]
        n_in = max(by_port) if by_port else 0
        if n_in != len(by_port):
            raise _fault(b, "block {} ({}): input {} is not connected, but link {} feeds input {}",
                         bid, b.kind, min(set(range(1, n_in)) - set(by_port)), by_port[n_in].id,
                         n_in)
        n_out = max(by_out) if by_out else 0
        if b.kind == "sciblk":
            n_out = max([n_out] + list(b.out_sig))
        else:
            need_in, max_out, _ = blockmod.ARITY[b.kind]
            if need_in is not None and n_in != need_in:
                raise _fault(b, "block {} ({}): {} inputs connected, needs {}", bid, b.kind, n_in,
                             need_in)
            if n_out > max_out:
                raise _fault(b, "block {} ({}): too many outputs", bid, b.kind)
            if b.kind == "mux" and not n_in:
                raise _fault(b, "block {} (mux): 0 inputs connected, needs at least 1", bid)
            n_out = max_out
        if b.kind == "summation":
            signs = b.params["signs"].data
            if len(signs) != n_in or signs.count(1) + signs.count(-1) != n_in:
                raise _fault(b, "block {} (summation): signs {} are not one 1 or -1 for each of "
                             "its {} inputs", bid, list(signs), n_in)
        # a comprehension costs a call: one input or output is taken without
        ins[bid] = [by_port[p] for p in range(1, n_in + 1)] if n_in > 1 else [*by_port.values()]
        outs[bid] = [by_out[p] for p in sorted(by_out)] if len(by_out) > 1 else [*by_out.values()]
        # an unconnected output takes the first input's signature (a delay
        # or gain nobody listens to), else f64 1x1
        fallback, out1 = ins[bid][0] if n_in else None, by_out.get(1)
        slots[bid] = [(out1, out1 or fallback)] if n_out == 1 else \
            [(by_out.get(p), by_out.get(p) or fallback) for p in range(1, n_out + 1)]
    region_of = {}
    for r in model.regions:
        for role, bids in (("head", [r.ifthenelse]), ("select", [r.select]),
                           ("member", r.then_blocks + r.else_blocks)):
            missing = next((bid for bid in bids if bid not in blocks), None)
            if missing is not None:
                raise _fault(r, "region {}: unknown {} block {}", r.ifthenelse, role, missing)
        if blocks[r.ifthenelse].kind != "ifthenelse":
            raise _fault(r, "region head {} is not an ifthenelse block", r.ifthenelse)
        if blocks[r.select].kind != "select":
            raise _fault(r, "region select {} is not a select block", r.select)
        for bid in sorted(r.members):
            if bid in region_of:
                raise _fault(r, "block {} is listed in region {} and in region {}", bid,
                             region_of[bid].ifthenelse, r.ifthenelse)
            region_of[bid] = r
        for bid in r.then_blocks + r.else_blocks:
            if blocks[bid].kind in ("ifthenelse", "select"):
                raise _fault(r, "{} block {} is a branch member of region {}", blocks[bid].kind,
                             bid, r.ifthenelse)
            if blockmod.ARITY.get(blocks[bid].kind, (0, 0, 0))[2]:
                raise _fault(r, "block {} inside a conditional branch has state", bid,
                             error=ModelError)
            # only the select's value leaves a region: branch results are
            # conditional, so nothing outside may consume them directly
            for l in outs[bid]:
                for d in l.dsts:
                    if d[0] != "block" or d[1] not in r.members:
                        raise _fault(r, "link {} leaves the conditional region of block {}",
                                     l.id, r.ifthenelse, error=ModelError)
    for b in blocks.values():
        if b.kind in ("ifthenelse", "select") and b.id not in region_of:
            raise _fault(b, "{} block {} has no region line", b.kind, b.id)
    return Graph(ins, outs, slots, feeds, fed_by, inputs, outputs, region_of)


# ---------------------------------------------------------------------------
# inference


def _unify(link: LinkSpec, dtype: Dtype, rows, cols, changed: list):
    """Give link the dtype, then the shape, it has none of (a None one gives
    nothing), appending it to `changed` once if either changed; a different
    one it has already is a Conflict."""
    new = False
    if dtype is not None and link.dtype is not dtype:
        if link.dtype is not None:
            raise Conflict("link {}: dtype {} vs {}".format(link.id, link.dtype, dtype))
        link.dtype, new = dtype, True
    if rows is not None and (link.rows != rows or link.cols != cols):
        if link.rows is not None:
            raise Conflict("link {}: shape {}x{} vs {}x{}".format(
                link.id, link.rows, link.cols, rows, cols))
        link.rows, link.cols, new = rows, cols, True
    if new:
        changed.append(link)


def infer(model: Model) -> Model:
    """Fixed-point dtype/shape propagation over the link graph: one pass over
    the blocks in order, then passes over only the blocks on a link that
    changed. A rule applied again to its own writes changes nothing, except
    the matrix gain's, so only that block also runs again after its change."""
    g = model.graph
    changed = []
    for k, links in g.feeds.items():
        p = g.inputs[k]
        for link in links:
            _unify(link, p.dtype, p.rows, p.cols, changed)
    for k, link in g.fed_by.items():
        p = g.outputs[k]
        _unify(link, p.dtype, p.rows, p.cols, changed)
    dirty = set(model.blocks)
    while dirty:
        for b in model.blocks.values():
            if b.id in dirty:
                dirty.discard(b.id)
                changed.clear()
                again = _infer_block(b, g.ins[b.id], g.outs[b.id], changed)
                for l in changed:
                    if l.src[0] == "block":
                        dirty.add(l.src[1])
                    for d in l.dsts:
                        if d[0] == "block":
                            dirty.add(d[1])
                if not again:
                    dirty.discard(b.id)
    for link in model.links.values():
        if link.dtype is None and link.src[0] == "block" \
                and model.blocks[link.src[1]].kind == "relational_op":
            link.dtype = BOOL
        if link.dtype is None or link.rows is None:
            raise Undetermined("link {} has no inferred dtype/shape".format(link.id))
    model.inferred = True
    return model


def _infer_block(b: BlockSpec, ins, outs, changed: list):
    """Apply one block's dtype/shape rule to its links, appending each link
    it changes to `changed`. True when applying it again may change more:
    the matrix gain sets its input's shape after reading it."""
    kind = b.kind
    if kind in ("unit_delay", "summation", "select") and (kind != "summation" or len(ins) != 1):
        # one dtype and one shape for all the links, the first known of each
        group = ins + outs
        dt = rows = cols = None
        for l in group:
            if dt is None:
                dt = l.dtype
            if rows is None:
                rows, cols = l.rows, l.cols
        for l in group:
            if l.dtype is not dt or l.rows != rows or l.cols != cols:
                _unify(l, dt, rows, cols, changed)
    elif kind == "gain":
        i, gain = ins[0], b.params["gain"]
        if not gain.is_scalar and i.rows is not None and i.rows != gain.cols:
            raise Conflict("gain {}: input rows {} vs gain cols {}"
                           .format(b.id, i.rows, gain.cols))
        for o in outs:  # none when the output drives no link
            if i.dtype is not o.dtype:
                _unify(o, i.dtype, None, None, changed)
                _unify(i, o.dtype, None, None, changed)
            if not gain.is_scalar:
                if i.cols is not None:
                    _unify(o, None, gain.rows, i.cols, changed)
                if o.cols is not None:
                    _unify(i, None, gain.cols, o.cols, changed)
                return bool(changed)
            if i.rows != o.rows or i.cols != o.cols:
                _unify(o, None, i.rows, i.cols, changed)
                _unify(i, None, o.rows, o.cols, changed)
    elif kind == "const":
        v = b.params["value"]
        for l in outs:
            _unify(l, v.dtype, v.rows, v.cols, changed)
    elif kind == "summation":
        # one input sums all its elements: the output is 1x1, its dtype the input's
        for l in outs:
            _unify(l, ins[0].dtype, None, None, changed)
            _unify(ins[0], l.dtype, None, None, changed)
            _unify(l, None, 1, 1, changed)
    elif kind == "mux":
        dt = next((l.dtype for l in ins + outs if l.dtype), None)
        for l in ins + outs:
            _unify(l, dt, None, None, changed)
        if all(l.rows is not None for l in ins):
            cols = {l.cols for l in ins}
            if len(cols) > 1:
                raise Conflict("mux {}: mixed column counts".format(b.id))
            for o in outs:
                _unify(o, None, sum(l.rows for l in ins), cols.pop(), changed)
    elif kind == "relational_op":
        a, c = ins
        dt = a.dtype or c.dtype
        _unify(a, dt, None, None, changed)
        _unify(c, dt, None, None, changed)
        rows, cols = (a.rows, a.cols) if a.rows is not None else (c.rows, c.cols)
        for l in (a, c, *outs):
            _unify(l, None, rows, cols, changed)
    elif kind == "ifthenelse":
        _unify(ins[0], None, 1, 1, changed)
    elif kind == "sciblk":
        for port, (dt, r, c) in b.out_sig.items():
            for l in outs:
                if l.src[2] == port:
                    _unify(l, dt, r, c, changed)


# ---------------------------------------------------------------------------
# the block runner


class BlockPlan(Record, namedtuple("BlockPlan", "block ins fetch zeros routes")):
    """How `_run_block` runs one block, built by `_plan` once per simulate
    or generate call: the block; its input links (port 1 first) and `fetch`,
    their values out of a run's link values as a tuple; the io stand-in of
    each output slot, its signature's `_zero`; and per connected output (io
    slot index, link, superblock output ports), those feeding no port first."""
    __slots__ = ()


def _zero(link, zeros):
    """What makes a fresh zero handle of link's signature (f64 1x1 without
    one) when called; one per signature in `zeros`."""
    key = ("f64", 1, 1) if link is None else (link.dtype.tag, link.rows, link.cols)
    if key not in zeros:
        zeros[key] = partial(Num, mv.zeros(mv.DTYPES[key[0]], key[1], key[2]))
    return zeros[key]


def _plan(model: Model) -> dict:
    """Block id -> BlockPlan, bound from `Model.graph` once inference is done."""
    g = model.graph
    zeros, plans, new_plan = {}, {}, partial(tuple.__new__, BlockPlan)
    ports = {l: tuple(k for k, m in g.fed_by.items() if m is l) for l in g.fed_by.values()}
    for bid, b in model.blocks.items():
        ins = g.ins[bid]
        fetch = itemgetter(*ins) if len(ins) > 1 else \
            (lambda linkvals, link=ins[0]: (linkvals[link],)) if ins else (lambda linkvals: ())
        outs, routes = [], []
        for k, (link, template) in enumerate(g.slots[bid], len(ins)):
            outs.append(_zero(template, zeros))
            if link is not None:
                routes.append((k, link, ports.get(link, ())))
        if len(routes) > 1:
            routes.sort(key=lambda route: bool(route[2]))
        plans[bid] = new_plan((b, ins, fetch, outs, routes))
    return plans


def _record(ctx) -> BlockRecord:
    """A driver call's one block record, refilled by `_run_block` for every run."""
    return BlockRecord(ctx, IoList([], 0), StateList([], ctx), None)


def _unread(link, reader):
    """Fail on a read of a link not computed yet, through its input slot's
    stand-in: a delay runs before its input is computed and reads it only at flag 2."""
    raise ModelError("block {} read link {} before it was computed".format(reader, link.id))


def _run_block(rec: BlockRecord, plan: BlockPlan, flag, linkvals, state_vals, branch=None):
    """Run one block behavior at `flag` on the driver's record `rec`, refilled
    in place: inputs from `linkvals`, each output a fresh zero of its slot's
    signature until written, the states `state_vals` itself. Returns the io
    slots (each connected output made after an output run), valid until the
    record's next run. A package error the behavior raises names the block."""
    b, ins, fetch, zeros, routes = plan
    io, st, slots = rec.io, rec.state, rec.io.slots
    try:
        slots[:] = fetch(linkvals)
    except KeyError:
        slots[:] = [linkvals[l] if l in linkvals else partial(_unread, l, b.id) for l in ins]
    io.n_in = len(slots)
    slots += zeros
    io.written = False
    st.entries = state_vals
    st.written.clear()
    rec.params = b.params if branch is None else {**b.params, "active_branch": branch}
    try:
        blockmod.behavior(b.kind)(rec, flag)
    except HeldValue as e:
        k = next((k for k, v in enumerate(slots[:len(ins)]) if v is e.args[0]), None)
        where = "an input" if k is None else "input slot {} (link {})".format(k + 1, ins[k].id)
        raise ModelError("block {} wrote an element of {}: a link's value is read only"
                         .format(b.id, where)) from e
    except (mv.MatError, TraceError, blockmod.BlockError) as e:
        raise ModelError("block {} ({}) at flag {}: {}: {}"
                         .format(b.id, b.kind, flag, type(e).__name__, e)) from e
    if flag == OUTPUT:
        if st.written:
            raise blockmod.FlagPurityError(
                "block {} wrote state during the output phase".format(b.id))
        for k, link, _ in routes:
            value = slots[k]
            if callable(value):
                value = slots[k] = value()
            value = value.value
            if value.rows != link.rows or value.cols != link.cols:
                raise ModelError("block {} ({}) output {} is {}x{}, but link {} is {}x{}".format(
                    b.id, b.kind, k - len(ins) + 1, value.rows, value.cols, link.id,
                    link.rows, link.cols))
    elif flag == STATE and io.written:
        raise blockmod.FlagPurityError(
            "block {} wrote outputs during the state phase".format(b.id))
    return slots


def _held(value: Handle) -> Handle:
    """value, marked as bound to a link: element writes into it now fail,
    since every other reader of the link would see them."""
    value.held = True
    return value


def _const_links(model: Model):
    """Link values known before any block runs: the folded constants."""
    return {l: _held(Num(l.const_value)) for l in model.links.values()
            if l.const_value is not None}


# ---------------------------------------------------------------------------
# constant propagation


_STATELESS_FOLDABLE = ("gain", "summation", "mux", "relational_op")
_const_value = attrgetter("const_value")


def propagate_constants(model: Model, plans: dict = None) -> Model:
    """Links fed only by const blocks through stateless paths carry values;
    those links and blocks drop out of the generated code. `plans` come from `_plan`."""
    g = model.graph
    plans, rec = _plan(model) if plans is None else plans, _record(None)
    changed = True
    while changed:
        changed = False
        for b in model.blocks.values():
            if b.id in model.folded_blocks:
                continue
            if b.kind == "const":
                for l in g.outs[b.id]:
                    l.const_value = mv.convert(b.params["value"], l.dtype)
                model.folded_blocks.add(b.id)
                changed = True
            elif b.kind in _STATELESS_FOLDABLE and b.id not in g.region_of:
                ins = g.ins[b.id]
                if ins and None not in map(_const_value, ins):
                    known = {l: _held(Num(l.const_value)) for l in ins}
                    values = _run_block(rec, plans[b.id], OUTPUT, known, [])
                    for k, l, _ in plans[b.id].routes:
                        l.const_value = mv.convert(values[k].value, l.dtype)
                    model.folded_blocks.add(b.id)
                    changed = True
    return model


# ---------------------------------------------------------------------------
# scheduling


def _order(model: Model, members, nodes: dict):
    """Topological order of `members` by the feedthrough edges among them,
    where a block in `nodes` stands for its region's node there, named by
    the region's head. Edges inside one region node don't count; a block
    that feeds itself is a loop. Kahn's algorithm over edge counts (an edge
    twice is counted and released twice): among the ready nodes the
    smallest id goes first, so a region sorts at its head's id."""
    blocks, ins = model.blocks, model.graph.ins
    waiting, users = dict.fromkeys(map(nodes.get, members, members), 0), {}
    for bid in members:
        if blocks[bid].kind == "unit_delay":
            continue  # delay inputs are consumed in the state phase
        dst = nodes.get(bid, bid)
        for l in ins[bid]:
            if l.const_value is None and l.src[0] == "block" and l.src[1] in members:
                src = nodes.get(l.src[1], l.src[1])
                if src != dst or bid not in nodes:
                    waiting[dst] += 1
                    users.setdefault(src, []).append(dst)
    ready = [n for n, k in waiting.items() if not k]
    heapq.heapify(ready)
    order = []
    while ready:
        n = heapq.heappop(ready)
        order.append(n)
        for m in users.get(n, ()):
            waiting[m] -= 1
            if not waiting[m]:
                heapq.heappush(ready, m)
    if len(order) != len(waiting):
        raise AlgebraicLoop("algebraic loop through blocks {}"
                            .format(sorted(set(waiting) - set(order))))
    return order


def schedule(model: Model) -> Schedule:
    if not model.inferred:
        raise ModelError("schedule needs an inferred model")
    g = model.graph
    live = set(model.blocks) - model.folded_blocks
    nodes = {bid: r.ifthenelse for bid, r in g.region_of.items()}
    output_order = [("region", g.region_of[n]) if n in nodes else n
                    for n in _order(model, live, nodes)]
    branches = {r.ifthenelse: tuple(_order(model, set(blocks) - model.folded_blocks, {})
                                    for blocks in (r.then_blocks, r.else_blocks))
                for r in model.regions}
    stateful = sorted(b for b in live if blockmod.ARITY[model.blocks[b].kind][2])
    return Schedule(output_order, stateful, branches)


# ---------------------------------------------------------------------------
# the superblock driver: one walk of the model for simulate and generate


class CodegenResult(Record, namedtuple("CodegenResult", "text program context model schedule")):
    __slots__ = ()


def _init_states(model: Model, sched: Schedule, plans: dict):
    """Flag -1 pass, each input read as a fresh zero: block id -> the list
    of its states' initial values, as numeric handles."""
    zeros, rec, states = {}, _record(None), {}
    inputs = {l: _zero(l, zeros) for bid in sched.state_order for l in plans[bid].ins}
    fresh = _zero(None, zeros)
    for bid in sched.state_order:
        p = plans[bid]
        states[bid] = [fresh()] * blockmod.ARITY[p.block.kind][2]
        _run_block(rec, p, INIT, inputs, states[bid])
    return states


def _superblock(model: Model, ctx=None):
    """The model run as one block whose behavior runs its blocks: the
    prepared model, its schedule, its ports as one IoSeq (`inouts<k>`,
    inputs first) and its two phases, `output()` and `state()`, each one
    walk of its blocks. With no session `ctx` its handles are numeric: a
    port holds the handle last inserted and a region runs its taken branch.
    While tracing into ctx, each state lives in a static `z_<n>` that the
    state phase copies written states into, a region traces both branches
    into functions joined by `if_cos`, and a link value that a branch
    function or the state phase reads, or that leaves a region's select,
    gets a static `link<n>` unless it has a durable home already."""
    model = infer(model) if not model.inferred else model
    plans = _plan(model)
    model = propagate_constants(model, plans)
    sched = schedule(model)
    states, rec = _init_states(model, sched, plans), _record(ctx)
    g, base, tracing = model.graph, model.base_id, ctx is not None
    # per stateful block: (plan, states its runs read and replace, statics while tracing)
    state_runs, z_ids = [], itertools.count(base * 10 + 1)
    for bid, entries in states.items():
        zs = None
        if tracing:
            zs = ["z_{}".format(next(z_ids)) for _ in entries]
            for z, entry in zip(zs, entries):
                ctx.register_static(z, entry.value)
            entries = states[bid] = [BVar(ctx, e.value, z) for z, e in zip(zs, entries)]
        state_runs.append((plans[bid], entries, zs))

    io = IoSeq(ctx)
    for p in [*g.inputs.values(), *g.outputs.values()]:
        inouts_insert(io, "inouts{}".format(len(io.entries) + 1), mv.zeros(p.dtype, p.rows, p.cols))
    names = tuple(io.entries)
    feeds = [(name, g.feeds[k]) for k, name in zip(g.inputs, names)]
    out_name = dict(zip(g.outputs, names[len(g.inputs):]))
    # no block writes a port fed by a folded constant or straight from an
    # input port, so those ports are written first
    direct = [(out_name[k], l) for k, l in g.fed_by.items()
              if l.const_value is not None or l.src[0] == "in"]
    linkvals = _const_links(model)

    # while tracing, links read by the state phase need a durable home; so
    # do links read inside branch functions, which can only touch ports and globals
    durable_links = {l.id for bid in sched.state_order for l in g.ins[bid]} if tracing else ()
    region_out_links = set()
    for r in model.regions if tracing else ():
        region_out_links.update(l.id for l in g.outs[r.select])
        # a link from a block of the region stays local to the branch function
        durable_links.update(l.id for bid in r.then_blocks + r.else_blocks + [r.select]
                             for l in g.ins[bid]
                             if l.src[0] != "block" or l.src[1] not in r.members)

    def home(link, value: Handle, ports):
        """Where a routed output lives: its ports, else a link static, else itself."""
        if ports:
            for k in ports:
                inouts_insert(io, out_name[k], value)
            return io.entries[out_name[ports[0]]]
        if link.id in region_out_links or link.id in durable_links and value.sym \
                and value.name not in io.entries and value.name not in ctx.statics:
            sname = "link{}".format(base * 10 + link.id)
            if sname not in ctx.statics:
                ctx.register_static(sname, mv.zeros(link.dtype, link.rows, link.cols))
            _copy_into(ctx, sname, value)
            return BVar(ctx, ctx.statics[sname].init, sname)
        return value

    def run(plan, entries=(), branch=None):
        values = _run_block(rec, plan, OUTPUT, linkvals, entries, branch)
        for k, link, ports in plan.routes:
            value = values[k]
            if value.value.dtype is not link.dtype:
                value = bv_convert(value, link.dtype)
            if ports or tracing:
                value = home(link, value, ports)
            value.held = True  # as _held does, without the call
            linkvals[link] = value

    def region(r: RegionSpec, fids):
        cond, orders = linkvals[g.ins[r.ifthenelse][0]], sched.branches[r.ifthenelse]
        for branch in (1, 2) if tracing else (1 if cond.value.data[0] > 0 else 2,):
            if tracing:
                ctx.push_function(fids[branch - 1], io)
            for bid in orders[branch - 1]:
                run(plans[bid])
            run(plans[r.select], (), branch)
            if tracing:
                ctx.pop_function(fids[branch - 1])
        if tracing:
            if_cos(ctx, cond, *(CallTarget(fid, names) for fid in fids))

    # per output-order node: (its plan, its states) or, for a region,
    # (None, (the region, its branch functions' names))
    fn_ids = itertools.count(base * 10 + 1)
    nodes = [(None, (n[1], ["updateOutput{}".format(next(fn_ids)) for _ in "12"]))
             if isinstance(n, tuple) else (plans[n], states.get(n, ()))
             for n in sched.output_order]

    def output():
        for name, links in feeds:
            value = io.entries[name]
            value.held = True
            for l in links:
                linkvals[l] = value
        for name, link in direct:
            inouts_insert(io, name, linkvals[link])
        for plan, entries in nodes:
            if plan is None:
                region(*entries)
            else:
                run(plan, entries)

    def state():
        for plan, entries, zs in state_runs:
            _run_block(rec, plan, STATE, linkvals, entries)
            if tracing:
                for k in sorted(rec.state.written):
                    _copy_into(ctx, zs[k], entries[k])

    return model, sched, io, output, state


def generate(model: Model, cfg: EmitConfig = None, optimize: bool = True) -> CodegenResult:
    """Trace the model into pseudo-code and emit the C program; with
    optimize=False the trace is emitted as recorded."""
    ctx = codegen_init()
    model, sched, io, output, state = _superblock(model, ctx)
    base, g = model.base_id, model.graph
    main_id = base * 10 + 2 * len(sched.branches) + 1
    update_output, update_state = "updateOutput{}".format(main_id), "updateState{}".format(main_id)
    for fn, phase in ((update_output, output), (update_state, state)):
        ctx.push_function(fn, io)
        phase()
        ctx.pop_function(fn)
    ports = [{"name": name, "dtype": p.dtype, "rows": p.rows, "cols": p.cols, "input": p.input}
             for name, p in zip(io.entries, [*g.inputs.values(), *g.outputs.values()])]
    meta = {"ports": ports, "update_output": update_output,
            "update_state": update_state, "base_id": base}
    program = finalize_program(ctx, optimize, init_name="initialize{}".format(base), meta=meta)
    text = cemit.emit_program(program, cfg or EmitConfig(block_id=base))
    return CodegenResult(text, program, ctx, model, sched)


def simulate(model: Model, inputs_per_step, steps: int):
    """Run the model numerically: per step its output phase, then its state
    phase; returns output-port values."""
    model, _, io, output, state = _superblock(model)
    g, names = model.graph, tuple(io.entries)
    ins, outs = list(zip(g.inputs.values(), names)), names[len(g.inputs):]
    outputs = []
    for step in range(steps):
        if step >= len(inputs_per_step):
            raise ModelError("step {}: no input row ({} rows for {} steps)"
                             .format(step, len(inputs_per_step), steps))
        if len(inputs_per_step[step]) != len(g.inputs):
            raise ModelError("step {}: {} input values for {} input ports"
                             .format(step, len(inputs_per_step[step]), len(g.inputs)))
        for (p, name), v in zip(ins, inputs_per_step[step]):
            v = mv.convert(v if isinstance(v, MatValue) else mv.scalar(v), p.dtype)
            if v.shape != (p.rows, p.cols):
                raise ModelError("input {}: shape {} vs port {}x{}"
                                 .format(p.index, v.shape, p.rows, p.cols))
            io.entries[name] = Num(v)  # checked above
        output()
        outputs.append([io.entries[name].value for name in outs])
        state()
    return outputs
