"""Block-diagram models: parsing, type/size inference, constant propagation,
scheduling, the code-generation driver, and direct numeric simulation.

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
from .directives import CallTarget, codegen_init, finalize_program, if_cos, inouts, inouts_insert
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
    under half the time of a namedtuple field."""
    __slots__ = ("id", "kind", "params", "out_sig")  # out_sig: port -> (dtype, rows, cols)

    def __init__(self, id, kind, params, out_sig):
        self.id, self.kind, self.params, self.out_sig = id, kind, params, out_sig


class LinkSpec:
    __slots__ = ("id", "src", "dsts", "dtype", "rows", "cols", "const_value")

    def __init__(self, id, src, dsts, dtype=None, rows=None, cols=None, const_value=None):
        self.id = id
        self.src = src    # ("block", id, port) or ("in", k)
        self.dsts = dsts  # of ("block", id, port) or ("out", k)
        self.dtype, self.rows, self.cols, self.const_value = dtype, rows, cols, const_value


class PortSpec(Record, namedtuple("PortSpec", "index dtype rows cols input")):
    __slots__ = ()


class RegionSpec(Record, namedtuple("RegionSpec", "ifthenelse then_blocks else_blocks select")):
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


def _split_fields(text: str):
    """Whitespace split that keeps parenthesized literals together."""
    parts, cur, depth = [], [], 0
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch.isspace() and depth == 0:
            if cur:
                parts.append("".join(cur))
                cur = []
        else:
            cur.append(ch)
    if cur:
        parts.append("".join(cur))
    return parts


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
    if "." not in text:
        raise ParseError("bad endpoint {!r}".format(text))
    b, p = text.split(".")
    if int(p) < 1:
        raise ParseError("bad endpoint {!r}: block ports count from 1".format(text))
    return ("block", int(b), int(p))


def _check_params(bid: int, kind: str, params: dict):
    """Each parameter blocks.PARAMS declares for kind is present if required,
    of its kind and, for a word of a given collection, one of them. No word
    names a block kind: a sciblk running one would run the kind's behavior
    outside its block, or itself without end."""
    for name, (required, value_kind) in blockmod.PARAMS[kind].items():
        if name not in params:
            if required:
                raise ParseError("block {} ({}) needs {}=".format(bid, kind, name))
            continue
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
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            head, rest = (line.split(None, 1) + [""])[:2]
            if head == "model":
                model.base_id = int(rest.split()[0])
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
                params, out_sig = {}, {}
                for kv in parts[2:]:
                    key, _, val = kv.partition("=")
                    if not _:
                        raise ParseError("bad parameter {!r}".format(kv))
                    parsed = _parse_value(val)
                    sig = type(parsed) is tuple  # a MatValue is a tuple subclass
                    m = _OUT_KEY.match(key)
                    if m and sig:
                        out_sig[int(m.group(1))] = parsed[1:]
                    elif sig:
                        raise ParseError("signature value for parameter {!r}".format(key))
                    else:
                        params[key] = parsed
                _check_params(bid, kind, params)
                model.blocks[bid] = BlockSpec(bid, kind, params, out_sig=out_sig)
            elif head == "link":
                lid_s, rest2 = rest.split(None, 1)
                lid = int(lid_s)
                if lid in model.links:
                    raise ParseError("duplicate link id {}".format(lid))
                src_s, dst_s = rest2.split("->")
                src = _parse_endpoint(src_s, src=True)
                dsts = [_parse_endpoint(d, src=False) for d in dst_s.split(",")]
                model.links[lid] = LinkSpec(lid, src, dsts)
            elif head == "region":
                m = re.match(r"^(\d+)\s+then=\[([\d\s,]*)\]\s+else=\[([\d\s,]*)\]\s+select=(\d+)$",
                             rest)
                if not m:
                    raise ParseError("bad region line")
                then_, else_ = ([int(x) for x in m.group(k).replace(",", " ").split()]
                                for k in (2, 3))
                model.regions.append(RegionSpec(int(m.group(1)), then_, else_, int(m.group(4))))
            else:
                raise ParseError("unknown directive {!r}".format(head))
        except Exception as e:
            raise ParseError("line {}: {}".format(lineno, e)) from e
    if not seen_model:
        raise ParseError("missing model header")
    model.graph = _build_graph(model)
    return model


def _attach(table, port, link, what, *args):
    """table[port] = link, unless port has a link already: then raise,
    naming the port by what.format(*args), formatted only then."""
    if port in table:
        raise ParseError("{} links {} and {}".format(what.format(*args), table[port].id, link.id))
    table[port] = link


def _build_graph(model: Model) -> Graph:
    """Index the links by endpoint and check the structure: endpoints exist,
    each block input, block output and superblock output has one link, block
    inputs have no gaps, arities hold, and regions are well formed."""
    inputs = {p.index: p for p in sorted(model.inputs, key=lambda p: p.index)}
    outputs = {p.index: p for p in sorted(model.outputs, key=lambda p: p.index)}
    in_ports = {bid: {} for bid in model.blocks}
    out_ports = {bid: {} for bid in model.blocks}
    feeds = {k: [] for k in inputs}
    fed_by = {}
    for link in model.links.values():
        if link.src[0] == "in":
            if link.src[1] not in inputs:
                raise ParseError("link {}: unknown input port {}".format(link.id, link.src[1]))
            feeds[link.src[1]].append(link)
        else:
            _, bid, port = link.src
            if bid not in model.blocks:
                raise ParseError("link {}: unknown source block {}".format(link.id, bid))
            _attach(out_ports[bid], port, link, "block {} output {} drives", bid, port)
        for d in link.dsts:
            if d[0] == "out":
                if d[1] not in outputs:
                    raise ParseError("link {}: unknown output port {}".format(link.id, d[1]))
                _attach(fed_by, d[1], link, "output port {} is fed by", d[1])
            else:
                if d[1] not in model.blocks:
                    raise ParseError("link {}: unknown destination block {}".format(link.id, d[1]))
                _attach(in_ports[d[1]], d[2], link, "block {} input {} is fed by", d[1], d[2])
    ins, outs, slots = {}, {}, {}
    for b in model.blocks.values():
        by_port = in_ports[b.id]
        n_in = max(by_port, default=0)
        gap = next((p for p in range(1, n_in) if p not in by_port), None)
        if gap is not None:
            raise ParseError("block {} ({}): input {} is not connected, but link {} feeds input {}"
                             .format(b.id, b.kind, gap, by_port[n_in].id, n_in))
        n_out = max(out_ports[b.id], default=0)
        if b.kind == "sciblk":
            n_out = max([n_out] + list(b.out_sig))
        else:
            need_in, max_out, _ = blockmod.ARITY[b.kind]
            if need_in is not None and n_in != need_in:
                raise ParseError("block {} ({}): {} inputs connected, needs {}"
                                 .format(b.id, b.kind, n_in, need_in))
            if n_out > max_out:
                raise ParseError("block {} ({}): too many outputs".format(b.id, b.kind))
            n_out = max_out
        if b.kind == "summation":
            signs = b.params["signs"].data
            if len(signs) != n_in or any(s not in (1, -1) for s in signs):
                raise ParseError("block {} (summation): signs {} are not one 1 or -1 for each "
                                 "of its {} inputs".format(b.id, list(signs), n_in))
        ins[b.id] = [by_port[p] for p in range(1, n_in + 1)]
        outs[b.id] = [out_ports[b.id][p] for p in sorted(out_ports[b.id])]
        # an unconnected output takes the first input's signature (a delay
        # or gain nobody listens to), else f64 1x1
        fallback = ins[b.id][0] if ins[b.id] else None
        slots[b.id] = [(out_ports[b.id].get(p), out_ports[b.id].get(p) or fallback)
                       for p in range(1, n_out + 1)]
    region_of = {}
    for r in model.regions:
        for role, bids in (("head", [r.ifthenelse]), ("select", [r.select]),
                           ("member", r.then_blocks + r.else_blocks)):
            missing = next((bid for bid in bids if bid not in model.blocks), None)
            if missing is not None:
                raise ParseError("region {}: unknown {} block {}"
                                 .format(r.ifthenelse, role, missing))
        if model.blocks[r.ifthenelse].kind != "ifthenelse":
            raise ParseError("region head {} is not an ifthenelse block".format(r.ifthenelse))
        if model.blocks[r.select].kind != "select":
            raise ParseError("region select {} is not a select block".format(r.select))
        for bid in sorted(r.members):
            if bid in region_of:
                raise ParseError("block {} is listed in region {} and in region {}"
                                 .format(bid, region_of[bid].ifthenelse, r.ifthenelse))
            region_of[bid] = r
        for bid in r.then_blocks + r.else_blocks:
            if model.blocks[bid].kind in ("ifthenelse", "select"):
                raise ParseError("{} block {} is a branch member of region {}"
                                 .format(model.blocks[bid].kind, bid, r.ifthenelse))
            if blockmod.ARITY.get(model.blocks[bid].kind, (0, 0, 0))[2]:
                raise ModelError("block {} inside a conditional branch has state".format(bid))
            # only the select's value leaves a region: branch results are
            # conditional, so nothing outside may consume them directly
            for l in outs[bid]:
                for d in l.dsts:
                    if d[0] != "block" or d[1] not in r.members:
                        raise ModelError("link {} leaves the conditional region of block {}"
                                         .format(l.id, r.ifthenelse))
    for b in model.blocks.values():
        if b.kind in ("ifthenelse", "select") and b.id not in region_of:
            raise ParseError("{} block {} has no region line".format(b.kind, b.id))
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
        i, o = ins[0], outs[0]
        if i.dtype is not o.dtype:
            _unify(o, i.dtype, None, None, changed)
            _unify(i, o.dtype, None, None, changed)
        gain = b.params["gain"]
        if not gain.is_scalar:
            if i.rows is not None and i.rows != gain.cols:
                raise Conflict("gain {}: input rows {} vs gain cols {}"
                               .format(b.id, i.rows, gain.cols))
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
        o = outs[0]
        dt = next((l.dtype for l in ins + outs if l.dtype), None)
        for l in ins + outs:
            _unify(l, dt, None, None, changed)
        if all(l.rows is not None for l in ins):
            cols = {l.cols for l in ins}
            if len(cols) > 1:
                raise Conflict("mux {}: mixed column counts".format(b.id))
            _unify(o, None, sum(l.rows for l in ins), cols.pop(), changed)
    elif kind == "relational_op":
        a, c = ins
        dt = a.dtype or c.dtype
        _unify(a, dt, None, None, changed)
        _unify(c, dt, None, None, changed)
        rows, cols = (a.rows, a.cols) if a.rows is not None else (c.rows, c.cols)
        for l in (a, c, outs[0]):
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
    slot index, link, superblock output ports)."""
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
# the generation driver


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


def generate(model: Model, cfg: EmitConfig = None, optimize: bool = True) -> CodegenResult:
    """Trace the model into pseudo-code and emit the C program; with
    optimize=False the trace is emitted as recorded."""
    model = infer(model) if not model.inferred else model
    plans = _plan(model)
    model = propagate_constants(model, plans)
    sched = schedule(model)
    g = model.graph
    base = model.base_id
    cfg = cfg or EmitConfig(block_id=base)

    ctx = codegen_init()
    rec, init_values = _record(ctx), _init_states(model, sched, plans)

    # states become persistents, in init order
    z_ids, state_names = itertools.count(base * 10 + 1), {}
    for bid in sched.state_order:
        state_names[bid] = ["z_{}".format(next(z_ids)) for _ in init_values[bid]]
        for name, entry in zip(state_names[bid], init_values[bid]):
            ctx.register_static(name, entry.value)

    # superblock ports: inputs first, then outputs
    io = inouts(ctx)
    ports_meta = []
    for p in list(g.inputs.values()) + list(g.outputs.values()):
        name = "inouts{}".format(len(ports_meta) + 1)
        inouts_insert(io, name, mv.zeros(p.dtype, p.rows, p.cols))
        ports_meta.append({"name": name, "dtype": p.dtype, "rows": p.rows,
                           "cols": p.cols, "input": p.input})
    io_names = tuple(e for e in io.entries)

    linkvals = _const_links(model)
    for k, meta in zip(g.inputs, ports_meta):
        port = _held(io.entries[meta["name"]])
        for l in g.feeds[k]:
            linkvals[l] = port
    out_port_names = {k: meta["name"] for k, meta in zip(g.outputs, ports_meta[len(g.inputs):])}

    # links read by the state phase need a durable home; so do links read
    # inside branch functions, which can only touch ports and globals
    state_read_links = {l.id for bid in sched.state_order for l in g.ins[bid]}
    region_read_links, region_out_links = set(), set()
    for r in model.regions:
        region_out_links.update(l.id for l in g.outs[r.select])
        # a link from a block of the region stays local to the branch function
        region_read_links.update(l.id for bid in r.then_blocks + r.else_blocks + [r.select]
                                 for l in g.ins[bid]
                                 if l.src[0] != "block" or l.src[1] not in r.members)

    main_id = base * 10 + 2 * len(sched.branches) + 1
    branch_ids = itertools.count(base * 10 + 1)

    def route_output(link, value: Handle):
        value = bv_convert(value, link.dtype)  # a fresh Num: _held marks no block's own output
        port_dsts = [d for d in link.dsts if d[0] == "out"]
        for d in port_dsts:
            inouts_insert(io, out_port_names[d[1]], value)
        if port_dsts:
            linkvals[link] = _held(io.entries[out_port_names[port_dsts[0][1]]])
            return
        durable = not value.sym or value.name in io.entries or value.name in ctx.statics
        needs_durable = link.id in state_read_links or link.id in region_read_links
        if link.id in region_out_links or (needs_durable and not durable):
            sname = "link{}".format(base * 10 + link.id)
            if sname not in ctx.statics:
                ctx.register_static(sname, mv.zeros(link.dtype, link.rows, link.cols))
            _copy_into(ctx, sname, value)
            linkvals[link] = _held(BVar(ctx, ctx.statics[sname].init, sname))
            return
        linkvals[link] = _held(value)

    def run(bid, flag, branch=None):
        st_vals = [BVar(ctx, ctx.statics[name].init, name)
                   for name in state_names.get(bid, [])]
        values, st = _run_block(rec, plans[bid], flag, linkvals, st_vals, branch), rec.state
        if flag == OUTPUT:
            # flush link-homed outputs before port-homed ones
            for k, link, _ in sorted(plans[bid].routes, key=lambda r: bool(r[2])):
                route_output(link, values[k])
        else:
            for k, entry in enumerate(st.entries):
                if k in st.written:
                    _copy_into(ctx, state_names[bid][k], entry)

    def lower_region(region: RegionSpec):
        """Trace both branches into functions called from one `if`."""
        cond = linkvals[g.ins[region.ifthenelse][0]]
        fids = []
        for branch, order in enumerate(sched.branches[region.ifthenelse], 1):
            fids.append("updateOutput{}".format(next(branch_ids)))
            ctx.push_function(fids[-1], io)
            for bid in order:
                run(bid, OUTPUT)
            run(region.select, OUTPUT, branch)
            ctx.pop_function(fids[-1])
        if_cos(ctx, cond, CallTarget(fids[0], io_names), CallTarget(fids[1], io_names))

    # ---- output phase; no block writes a port fed by a folded constant or
    # straight from an input port, so those ports are written first
    update_output = "updateOutput{}".format(main_id)
    ctx.push_function(update_output, io)
    for k, link in g.fed_by.items():
        if link.const_value is not None:
            inouts_insert(io, out_port_names[k], Num(link.const_value))
        elif link.src[0] == "in":
            inouts_insert(io, out_port_names[k], linkvals[link])
    for node in sched.output_order:
        if isinstance(node, tuple):
            lower_region(node[1])
        else:
            run(node, OUTPUT)
    ctx.pop_function(update_output)

    # ---- state phase
    update_state = "updateState{}".format(main_id)
    ctx.push_function(update_state, io)
    for bid in sched.state_order:
        run(bid, STATE)
    ctx.pop_function(update_state)

    meta = {"ports": ports_meta, "update_output": update_output,
            "update_state": update_state, "base_id": base}
    program = finalize_program(ctx, optimize, init_name="initialize{}".format(base), meta=meta)
    text = cemit.emit_program(program, cfg)
    return CodegenResult(text, program, ctx, model, sched)


# ---------------------------------------------------------------------------
# direct numeric simulation


def simulate(model: Model, inputs_per_step, steps: int):
    """Run the model numerically: per step all blocks at flag 1 in output
    order, then flag 2 in state order; returns output-port values."""
    model = infer(model) if not model.inferred else model
    plans = _plan(model)
    model = propagate_constants(model, plans)
    sched = schedule(model)
    # each delay's states stay the list of handles its init run left, which
    # its runs read and replace; infer gives a delay's input its state's dtype
    states, rec = _init_states(model, sched, plans), _record(None)
    state_runs = [(plans[bid], entries) for bid, entries in states.items()]
    g = model.graph
    port_buffers = {k: mv.zeros(p.dtype, p.rows, p.cols) for k, p in g.outputs.items()}
    for k, link in g.fed_by.items():
        if link.const_value is not None:  # folded blocks never run
            port_buffers[k] = link.const_value
    linkvals = _const_links(model)
    # per input port: the links it feeds and the output ports it feeds directly
    sources = [(p, g.feeds[k], [j for j, l in g.fed_by.items() if l.src == ("in", k)])
               for k, p in g.inputs.items()]
    # per output-order node: (its plan, its states) or, for a region, (None, the region)
    output_order = [(None, n[1]) if isinstance(n, tuple) else (plans[n], states.get(n, ()))
                    for n in sched.output_order]

    def run(plan, entries=(), branch=None):
        values = _run_block(rec, plan, OUTPUT, linkvals, entries, branch)
        for k, link, ports in plan.routes:
            value = values[k]
            if value.value.dtype is not link.dtype:
                value = Num(mv.convert(value.value, link.dtype))
            value.held = True  # as _held does, without the call
            linkvals[link] = value
            for port in ports:
                port_buffers[port] = value.value  # infer gave the link its port's dtype

    outputs = []
    for step in range(steps):
        if step >= len(inputs_per_step):
            raise ModelError("step {}: no input row ({} rows for {} steps)"
                             .format(step, len(inputs_per_step), steps))
        if len(inputs_per_step[step]) != len(g.inputs):
            raise ModelError("step {}: {} input values for {} input ports"
                             .format(step, len(inputs_per_step[step]), len(g.inputs)))
        for (p, links, ports), v in zip(sources, inputs_per_step[step]):
            v = mv.convert(v if isinstance(v, MatValue) else mv.scalar(v), p.dtype)
            if v.shape != (p.rows, p.cols):
                raise ModelError("input {}: shape {} vs port {}x{}"
                                 .format(p.index, v.shape, p.rows, p.cols))
            value = Num(v)
            value.held = True  # as _held does, without the call
            for l in links:
                linkvals[l] = value
            for k in ports:
                port_buffers[k] = v
        for plan, entries in output_order:
            if plan is None:  # a region: run only the taken branch
                region = entries
                cond = linkvals[g.ins[region.ifthenelse][0]].value.data[0]
                branch = 1 if cond > 0 else 2
                for bid in sched.branches[region.ifthenelse][branch - 1]:
                    run(plans[bid])
                run(plans[region.select], (), branch)
            else:
                run(plan, entries)
        outputs.append([port_buffers[k] for k in g.outputs])
        for plan, entries in state_runs:
            _run_block(rec, plan, STATE, linkvals, entries)
    return outputs
