"""Concrete matrix values and their numeric semantics.

Everything here is deliberately pure Python: the interpreted value of an
operation must agree bit for bit with the C code the emitter produces, so
integer arithmetic wraps two's-complement style, float->int conversion
truncates toward zero, and f64 division follows IEEE-754 (x/0 is inf).
Matrices are stored as flat column-major tuples.

A MatValue is an immutable tuple-backed Record (dtype, rows, cols, data)
that equals only another MatValue. Each dtype is one interned Dtype
instance, so dtypes compare by identity; never construct a Dtype outside
this module (Dtype(tag) returns the interned instance, and copies and
pickles keep it).

Each operator's effect on one element is defined once, by elem_kernel; a
conversion is one more operator, named by the tag of the dtype it converts
to. elementwise applies any of them to whole values: the MatValue operations
here, literal folding and the interpreter's lowered code are all built on
the same kernels, and the product of each shape (product), the transpose
tables and the inverse loop work on flat sequences, which the interpreter shares.

Products and transposes read one offset table per shape, built on first
use and cached (product_table, transpose_table), as the tracer's unrolled
ones do. The f64 product is the one exception to looping over kernels: per
inner dimension n, one function built on first use spells every dot
product out as 0.0 + a[p0]*b[q0] + ... + a[p(n-1)]*b[q(n-1)] over the table.
Python evaluates that left to right: the same products added in the same
k-ascending order as reduce(add, map(mul, row, col), 0.0) and the C helper's
res=0; res+=a*b, with elem_kernel's f64 add and mul exactly operator.add and
operator.mul, so every result is bit for bit the loop's, at less than half
its cost. (Only a NaN's sign and payload are not fixed: where two NaNs meet,
which comes out depends on the machine instruction's operand order, in the
loop as in C.) Integer products keep the loop over their wrapping kernels.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from functools import cache, partial, reduce


class MatError(Exception):
    pass


class ShapeMismatch(MatError):
    pass


class DtypeMismatch(MatError):
    pass


class NonSquare(MatError):
    pass


class Singular(MatError):
    pass


class DivisionByZero(MatError):
    pass


class Dtype:
    """An element type. There is one instance per tag, so dtypes compare by
    identity; `Dtype(tag)` returns that instance and copies keep it."""

    __slots__ = ("tag", "is_float", "is_bool", "is_int", "width", "signed", "ctype")

    def __new__(cls, tag):
        return DTYPES[tag]

    def _immutable(self, *args):
        raise AttributeError("dtypes are immutable")

    __setattr__ = __delattr__ = _immutable

    def __hash__(self):
        return hash(self.tag)

    def __reduce__(self):
        return self.tag.upper()  # the module attribute naming this instance

    def __repr__(self):
        return self.tag


def _dtype(tag: str) -> Dtype:
    """The one Dtype of `tag`, its attributes computed once."""
    d = object.__new__(Dtype)
    width = 64 if tag == "f64" else 1 if tag == "bool" else int(tag[1:])
    ctype = {"f64": "double", "bool": "int"}.get(tag) or \
        "{}int{}_t".format("" if tag[0] == "i" else "u", width)
    attrs = dict(tag=tag, is_float=tag == "f64", is_bool=tag == "bool", is_int=tag[0] in "iu",
                 width=width, signed=tag[0] == "i", ctype=ctype)
    for name, value in attrs.items():
        object.__setattr__(d, name, value)
    return d


DTYPES = {tag: _dtype(tag) for tag in ("f64", "bool", "i8", "i16", "i32", "u8", "u16", "u32")}
F64, BOOL, I8, I16, I32, U8, U16, U32 = DTYPES.values()


def _wrapping(fn, dtype: Dtype):
    """fn with its integer result reduced into dtype's range, two's
    complement."""
    mask = (1 << dtype.width) - 1
    half = 1 << (dtype.width - 1) if dtype.signed else 0
    return lambda *args: ((fn(*args) + half) & mask) - half


def wrap_int(v: int, dtype: Dtype) -> int:
    """Reduce v into dtype's range, two's complement."""
    return elem_kernel(dtype.tag, dtype)(v)


class Record(tuple):
    """The base of the package's immutable records, each also derived from a
    collections.namedtuple: a record equals only a record of its own class,
    never a bare tuple, and has none of the tuple's arithmetic."""

    __slots__ = ()

    def __eq__(self, other):
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__

    def _no_arithmetic(self, other):  # not the tuple's concatenation or repetition
        return NotImplemented

    __add__ = __radd__ = __mul__ = __rmul__ = _no_arithmetic


class MatValue(Record, namedtuple("MatValue", "dtype rows cols data")):
    """A rectangular matrix: dtype, shape, flat column-major data."""

    __slots__ = ()

    def __new__(cls, dtype, rows, cols, data):
        if rows < 0 or cols < 0:
            raise ShapeMismatch("negative dimension")
        if len(data) != rows * cols:
            raise ShapeMismatch("data length {} != {}x{}".format(len(data), rows, cols))
        return tuple.__new__(cls, (dtype, rows, cols, data))

    @property
    def shape(self):
        return (self.rows, self.cols)

    @property
    def size(self):
        return self.rows * self.cols

    @property
    def is_scalar(self):
        return self.rows == 1 and self.cols == 1

    def get(self, i: int, j: int):
        """0-based element read."""
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise ShapeMismatch("index ({},{}) out of {}x{}".format(i, j, self.rows, self.cols))
        return self.data[i + self.rows * j]

    def set_linear(self, k: int, v) -> "MatValue":
        if not 0 <= k < self.size:
            raise ShapeMismatch("linear index {} out of {}".format(k, self.size))
        d = list(self.data)
        d[k] = _STORE[self.dtype.tag](v)
        return _unchecked((self.dtype, self.rows, self.cols, tuple(d)))

    def scalar(self):
        if not self.is_scalar:
            raise ShapeMismatch("not a 1x1 value")
        return self.data[0]

    def __repr__(self):
        return "MatValue({}, {}x{}, {})".format(self.dtype, self.rows, self.cols, list(self.data))


# builds a MatValue without validating it, for results whose data length is
# right by construction: _unchecked((dtype, rows, cols, data))
_unchecked = partial(tuple.__new__, MatValue)


def make(dtype: Dtype, rows: int, cols: int, data) -> MatValue:
    return MatValue(dtype, rows, cols, tuple(map(_STORE[dtype.tag], data)))


def scalar(v, dtype: Dtype = None) -> MatValue:
    if dtype is None:  # matrix-language default: bare numbers are doubles
        dtype = BOOL if isinstance(v, bool) else F64
    return _unchecked((dtype, 1, 1, (_STORE[dtype.tag](v),)))


def zeros(dtype: Dtype, rows: int, cols: int) -> MatValue:
    fill = False if dtype.is_bool else (0.0 if dtype.is_float else 0)
    return MatValue(dtype, rows, cols, (fill,) * (rows * cols))


def ones(dtype: Dtype, rows: int, cols: int) -> MatValue:
    return make(dtype, rows, cols, [1] * (rows * cols))


def eye(n: int, dtype: Dtype = F64) -> MatValue:
    data = [1 if i == j else 0 for j in range(n) for i in range(n)]
    return make(dtype, n, n, data)


def diag(values, dtype: Dtype = F64) -> MatValue:
    n = len(values)
    data = [values[i] if i == j else 0 for j in range(n) for i in range(n)]
    return make(dtype, n, n, data)


def from_rows(rows, dtype: Dtype = F64) -> MatValue:
    """Build from a row-major list of lists (the model-file convention)."""
    r = len(rows)
    c = len(rows[0]) if r else 0
    if any(len(row) != c for row in rows):
        raise ShapeMismatch("ragged rows")
    data = [rows[i][j] for j in range(c) for i in range(r)]
    return make(dtype, r, c, data)


def to_rows(a: MatValue):
    return [[a.get(i, j) for j in range(a.cols)] for i in range(a.rows)]


# ---------------------------------------------------------------------------
# element kernels: the one definition of what each operator does to one
# element, shared by simulation, literal folding and the interpreter


def _f64_div(a: float, b: float) -> float:
    if b == 0.0:
        if a == 0.0 or math.isnan(a):
            return math.nan
        neg = (math.copysign(1.0, a) < 0) != (math.copysign(1.0, b) < 0)
        return -math.inf if neg else math.inf
    return a / b


def _int_div(a: int, b: int) -> int:
    if b == 0:
        raise DivisionByZero("integer division by zero")
    q = abs(a) // abs(b)
    return q if (a < 0) == (b < 0) else -q


COMPARE = {
    "eq": operator.eq, "ne": operator.ne, "lt": operator.lt,
    "le": operator.le, "gt": operator.gt, "ge": operator.ge,
}

# op -> (f64 kernel, integer kernel before wrapping); neg takes one operand
_ARITH = {
    "add": (operator.add, operator.add),
    "sub": (operator.sub, operator.sub),
    "mul": (operator.mul, operator.mul),
    "div": (_f64_div, _int_div),
    "neg": (operator.neg, operator.neg),
}

def _libm(fn):
    """fn, NaN where math raises a domain error as libm: sqrt(x < 0), sin or cos of inf."""
    def kernel(x: float) -> float:
        try:
            return fn(x)
        except ValueError:
            return math.nan
    return kernel


_MATH = {"sqrt": _libm(math.sqrt), "sin": _libm(math.sin), "cos": _libm(math.cos),
         "atan2": math.atan2}


def _convert_kernel(src: Dtype, dst: Dtype):
    if dst.is_bool:
        return lambda v: v != 0
    if dst.is_float:
        return float
    if src.is_float:
        truncate = _wrapping(math.trunc, dst)
        # C leaves non-finite values undefined; pick something deterministic
        return lambda v: truncate(v) if math.isfinite(v) else 0
    return _wrapping(int, dst)


# built once, keyed by (op, operand dtype tag); a conversion's op is the
# tag of the dtype it converts to
_ELEM_KERNELS = {
    **{(op, d.tag): fn for op, fn in COMPARE.items() for d in DTYPES.values()},
    **{(op, "f64"): fn for op, fn in _MATH.items()},
    **{(op, "f64"): fns[0] for op, fns in _ARITH.items()},
    **{(op, d.tag): _wrapping(fns[1], d) for op, fns in _ARITH.items()
       for d in DTYPES.values() if d.is_int},
    **{(dst.tag, src.tag): _convert_kernel(src, dst)
       for src in DTYPES.values() for dst in DTYPES.values()},
}
# how make and set_linear store a value of any numeric type as an element
_STORE = {tag: float if tag == "f64" else bool if tag == "bool" else _ELEM_KERNELS[tag, tag]
          for tag in DTYPES}


def elem_kernel(op: str, dtype: Dtype):
    """The function computing one element of op on operands of dtype, with
    the emitted C's semantics: comparisons give a bool, integer results
    wrap, f64 division follows IEEE-754, a conversion (op a dtype tag) acts
    as a C cast or assignment; neg and conversions take one operand, atan2
    two."""
    kernel = _ELEM_KERNELS.get((op, dtype.tag))
    if kernel is None:
        if op in _MATH:
            raise DtypeMismatch("{} needs f64".format(op))
        if op not in _ARITH:
            raise MatError("unknown op " + op)
        raise DtypeMismatch("bool negation" if op == "neg" else
                            "bool participates in arithmetic only after conversion")
    return kernel


# ---------------------------------------------------------------------------
# matrix operations


def broadcast_pair(a: MatValue, b: MatValue):
    """Result shape for elementwise ops with 1x1 broadcast."""
    if a.rows == b.rows and a.cols == b.cols:
        return a.rows, a.cols
    if a.is_scalar:
        return b.shape
    if b.is_scalar:
        return a.shape
    raise ShapeMismatch("shapes {} and {} incompatible".format(a.shape, b.shape))


def _same_dtype(a: MatValue, b: MatValue) -> Dtype:
    if a.dtype is not b.dtype:
        raise DtypeMismatch("{} vs {}".format(a.dtype, b.dtype))
    return a.dtype


def elementwise(op: str, a: MatValue, b: MatValue = None) -> MatValue:
    """The elem_kernel op applied element by element, to a alone or to a and
    b, a 1x1 operand broadcasting; a comparison gives a bool matrix and a
    conversion one of the dtype it names."""
    dtype, x = a[0], a[3]  # tuple reads: a 1x1 operation is mostly lookups
    if b is None:
        kernel = elem_kernel(op, dtype)
        return _unchecked((DTYPES.get(op, dtype), a[1], a[2], tuple(map(kernel, x))))
    y = b[3]
    if dtype is not b[0]:
        _same_dtype(a, b)
    kernel = _ELEM_KERNELS.get((op, dtype.tag)) or elem_kernel(op, dtype)
    if op in COMPARE:
        dtype = BOOL
    if len(x) == 1 == len(y):
        return _unchecked((dtype, 1, 1, (kernel(x[0], y[0]),)))
    rows, cols = broadcast_pair(a, b)
    n = rows * cols
    return _unchecked((dtype, rows, cols, tuple(map(kernel, x if len(x) == n else x * n,
                                                    y if len(y) == n else y * n))))


@cache
def product_table(ar: int, n: int, bc: int) -> tuple:
    """The offsets of an ar x n by n x bc product, one entry per result
    element, column-major: (ps, qs), the flat offsets in a of its row and
    in b of its column, so that its k-th term is a[ps[k]] * b[qs[k]]."""
    return tuple((tuple(range(i, ar * n, ar)), tuple(range(n * j, n * j + n)))
                 for j in range(bc) for i in range(ar))


@cache
def transpose_table(rows: int, cols: int) -> tuple:
    """The source offset of each element of the transpose of rows x cols
    data: the linear indices of a rows x cols matrix, row by row."""
    return tuple(i + rows * j for i in range(rows) for j in range(cols))


@cache
def _f64_product(n: int):
    """fn(table, a, b): every f64 dot product of a product_table with inner
    dimension n over flat a and b, each spelled out as 0.0 + a[p0]*b[q0] +
    ... so that it adds in k-ascending order, as the reduce loop does."""
    dot = "0.0" + "".join(" + a[p{0}]*b[q{0}]".format(k) for k in range(n))
    ps, qs = ("".join("{}{}, ".format(x, k) for k in range(n)) for x in "pq")
    return eval("lambda table, a, b: [{} for ({}), ({}) in table]".format(dot, ps, qs))


@cache
def product(dtype: Dtype, rows: int, inner: int, cols: int):
    """fn(a, b), unchecked: the flat product of flat rows x inner a and inner
    x cols b, k-ascending; for f64 the generated kernel bound to its table."""
    table = product_table(rows, inner, cols)
    if dtype is F64:
        return partial(_f64_product(inner), table)
    mul, add = elem_kernel("mul", dtype), elem_kernel("add", dtype)
    return lambda a, b: [reduce(add, map(mul, map(a.__getitem__, p), map(b.__getitem__, q)), 0)
                         for p, q in table]


def _check_product(dtype: Dtype, ar: int, ac: int, br: int, bc: int):
    if ac != br:
        raise ShapeMismatch("inner dims {}x{} * {}x{}".format(ar, ac, br, bc))
    if dtype.is_bool:
        raise DtypeMismatch("bool matmul")


def matmul_shape(a, b):
    """The (rows, cols) of the product of a and b (anything with dtype, rows
    and cols, neither 1x1), raising as matmul does, without computing it."""
    _same_dtype(a, b)
    _check_product(a.dtype, a.rows, a.cols, b.rows, b.cols)
    return a.rows, b.cols


def matmul(a: MatValue, b: MatValue) -> MatValue:
    if len(a.data) == 1 or len(b.data) == 1:
        return elementwise("mul", a, b)  # a 1x1 operand scales the other
    rows, cols = matmul_shape(a, b)
    data = product(a.dtype, rows, a.cols, cols)(a.data, b.data)
    return _unchecked((a.dtype, rows, cols, tuple(data)))


def divide(a: MatValue, b: MatValue) -> MatValue:
    """a / b: elementwise by a 1x1 b, else a times the inverse of a square b."""
    if len(b.data) == 1:
        return elementwise("div", a, b)
    return matmul(a, invert(b))


def transpose(a: MatValue) -> MatValue:
    data = tuple(map(a.data.__getitem__, transpose_table(a.rows, a.cols)))
    return _unchecked((a.dtype, a.cols, a.rows, data))


def concat_shape(a, b, vertical: bool):
    """The (rows, cols) of a over b (vertical) or of a left of b, neither
    empty (anything with dtype, rows and cols), raising as concat_rows and
    concat_cols do, without building it."""
    _same_dtype(a, b)
    if vertical:
        if a.cols != b.cols:
            raise ShapeMismatch("column counts {} vs {}".format(a.cols, b.cols))
        return a.rows + b.rows, a.cols
    if a.rows != b.rows:
        raise ShapeMismatch("row counts {} vs {}".format(a.rows, b.rows))
    return a.rows, a.cols + b.cols


def concat_rows(a: MatValue, b: MatValue) -> MatValue:
    """Vertical stack, a on top. Empty operands are identities."""
    if not a.data:
        return b
    if not b.data:
        return a
    rows, cols = concat_shape(a, b, vertical=True)
    data = []
    for j in range(cols):
        data.extend(a.data[j * a.rows:(j + 1) * a.rows])
        data.extend(b.data[j * b.rows:(j + 1) * b.rows])
    return _unchecked((a.dtype, rows, cols, tuple(data)))


def concat_cols(a: MatValue, b: MatValue) -> MatValue:
    """Horizontal stack, a on the left."""
    if not a.data:
        return b
    if not b.data:
        return a
    rows, cols = concat_shape(a, b, vertical=False)
    return _unchecked((a.dtype, rows, cols, a.data + b.data))


def convert(a: MatValue, dtype: Dtype) -> MatValue:
    return a if a.dtype is dtype else elementwise(dtype.tag, a)


def sum_all(a: MatValue) -> MatValue:
    zero = 0.0 if a.dtype.is_float else 0
    return _unchecked((a.dtype, 1, 1, (reduce(elem_kernel("add", a.dtype), a.data, zero),)))


def invert_flat(a, n: int) -> list:
    """The inverse of flat column-major n x n f64 data."""
    if n == 1:
        return [_f64_div(1.0, a[0])]
    if n == 2:
        # adjugate / determinant, same arithmetic as the traced sequence
        a11, a21, a12, a22 = a
        det = a11 * a22 - a12 * a21
        if abs(det) < 1e-300:
            raise Singular("2x2 determinant below tolerance")
        return [_f64_div(a22, det), _f64_div(-a21, det),
                _f64_div(-a12, det), _f64_div(a11, det)]
    # Gauss-Jordan with partial pivoting on [A | I]
    aug = [[a[i + n * j] for j in range(n)] + [1.0 if i == j else 0.0 for j in range(n)]
           for i in range(n)]
    tol = 1e-12 * max(abs(v) for v in a)
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(aug[r][col]))
        if abs(aug[piv][col]) <= tol:
            raise Singular("pivot below tolerance at column {}".format(col))
        aug[col], aug[piv] = aug[piv], aug[col]
        pval = aug[col][col]
        for j in range(2 * n):
            aug[col][j] = _f64_div(aug[col][j], pval)
        for r in range(n):
            if r != col and aug[r][col] != 0.0:
                f = aug[r][col]
                for j in range(2 * n):
                    aug[r][j] -= f * aug[col][j]
    return [aug[i][n + j] for j in range(n) for i in range(n)]


def invert(a: MatValue) -> MatValue:
    if a.rows != a.cols:
        raise NonSquare("Division by non square matrix not supported.")
    if a.dtype is not F64:
        raise DtypeMismatch("inverse needs f64")
    return _unchecked((F64, a.rows, a.rows, tuple(invert_flat(a.data, a.rows))))
