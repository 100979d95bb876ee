"""blockgen: a C code generator for discrete-time block-diagram models.

Block behaviors are written against a small matrix language; executing them
over symbolic values records pseudo-code through operator overloading and
partial evaluation, which an optimizer cleans and a printer renders as a
standalone C translation unit. An IR interpreter replays the same
pseudo-code as the validation oracle.
"""

from .matval import (
    BOOL, DTYPES, F64, I8, I16, I32, U8, U16, U32, Dtype, DtypeMismatch,
    MatValue, NonSquare, ShapeMismatch, Singular,
)
from .trace import (
    BVar, Handle, Num, Program, TraceContext, bvarcopy, bvarempty, expand, numerics,
    symbolics, unwrap,
)
from .directives import (
    CallTarget, IoSeq, PersistentPool, codegen_finalize, codegen_init,
    constant, end_function, if_cos, if_exp, inouts, inouts_insert,
    persistent_create, persistent_extract, persistent_insert, put_annotation,
    select_exp, start_function,
)
from .optimizer import code_optimize
from .cemit import EmitConfig, code_printer_c, emit_program
from .irinterp import Machine
from .model import (
    AlgebraicLoop, Conflict, Model, Schedule, Undetermined, generate, infer,
    parse_model, propagate_constants, schedule, simulate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
