"""The package's records: tuple-backed immutable ones keep value semantics,
and importing blockgen needs neither dataclasses nor inspect."""

import copy
import os
import pathlib
import subprocess
import sys

import pytest

import blockgen
from blockgen import matval as mv
from blockgen.cemit import EmitConfig
from blockgen.matval import F64
from blockgen.model import PortSpec, RegionSpec
from blockgen.trace import (
    Annot, Call, CallTarget, Cast, CopyMat, Decl, Def, ElemRef, IfExpr, Lit, Op,
    Ref, SetElem, Store,
)

ONE = Lit(mv.scalar(1.0))
EXPRS = [ONE, Ref("a"), ElemRef("v", 2), Op("add", (Ref("a"), ONE)), Op("neg", (Ref("a"),)),
         Op("atan2", (Ref("a"), ONE)), Cast(F64, Ref("a"))]
INSTRS = [Def("t", ONE), Store("t", ONE), SetElem("v", 1, ONE), CopyMat("d", "s", 2),
          Annot("note"), IfExpr("c", CallTarget("f", ()), CallTarget("g", ())), Call("f", ())]


def test_importing_blockgen_loads_neither_dataclasses_nor_inspect():
    src = str(pathlib.Path(blockgen.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, blockgen; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("record", EXPRS + INSTRS + [CallTarget("f", ("x",)),
                                                     EmitConfig(5, False)],
                         ids=lambda r: "Op-" + r.op if type(r) is Op else type(r).__name__)
def test_a_record_equals_only_a_record_of_its_class(record):
    same = type(record)(*record)
    assert record == same and not record != same
    assert record != tuple(record) and not record == tuple(record)
    assert tuple(record) != record


def test_records_of_different_classes_with_equal_fields_differ():
    assert Ref("a") != Annot("a") and Annot("a") != Ref("a")
    assert Ref("a") != ("a",) and ("a",) != Ref("a")
    assert Def("t", ONE) != Store("t", ONE)
    assert CallTarget("f", ()) != Call("f", ())
    assert Op("add", (Ref("a"), ONE)) != Op("add", (Annot("a"), ONE))
    assert mv.scalar(1.0) != tuple(mv.scalar(1.0))


def test_records_have_no_tuple_arithmetic():
    with pytest.raises(TypeError):
        Ref("a") + Ref("b")
    with pytest.raises(TypeError):
        Ref("a") * 2


def test_expressions_hash_by_value():
    for e in EXPRS:
        assert hash(e) == hash(type(e)(*e))
    assert len(set(EXPRS + [type(e)(*e) for e in EXPRS])) == len(EXPRS)


def test_repr_text():
    e = Def("t", Op("add", (Ref("a"), Lit(mv.scalar(1.0)))))
    assert repr(e) == ("Def(name='t', expr=Op(op='add', args=(Ref(name='a'), "
                       "Lit(value=MatValue(f64, 1x1, [1.0])))))")


def test_keyword_construction_and_defaults():
    d = Decl("x", F64, 2, 1, static=True)
    assert (d.init, d.static, d.size, d.is_scalar) == (None, True, 2, False)
    d = Decl(name="y", dtype=F64, rows=1, cols=1, init=mv.scalar(2.0))
    assert (d.name, d.init, d.static, d.is_scalar) == ("y", mv.scalar(2.0), False, True)
    assert EmitConfig() == EmitConfig(1000, True)
    cfg = EmitConfig(block_id=7)
    assert (cfg.block_id, cfg.include_runtime_header) == (7, True)
    assert not EmitConfig(include_runtime_header=False).include_runtime_header
    with pytest.raises(ValueError, match="block_id"):
        EmitConfig(block_id=-1)
    with pytest.raises(ValueError, match="block_id"):
        cfg._replace(block_id=-1)
    assert PortSpec(index=1, dtype=F64, rows=1, cols=1, input=True).input
    assert RegionSpec(1, [2], [3], 4).members == {1, 2, 3, 4}


def test_field_replacement_keeps_the_class():
    i = SetElem("v", 1, ONE)._replace(expr=Ref("a"))
    assert type(i) is SetElem and i == SetElem("v", 1, Ref("a"))


def test_records_are_immutable_and_copy_by_value():
    with pytest.raises(AttributeError):
        Ref("a").name = "b"
    with pytest.raises(AttributeError):
        Ref("a").extra = 1
    instrs = copy.deepcopy(INSTRS)
    assert instrs == INSTRS and [type(i) for i in instrs] == [type(i) for i in INSTRS]
