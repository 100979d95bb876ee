"""Model parsing, inference, constant propagation, scheduling and the
simulate/generate pair, checked against independent oracles."""

import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import blockgen as bg
from blockgen import blocks
from blockgen import matval as mv
from blockgen.blocks import FlagPurityError
from blockgen.matval import BOOL, F64, I32
from blockgen.irinterp import InterpError, Machine
from blockgen.trace import TraceError
from blockgen import model as md
from blockgen.model import (
    AlgebraicLoop, Conflict, ParseError, Undetermined, parse_model,
    propagate_constants, schedule, simulate,
)

from conftest import assert_close, load_model_text, random_matvalue


def twodelays():
    return parse_model(load_model_text("twodelays.model"))


def coding():
    return parse_model(load_model_text("coding.model"))


def kalman():
    return parse_model(load_model_text("kalman.model"))


# ---------------------------------------------------------------------------
# parsing


def test_parse_twodelays_structure():
    m = twodelays()
    assert m.base_id == 1000
    assert len(m.blocks) == 5 and len(m.links) == 6
    assert m.blocks[1].kind == "gain"
    assert m.blocks[4].params["signs"].data == (1.0, -1.0)


def test_parse_rejects_duplicate_ids():
    text = load_model_text("twodelays.model") + "\nblock 1 gain gain=f64[1x1](1)\n"
    with pytest.raises(ParseError, match=r"line \d+: duplicate block"):
        parse_model(text)


def test_parse_rejects_unknown_link_endpoint():
    with pytest.raises(ParseError):
        parse_model("model 1\ninput 1 f64 1 1\nlink 1 in:1 -> 99.1\n")


def test_parse_rejects_unknown_kind():
    with pytest.raises(ParseError, match=r"line \d+: unknown block kind"):
        parse_model("model 1\nblock 1 warp\n")


@pytest.mark.parametrize("line", ["input 1 f64 0 1", "input 1 f64 1 -1", "output 1 i32 2 0",
                                  "block 1 sciblk behavior=b out1=f64[0x1]"])
def test_parse_rejects_dimensions_below_one(line):
    with pytest.raises(ParseError, match=r"^line 2: dimensions"):
        parse_model("model 1\n" + line + "\n")


def test_parse_rejects_bad_arity():
    text = """
model 1
input 1 f64 1 1
block 1 relational_op op=ne
link 1 in:1 -> 1.1
"""
    with pytest.raises(ParseError, match="needs 2"):
        parse_model(text)


def test_parse_errors_name_their_line():
    with pytest.raises(ParseError, match=r"line 2: bad parameter"):
        parse_model("model 1\nblock 1 gain gain\n")
    with pytest.raises(ParseError, match=r"line 2: literal needs 2 entries"):
        parse_model("model 1\nblock 1 const value=f64[1x2](1)\n")
    with pytest.raises(ParseError, match=r"line 4: duplicate link id 1"):
        parse_model("model 1\ninput 1 f64 1 1\nlink 1 in:1 -> 1.1\nlink 1 in:1 -> 1.1\n")
    with pytest.raises(ParseError, match=r"line 3: duplicate input port 1"):
        parse_model("model 1\ninput 1 f64 1 1\ninput 1 i32 1 1\n")
    with pytest.raises(ParseError, match=r"line 4: bad endpoint '1.0'"):
        parse_model("model 1\ninput 1 f64 1 1\nblock 1 gain gain=2\nlink 1 in:1 -> 1.0\n")
    with pytest.raises(ParseError, match=r"line 2: signature value for parameter 'gain'"):
        parse_model("model 1\nblock 1 gain gain=f64[1x1]\n")


# one fault of a malformed model per case, the lines after a header of two
# inputs (1x1 and 1x2) and a 1x1 output on lines 1-4, and the error naming
# it: a fault within one line names that line, and so does a wiring or
# region fault, found once every line is read, with its link, block or
# region; a conflict found by inference relates two lines and names its
# link or block
MALFORMED = {
    "bad bool literal": (["block 1 const value=bool[1x2](1 2)"],
                         ParseError, "line 5: bad bool literal '2'"),
    "input port as destination": (["link 1 in:1 -> in:2"],
                                  ParseError, "line 5: an input port cannot be a destination"),
    "output port as source": (["link 1 out:1 -> out:1"],
                              ParseError, "line 5: an output port cannot be a source"),
    "endpoint without port": (["link 1 in:1 -> 1"], ParseError, "line 5: bad endpoint '1'"),
    "endpoint with two dots": (["link 1 in:1 -> 1.2.3"], ParseError,
                               "line 5: bad endpoint '1.2.3'"),
    "bad region line": (["region 3 then=[5]"], ParseError, "line 5: bad region line"),
    "unknown directive": (["wire 1 in:1 -> out:1"], ParseError,
                          "line 5: unknown directive 'wire'"),
    "unknown input port": (["link 1 in:3 -> out:1"], ParseError,
                           "line 5: link 1: unknown input port 3"),
    "unknown source block": (["link 1 9.1 -> out:1"], ParseError,
                             "line 5: link 1: unknown source block 9"),
    "unknown output port": (["link 1 in:1 -> out:2"], ParseError,
                            "line 5: link 1: unknown output port 2"),
    "unknown destination block": (["link 1 in:1 -> 9.1"], ParseError,
                                  "line 5: link 1: unknown destination block 9"),
    "input linked twice": (["block 1 gain gain=f64[1x1](2)", "link 1 in:1 -> 1.1",
                            "link 2 in:1 -> 1.1, out:1"],
                           ParseError, "line 7: block 1 input 1 is fed by links 1 and 2"),
    "too many outputs": (["block 1 gain gain=f64[1x1](2)", "link 1 in:1 -> 1.1",
                          "link 2 1.2 -> out:1"],
                         ParseError, r"line 5: block 1 \(gain\): too many outputs"),
    "input gap": (["link 1 in:1 -> 1.2", "block 1 mux", "link 2 1.1 -> out:1"],
                  ParseError, r"line 6: block 1 \(mux\): input 1 is not connected, "
                              r"but link 1 feeds input 2"),
    "arity": (["block 1 relational_op op=gt", "link 1 in:1 -> 1.1", "link 2 1.1 -> out:1"],
              ParseError, r"line 5: block 1 \(relational_op\): 1 inputs connected, needs 2"),
    "mux without inputs": (["block 1 mux", "link 1 1.1 -> out:1"],
                           ParseError, r"line 5: block 1 \(mux\): 0 inputs connected, needs at "
                                       r"least 1"),
    "signs": (["block 1 summation signs=f64[1x2](1 3)", "link 1 in:1 -> 1.1, 1.2",
               "link 2 1.1 -> out:1"],
              ParseError, r"line 5: block 1 \(summation\): signs \[1\.0, 3\.0\] are not one "
                          r"1 or -1 for each of its 2 inputs"),
    "region member": (["block 3 ifthenelse", "block 4 select", "link 1 in:1 -> 3.1, 4.1, 4.2",
                       "link 2 4.1 -> out:1", "region 3 then=[7] else=[] select=4"],
                      ParseError, "line 9: region 3: unknown member block 7"),
    "region head": (["block 3 const value=f64[1x1](0)", "block 4 select",
                     "block 5 const value=f64[1x1](1)", "link 1 in:1 -> 4.2",
                     "link 2 5.1 -> 4.1", "link 3 4.1 -> out:1",
                     "region 3 then=[5] else=[] select=4"],
                    ParseError, "line 11: region head 3 is not an ifthenelse block"),
    "region select": (["block 3 ifthenelse", "block 4 gain gain=f64[1x1](2)",
                       "block 5 const value=f64[1x1](0)", "link 1 in:1 -> 3.1, 4.1",
                       "link 2 4.1 -> out:1", "region 3 then=[5] else=[] select=4"],
                      ParseError, "line 10: region select 4 is not a select block"),
    "gain rows": (["block 1 gain gain=f64[2x3](1 2 3 4 5 6)", "link 1 in:1 -> 1.1",
                   "link 2 1.1 -> out:1"],
                  Conflict, "gain 1: input rows 1 vs gain cols 3"),
    "mux columns": (["block 1 mux", "link 1 in:1 -> 1.1", "link 2 in:2 -> 1.2",
                     "link 3 1.1 -> out:1"],
                    Conflict, "mux 1: mixed column counts"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_a_malformed_model_fails_naming_its_fault(case):
    lines, error, message = MALFORMED[case]
    text = "model 1\ninput 1 f64 1 1\ninput 2 f64 1 2\noutput 1 f64 1 1\n" + "\n".join(lines)
    with pytest.raises(error, match="^{}$".format(message)):
        md.infer(parse_model(text))


def test_parse_bare_true_and_false_are_bool_parameters():
    block = parse_model("model 1\nblock 1 sciblk behavior=ekf_range_bearing on=true off=false\n")\
        .blocks[1]
    assert block.params == {"behavior": "ekf_range_bearing", "on": mv.scalar(True, BOOL),
                            "off": mv.scalar(False, BOOL)}


# a block line missing a parameter its kind needs, or giving one of the
# wrong kind, and the message naming it; the block sits on line 3
BAD_PARAMS = {
    "gain without gain=": ("gain", r"block 1 \(gain\) needs gain="),
    "unit_delay without init=": ("unit_delay", r"block 1 \(unit_delay\) needs init="),
    "summation without signs=": ("summation", r"block 1 \(summation\) needs signs="),
    "sciblk without behavior=": ("sciblk out1=f64[1x1]",
                                 r"block 1 \(sciblk\) needs behavior="),
    "signs=x": ("summation signs=x", r"block 1 \(summation\): signs='x' is not a matrix"),
    "gain=abc": ("gain gain=abc", r"block 1 \(gain\): gain='abc' is not a matrix"),
    "gain twice": ("gain gain=f64[1x1](2) gain=f64[1x1](3)", r"parameter 'gain' given twice$"),
    "out1 twice": ("sciblk behavior=ekf_range_bearing out1=f64[1x1] out1=f64[2x1]",
                   r"parameter 'out1' given twice$"),
    "stray )": ("gain gain=f64[1x1]2) extra=3", r"unbalanced parentheses$"),
    "unclosed (": ("gain gain=f64[1x1](2", r"unbalanced parentheses$"),
    "nested (": ("gain gain=f64[1x1]((2))", r"unbalanced parentheses$"),
}


@pytest.mark.parametrize("case", sorted(BAD_PARAMS))
def test_block_parameters_are_checked_at_parse(case):
    block, message = BAD_PARAMS[case]
    text = "model 1\ninput 1 f64 1 1\nblock 1 {}\nlink 1 in:1 -> 1.1\n".format(block)
    with pytest.raises(ParseError, match=r"^line 3: " + message):
        parse_model(text)


def _char_loop_fields(text):
    """The field split by one character at a time that the tokenizer
    replaced, the reference for lines whose parentheses pair up unnested."""
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


# lines of words, whitespace and literals, "(" ... ")" with no parenthesis inside
_NO_PARENS = st.text(st.characters(blacklist_characters="()"))
_LINES = st.lists(st.one_of(st.sampled_from([" ", "  ", "\t", "\x0b", "\u3000"]), _NO_PARENS,
                            _NO_PARENS.map("({})".format))).map("".join)


@settings(max_examples=300, deadline=None)
@given(_LINES)
def test_field_split_matches_the_character_loop(text):
    assert md._split_fields(text) == _char_loop_fields(text)


@settings(max_examples=300, deadline=None)
@given(_LINES, st.integers(min_value=0), st.sampled_from("()"))
def test_a_parenthesis_more_is_unbalanced(text, at, paren):
    at %= len(text) + 1
    with pytest.raises(ParseError, match="^unbalanced parentheses$"):
        md._split_fields(text[:at] + paren + text[at:])


# a block line whose parameters parse but that its block could not run with,
# and the message naming it: the block sits on line 4, after two f64 inputs,
# and a sign count is checked against the inputs linked to it
BAD_PARAM_VALUES = {
    "op=foo": ("relational_op op=foo", 2,
               r"^line 4: block 1 \(relational_op\): op='foo' is not one of eq ne lt le gt ge$"),
    "behavior=nosuch": ("sciblk behavior=nosuch out1=f64[1x1]", 1,
                        r"^line 4: block 1 \(sciblk\): behavior='nosuch' is not one of "
                        r".*\bekf_range_bearing\b"),
    # a block kind is no behavior: sciblk would run itself without end, or a
    # kind's behavior on a record without that kind's parameters
    **{"behavior=" + kind: ("sciblk behavior={} out1=f64[1x1]".format(kind), 1,
                            r"^line 4: block 1 \(sciblk\): behavior='{}' is not one of "
                            r"(?!.*\b{}\b).*\bekf_range_bearing\b".format(kind, kind))
       for kind in ("sciblk", "gain", "const")},
    "one sign for two inputs": ("summation signs=f64[1x1](1)", 2,
                                r"^line 4: block 1 \(summation\): signs \[1\.0\] are not one 1 or -1 "
                                r"for each of its 2 inputs$"),
    "a sign of 2": ("summation signs=f64[1x2](1 2)", 2,
                    r"^line 4: block 1 \(summation\): signs \[1\.0, 2\.0\] are not one 1 or -1 "
                    r"for each of its 2 inputs$"),
}


@pytest.mark.parametrize("case", sorted(BAD_PARAM_VALUES))
def test_bad_parameter_values_are_rejected_at_parse(case):
    block, n_in, message = BAD_PARAM_VALUES[case]
    links = "".join("link {0} in:{0} -> 1.{0}\n".format(k) for k in range(1, n_in + 1))
    text = "model 1\ninput 1 f64 1 1\ninput 2 f64 1 1\nblock 1 {}\n{}".format(block, links)
    with pytest.raises(ParseError, match=message):
        parse_model(text)


def test_parse_literal_under_an_output_key_stays_a_parameter():
    # a MatValue is a tuple too; only a bare signature declares an output
    block = parse_model("model 1\nblock 1 sciblk behavior=ekf_range_bearing out1=f64[2x1] out2=f64[1x1](3)\n").blocks[1]
    assert block.out_sig == {1: (F64, 2, 1)}
    assert block.params["out2"] == mv.scalar(3.0)


def test_parse_rejects_two_links_into_one_input():
    text = """
model 1
input 1 f64 1 1
input 2 f64 1 1
output 1 f64 1 1
block 1 gain gain=f64[1x1](2)
link 1 in:1 -> 1.1
link 2 in:2 -> 1.1
link 3 1.1 -> out:1
"""
    with pytest.raises(ParseError, match=r"block 1 input 1 is fed by links 1 and 2"):
        parse_model(text)


def test_parse_rejects_two_links_into_one_output():
    text = """
model 1
input 1 f64 1 1
output 1 f64 1 1
block 1 gain gain=f64[1x1](2)
link 1 in:1 -> 1.1, out:1
link 2 1.1 -> out:1
"""
    with pytest.raises(ParseError, match=r"output port 1 is fed by links 1 and 2"):
        parse_model(text)


def test_parse_rejects_one_output_driving_two_links():
    text = """
model 1
input 1 f64 1 1
output 1 f64 1 1
output 2 f64 1 1
block 1 gain gain=f64[1x1](2)
link 1 in:1 -> 1.1
link 2 1.1 -> out:1
link 3 1.1 -> out:2
"""
    with pytest.raises(ParseError, match=r"block 1 output 1 drives links 2 and 3"):
        parse_model(text)


@pytest.mark.parametrize("region, role, missing", [
    ("region 9 then=[5] else=[] select=4", "head", 9),
    ("region 3 then=[5] else=[] select=8", "select", 8),
    ("region 3 then=[5] else=[7] select=4", "member", 7),
], ids=["head", "select", "member"])
def test_parse_rejects_region_naming_unknown_block(region, role, missing):
    text = """
model 1
input 1 i32 1 1
output 1 i32 1 1
block 1 relational_op op=ne
block 3 ifthenelse
block 4 select
block 5 const value=i32[1x1](0)
link 1 in:1 -> 1.1, 1.2, 4.2
link 2 1.1 -> 3.1
link 3 5.1 -> 4.1
link 4 4.1 -> out:1
""" + region + "\n"
    head = region.split()[1]
    with pytest.raises(ParseError, match=r"region {}: unknown {} block {}$"
                       .format(head, role, missing)):
        parse_model(text)


REGIONS_MODEL = """
model 1
input 1 i32 1 1
output 1 i32 1 1
output 2 i32 1 1
block 1 relational_op op=ne
block 3 ifthenelse
block 4 select
block 5 const value=i32[1x1](0)
block 6 ifthenelse
block 7 select
block 8 const value=i32[1x1](1)
block 9 const value=i32[1x1](2)
link 1 in:1 -> 1.1, 1.2, 4.2, 7.2
link 2 1.1 -> 3.1, 6.1
link 3 5.1 -> 4.1
link 4 4.1 -> out:1
link 5 8.1 -> 7.1
link 6 7.1 -> out:2
"""


@pytest.mark.parametrize("regions, message", [
    (["region 3 then=[5, 9] else=[] select=4", "region 6 then=[8, 9] else=[] select=7"],
     "line 21: block 9 is listed in region 3 and in region 6"),
    (["region 3 then=[5] else=[] select=4", "region 6 then=[8] else=[] select=7",
      "region 3 then=[5] else=[] select=4"],
     "line 22: block 3 is listed in region 3 and in region 3"),
], ids=["member", "repeated-line"])
def test_parse_rejects_block_in_two_regions(regions, message):
    # the block used to belong silently to the last region naming it
    with pytest.raises(ParseError, match="^{}$".format(message)):
        parse_model(REGIONS_MODEL + "\n".join(regions) + "\n")


# a select that no region line names as its region's select
SELECT_MODELS = {
    "outside": """
model 1
input 1 i32 1 1
output 1 i32 1 1
block 4 select
block 5 const value=i32[1x1](0)
link 1 in:1 -> 4.2
link 3 5.1 -> 4.1
link 4 4.1 -> out:1
""",
    "member": """
model 1
input 1 i32 1 1
output 1 i32 1 1
block 1 relational_op op=ne
block 3 ifthenelse
block 4 select
block 5 const value=i32[1x1](0)
block 8 select
link 1 in:1 -> 1.1, 1.2, 4.2, 8.2
link 2 1.1 -> 3.1
link 3 5.1 -> 8.1
link 6 8.1 -> 4.1
link 4 4.1 -> out:1
region 3 then=[5, 8] else=[] select=4
""",
}


@pytest.mark.parametrize("case, message", [
    ("outside", "line 5: select block 4 has no region line"),
    ("member", "line 15: select block 8 is a branch member of region 3"),
], ids=["outside", "member"])
def test_parse_rejects_select_outside_its_region_role(case, message):
    # generate used to fail on either with a bare KeyError: 'active_branch'
    with pytest.raises(ParseError, match="^{}$".format(message)):
        parse_model(SELECT_MODELS[case])


def test_cli_names_the_select_outside_every_region(tmp_path, capsys):
    from blockgen import cli
    path = tmp_path / "m.model"
    path.write_text(SELECT_MODELS["outside"])
    for command in ("simulate", "generate"):
        assert cli.main([command, str(path)]) != 0
        assert capsys.readouterr().err == "error: line 5: select block 4 has no region line\n"


def test_a_negative_model_id_fails_in_both_drivers(tmp_path, capsys):
    from blockgen import cli
    path = tmp_path / "m.model"
    path.write_text("model -1\ninput 1 f64 1 1\noutput 1 f64 1 1\nlink 1 in:1 -> out:1\n")
    for command in ("simulate", "generate"):
        assert cli.main([command, str(path)]) != 0
        assert capsys.readouterr().err == "error: line 1: model id -1 is negative\n"


def test_parse_rejects_gap_in_block_inputs():
    text = """
model 1
input 1 f64 1 1
output 1 f64 1 1
block 1 summation signs=f64[1x3](1 1 1)
link 1 in:1 -> 1.1, 1.3
link 2 1.1 -> out:1
"""
    with pytest.raises(ParseError, match=r"block 1 \(summation\): input 2 is not connected, "
                                         r"but link 1 feeds input 3"):
        parse_model(text)


def test_parse_rejects_missing_header():
    with pytest.raises(ParseError, match="missing model header"):
        parse_model("block 1 gain gain=f64[1x1](1)\n")


def test_parse_matrix_literal_row_major():
    text = """
model 1
block 1 const value=f64[2x2](1 2 3 4)
"""
    m = parse_model(text)
    assert mv.to_rows(m.blocks[1].params["value"]) == [[1, 2], [3, 4]]


def test_stateful_block_inside_region_rejected():
    text = """
model 1
input 1 i32 1 1
output 1 i32 1 1
block 1 relational_op op=ne
block 2 unit_delay init=i32[1x1](0)
block 3 ifthenelse
block 4 select
block 5 const value=i32[1x1](0)
link 1 in:1 -> 1.1, 1.2
link 2 1.1 -> 3.1
link 3 5.1 -> 4.1, 2.1
link 4 2.1 -> 4.2
link 5 4.1 -> out:1
region 3 then=[5] else=[2] select=4
"""
    with pytest.raises(md.ModelError, match="has state"):
        parse_model(text)


# ---------------------------------------------------------------------------
# inference


def test_infer_twodelays_all_links_f64():
    m = md.infer(twodelays())
    for link in m.links.values():
        if link.id == 6:
            assert (link.rows, link.cols) == (2, 1)
        else:
            assert (link.rows, link.cols) == (1, 1)
        assert link.dtype == F64


def test_infer_coding_all_links_i32():
    m = md.infer(coding())
    assert all(l.dtype == I32 for l in m.links.values())


def test_infer_mux_sums_rows():
    m = md.infer(twodelays())
    assert (m.links[6].rows, m.links[6].cols) == (2, 1)


def test_infer_undetermined():
    text = """
model 1
block 1 unit_delay init=f64[1x1](0)
link 1 1.1 -> 1.1
"""
    with pytest.raises(Undetermined):
        md.infer(parse_model(text))


def test_infer_conflict():
    text = """
model 1
input 1 f64 1 1
output 1 i32 1 1
block 1 gain gain=f64[1x1](2)
link 1 in:1 -> 1.1
link 2 1.1 -> out:1
"""
    with pytest.raises(Conflict):
        md.infer(parse_model(text))


def test_infer_reruns_a_block_after_its_own_change():
    # the gain runs before the mux: the matrix-gain rule first sets its input
    # to 3x1 from the 5x1 output and only on its second application sees
    # that a 2-row gain cannot feed a 5-row output, so inference must revisit
    # the gain after a change it made itself
    text = """
model 1
input 1 f64 1 1
input 2 f64 2 1
output 1 f64 5 1
block 1 gain gain=f64[2x3](1 2 3 4 5 6)
block 2 mux
link 1 in:1 -> 2.1
link 2 in:2 -> 2.2
link 3 2.1 -> 1.1
link 4 1.1 -> out:1
"""
    with pytest.raises(Conflict, match="link 4: shape 5x1 vs 2x1"):
        md.infer(parse_model(text))


def test_relational_output_defaults_to_bool():
    text = """
model 1
input 1 i32 1 1
output 1 bool 1 1
block 1 relational_op op=eq
block 2 unit_delay init=bool[1x1](0)
link 1 in:1 -> 1.1, 1.2
link 2 1.1 -> 2.1
link 3 2.1 -> out:1
"""
    m = md.infer(parse_model(text))
    assert m.links[2].dtype == BOOL


# ---------------------------------------------------------------------------
# constant propagation


def test_constant_chain_folds():
    text = """
model 1
output 1 f64 1 1
block 1 const value=f64[1x1](3)
block 2 gain gain=f64[1x1](2)
block 3 unit_delay init=f64[1x1](0)
block 4 summation signs=f64[1x2](1 1)
input 1 f64 1 1
link 1 1.1 -> 2.1
link 2 2.1 -> 4.1
link 3 in:1 -> 3.1
link 4 3.1 -> 4.2
link 5 4.1 -> out:1
"""
    m = propagate_constants(md.infer(parse_model(text)))
    assert m.links[1].const_value.scalar() == 3.0
    assert m.links[2].const_value.scalar() == 6.0  # folded through the gain
    assert m.links[4].const_value is None  # delay output never folds
    assert {1, 2} <= m.folded_blocks


def test_constant_links_produce_no_statics():
    m = coding()
    result = bg.generate(m)
    names = {s.name for s in result.program.statics}
    assert names == {"z_10041", "z_10042", "link10046", "link10048"}


# ---------------------------------------------------------------------------
# scheduling


def _feedthrough_edges(model):
    """(link, source block, destination block) of every edge that orders the
    output phase: a non-constant link into a block that is not a delay."""
    for link in model.links.values():
        if link.const_value is not None or link.src[0] != "block":
            continue
        for d in link.dsts:
            if d[0] == "block" and model.blocks[d[1]].kind != "unit_delay":
                yield link, link.src[1], d[1]


def _check_topological(model, order):
    """Oracle: every feedthrough edge respected, every live block present."""
    position = {}
    for k, node in enumerate(order):
        if isinstance(node, tuple):
            for member in node[1].members:
                position[member] = k
        else:
            position[node] = k
    for link, src, dst in _feedthrough_edges(model):
        if position[src] == position.get(dst):
            continue  # same region
        assert position[src] < position[dst], "link {} violates order".format(link.id)


def _check_branch_orders(model, sched):
    """Each branch order holds the branch's live blocks and respects the
    feedthrough edges between them."""
    for r in model.regions:
        then_order, else_order = sched.branches[r.ifthenelse]
        for blocks_, order in ((r.then_blocks, then_order), (r.else_blocks, else_order)):
            assert sorted(order) == sorted(set(blocks_) - model.folded_blocks)
            position = {bid: k for k, bid in enumerate(order)}
            for link, src, dst in _feedthrough_edges(model):
                if src in position and dst in position:
                    assert position[src] < position[dst], \
                        "link {} violates branch order".format(link.id)


def test_schedule_twodelays_respects_dependencies():
    m = md.infer(twodelays())
    s = schedule(m)
    _check_topological(m, s.output_order)
    assert s.state_order == [2, 3]


def test_schedule_needs_an_inferred_model():
    with pytest.raises(md.ModelError, match="^schedule needs an inferred model$"):
        schedule(twodelays())


def test_schedule_deterministic():
    a = schedule(md.infer(twodelays()))
    b = schedule(md.infer(twodelays()))
    assert a.output_order == b.output_order


def test_schedule_all_fixtures():
    for maker in (twodelays, coding, kalman):
        m = propagate_constants(md.infer(maker()))
        _check_topological(m, schedule(m).output_order)


def test_schedule_branch_orders_coding():
    m = propagate_constants(md.infer(coding()))
    _check_branch_orders(m, schedule(m))


BRANCH_CHAIN_MODEL = """
model 7000
input 1 i32 1 1
output 1 i32 1 1
block 1 relational_op op=ne
block 2 unit_delay init=i32[1x1](0)
block 3 ifthenelse
block 4 select
block 5 gain gain=f64[1x1](2)
block 6 gain gain=f64[1x1](3)
link 1 in:1 -> 1.1, 2.1, 6.1
link 2 2.1 -> 1.2, 4.2
link 3 1.1 -> 3.1
link 4 6.1 -> 5.1
link 5 5.1 -> 4.1
link 6 4.1 -> out:1
region 3 then=[5, 6] else=[] select=4
"""


def test_schedule_branch_order_follows_edges_not_ids():
    # gain 6 feeds gain 5 inside the then-branch, against id order
    m = propagate_constants(md.infer(parse_model(BRANCH_CHAIN_MODEL)))
    sched = schedule(m)
    assert sched.branches[3] == ([6, 5], [])
    _check_branch_orders(m, sched)
    rng = random.Random(21)
    inputs = [[mv.make(I32, 1, 1, [rng.randint(0, 3)])] for _ in range(30)]
    _equivalence(parse_model(BRANCH_CHAIN_MODEL), inputs, 30, exact=True)


def test_algebraic_loop_detected():
    # gain and summation form a pure feedthrough cycle
    text = """
model 1
input 1 f64 1 1
output 1 f64 1 1
block 1 gain gain=f64[1x1](2)
block 2 summation signs=f64[1x2](1 1)
link 1 in:1 -> 2.1
link 2 2.1 -> 1.1, out:1
link 3 1.1 -> 2.2
"""
    with pytest.raises(AlgebraicLoop):
        schedule(md.infer(parse_model(text)))


def test_feedthrough_self_loop_detected():
    # a summation reading its own output is a loop of one block
    text = """
model 1
input 1 f64 1 1
output 1 f64 1 1
block 1 summation signs=f64[1x2](1 1)
link 1 in:1 -> 1.1
link 2 1.1 -> 1.2, out:1
"""
    with pytest.raises(AlgebraicLoop, match=r"blocks \[1\]"):
        schedule(md.infer(parse_model(text)))


def test_delay_breaks_loop():
    # the same cycle with a unit delay in place of the gain schedules fine
    text = """
model 1
input 1 f64 1 1
output 1 f64 1 1
block 1 unit_delay init=f64[1x1](0)
block 2 summation signs=f64[1x2](1 1)
link 1 in:1 -> 2.1
link 2 2.1 -> 1.1, out:1
link 3 1.1 -> 2.2
"""
    s = schedule(md.infer(parse_model(text)))
    assert s.output_order == [1, 2]


# ---------------------------------------------------------------------------
# simulation oracles


def coding_oracle(inputs):
    """Hand-stepped replay of the consecutive-equal counter."""
    prev = 0
    count_delay = 0
    out = []
    for x in inputs:
        differs = 1 if x != prev else 0
        merged = 0 if differs else count_delay
        incremented = merged + 1
        out.append((count_delay, differs))
        prev = x
        count_delay = incremented
    return out


def test_simulate_coding_matches_hand_oracle():
    seq = [0, 0, 0, 1, 1, 0]
    inputs = [[mv.make(I32, 1, 1, [v])] for v in seq]
    outs = simulate(coding(), inputs, len(seq))
    got = [(o[0].scalar(), o[1].scalar()) for o in outs]
    assert got == coding_oracle(seq)


def test_simulate_coding_random_matches_hand_oracle():
    rng = random.Random(19)
    seq = [rng.randint(0, 1) for _ in range(100)]
    inputs = [[mv.make(I32, 1, 1, [v])] for v in seq]
    outs = simulate(coding(), inputs, len(seq))
    got = [(o[0].scalar(), o[1].scalar()) for o in outs]
    assert got == coding_oracle(seq)


def test_simulate_twodelays_zero_input_stays_at_init():
    inputs = [[mv.scalar(0.0)] for _ in range(4)]
    outs = simulate(twodelays(), inputs, 4)
    for o in outs:
        assert list(o[0].data) == [0.0, 0.0]


def test_simulate_twodelays_hand_stepped():
    # delay1 <- (delay1 - delay2), delay2 <- input; output [delay1; input]
    seq = [1.0, 2.0, 3.0, 4.0]
    d1 = d2 = 0.0
    expect = []
    for x in seq:
        expect.append([d1, x])
        d1, d2 = d1 - d2, x
    outs = simulate(twodelays(), [[mv.scalar(v)] for v in seq], len(seq))
    assert [list(o[0].data) for o in outs] == expect


def ekf_numpy_trajectory(meas_seq):
    """Independent numpy implementation of the filter over a measurement
    sequence, seeded exactly like the model's delays."""
    dt = 0.1
    Q = np.diag([0, .1, 0, .1])
    R = np.diag([50 ** 2, 0.005 ** 2])
    F = np.array([[1, dt, 0, 0], [0, 1, 0, 0], [0, 0, 1, dt], [0, 0, 0, 1]])
    xhat = np.array([-900.0, 80.0, 950.0, 20.0])
    P = np.zeros((4, 4))
    outs = []
    for meas in meas_seq:
        rangeHat = math.sqrt(xhat[0] ** 2 + xhat[2] ** 2)
        bearingHat = math.atan2(xhat[2], xhat[0])
        yhat = np.array([rangeHat, bearingHat])
        H = np.array([[math.cos(bearingHat), 0, math.sin(bearingHat), 0],
                      [-math.sin(bearingHat) / rangeHat, 0,
                       math.cos(bearingHat) / rangeHat, 0]])
        xpred = F @ xhat
        Ppred = F @ P @ F.T + Q
        K = Ppred @ H.T @ np.linalg.inv(H @ Ppred @ H.T + R)
        xhat = xpred + K @ (meas - yhat)
        P = (np.eye(4) - K @ H) @ Ppred
        outs.append(xhat.copy())
    return outs


def synthetic_trajectory(steps, seed=0):
    """Range/bearing measurements of a constant-velocity target."""
    rng = random.Random(seed)
    x, vx, y, vy = -950.0, 82.0, 960.0, 18.0
    meas = []
    for _ in range(steps):
        x += 0.1 * vx
        y += 0.1 * vy
        rng_noise = rng.uniform(-1.0, 1.0)
        brg_noise = rng.uniform(-0.001, 0.001)
        meas.append((math.hypot(x, y) + rng_noise, math.atan2(y, x) + brg_noise))
    return meas


def test_simulate_kalman_matches_numpy_oracle():
    meas = synthetic_trajectory(20)
    inputs = [[mv.from_rows([[r], [b]])] for r, b in meas]
    outs = simulate(kalman(), inputs, len(meas))
    want = ekf_numpy_trajectory([np.array(m) for m in meas])
    for got, ref in zip(outs, want):
        np.testing.assert_allclose(np.array(got[0].data), ref, rtol=1e-8, atol=1e-8)


def test_simulate_memory_does_not_grow_with_steps(monkeypatch):
    # block behaviors annotate in numeric mode too; a numeric run has no
    # session to keep those annotations in, so simulate (with its constant
    # folding and initial-state pass) builds none
    made = []
    init = bg.trace.TraceContext.__init__

    def counting(self):
        init(self)
        made.append(self)

    monkeypatch.setattr(bg.trace.TraceContext, "__init__", counting)
    for steps in (10, 100):
        simulate(twodelays(), [[0.0]] * steps, steps)
        assert made == []
    bg.generate(twodelays())
    assert len(made) == 1  # the counter does count


def test_simulate_zeros_do_not_grow_with_steps(monkeypatch):
    # output slots start from zeros built once per call, not once per run
    calls = []
    zeros = mv.zeros

    def counting(*args):
        calls.append(args)
        return zeros(*args)

    monkeypatch.setattr(mv, "zeros", counting)
    counts = []
    for steps in (10, 100):
        calls.clear()
        simulate(twodelays(), [[0.0]] * steps, steps)
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_output_slot_writes_stay_in_their_run(monkeypatch):
    # output slots of one signature start from one shared zero value; a
    # behavior that writes an element of its own output slot in place must
    # leave the other block and the next step reading zero
    def writes_in_place(blk, flag):
        if flag == blocks.OUTPUT and blk.io[1].value.scalar() > 0:
            y = blk.io[2]
            y[1] = blk.io[1]

    monkeypatch.setitem(blocks.BEHAVIORS, "gain", writes_in_place)
    text = """
model 1
input 1 f64 1 1
output 1 f64 1 1
output 2 f64 1 1
block 1 gain gain=f64[1x1](1)
block 2 summation signs=f64[1x1](-1)
block 3 gain gain=f64[1x1](1)
link 1 in:1 -> 1.1, 2.1
link 2 1.1 -> out:1
link 3 2.1 -> 3.1
link 4 3.1 -> out:2
"""
    outs = simulate(parse_model(text), [[5.0], [-1.0], [5.0]], 3)
    assert [[v.data for v in row] for row in outs] == [
        [(5.0,), (0.0,)], [(0.0,), (1.0,)], [(5.0,), (0.0,)]]


@pytest.mark.parametrize("source", ["in:1", "3.1"], ids=["input port", "folded const"])
def test_element_write_into_an_input_slot_fails_in_both_modes(monkeypatch, source):
    # one value feeds two gains; a gain that writes an element of its input
    # would change what the other gain reads (and, in the C, its caller's
    # input), so the write fails and names the block, slot and link
    original = blocks.BEHAVIORS["gain"]

    def writes_its_input(blk, flag):
        if flag == blocks.OUTPUT:
            x = blk.io[1]
            x[1] = 99
        original(blk, flag)

    monkeypatch.setitem(blocks.BEHAVIORS, "gain", writes_its_input)
    text = """
model 1
input 1 f64 1 1
output 1 f64 1 1
output 2 f64 1 1
block 1 gain gain=f64[1x1](2)
block 2 gain gain=f64[1x1](3)
block 3 const value=f64[1x1](1)
link 1 {} -> 1.1, 2.1
link 2 1.1 -> out:1
link 3 2.1 -> out:2
""".format(source)
    message = r"block 1 wrote an element of input slot 1 \(link 1\)"
    with pytest.raises(md.ModelError, match=message):
        simulate(parse_model(text), [[1.0]], 1)
    with pytest.raises(md.ModelError, match=message):
        bg.generate(parse_model(text))


def test_reading_an_uncomputed_link_names_block_and_link(monkeypatch):
    # one chain stage: the delay runs first, before the summation computes
    # the link feeding it, so a delay that reads its input at flag 1 fails
    original = blocks.BEHAVIORS["unit_delay"]

    def reads_input_at_output(blk, flag):
        if flag == blocks.OUTPUT:
            blk.io[1]
        original(blk, flag)

    monkeypatch.setitem(blocks.BEHAVIORS, "unit_delay", reads_input_at_output)
    text = """
model 1
input 1 f64 1 1
output 1 f64 1 1
block 1 summation signs=f64[1x2](1 1)
block 2 unit_delay init=f64[1x1](0)
block 3 gain gain=f64[1x1](0.5)
link 1 in:1 -> 1.1
link 2 1.1 -> 2.1, out:1
link 3 2.1 -> 3.1
link 4 3.1 -> 1.2
"""
    message = "block 2 read link 2 before it was computed"
    with pytest.raises(md.ModelError, match=message):
        simulate(parse_model(text), [[1.0]], 1)
    with pytest.raises(md.ModelError, match=message):
        bg.generate(parse_model(text))


def test_simulate_input_shape_check():
    with pytest.raises(md.ModelError):
        simulate(kalman(), [[mv.scalar(1.0)]], 1)


TWO_INPUT_SUM = """
model 1
input 1 f64 1 1
input 2 f64 1 1
output 1 f64 1 1
block 1 summation signs=f64[1x2](1 1)
link 1 in:1 -> 1.1
link 2 in:2 -> 1.2
link 3 1.1 -> out:1
"""


def test_simulate_rejects_a_short_stimulus_row():
    # a row with fewer values than input ports used to reuse the previous
    # step's value for the missing port
    with pytest.raises(md.ModelError, match=r"^step 1: 1 input values for 2 input ports$"):
        simulate(parse_model(TWO_INPUT_SUM), [[1.0, 2.0], [10.0], [100.0]], 3)
    with pytest.raises(md.ModelError, match=r"^step 0: 3 input values for 2 input ports$"):
        simulate(parse_model(TWO_INPUT_SUM), [[1.0, 2.0, 3.0]], 1)


def test_too_few_stimulus_rows_name_the_step():
    rows = [[1.0, 2.0], [3.0, 4.0]]
    with pytest.raises(md.ModelError, match=r"^step 2: no input row \(2 rows for 5 steps\)$"):
        simulate(parse_model(TWO_INPUT_SUM), rows, 5)
    machine = Machine(bg.generate(parse_model(TWO_INPUT_SUM)).program).run_init()
    stimuli = [[mv.scalar(a), mv.scalar(b)] for a, b in rows]
    with pytest.raises(InterpError, match=r"^step 2: no input row \(2 rows for 5 steps\)$"):
        machine.run_steps(stimuli, 5)
    with pytest.raises(InterpError, match=r"^step 1: 1 input values for 2 input ports$"):
        machine.run_steps([stimuli[0], stimuli[1][:1]], 2)


def _writes_state_at_output(original):
    def behavior(blk, flag):
        original(blk, flag)
        if flag == blocks.OUTPUT:
            blk.state[1] = blk.state[1]
    return behavior


def _writes_output_at_state(original):
    def behavior(blk, flag):
        original(blk, flag)
        if flag == blocks.STATE:
            blk.io[2] = blk.state[1]
    return behavior


@pytest.mark.parametrize("impure", [_writes_state_at_output, _writes_output_at_state])
def test_driver_enforces_flag_purity(monkeypatch, impure):
    monkeypatch.setitem(blocks.BEHAVIORS, "unit_delay",
                        impure(blocks.BEHAVIORS["unit_delay"]))
    with pytest.raises(FlagPurityError):
        bg.generate(twodelays())
    with pytest.raises(FlagPurityError):
        simulate(twodelays(), [[mv.scalar(1.0)]] * 2, 2)


# ---------------------------------------------------------------------------
# the run frame: one per block, refilled on every run


# two chain stages: each a summation fed by the stage before and by a gain on
# its own delay, the summation feeding the delay and the next stage
TWO_STAGES = """
model 1
input 1 f64 1 1
output 1 f64 1 1
block 1 summation signs=f64[1x2](1 1)
block 2 unit_delay init=f64[1x1](0)
block 3 gain gain=f64[1x1](0.5)
block 4 summation signs=f64[1x2](1 1)
block 5 unit_delay init=f64[1x1](0)
block 6 gain gain=f64[1x1](0.25)
link 1 in:1 -> 1.1
link 2 1.1 -> 2.1, 4.1
link 3 2.1 -> 3.1
link 4 3.1 -> 1.2
link 5 4.1 -> 5.1, out:1
link 6 5.1 -> 6.1
link 7 6.1 -> 4.2
"""


def test_an_unwritten_output_slot_reads_zero_on_the_next_run(monkeypatch):
    # the frame keeps its slots list from run to run; an output the behavior
    # leaves unwritten must start from zero again, not from the last run
    def passes_positive(blk, flag):
        if flag == blocks.OUTPUT and blk.io[1].value.scalar() > 0:
            blk.io[2] = blk.io[1]

    monkeypatch.setitem(blocks.BEHAVIORS, "passes_positive", passes_positive)
    text = """
model 1
input 1 f64 1 1
output 1 f64 1 1
block 1 sciblk behavior=passes_positive out1=f64[1x1]
link 1 in:1 -> 1.1
link 2 1.1 -> out:1
"""
    outs = simulate(parse_model(text), [[5.0], [-1.0], [3.0]], 3)
    assert [row[0].data for row in outs] == [(5.0,), (0.0,), (3.0,)]


@pytest.mark.parametrize("impure", [_writes_state_at_output, _writes_output_at_state])
def test_flag_purity_holds_on_a_frame_after_a_clean_run(monkeypatch, impure):
    # clean on each phase's first run, impure on its second: the frame's
    # written marks are reset before each run and set again by this one
    original = blocks.BEHAVIORS["unit_delay"]
    dirty = impure(original)
    runs = {blocks.OUTPUT: 0, blocks.STATE: 0}

    def second_run_impure(blk, flag):
        if flag in runs:
            runs[flag] += 1
            if runs[flag] == 2:
                return dirty(blk, flag)
        original(blk, flag)

    monkeypatch.setitem(blocks.BEHAVIORS, "unit_delay", second_run_impure)
    model = "model 1\ninput 1 f64 1 1\noutput 1 f64 1 1\nblock 1 unit_delay init=f64[1x1](0)\n" \
            "link 1 in:1 -> 1.1\nlink 2 1.1 -> out:1\n"
    simulate(parse_model(model), [[1.0]], 1)  # one run per phase: clean
    runs.update({blocks.OUTPUT: 0, blocks.STATE: 0})
    with pytest.raises(FlagPurityError):
        simulate(parse_model(model), [[1.0]] * 2, 2)


def test_the_select_traced_twice_sees_each_branch(monkeypatch):
    # generate traces a region's select once per branch on one frame
    seen = []
    original = blocks.BEHAVIORS["select"]

    def recording(blk, flag):
        seen.append(blk.params["active_branch"])
        original(blk, flag)

    monkeypatch.setitem(blocks.BEHAVIORS, "select", recording)
    model = coding()
    bg.generate(model)
    assert seen == [1, 2]
    assert "active_branch" not in model.blocks[6].params  # the block's own params stay


def test_an_element_write_into_an_input_on_a_later_run_names_slot_and_link(monkeypatch):
    # the frame refills its input slots from the link values on every run;
    # the error of a later run still names the slot and its link
    original = blocks.BEHAVIORS["gain"]
    runs = []

    def writes_its_input_on_step_two(blk, flag):
        runs.append(flag)
        if len(runs) == 2:
            x = blk.io[1]
            x[1] = 99
        original(blk, flag)

    monkeypatch.setitem(blocks.BEHAVIORS, "gain", writes_its_input_on_step_two)
    text = "model 1\ninput 1 f64 1 1\noutput 1 f64 1 1\nblock 1 gain gain=f64[1x1](2)\n" \
           "link 1 in:1 -> 1.1\nlink 2 1.1 -> out:1\n"
    with pytest.raises(md.ModelError, match=r"^block 1 wrote an element of input slot 1 "
                                            r"\(link 1\): a link's value is read only$"):
        simulate(parse_model(text), [[1.0], [2.0]], 2)
    assert runs == [blocks.OUTPUT, blocks.OUTPUT]


def test_simulate_looks_up_the_behavior_on_every_block_run(monkeypatch):
    # the benchmark's traced run counts blocks.behavior calls as block runs:
    # per stage, an init run, then per step three output runs and a state run
    calls = []
    lookup = blocks.behavior

    def counting(kind):
        calls.append(kind)
        return lookup(kind)

    monkeypatch.setattr(blocks, "behavior", counting)
    simulate(parse_model(TWO_STAGES), [[1.0], [2.0]], 2)
    assert len(calls) == 2 * (1 + 2 * (3 + 1))
    assert calls.count("unit_delay") == 2 * (1 + 2 * 2)


def _adds_a_free_symbol(blk, flag):
    if flag == blocks.OUTPUT:
        blk.io[2] = blk.io[1] + bg.symbolics(blk.ctx, mv.scalar(0.0))


def test_a_session_only_call_in_a_numeric_run_names_the_block(monkeypatch):
    """A numeric run has no recording session: symbolics of its record's ctx
    fails as a TraceError that the runner reports with the block, its kind
    and the flag, while generate, which records, runs the same behavior."""
    monkeypatch.setitem(blocks.BEHAVIORS, "adds_a_free_symbol", _adds_a_free_symbol)
    text = ("model 1\ninput 1 f64 1 1\noutput 1 f64 1 1\n"
            "block 1 sciblk behavior=adds_a_free_symbol out1=f64[1x1]\n"
            "link 1 in:1 -> 1.1\nlink 2 1.1 -> out:1\n")
    with pytest.raises(md.ModelError, match=r"block 1 \(sciblk\) at flag 1: TraceError: "
                                            r"symbolics needs a recording session"):
        simulate(parse_model(text), [[1.0]], 1)
    assert "tmp_" in bg.generate(parse_model(text)).text
    for call in (lambda: bg.if_cos(None, 1.0, None, None), lambda: bg.inouts(None)):
        with pytest.raises(TraceError, match="needs a recording session"):
            call()


def _writes_nothing(blk, flag):
    pass


def _writes_an_element_of_its_output(blk, flag):
    if flag == blocks.OUTPUT:
        out = blk.io[3]
        out[1] = blk.io[1][1] * 2.0


def test_an_output_a_behavior_never_writes_is_its_zero(monkeypatch):
    """An output slot starts as a stand-in that makes its zero when read: an
    output never touched is that zero, and a read output keeps the element
    the behavior writes into it, in simulate as in the generated program."""
    monkeypatch.setitem(blocks.BEHAVIORS, "writes_nothing", _writes_nothing)
    monkeypatch.setitem(blocks.BEHAVIORS, "writes_an_element", _writes_an_element_of_its_output)
    text = ("model 1\ninput 1 f64 1 1\noutput 1 f64 1 1\noutput 2 f64 2 1\n"
            "block 1 sciblk behavior=writes_nothing out1=f64[1x1]\n"
            "block 2 sciblk behavior=writes_an_element out2=f64[2x1]\n"
            "link 1 in:1 -> 1.1, 2.1\nlink 2 1.1 -> out:1\nlink 3 2.2 -> out:2\n")
    inputs = [[mv.scalar(3.0)], [mv.scalar(4.0)]]
    want = [[mv.scalar(0.0), mv.make(F64, 2, 1, [2.0 * x, 0.0])] for x in (3.0, 4.0)]
    assert simulate(parse_model(text), inputs, 2) == want
    machine = Machine(bg.generate(parse_model(text)).program).run_init()
    assert machine.run_steps(inputs, 2) == want


# ---------------------------------------------------------------------------
# generation / interpretation equivalence


def _equivalence(model, inputs, steps, exact):
    simulated = simulate(model, inputs, steps)
    result = bg.generate(model)
    machine = Machine(result.program).run_init()
    interpreted = machine.run_steps(inputs, steps)
    for srow, irow in zip(simulated, interpreted):
        for s, i in zip(srow, irow):
            if exact:
                assert s.data == i.data
            else:
                assert_close(s, i, rel=1e-12)


# a block whose output drives no link, beside a gain of 3 that feeds out:1
# from the same input: the block's rule skips the missing output, and both
# drivers run it and drop its result
UNCONNECTED_OUTPUT = {
    "gain": "block 1 gain gain=f64[2x1](2 5)",
    "mux": "block 1 mux\nlink 2 in:2 -> 1.2",
    "relational_op": "block 1 relational_op op=lt\nlink 2 in:2 -> 1.2",
}


@pytest.mark.parametrize("kind", sorted(UNCONNECTED_OUTPUT))
def test_an_unconnected_output_runs_in_both_drivers(kind):
    text = """
model 5
input 1 f64 1 1
input 2 f64 1 1
output 1 f64 1 1
block 2 gain gain=f64[1x1](3)
link 1 in:1 -> 1.1, 2.1
link 3 2.1 -> out:1
""" + UNCONNECTED_OUTPUT[kind]
    inputs = [[mv.scalar(x), mv.scalar(-x)] for x in (1.0, 2.5, -4.0)]
    want = [[mv.scalar(3 * x)] for x in (1.0, 2.5, -4.0)]
    assert simulate(parse_model(text), inputs, 3) == want
    program = bg.generate(parse_model(text)).program
    assert Machine(program).run_init().run_steps(inputs, 3) == want


def test_generation_equivalence_twodelays():
    rng = random.Random(4)
    inputs = [[random_matvalue(rng, F64, 1, 1)] for _ in range(25)]
    _equivalence(twodelays(), inputs, 25, exact=False)


def test_generation_equivalence_coding_exact():
    rng = random.Random(5)
    inputs = [[mv.make(I32, 1, 1, [rng.randint(0, 1)])] for _ in range(25)]
    _equivalence(coding(), inputs, 25, exact=True)


def test_generation_equivalence_kalman():
    meas = synthetic_trajectory(20, seed=2)
    inputs = [[mv.from_rows([[r], [b]])] for r, b in meas]
    _equivalence(kalman(), inputs, 20, exact=False)


def test_unoptimized_trace_is_equivalent_too():
    # with the optimizer off the raw trace must still replay to the same
    # outputs, pinning the passes as pure cleanups
    rng = random.Random(8)
    inputs = [[mv.make(I32, 1, 1, [rng.randint(0, 1)])] for _ in range(40)]
    simulated = simulate(coding(), inputs, 40)
    result = bg.generate(coding(), optimize=False)
    machine = Machine(result.program).run_init()
    for srow, irow in zip(simulated, machine.run_steps(inputs, 40)):
        for s, i in zip(srow, irow):
            assert s.data == i.data
    meas = synthetic_trajectory(15, seed=6)
    kinputs = [[mv.from_rows([[r], [b]])] for r, b in meas]
    simulated = simulate(kalman(), kinputs, 15)
    result = bg.generate(kalman(), optimize=False)
    machine = Machine(result.program).run_init()
    for srow, irow in zip(simulated, machine.run_steps(kinputs, 15)):
        for s, i in zip(srow, irow):
            assert_close(s, i, rel=1e-12)


MIXED_INT_MODEL = """
model 3000
input 1 i16 1 1
output 1 i16 1 1
output 2 u8 1 1
block 1 unit_delay init=i16[1x1](7)
block 2 gain gain=f64[1x1](3)
block 3 summation signs=f64[1x2](1 -1)
block 4 unit_delay init=u8[1x1](200)
block 5 gain gain=f64[1x1](9)
link 1 in:1 -> 1.1, 3.1
link 2 1.1 -> 2.1
link 3 2.1 -> 3.2
link 4 3.1 -> out:1
link 5 4.1 -> 5.1, out:2
link 6 5.1 -> 4.1
"""


def test_mixed_integer_dtypes_wrap_consistently():
    # i16 arithmetic and u8 wrap-around: simulation and interpretation agree
    # bit for bit while values overflow
    model = parse_model(MIXED_INT_MODEL)
    rng = random.Random(21)
    inputs = [[mv.make(mv.DTYPES["i16"], 1, 1, [rng.randint(-30000, 30000)])]
              for _ in range(50)]
    _equivalence(model, inputs, 50, exact=True)
    outs = simulate(model, inputs, 50)
    seen = {o[1].scalar() for o in outs}
    assert all(0 <= v <= 255 for v in seen)
    assert len(seen) > 1  # the u8 counter actually wrapped through values


VECTOR_MODEL = """
model 4000
input 1 f64 2 1
output 1 f64 3 1
block 1 gain gain=f64[2x2](0 -1 1 0)
block 2 unit_delay init=f64[1x1](0)
block 3 summation signs=f64[1x2](1 1)
block 4 mux
link 1 in:1 -> 1.1
link 2 1.1 -> 3.1, 2.1
link 3 2.1 -> 3.2
link 4 3.1 -> 4.1
link 5 4.1 -> out:1
block 5 const value=f64[1x1](5)
link 6 5.1 -> 4.2
"""


def test_vector_links_matrix_gain_equivalence():
    model = parse_model(VECTOR_MODEL)
    m2 = md.infer(parse_model(VECTOR_MODEL))
    assert (m2.links[2].rows, m2.links[2].cols) == (2, 1)
    rng = random.Random(33)
    inputs = [[random_matvalue(rng, F64, 2, 1)] for _ in range(20)]
    _equivalence(model, inputs, 20, exact=False)


# folded blocks never run, so no block writes the ports their constants
# feed: 3.5 * 2 and a constant 2x1 vector
CONST_PORT_MODEL = """
model 7
output 1 f64 1 1
output 2 f64 2 1
block 1 const value=f64[1x1](3.5)
block 2 gain gain=f64[1x1](2)
block 3 const value=f64[2x1](1 2)
link 1 1.1 -> 2.1
link 2 2.1 -> out:1
link 3 3.1 -> out:2
"""


def test_constant_fed_output_ports():
    model = parse_model(CONST_PORT_MODEL)
    simulated = simulate(model, [[]] * 3, 3)
    interpreted = Machine(bg.generate(model).program).run_init().run_steps([[]] * 3, 3)
    for row in simulated + interpreted:
        assert [list(v.data) for v in row] == [[7.0], [1.0, 2.0]]


# no block writes a port that an input port feeds directly: out:1 shares
# its link with the gain's input, out:3 has a link of its own
ECHO_PORT_MODEL = """
model 91
input 1 f64 1 1
input 2 f64 2 1
output 1 f64 1 1
output 2 f64 1 1
output 3 f64 2 1
block 1 gain gain=f64[1x1](2)
link 1 in:1 -> 1.1, out:1
link 2 1.1 -> out:2
link 3 in:2 -> out:3
"""


def test_input_fed_output_ports():
    inputs = [[mv.scalar(x), mv.from_rows([[x + 1], [-x]])] for x in (3.0, -1.5, 0.25)]
    simulated = simulate(parse_model(ECHO_PORT_MODEL), inputs, 3)
    program = bg.generate(parse_model(ECHO_PORT_MODEL)).program
    interpreted = Machine(program).run_init().run_steps(inputs, 3)
    for rows in (simulated, interpreted):
        for (a, b), row in zip(inputs, rows):
            assert [list(v.data) for v in row] == [list(a.data), [2 * a.data[0]],
                                                  list(b.data)]


BOOL_MODEL = """
model 5000
input 1 i32 1 1
output 1 bool 1 1
block 1 relational_op op=gt
block 2 const value=i32[1x1](3)
block 3 unit_delay init=bool[1x1](0)
link 1 in:1 -> 1.1
link 2 2.1 -> 1.2
link 3 1.1 -> 3.1
link 4 3.1 -> out:1
"""


def test_bool_links_and_state():
    model = parse_model(BOOL_MODEL)
    rng = random.Random(44)
    inputs = [[mv.make(I32, 1, 1, [rng.randint(0, 6)])] for _ in range(30)]
    _equivalence(model, inputs, 30, exact=True)
    text = bg.generate(parse_model(BOOL_MODEL)).text
    assert "static int z_50001=FALSE;" in text


def _random_model(rng: random.Random, dtype_tag: str):
    """A random acyclic diagram of delays, gains and sums over 1x1 links.

    Feedthrough blocks read only earlier blocks or the input port; delays
    may read anything (their input edge carries no ordering constraint).
    Every produced link gets at least one consumer; leftovers are muxed into
    a second output port.
    """
    n_blocks = rng.randint(3, 8)
    lines = ["model 9000", "input 1 {} 1 1".format(dtype_tag),
             "output 1 {} 1 1".format(dtype_tag)]
    next_link = 1
    links = []          # (link_id, src_text)
    producers = {}      # block id -> link id
    in_link = next_link
    next_link += 1
    consumers = {in_link: 0}
    feedthrough_sources = [in_link]

    def new_link(src):
        nonlocal next_link
        lid = next_link
        next_link += 1
        consumers[lid] = 0
        links.append([lid, src, []])
        return lid

    links.append([in_link, "in:1", []])
    block_lines = []
    for bid in range(1, n_blocks + 1):
        kind = rng.choice(["gain", "summation", "unit_delay", "unit_delay"])
        if kind == "gain":
            g = rng.choice([1, 2, -1, 0.5]) if dtype_tag == "f64" else rng.choice([1, 2, 3])
            block_lines.append("block {} gain gain=f64[1x1]({})".format(bid, g))
            srcs = [rng.choice(feedthrough_sources)]
        elif kind == "summation":
            signs = rng.choice(["1 1", "1 -1", "-1 1"])
            block_lines.append("block {} summation signs=f64[1x2]({})".format(bid, signs))
            srcs = [rng.choice(feedthrough_sources), rng.choice(feedthrough_sources)]
        else:
            init = rng.randint(-3, 3)
            block_lines.append("block {} unit_delay init={}[1x1]({})".format(
                bid, dtype_tag, init))
            srcs = [None]  # wired to any link afterwards
        out = new_link("{}.1".format(bid))
        producers[bid] = out
        feedthrough_sources.append(out)
        for port, src in enumerate(srcs, 1):
            if src is None:
                continue
            consumers[src] += 1
            for rec in links:
                if rec[0] == src:
                    rec[2].append("{}.{}".format(bid, port))
    # wire delay inputs (any link, even later ones)
    all_links = [rec[0] for rec in links]
    for bid in range(1, n_blocks + 1):
        if "unit_delay" in block_lines[bid - 1]:
            src = rng.choice(all_links)
            consumers[src] += 1
            for rec in links:
                if rec[0] == src:
                    rec[2].append("{}.1".format(bid))
    # first output port: the last block's link
    last = producers[n_blocks]
    consumers[last] += 1
    for rec in links:
        if rec[0] == last:
            rec[2].append("out:1")
    # everything never consumed feeds a mux into output port 2
    unused = [lid for lid, n in consumers.items() if n == 0]
    if unused:
        mux_id = n_blocks + 1
        block_lines.append("block {} mux".format(mux_id))
        for port, lid in enumerate(unused, 1):
            for rec in links:
                if rec[0] == lid:
                    rec[2].append("{}.{}".format(mux_id, port))
        mux_out = new_link("{}.1".format(mux_id))
        for rec in links:
            if rec[0] == mux_out:
                rec[2].append("out:2")
        lines.append("output 2 {} {} 1".format(dtype_tag, len(unused)))
    lines.extend(block_lines)
    for lid, src, dsts in links:
        if not dsts:
            continue
        lines.append("link {} {} -> {}".format(lid, src, ", ".join(dsts)))
    return "\n".join(lines) + "\n"


def test_random_models_equivalence_fuzz():
    rng = random.Random(555)
    built = 0
    for trial in range(60):
        dtype_tag = rng.choice(["f64", "i32"])
        text = _random_model(rng, dtype_tag)
        try:
            model = parse_model(text)
            model = md.infer(model)
        except (ParseError, md.ModelError):
            continue
        built += 1
        dtype = mv.DTYPES[dtype_tag]
        inputs = [[random_matvalue(rng, dtype, 1, 1)] for _ in range(20)]
        _equivalence(parse_model(text), inputs, 20, exact=not dtype.is_float)
    assert built >= 40  # the generator must mostly produce valid models


NARROW_MODEL = """
model 9000
input 1 {0} 1 1
output 1 {0} 1 1
output 2 {0} 1 1
block 1 gain gain=f64[1x1](3)
block 2 unit_delay init={0}[1x1](1)
block 3 summation signs=f64[1x2](1 -1)
block 4 relational_op op=gt
link 1 in:1 -> 1.1, 3.1, 4.1
link 2 1.1 -> 2.1
link 3 2.1 -> 3.2, 4.2
link 4 3.1 -> out:1
link 5 4.1 -> out:2
"""

NARROW_BOOL_MODEL = """
model 9000
input 1 bool 1 1
output 1 bool 1 1
output 2 bool 2 1
block 1 unit_delay init=bool[1x1](1)
block 2 relational_op op=ne
block 3 mux
link 1 in:1 -> 1.1, 2.1, 3.1
link 2 1.1 -> 2.2, 3.2
link 3 2.1 -> out:1
link 4 3.1 -> out:2
"""


@pytest.mark.parametrize("tag", ["bool", "i8", "i16", "u8", "u16", "u32"])
def test_narrow_dtype_models_equivalence(tag):
    # the dtypes the fuzz above does not draw, at their boundaries (min,
    # max, 0, 1, -1): wrapping and every conversion at a link must agree
    # exactly between simulate and the interpreter
    dtype = mv.DTYPES[tag]
    if dtype.is_bool:
        values, texts = [False, True, True, False], [NARROW_BOOL_MODEL]
    else:
        bits = dtype.width - 1 if dtype.signed else dtype.width
        values = [-(1 << bits) if dtype.signed else 0, (1 << bits) - 1, 0, 1, -1]
        rng = random.Random(tag)
        texts = [NARROW_MODEL.format(tag)] + [_random_model(rng, tag) for _ in range(3)]
    inputs = [[mv.make(dtype, 1, 1, [values[k % len(values)]])] for k in range(12)]
    for text in texts:
        try:
            md.infer(parse_model(text))
        except md.ModelError:
            continue  # a random model inference rejects, as in the fuzz above
        _equivalence(parse_model(text), inputs, 12, exact=True)


def test_generate_reports_names_and_ids():
    res = bg.generate(coding())
    names = [f.name for f in res.program.functions]
    assert names == ["updateOutput10041", "updateOutput10042",
                     "updateOutput10043", "updateState10043"]
    assert res.program.init_fn.name == "initialize1004"


def test_initialize_restores_every_static():
    rng = random.Random(77)
    for maker, make_inputs in (
            (twodelays, lambda: [[random_matvalue(rng, F64, 1, 1)] for _ in range(8)]),
            (coding, lambda: [[mv.make(I32, 1, 1, [rng.randint(0, 1)])]
                              for _ in range(8)])):
        result = bg.generate(maker())
        machine = Machine(result.program).run_init()
        machine.run_steps(make_inputs(), 8)
        machine.run_init()
        for s in result.program.statics:
            assert machine.statics[s.name] == s.init, s.name


def test_region_input_from_temp_gets_a_static_home():
    # a non-identity gain feeds the select: branch functions may only read
    # ports and globals, so the gain's output link must become a static
    text = """
model 2000
input 1 i32 1 1
output 1 i32 1 1
block 1 relational_op op=ne
block 2 gain gain=f64[1x1](3)
block 3 ifthenelse
block 4 select
block 5 const value=i32[1x1](0)
block 6 unit_delay init=i32[1x1](0)
link 1 in:1 -> 1.1, 6.1, 2.1
link 2 6.1 -> 1.2
link 3 1.1 -> 3.1
link 4 2.1 -> 4.2
link 5 5.1 -> 4.1
link 6 4.1 -> out:1
region 3 then=[5] else=[] select=4
"""
    model = parse_model(text)
    result = bg.generate(model)
    statics = {s.name for s in result.program.statics}
    assert "link20004" in statics  # the gain output, forced durable
    # and the generated program still agrees with direct simulation
    rng = random.Random(12)
    inputs = [[mv.make(I32, 1, 1, [rng.randint(0, 1)])] for _ in range(30)]
    _equivalence(model, inputs, 30, exact=True)


def test_branch_output_leaving_region_rejected():
    text = """
model 1
input 1 i32 1 1
output 1 i32 1 1
output 2 i32 1 1
block 1 relational_op op=ne
block 2 unit_delay init=i32[1x1](0)
block 3 ifthenelse
block 4 select
block 5 const value=i32[1x1](0)
block 6 gain gain=f64[1x1](2)
link 1 in:1 -> 1.1, 2.1
link 2 2.1 -> 1.2, 4.2
link 3 1.1 -> 3.1
link 4 5.1 -> 6.1
link 5 6.1 -> 4.1, out:2
link 7 4.1 -> out:1
region 3 then=[5, 6] else=[] select=4
"""
    with pytest.raises(md.ModelError, match="leaves the conditional region"):
        parse_model(text)


def test_region_with_constant_condition_partial_evaluates():
    # both const inputs fold through the relational block, so the condition
    # is known at generation time: one unconditional branch call, no if
    text = """
model 6000
input 1 i32 1 1
output 1 i32 1 1
block 1 relational_op op=gt
block 2 const value=i32[1x1](5)
block 3 const value=i32[1x1](3)
block 4 ifthenelse
block 5 const value=i32[1x1](7)
block 6 select
block 7 unit_delay init=i32[1x1](0)
link 1 2.1 -> 1.1
link 2 3.1 -> 1.2
link 3 1.1 -> 4.1
link 4 5.1 -> 6.1
link 5 7.1 -> 6.2
link 6 6.1 -> out:1
link 7 in:1 -> 7.1
region 4 then=[5] else=[] select=6
"""
    from blockgen import trace as tr
    model = parse_model(text)
    result = bg.generate(model)
    main = result.program.function("updateOutput60003")
    assert not [i for i in main.body if isinstance(i, tr.IfExpr)]
    calls = [i for i in main.body if isinstance(i, tr.Call)]
    assert len(calls) == 1 and calls[0].fn == "updateOutput60001"
    # semantics: condition is true, so the output is always the constant 7
    inputs = [[mv.make(I32, 1, 1, [k])] for k in range(5)]
    outs = simulate(model, inputs, 5)
    assert [o[0].scalar() for o in outs] == [7] * 5
    machine = Machine(result.program).run_init()
    for srow, irow in zip(outs, machine.run_steps(inputs, 5)):
        assert srow[0].data == irow[0].data


def test_generate_coding_branch_bodies():
    text = bg.generate(coding()).text
    then_branch = re.search(
        r"void updateOutput10041\([^)]*\)\{(.*?)\n\}", text, re.S).group(1)
    assert "/* Selct block starts*/" in then_branch
    assert "/* Selct block ends*/" in then_branch
    assert "link10046=0;" in then_branch
    else_branch = re.search(
        r"void updateOutput10042\([^)]*\)\{(.*?)\n\}", text, re.S).group(1)
    assert "link10046=*inouts2;" in else_branch


def test_a_behaviors_matrix_error_names_its_block():
    # kalman's filter multiplies its 2x1 measurement; a 2x106 one fails
    text = load_model_text("kalman.model").replace("input 1 f64 2 1\n", "input 1 f64 2 106\n")
    message = (r"^block 1 \(sciblk\) at flag 1: ShapeMismatch: "
               r"shapes \(2, 106\) and \(2, 1\) incompatible$")
    with pytest.raises(md.ModelError, match=message) as generating:
        bg.generate(parse_model(text))
    assert isinstance(generating.value.__cause__, mv.ShapeMismatch)
    with pytest.raises(md.ModelError, match=message):
        bg.simulate(parse_model(text), [[mv.zeros(F64, 2, 106)]], 1)


# a sciblk with id 7 whose behavior is registered by each test below
SCIBLK_MODEL = """model 1
input 1 f64 1 1
output 1 f64 1 1
block 7 sciblk behavior={} out1=f64[1x1]
link 1 in:1 -> 7.1
link 2 7.1 -> out:1
"""


GAIN_ZERO_ON_A_DELAY = """model 1
input 1 f64 1 1
output 1 f64 1 1
block 1 unit_delay init=f64[1x1]({})
block 2 gain gain=f64[1x1](0)
link 1 in:1 -> 1.1
link 2 1.1 -> 2.1
link 3 2.1 -> out:1
"""


@pytest.mark.parametrize("init", ["-5", "-inf"])
def test_gain_zero_on_a_delay_is_the_dtypes_zero(init):
    # 0*x of a symbolic x is f64's zero, not 0 times the delay's reset value:
    # the C used to print -0.0 for init -5 and NAN for init -inf at every step
    text = GAIN_ZERO_ON_A_DELAY.format(init)
    result = bg.generate(parse_model(text))
    assert "  *inouts2=0;\n" in result.text
    inputs = [[mv.scalar(x)] for x in (2.0, 3.0, 0.5, 7.0)]
    interpreted = Machine(result.program).run_init().run_steps(inputs, 4)
    assert [math.copysign(1.0, row[0].data[0]) for row in interpreted] == [1.0] * 4
    simulated = simulate(parse_model(text), inputs, 4)
    # step 0 reads the reset value, which the fold of 0*x does not keep
    assert [row[0] for row in simulated[1:]] == [row[0] for row in interpreted[1:]]


def test_numerics_of_a_symbolic_value_fails_in_generate(monkeypatch):
    # a symbolic value has no number to give: generate used to take its
    # nominal zero, and printed "*inouts2=0;" where simulate doubles the input
    def doubled(blk, flag):
        if flag == blocks.OUTPUT:
            blk.io[2] = bg.numerics(blk.io[1]) * 2.0

    monkeypatch.setitem(blocks.BEHAVIORS, "doubled", doubled)
    text = SCIBLK_MODEL.format("doubled")
    outs = simulate(parse_model(text), [[3.0], [-1.5]], 2)
    assert [row[0].data for row in outs] == [(6.0,), (-3.0,)]
    message = (r"^block 7 \(sciblk\) at flag 1: SymbolicConditionError: "
               r"numerics of symbolic value 'inouts1'$")
    with pytest.raises(md.ModelError, match=message) as generating:
        bg.generate(parse_model(text))
    assert isinstance(generating.value.__cause__, bg.trace.SymbolicConditionError)


def test_a_condition_on_a_symbolic_input_names_its_block(monkeypatch):
    def nonzero(blk, flag):
        if flag == blocks.OUTPUT:
            blk.io[2] = blk.io[1] if blk.io[1] else blk.io[1] + 1.0

    monkeypatch.setitem(blocks.BEHAVIORS, "nonzero", nonzero)
    text = SCIBLK_MODEL.format("nonzero")
    outs = simulate(parse_model(text), [[3.0], [0.0]], 2)
    assert [row[0].data for row in outs] == [(3.0,), (1.0,)]
    message = (r"^block 7 \(sciblk\) at flag 1: SymbolicConditionError: "
               r"conditional depends on symbolic value 'inouts1'$")
    with pytest.raises(md.ModelError, match=message):
        bg.generate(parse_model(text))


def test_a_write_to_an_input_slot_names_its_block(monkeypatch):
    def writes_input(blk, flag):
        if flag == blocks.OUTPUT:
            blk.io[1] = blk.io[1] * 2.0
            blk.io[2] = blk.io[1]

    monkeypatch.setitem(blocks.BEHAVIORS, "writes_input", writes_input)
    text = SCIBLK_MODEL.format("writes_input")
    message = r"^block 7 \(sciblk\) at flag 1: BlockError: write to input slot 1$"
    with pytest.raises(md.ModelError, match=message) as simulating:
        simulate(parse_model(text), [[3.0]], 1)
    assert isinstance(simulating.value.__cause__, blocks.BlockError)
    with pytest.raises(md.ModelError, match=message):
        bg.generate(parse_model(text))


def test_a_state_index_out_of_range_names_its_block(monkeypatch):
    # a sciblk has no states
    def reads_a_state(blk, flag):
        if flag == blocks.OUTPUT:
            blk.io[2] = blk.state[1]

    monkeypatch.setitem(blocks.BEHAVIORS, "reads_a_state", reads_a_state)
    text = SCIBLK_MODEL.format("reads_a_state")
    message = r"^block 7 \(sciblk\) at flag 1: BlockError: state index 1 out of 1\.\.0$"
    with pytest.raises(md.ModelError, match=message) as simulating:
        simulate(parse_model(text), [[3.0]], 1)
    assert isinstance(simulating.value.__cause__, blocks.BlockError)
    with pytest.raises(md.ModelError, match=message):
        bg.generate(parse_model(text))


def test_an_io_index_out_of_range_names_its_block(monkeypatch):
    def reads_slot_9(blk, flag):
        if flag == blocks.OUTPUT:
            blk.io[2] = blk.io[9]

    monkeypatch.setitem(blocks.BEHAVIORS, "reads_slot_9", reads_slot_9)
    text = SCIBLK_MODEL.format("reads_slot_9")
    message = r"^block 7 \(sciblk\) at flag 1: BlockError: io index 9 out of 1\.\.2$"
    with pytest.raises(md.ModelError, match=message):
        simulate(parse_model(text), [[3.0]], 1)
    with pytest.raises(md.ModelError, match=message):
        bg.generate(parse_model(text))


def test_generate_checks_the_shape_of_every_port_write(monkeypatch):
    # a behavior writing a 1x1 value to its 3x1 output, which feeds a 3x1
    # port or a one-input summation (whose sum of any shape is 1x1): both
    # drivers name the block, its kind, the output and the link
    def first_element(blk, flag):
        if flag == blocks.OUTPUT:
            blk.io[2] = blk.io[1][1]

    monkeypatch.setitem(blocks.BEHAVIORS, "first_element", first_element)
    head = "model 1\ninput 1 f64 3 1\nblock 1 sciblk behavior=first_element out1=f64[3x1]\n"
    models = [head + "output 1 f64 3 1\nlink 1 in:1 -> 1.1\nlink 2 1.1 -> out:1\n",
              head + "output 1 f64 1 1\nblock 2 summation signs=f64[1x1](1)\n"
                     "link 1 in:1 -> 1.1\nlink 2 1.1 -> 2.1\nlink 3 2.1 -> out:1\n"]
    message = r"^block 1 \(sciblk\) output 1 is 1x1, but link 2 is 3x1$"
    for text in models:
        with pytest.raises(md.ModelError, match=message):
            bg.generate(parse_model(text))
        with pytest.raises(md.ModelError, match=message):
            bg.simulate(parse_model(text), [[mv.zeros(F64, 3, 1)]], 1)
