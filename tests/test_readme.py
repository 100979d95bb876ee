"""The README's "Library entry points" section names only what exists: every
backticked name in its prose, and every `bg.` name in its example, resolves
against blockgen or blockgen.directives."""

import pathlib
import re

import pytest

import blockgen
from blockgen import directives

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _section(title):
    text = README.read_text()
    start = text.index("\n## {}\n".format(title))
    end = text.find("\n## ", start + 1)
    return text[start:] if end < 0 else text[start:end]


def _api_names():
    section = _section("Library entry points")
    code = "".join(re.findall(r"```.*?\n(.*?)```", section, flags=re.S))
    prose = re.sub(r"```.*?```", "", section, flags=re.S)
    return sorted(set(re.findall(r"`([^`]+)`", prose)) | set(re.findall(r"\bbg\.(\w+)", code)))


def _resolve(name):
    """The object a dotted name denotes: from blockgen itself when it starts
    with blockgen, else from blockgen or blockgen.directives."""
    first, *rest = name.split(".")
    if first == "blockgen":
        obj = blockgen
    elif hasattr(blockgen, first):
        obj = getattr(blockgen, first)
    else:
        obj = getattr(directives, first)
    for part in rest:
        obj = getattr(obj, part)
    return obj


def test_the_section_names_the_directive_vocabulary():
    names = _api_names()
    for name in ("blockgen.directives", "codegen_init", "inouts", "inouts_insert",
                 "put_annotation", "if_cos", "finalize_program", "parse_model"):
        assert name in names


@pytest.mark.parametrize("name", _api_names())
def test_readme_api_name_exists(name):
    assert re.fullmatch(r"[A-Za-z_][\w.]*", name), "not an API name: {!r}".format(name)
    _resolve(name)
