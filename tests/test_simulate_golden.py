"""`simulate` outputs over seeded stimuli, checked in under tests/golden/.

Each `<fixture>.sim` file holds one line per step: the `repr` of every
output port's dtype, shape and raw data. Any change to the numeric path
that alters a single bit of any output shows here. Rewrite the files with
`PYTHONPATH=src python tests/test_simulate_golden.py` only when a change of
the numbers is intended.
"""

import math
import pathlib
import random

import pytest

from blockgen import generate, parse_model, simulate
from blockgen import matval as mv
from blockgen import trace as tr

GOLDEN = pathlib.Path(__file__).parent / "golden"
FIXTURES = pathlib.Path(__file__).parent / "fixtures"
NAMES = ["twodelays", "coding", "kalman", "chain40"]
STEPS = {"twodelays": 30, "coding": 40, "kalman": 20, "chain40": 30}


def stimuli(name):
    rng = random.Random("simulate-golden-" + name)
    steps = STEPS[name]
    if name == "coding":
        pick = [0, 1, 2, -(1 << 31), (1 << 31) - 1]
        return [[mv.make(mv.I32, 1, 1, [rng.choice(pick)])] for _ in range(steps)]
    if name == "kalman":
        x, vx, y, vy = -905.0, 81.0, 955.0, 19.0
        rows = []
        for _ in range(steps):
            x, y = x + 0.1 * vx, y + 0.1 * vy
            rows.append([mv.make(mv.F64, 2, 1, [math.hypot(x, y) + rng.gauss(0, 50.0),
                                                 math.atan2(y, x) + rng.gauss(0, 0.005)])])
        return rows
    return [[mv.make(mv.F64, 1, 1, [rng.uniform(-10.0, 10.0)])] for _ in range(steps)]


def render(name):
    model = parse_model((FIXTURES / (name + ".model")).read_text())
    outs = simulate(model, stimuli(name), STEPS[name])
    return "".join("step {}: {!r}\n".format(k, [(v.dtype.tag, v.rows, v.cols, v.data) for v in row])
                   for k, row in enumerate(outs))


@pytest.mark.parametrize("name", NAMES)
def test_simulate_matches_golden(name):
    assert render(name) == (GOLDEN / (name + ".sim")).read_text()


def test_simulate_builds_no_annotations_but_generate_keeps_them(monkeypatch):
    # every construction of a class goes through its __new__, however the
    # class initializes its fields
    built = []
    original = tr.Annot.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(tr.Annot, "__new__", counting)
    for name in NAMES:
        render(name)
    assert built == []
    text = generate(parse_model((FIXTURES / "twodelays.model").read_text())).text
    assert built and "/* Gain block begins.*/" in text


if __name__ == "__main__":
    for name in NAMES:
        (GOLDEN / (name + ".sim")).write_text(render(name))
