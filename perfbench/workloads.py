"""Seeded workload synthesis: model text and per-step stimuli.

The benchmark owns the seed; blockgen only ever sees the model text this
module writes and the stimuli it draws. Nothing here imports blockgen:
stimuli are built through the `matval` module the caller passes in, so a
fresh import of the package (timed as set-up) is the one that is used.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

CHAIN_BASE_ID = 2000


@dataclass(frozen=True)
class Spec:
    """How much of each execution one measured round runs."""

    sim_steps: int      # steps of one `simulate` call
    interp_steps: int   # steps of one interpreter run; also the C check run


C_PASSES = 2000   # passes over the stimuli per timed loop in the binary
C_LOOPS = 5       # timed loops per binary run

SPECS = {
    # the graph layer and inlining dominate; each block traces almost nothing
    "chain-480": Spec(sim_steps=2, interp_steps=32),
    # three blocks, dense 4x4 matrix code and helper calls
    "kalman": Spec(sim_steps=32, interp_steps=64),
}


def chain_text(stages: int, rng: random.Random) -> str:
    """`stages` scalar f64 stages, three blocks each.

    Stage k is a summation fed by stage k-1 (or the input) and by a gain on
    its own unit delay; the sum feeds the delay and the next stage. The
    feedback gain |g| <= 0.5 keeps every pole inside the unit circle, so
    long compiled runs stay finite."""
    lines = ["model {}".format(CHAIN_BASE_ID), "input 1 f64 1 1", "output 1 f64 1 1",
             "link 1 in:1 -> 1.1"]
    for k in range(1, stages + 1):
        s, d, g = 3 * k - 2, 3 * k - 1, 3 * k
        nxt = "{}.1".format(s + 3) if k < stages else "out:1"
        lines += [
            "block {} summation signs=f64[1x2](1 1)".format(s),
            "block {} unit_delay init=f64[1x1](0)".format(d),
            "block {} gain gain=f64[1x1]({!r})".format(g, rng.uniform(-0.5, 0.5)),
            "link {} {}.1 -> {}.1, {}".format(3 * k - 1, s, d, nxt),
            "link {} {}.1 -> {}.1".format(3 * k, d, g),
            "link {} {}.1 -> {}.2".format(3 * k + 1, g, s),
        ]
    return "\n".join(lines) + "\n"


def kalman_measurements(steps: int, rng: random.Random):
    """Noisy range/bearing of an object moving at constant velocity.

    The truth starts near the filter's initial estimate (dt = 0.1 as in the
    filter); noise matches the filter's measurement covariance."""
    x, vx = -900.0 + rng.gauss(0, 20), 80.0 + rng.gauss(0, 2)
    y, vy = 950.0 + rng.gauss(0, 20), 20.0 + rng.gauss(0, 2)
    out = []
    for _ in range(steps):
        x, y = x + 0.1 * vx, y + 0.1 * vy
        out.append((math.hypot(x, y) + rng.gauss(0, 50.0),
                    math.atan2(y, x) + rng.gauss(0, 0.005)))
    return out


def model_text(workload: str, rng: random.Random, fixtures: Path) -> str:
    if workload == "chain-480":
        return chain_text(160, rng)
    if workload == "kalman":
        return (fixtures / "kalman.model").read_text()
    raise ValueError("unknown workload {!r}".format(workload))


def stimuli(workload: str, rng: random.Random, steps: int, mv):
    """`steps` rows of input values, one MatValue per input port."""
    if workload.startswith("chain-"):
        return [[mv.make(mv.F64, 1, 1, [rng.uniform(-10.0, 10.0)])] for _ in range(steps)]
    if workload == "kalman":
        return [[mv.make(mv.F64, 2, 1, [r, b])]
                for r, b in kalman_measurements(steps, rng)]
    raise ValueError("unknown workload {!r}".format(workload))
