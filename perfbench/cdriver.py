"""The `cc` layer: a generated C driver around the emitted unit, its
compilation with the system compiler, and one run of the binary.

The binary first replays the stimuli once from `initialize`, printing every
output element (`%a` for doubles, so the text round-trips exactly). It then
times `loops` loops with `clock_gettime`; each loop makes `passes` passes
over the same stimuli, each pass starting from `initialize`. Every pass
adds its outputs into a pass sum, and the pass sums into a checksum that is
printed, so `-O2` cannot drop the loop and the timed work can be checked.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import time
from dataclasses import dataclass

CC = "cc"
CC_FLAGS = ["-O2"]
LIBS = ["-lm"]
COMPILE_TIMEOUT_S = 120
RUN_TIMEOUT_S = 60


def cc_path():
    return shutil.which(CC)


def cc_version() -> str:
    out = subprocess.run([CC, "--version"], capture_output=True, text=True,
                         timeout=COMPILE_TIMEOUT_S, check=True)
    return out.stdout.splitlines()[0]


def _literal(v, dtype) -> str:
    return float(v).hex() if dtype.is_float else str(int(v))


def driver_source(ports, entry: str, stimuli, passes: int, loops: int) -> str:
    """C source of `main` for a freestanding unit with the given ports
    (the `ports` entries of `Program.meta`, inputs first)."""
    ins = [p for p in ports if p["input"]]
    outs = [p for p in ports if not p["input"]]
    steps = len(stimuli)
    sig = ",".join("{} *{}".format(p["dtype"].ctype, p["name"]) for p in ports)
    call = ",".join(p["name"] for p in ports)
    lines = ["#include <stdio.h>", "#include <stdint.h>", "#include <string.h>",
             "#include <time.h>", "",
             "extern void {}(int flag,{});".format(entry, sig)]
    for k, p in enumerate(ins):
        n = p["rows"] * p["cols"]
        rows = ("{" + ",".join(_literal(v, p["dtype"]) for v in step[k].data) + "}"
                for step in stimuli)
        lines.append("static const {} stim{}[{}][{}] = {{{}}};".format(
            p["dtype"].ctype, k, steps, n, ",".join(rows)))
    for p in ports:
        lines.append("static {} {}[{}];".format(p["dtype"].ctype, p["name"],
                                                p["rows"] * p["cols"]))

    def load_inputs(indent):
        return [indent + "memcpy({0}, stim{1}[s], sizeof {0});".format(p["name"], k)
                for k, p in enumerate(ins)]

    lines += ["", "int main(void){", "  double fsum = 0.0, fpass;",
              "  long long isum = 0, ipass;", "  struct timespec t0, t1;",
              "  {}(4,{});".format(entry, call),
              "  for (int s = 0; s < {}; s++) {{".format(steps)]
    lines += load_inputs("    ")
    lines.append("    {}(1,{});".format(entry, call))
    for p in outs:
        n = p["rows"] * p["cols"]
        if p["dtype"].is_float:
            lines.append('    for (int i = 0; i < {}; i++) printf("%a ", {}[i]);'
                         .format(n, p["name"]))
        else:
            lines.append('    for (int i = 0; i < {}; i++) printf("%lld ", (long long){}[i]);'
                         .format(n, p["name"]))
    lines += ['    printf("\\n");', "    {}(2,{});".format(entry, call), "  }",
              "  for (int loop = 0; loop < {}; loop++) {{".format(loops),
              "    clock_gettime(CLOCK_MONOTONIC, &t0);",
              "    for (int pass = 0; pass < {}; pass++) {{".format(passes),
              "      fpass = 0.0; ipass = 0;",
              "      {}(4,{});".format(entry, call),
              "      for (int s = 0; s < {}; s++) {{".format(steps)]
    lines += load_inputs("        ")
    lines.append("        {}(1,{});".format(entry, call))
    for p in outs:
        acc = "fpass" if p["dtype"].is_float else "ipass"
        lines.append("        for (int i = 0; i < {}; i++) {} += {}[i];".format(
            p["rows"] * p["cols"], acc, p["name"]))
    lines += ["        {}(2,{});".format(entry, call), "      }",
              "      fsum += fpass; isum += ipass;", "    }",
              "    clock_gettime(CLOCK_MONOTONIC, &t1);",
              '    printf("ns %lld\\n", (long long)(t1.tv_sec - t0.tv_sec) * 1000000000LL'
              " + (t1.tv_nsec - t0.tv_nsec));",
              "  }",
              '  printf("checksum %a %lld\\n", fsum, isum);',
              "  return 0;", "}"]
    return "\n".join(lines) + "\n"


def expected_checksum(outputs, passes: int, loops: int):
    """The checksum the binary must print, given the interpreter's outputs
    for one pass: the same additions in the same order."""
    fpass, ipass = 0.0, 0
    for row in outputs:
        for value in row:
            for v in value.data:
                if value.dtype.is_float:
                    fpass += v
                else:
                    ipass += int(v)
    fsum, isum = 0.0, 0
    for _ in range(loops * passes):
        fsum += fpass
        isum += ipass
    return fsum, isum


@dataclass
class Build:
    exe: str
    compile_s: float
    binary_bytes: int


def compile_unit(workdir: str, unit_text: str, driver_text: str) -> Build:
    unit = os.path.join(workdir, "unit.c")
    driver = os.path.join(workdir, "driver.c")
    exe = os.path.join(workdir, "prog")
    for path, text in ((unit, unit_text), (driver, driver_text)):
        with open(path, "w", newline="\n") as f:
            f.write(text)
    if os.path.exists(exe):
        os.remove(exe)
    t0 = time.perf_counter()
    # TMPDIR keeps the compiler's temporary files in the work directory
    done = subprocess.run([CC] + CC_FLAGS + ["-o", exe, unit, driver] + LIBS,
                          capture_output=True, text=True, timeout=COMPILE_TIMEOUT_S,
                          env=dict(os.environ, TMPDIR=workdir))
    elapsed = time.perf_counter() - t0
    if done.returncode != 0:
        raise RuntimeError("cc failed ({}): {}".format(done.returncode, done.stderr[-2000:]))
    return Build(exe, elapsed, os.path.getsize(exe))


@dataclass
class RunResult:
    rows: list          # per checked step: list of per-output-port value lists
    loop_ns: list       # wall ns of each timed loop
    checksum: tuple     # (float sum, integer sum)


def run_binary(exe: str, ports) -> RunResult:
    done = subprocess.run([exe], capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError("binary exited {}: {}".format(done.returncode, done.stderr[-2000:]))
    outs = [p for p in ports if not p["input"]]
    rows, loop_ns, checksum = [], [], None
    for line in done.stdout.splitlines():
        toks = line.split()
        if toks and toks[0] == "ns":
            loop_ns.append(int(toks[1]))
        elif toks and toks[0] == "checksum":
            checksum = (float.fromhex(toks[1]), int(toks[2]))
        else:
            row, pos = [], 0
            for p in outs:
                n = p["rows"] * p["cols"]
                vals = toks[pos:pos + n]
                pos += n
                row.append([float.fromhex(t) for t in vals] if p["dtype"].is_float
                           else [int(t) for t in vals])
            if pos != len(toks):
                raise RuntimeError("binary printed {} values per step, expected {}"
                                   .format(len(toks), pos))
            rows.append(row)
    if checksum is None:
        raise RuntimeError("binary printed no checksum")
    return RunResult(rows, loop_ns, checksum)
