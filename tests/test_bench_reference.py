"""The benchmark (`perfbench/run.py`) reports whether each workload's C still
has the SHA-256 recorded in `perfbench/c_sha256.json`, and its own tests
fail when it does not. Those tests live outside tier-1, so this one builds
both workloads the way the benchmark does and checks the same digests: a
change to the emitted C shows here first."""

import hashlib
import importlib.util
import json
import random
import sys
from pathlib import Path

import pytest

import blockgen as bg
from blockgen.cemit import EmitConfig

from conftest import load_model_text

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    mod = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "perfbench_workloads", mod)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize("workload,seed", [("chain-480", "1"), ("kalman", "any")])
def test_workload_c_matches_benchmark_reference(monkeypatch, workload, seed):
    if workload == "kalman":
        text = load_model_text("kalman.model")
    else:
        text = _workloads(monkeypatch).chain_text(160, random.Random(int(seed)))
    model = bg.parse_model(text)
    cfg = EmitConfig(block_id=model.base_id, include_runtime_header=False)
    digest = hashlib.sha256(bg.generate(model, cfg).text.encode()).hexdigest()
    refs = json.loads((PERFBENCH / "c_sha256.json").read_text())
    assert digest == refs[workload][seed]
