"""Command-line behavior: exit codes, outputs, seeding."""

import pathlib

import pytest

from blockgen import matval as mv
from blockgen.cli import main

from conftest import FIXTURES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_writes_c_file(tmp_path, capsys):
    out = tmp_path / "twodelays.c"
    code, stdout, _ = run(capsys, "generate", str(FIXTURES / "twodelays.model"),
                          "--out", str(out))
    assert code == 0
    text = out.read_text()
    assert "void toto1000" in text
    assert "statics" in stdout


def test_generate_freestanding(tmp_path, capsys):
    out = tmp_path / "twodelays.c"
    code, _, _ = run(capsys, "generate", str(FIXTURES / "twodelays.model"),
                     "--emit", "freestanding", "--out", str(out))
    assert code == 0
    assert "scicos" not in out.read_text()


def test_generate_bad_model_nonzero_exit(tmp_path, capsys):
    bad = tmp_path / "bad.model"
    bad.write_text("model 1\nblock 1 warp\n")
    code, _, stderr = run(capsys, "generate", str(bad))
    assert code == 1 and "error:" in stderr


def test_no_opt_keeps_unused_static(tmp_path, capsys):
    # an input feeding only a delay that nothing reads leaves a dead state
    text = """
model 7
input 1 f64 1 1
output 1 f64 1 1
block 1 unit_delay init=f64[1x1](4)
block 2 gain gain=f64[1x1](2)
link 1 in:1 -> 1.1, 2.1
link 2 2.1 -> out:1
link 3 1.1 -> 3.1
block 3 unit_delay init=f64[1x1](0)
"""
    src = tmp_path / "dead.model"
    src.write_text(text)
    kept = tmp_path / "kept.c"
    pruned = tmp_path / "pruned.c"
    assert run(capsys, "generate", str(src), "--out", str(pruned))[0] == 0
    assert run(capsys, "generate", str(src), "--no-opt", "--out", str(kept))[0] == 0
    assert len(kept.read_text()) >= len(pruned.read_text())


def test_simulate_prints_table(capsys):
    code, stdout, _ = run(capsys, "simulate", str(FIXTURES / "coding.model"),
                          "--steps", "4", "--seed", "1")
    assert code == 0
    lines = stdout.strip().splitlines()
    assert lines[0].split("\t") == ["step", "out1[0]", "out2[0]"]
    assert len(lines) == 5


def test_simulate_rejects_emit(capsys):
    # simulate generates no C, so it offers no emission choice
    with pytest.raises(SystemExit) as exc:
        main(["simulate", str(FIXTURES / "twodelays.model"), "--emit", "freestanding"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --emit" in capsys.readouterr().err


def test_simulate_zero_steps_header_only(capsys):
    code, stdout, _ = run(capsys, "simulate", str(FIXTURES / "twodelays.model"),
                          "--steps", "0")
    assert code == 0
    assert len(stdout.strip().splitlines()) == 1


def test_simulate_deterministic_under_seed(capsys):
    a = run(capsys, "simulate", str(FIXTURES / "twodelays.model"), "--steps", "6",
            "--seed", "42")
    b = run(capsys, "simulate", str(FIXTURES / "twodelays.model"), "--steps", "6",
            "--seed", "42")
    assert a == b
    c = run(capsys, "simulate", str(FIXTURES / "twodelays.model"), "--steps", "6",
            "--seed", "43")
    assert c[1] != a[1]


@pytest.mark.parametrize("fixture", ["twodelays.model", "coding.model", "kalman.model"])
def test_validate_fixtures_pass(capsys, fixture):
    code, stdout, _ = run(capsys, "validate", str(FIXTURES / fixture),
                          "--steps", "30", "--seed", "5")
    assert code == 0
    assert "max deviation" in stdout


def test_validate_detects_corruption(tmp_path, capsys, monkeypatch):
    # corrupt the generated program before interpretation
    import blockgen.cli as cli
    real_generate = cli.generate

    def sabotage(model, cfg=None, optimize=True):
        result = real_generate(model, cfg, optimize)
        from blockgen import matval
        init = result.program.init_fn
        # corrupt the reset value of the delayed counter; the first output
        # reads it directly
        name = list(init.decls)[1]
        d = init.decls[name]
        d.init = matval.make(d.dtype, d.rows, d.cols,
                             [v + 1 for v in d.init.data])
        return result

    monkeypatch.setattr(cli, "generate", sabotage)
    code, _, stderr = run(capsys, "validate", str(FIXTURES / "coding.model"),
                          "--steps", "10", "--seed", "2")
    assert code == 1 and "MISMATCH" in stderr


def test_dump_ir(capsys):
    code, stdout, _ = run(capsys, "dump-ir", str(FIXTURES / "twodelays.model"))
    assert code == 0
    assert "function updateOutput10001" in stdout
    assert "static z_10001" in stdout


def test_deviation_counts_one_sided_nan():
    from blockgen import matval as mv
    from blockgen.cli import _deviation
    nan = float("nan")
    assert _deviation(mv.scalar(nan), mv.scalar(5.0)) == (float("inf"), 0)
    assert _deviation(mv.scalar(5.0), mv.scalar(nan)) == (float("inf"), 0)
    assert _deviation(mv.scalar(float("inf")), mv.scalar(5.0)) == (float("inf"), 0)
    assert _deviation(mv.scalar(nan), mv.scalar(nan)) == (0.0, None)
    assert _deviation(mv.make(mv.F64, 2, 1, [1.0, 2.0]),
                      mv.make(mv.F64, 2, 1, [1.0, 3.0])) == (1 / 3, 1)


def test_validate_reports_nan_mismatch(capsys, monkeypatch):
    # the simulation yields NaN where the generated code does not
    import blockgen.cli as cli
    from blockgen import matval as mv
    real_simulate = cli.simulate

    def poisoned(model, inputs, steps):
        outputs = real_simulate(model, inputs, steps)
        value = outputs[3][0]
        outputs[3][0] = mv.MatValue(value.dtype, value.rows, value.cols,
                                    (float("nan"),) + value.data[1:])
        return outputs

    monkeypatch.setattr(cli, "simulate", poisoned)
    code, stdout, stderr = run(capsys, "validate", str(FIXTURES / "twodelays.model"),
                               "--steps", "6", "--seed", "1")
    assert code == 1
    assert "max deviation inf" in stdout
    assert "MISMATCH at step 3 output 1 element 0: simulation NAN, generated code " in stderr


@pytest.mark.parametrize("change,shown", [
    (lambda v: mv.MatValue(v.dtype, 1, 1, v.data[:1]), "simulation f64 1x1, generated code f64 2x1"),
    (lambda v: mv.MatValue(mv.I32, 2, 1, tuple(map(int, v.data))),
     "simulation i32 2x1, generated code f64 2x1"),
], ids=["shape", "dtype"])
def test_validate_detects_a_value_of_another_shape_or_dtype(capsys, monkeypatch, change, shown):
    # the simulation yields a value unlike its port whose elements equal the
    # generated code's, element by element as far as both go
    import blockgen.cli as cli
    real_simulate = cli.simulate

    def reshaped(model, inputs, steps):
        outputs = real_simulate(model, inputs, steps)
        outputs[3][0] = change(outputs[3][0])
        return outputs

    def integral(model, steps, seed):
        return [[mv.scalar(float(k))] for k in range(steps)]

    monkeypatch.setattr(cli, "simulate", reshaped)
    monkeypatch.setattr(cli, "_random_stimuli", integral)
    code, stdout, stderr = run(capsys, "validate", str(FIXTURES / "twodelays.model"),
                               "--steps", "6", "--seed", "1")
    assert code == 1
    assert "max deviation inf" in stdout
    assert "MISMATCH at step 3 output 1: {}".format(shown) in stderr
