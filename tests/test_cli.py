import os
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import qkmap as qk
from qkmap import cli, kernels, pauli, svm
from qkmap.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("argv, message", [
    (["train", "--generate", "circle", "--encodings", "bogus"],
     "qkmap train: error: argument --encodings: invalid choice: 'bogus'"),
    (["train", "--generate", "circle", "--C", "abc"],
     "qkmap train: error: argument --C: invalid float value: 'abc'"),
    (["gen", "circle"], "qkmap gen: error: the following arguments are required: --out"),
], ids=["encodings", "C", "out"])
def test_usage_errors_exit_1(capsys, argv, message):
    # 2 is reserved for numerical failure; argparse's text is kept
    with pytest.raises(SystemExit) as exc:
        main(argv)
    stderr = capsys.readouterr().err
    assert exc.value.code == 1
    assert stderr.startswith(f"usage: qkmap {argv[0]} [-h]")
    assert stderr.splitlines()[-1].startswith(message)


def test_one_parser_per_process(tmp_path, capsys):
    # main reuses one parser: repeated calls print the same bytes, and a usage
    # error between them still exits 1 and leaves the parser working
    argv = ("train", "--generate", "xor", "--n", "20", "--encodings", "ef1", "--csv",
            "--model-out", str(tmp_path / "m.txt"))
    cli._parser.cache_clear()
    with mock.patch.object(cli, "build_parser", wraps=cli.build_parser) as builds:
        first = run(capsys, *argv)
        model = (tmp_path / "m.txt").read_bytes()
        with pytest.raises(SystemExit) as exc:
            main(["train", "--generate", "xor", "--C", "abc"])
        assert exc.value.code == 1
        assert "qkmap train: error: argument --C" in capsys.readouterr().err
        assert run(capsys, *argv) == first and first[0] == 0
        assert (tmp_path / "m.txt").read_bytes() == model
    assert builds.call_count == 1


def test_import_leaves_out_the_executor():
    # cross_validate imports concurrent.futures only when it overlaps the fold copies
    src = Path(qk.__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", "import sys, qkmap.cli; "
                           "print('concurrent.futures' in sys.modules)"],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_parser_not_built_at_import():
    src = Path(qk.__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", "import qkmap.cli as cli; "
                           "print(cli._parser.cache_info().currsize)"],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0\n"


@pytest.mark.parametrize("argv", [
    ["gen", "circle", "--out", "OUT"], ["screen", "--generate", "circle"],
    ["train", "--generate", "circle", "--encodings", "ef1"],
    ["kernel", "--generate", "circle", "--out", "OUT"],
], ids=["gen", "screen", "train", "kernel"])
def test_negative_seed_names_flag(tmp_path, capsys, argv):
    argv = [str(tmp_path / "out.csv") if a == "OUT" else a for a in argv]
    code, _, stderr = run(capsys, *argv, "--n", "20", "--seed", "-1")
    assert code == 1
    assert "--seed must be a non-negative integer, got -1" in stderr


@pytest.mark.parametrize("argv", [
    ["screen"], ["train", "--encodings", "ef1"], ["kernel", "--out", "OUT"],
], ids=["screen", "train", "kernel"])
def test_n_with_dataset_exit_1(tmp_path, capsys, argv):
    # --n sizes a generated dataset only; with a file it was ignored and every row read
    data, out = tmp_path / "c.csv", tmp_path / "out.csv"
    run(capsys, "gen", "circle", "--n", "20", "--out", str(data))
    argv = [str(out) if a == "OUT" else a for a in argv]
    code, stdout, stderr = run(capsys, *argv, "--dataset", str(data), "--n", "4")
    assert code == 1 and stdout == ""
    assert stderr == ("error: --n sets the size of a --generate dataset; "
                      "drop it with --dataset\n")
    assert not out.exists()
    code, stdout, _ = run(capsys, *argv, "--dataset", str(data))
    assert code == 0 and stdout


def test_generate_defaults_to_100_points(tmp_path, capsys):
    out = tmp_path / "k.csv"
    code, _, _ = run(capsys, "kernel", "--generate", "xor", "--out", str(out))
    assert code == 0
    assert out.read_text().splitlines()[0] == "# method=exact size=100"


@pytest.mark.parametrize("argv", [
    ["train", "--generate", "xor", "--encodings", "ef1"],
    ["kernel", "--generate", "xor", "--out", "OUT"],
], ids=["train", "kernel"])
def test_shots_beyond_c_long_exit_1(tmp_path, capsys, argv):
    # a validation error, not the sampler's "Python int too large" with exit 2
    argv = [str(tmp_path / "out.csv") if a == "OUT" else a for a in argv]
    code, _, stderr = run(capsys, *argv, "--n", "10", "--method", "shots",
                          "--shots", str(2 ** 63))
    assert code == 1
    assert "shots must lie in [1, 2**63 - 1], got 9223372036854775808" in stderr


class TestGen:
    def test_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        code, stdout, _ = run(capsys, "gen", "circle", "--n", "100", "--seed", "7",
                              "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 101
        assert lines[0] == "x1,x2,label"

    def test_odd_n_fails_validation(self, tmp_path, capsys):
        code, _, stderr = run(capsys, "gen", "xor", "--n", "3",
                              "--out", str(tmp_path / "x.csv"))
        assert code == 1
        assert "even" in stderr

    @pytest.mark.parametrize("out, message", [
        ("missing/x.csv", "output directory {dir!r} does not exist"),
        ("isdir", "output path {out!r} is a directory"),
        ("F/x.csv", "output path {out!r} lies below 'F', which is a file, not a directory"),
        ("", "output path is empty"),
    ], ids=["missing directory", "directory", "below a file", "empty"])
    def test_out_misuse_fails_before_generating(self, tmp_path, capsys, monkeypatch,
                                                out, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "isdir").mkdir()
        (tmp_path / "F").write_text("kept\n")
        with mock.patch.object(cli.datasets, "generate") as draws:
            code, stdout, stderr = run(capsys, "gen", "circle", "--n", "10", "--out", out)
        assert code == 1 and stdout == ""
        assert stderr == f"error: {message.format(dir=os.path.dirname(out), out=out)}\n"
        assert draws.call_count == 0

    def test_byte_identical_rerun(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "gen", "moon", "--n", "50", "--seed", "3", "--out", str(a))
        run(capsys, "gen", "moon", "--n", "50", "--seed", "3", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestHeatmap:
    def test_single_axis_values(self, tmp_path, capsys):
        out = tmp_path / "hm"
        code, _, _ = run(capsys, "heatmap", "--encoding", "ef1", "--axis", "ZZ",
                         "--resolution", "3", "--out", str(out))
        assert code == 0
        grid = np.array([[float(v) for v in line.split(",")]
                         for line in (out / "ZZ.csv").read_text().splitlines()])
        xs = np.array([-1.0, 0.0, 1.0])
        for r, x2 in enumerate(xs[::-1]):
            for c, x1 in enumerate(xs):
                assert abs(grid[r, c] - np.cos(x1) * np.cos(x2) / 4) < 1e-12

    def test_identity_axis_constant(self, tmp_path, capsys):
        out = tmp_path / "hm"
        run(capsys, "heatmap", "--encoding", "ef3", "--axis", "II",
            "--resolution", "3", "--out", str(out))
        grid = np.array([[float(v) for v in line.split(",")]
                         for line in (out / "II.csv").read_text().splitlines()])
        assert np.max(np.abs(grid - 0.25)) < 1e-12

    def test_all_emits_sixteen_files(self, tmp_path, capsys):
        out = tmp_path / "hm"
        code, _, _ = run(capsys, "heatmap", "--encoding", "ef2", "--axis", "all",
                         "--resolution", "4", "--pgm", "--out", str(out))
        assert code == 0
        assert len(list(out.glob("*.csv"))) == 16
        assert len(list(out.glob("*.pgm"))) == 16
        assert (out / "YX.csv").exists()

    def test_invalid_axis_names_valid_labels(self, tmp_path, capsys):
        code, _, stderr = run(capsys, "heatmap", "--axis", "QQ",
                              "--out", str(tmp_path / "hm"))
        assert code == 1
        assert "'QQ'" in stderr and "ZZ" in stderr and "XY" in stderr

    @pytest.mark.parametrize("lo, hi, shown", [("1", "-1", "[1.0, -1.0]"),
                                               ("0.5", "0.5", "[0.5, 0.5]"),
                                               ("nan", "1", "[nan, 1.0]"),
                                               ("-inf", "1", "[-inf, 1.0]"),
                                               ("-1", "inf", "[-1.0, inf]"),
                                               ("-1e308", "1e308", "[-1e+308, 1e+308]")])
    def test_empty_or_nan_range_exits_1(self, tmp_path, capsys, lo, hi, shown):
        out = tmp_path / "hm"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, stderr = run(capsys, "heatmap", "--axis", "ZZ", "--resolution", "3",
                                  f"--range-min={lo}", f"--range-max={hi}", "--out", str(out))
        assert code == 1
        assert f"range {shown} is empty" in stderr
        assert not out.exists()
        assert not caught and "RuntimeWarning" not in stderr

    def test_memory_error_exits_1(self, tmp_path, capsys, monkeypatch):
        # a grid too large to allocate; raised, never allocated
        def too_large(*args):
            raise MemoryError("Unable to allocate 74.5 GiB for an array with shape "
                              "(1, 100000, 100000) and data type float64")

        monkeypatch.setattr(pauli, "coefficient_grids", too_large)
        out = tmp_path / "hm"
        code, stdout, stderr = run(capsys, "heatmap", "--resolution", "100000",
                                   "--axis", "ZZ", "--out", str(out))
        assert code == 1
        assert stderr == "error: Unable to allocate 74.5 GiB for an array with shape " \
                         "(1, 100000, 100000) and data type float64\n"
        assert stdout == "" and not out.exists()

    def test_out_file_fails_before_the_grids(self, tmp_path, capsys):
        out = tmp_path / "F"
        out.write_text("kept\n")
        with mock.patch.object(pauli, "coefficient_grids") as grids:
            code, stdout, stderr = run(capsys, "heatmap", "--resolution", "3",
                                       "--out", str(out))
        assert code == 1 and stdout == ""
        assert stderr == f"error: output path {str(out)!r} is a file, not a directory\n"
        assert grids.call_count == 0
        assert out.read_text() == "kept\n"

    @pytest.mark.parametrize("below", ("sub", "sub/deeper"))
    def test_out_below_a_file_fails_before_the_grids(self, tmp_path, capsys, monkeypatch,
                                                     below):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "F").write_text("kept\n")
        out = f"F/{below}"
        with mock.patch.object(pauli, "coefficient_grids") as grids:
            code, stdout, stderr = run(capsys, "heatmap", "--resolution", "5", "--out", out)
        assert code == 1 and stdout == ""
        assert stderr == (f"error: output path {out!r} lies below 'F', which is a file, "
                          "not a directory\n")
        assert grids.call_count == 0
        assert sorted(os.listdir(tmp_path)) == ["F"]
        assert (tmp_path / "F").read_text() == "kept\n"

    def test_empty_out_fails_before_the_grids(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with mock.patch.object(pauli, "coefficient_grids") as grids:
            code, stdout, stderr = run(capsys, "heatmap", "--resolution", "3", "--out", "")
        assert code == 1 and stdout == ""
        assert stderr == "error: output path is empty\n"
        assert grids.call_count == 0 and os.listdir(tmp_path) == []

    def test_out_made_below_new_directories(self, tmp_path, capsys):
        out = tmp_path / "new" / "dir"
        code, _, _ = run(capsys, "heatmap", "--resolution", "3", "--axis", "ZZ",
                         "--out", str(out))
        assert code == 0 and os.listdir(out) == ["ZZ.csv"]

    @pytest.mark.parametrize("command", ("heatmap", "kernel", "screen"))
    def test_custom_without_expression(self, tmp_path, capsys, command):
        argv = {"heatmap": ["heatmap", "--encoding", "custom"],
                "kernel": ["kernel", "--generate", "xor", "--n", "10",
                           "--encoding", "custom"],
                "screen": ["screen", "--generate", "xor", "--n", "10",
                           "--encodings", "custom"]}[command]
        if command != "screen":
            argv += ["--out", str(tmp_path / "o")]
        code, _, stderr = run(capsys, *argv)
        assert code == 1
        assert "--custom-phi12" in stderr

    @pytest.mark.parametrize("command", ("heatmap", "kernel"))
    def test_builtin_and_expression_conflict(self, tmp_path, capsys, command):
        argv = [command, "--custom-phi12", "x1*x2", "--out", str(tmp_path / "o")]
        if command == "kernel":
            argv += ["--generate", "xor", "--n", "10"]
        if command == "heatmap":
            argv += ["--resolution", "3"]
        code, stdout, stderr = run(capsys, *argv, "--encoding", "ef3")
        assert code == 1
        assert "--encoding ef3 conflicts with --custom-phi12" in stderr
        assert stdout == ""
        # the expression alone, or with --encoding custom, selects the custom encoding
        for extra in ([], ["--encoding", "custom"]):
            code, stdout, _ = run(capsys, *argv, *extra)
            assert code == 0 and stdout.startswith("wrote")


class TestScreen:
    def test_circle_all_builtins(self, tmp_path, capsys):
        ds = tmp_path / "c.csv"
        run(capsys, "gen", "circle", "--n", "100", "--seed", "7", "--out", str(ds))
        code, stdout, _ = run(capsys, "screen", "--dataset", str(ds), "--csv")
        assert code == 0
        rows = stdout.strip().splitlines()[1:]
        assert len(rows) == 5
        for row in rows:
            _, minacc, axis, *_ = row.split(",")
            assert float(minacc) >= 0.95
            assert axis == "ZZ"

    def test_empty_dataset_rejected(self, tmp_path, capsys):
        ds = tmp_path / "e.csv"
        ds.write_text("x1,x2,label\n")
        code, _, stderr = run(capsys, "screen", "--dataset", str(ds))
        assert code == 1
        assert "no points" in stderr

    def test_malformed_row_names_file_and_line(self, tmp_path, capsys):
        ds = tmp_path / "bad.csv"
        ds.write_text("x1,x2,label\n0.1,0.2,1\n0.3,0.4\n")
        code, stdout, stderr = run(capsys, "screen", "--dataset", str(ds))
        assert code == 1
        assert stderr == f"error: {ds}:3: malformed row '0.3,0.4'; expected x1,x2,label\n"
        assert stdout == ""

    def test_non_finite_coordinate_names_file_and_line(self, tmp_path, capsys):
        ds = tmp_path / "bad.csv"
        ds.write_text("x1,x2,label\n0.1,0.2,1\nnan,0.1,1\n")
        code, stdout, stderr = run(capsys, "screen", "--dataset", str(ds))
        assert code == 1
        assert stderr == f"error: {ds}:3: malformed row 'nan,0.1,1'; expected x1,x2,label\n"
        assert stdout == ""

    @pytest.mark.parametrize("row", ["0.3,0.4,2", "0.3,0.4,0"])
    def test_bad_label_names_file_and_line(self, tmp_path, capsys, row):
        ds = tmp_path / "bad.csv"
        ds.write_text(f"x1,x2,label\n0.1,0.2,1\n{row}\n")
        code, stdout, stderr = run(capsys, "screen", "--dataset", str(ds))
        assert code == 1
        assert stderr == f"error: {ds}:3: malformed row {row!r}; expected x1,x2,label\n"
        assert stdout == ""

    def test_expression_adds_custom_row(self, capsys):
        argv = ("screen", "--generate", "circle", "--n", "20", "--csv")
        _, builtins_only, _ = run(capsys, *argv)
        code, stdout, _ = run(capsys, *argv, "--custom-phi12", "pi*x1*x2")
        assert code == 0
        lines = stdout.splitlines()
        assert "\n".join(lines[:6]) + "\n" == builtins_only
        assert lines[6].startswith("custom,") and len(lines) == 7

    def test_complex_phase_is_a_validation_error(self, capsys):
        code, stdout, stderr = run(capsys, "screen", "--generate", "circle", "--n", "20",
                                   "--encodings", "custom", "--custom-phi12", "x1^0.5")
        assert code == 1
        assert stderr.startswith("error: phi12 failed at x=(-")
        assert "complex" in stderr and stderr.count("\n") == 1
        assert stdout == ""

    def test_complex_argument_is_a_validation_error(self, capsys):
        # a negative x1 makes x1^0.5 complex, and math.cos rejects it with a TypeError
        code, stdout, stderr = run(capsys, "screen", "--generate", "moon", "--n", "20",
                                   "--custom-phi12", "cos(x1^0.5)")
        assert code == 1 and stdout == ""
        assert stderr.startswith("error: phi12 failed at x=(-")
        assert "complex" in stderr and stderr.count("\n") == 1

    def test_per_axis_needs_one_encoding(self, capsys):
        argv = ("screen", "--generate", "circle", "--n", "20", "--per-axis")
        code, stdout, stderr = run(capsys, *argv)
        assert code == 1
        assert stderr == "error: --per-axis needs exactly one encoding, got 5\n"
        assert stdout == ""
        code, stdout, _ = run(capsys, *argv, "--encodings", "ef2")
        assert code == 0
        assert stdout.splitlines()[2] == "axis,accuracy,threshold,orientation"
        assert len(stdout.splitlines()) == 3 + 16

    def test_rerun_identical(self, tmp_path, capsys):
        ds = tmp_path / "c.csv"
        run(capsys, "gen", "exp", "--n", "40", "--seed", "2", "--out", str(ds))
        _, out1, _ = run(capsys, "screen", "--dataset", str(ds), "--csv")
        _, out2, _ = run(capsys, "screen", "--dataset", str(ds), "--csv")
        assert out1 == out2


class TestTrain:
    def test_numerical_failure_exits_2(self, capsys):
        # a 100-shot Gram is not certified PSD, so the PSD check's eigh runs
        failure = np.linalg.LinAlgError("Eigenvalues did not converge")
        with mock.patch.object(np.linalg, "eigh", side_effect=failure) as eigh:
            code, stdout, stderr = run(capsys, "train", "--generate", "moon", "--n", "20",
                                       "--encodings", "ef1", "--method", "shots",
                                       "--shots", "100")
        assert eigh.called
        assert (code, stdout, stderr) == (2, "", "numerical failure: Eigenvalues did not converge\n")

    def test_single_encoding_report(self, tmp_path, capsys):
        code, stdout, _ = run(capsys, "train", "--generate", "circle", "--n", "50",
                              "--seed", "7", "--encodings", "ef2", "--C", "100",
                              "--csv")
        assert code == 0
        lines = stdout.strip().splitlines()
        assert lines[0] == "fold,train_accuracy,test_accuracy"
        assert lines[-1].startswith("mean,")

    def test_combined_encodings(self, capsys):
        code, stdout, _ = run(capsys, "train", "--generate", "moon", "--n", "40",
                              "--seed", "7", "--encodings", "ef3", "ef1",
                              "--C", "100")
        assert code == 0
        assert "mean train=" in stdout

    def test_model_file_written(self, tmp_path, capsys):
        model = tmp_path / "m.txt"
        code, _, _ = run(capsys, "train", "--generate", "xor", "--n", "30",
                         "--seed", "1", "--encodings", "ef1",
                         "--model-out", str(model))
        assert code == 0
        assert model.read_text().startswith("C=")

    def test_model_reuses_cross_validation_gram(self, tmp_path, capsys, monkeypatch):
        # the saved model is train's own on the one Gram the folds use; a shot Gram is
        # not PSD, so the model trains on the clamped matrix that cross validation makes
        builds = []

        def counting_gram(*args, **kwargs):
            builds.append(args)
            return qk.gram(*args, **kwargs)

        monkeypatch.setattr(kernels, "gram", counting_gram)
        model = tmp_path / "m.txt"
        for kind, n, seed, C, method in (("xor", 30, 1, 1.0, "exact"),
                                         ("moon", 100, 7, 100.0, "shots")):
            builds.clear()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code, _, _ = run(capsys, "train", "--generate", kind, "--n", str(n),
                                 "--seed", str(seed), "--encodings", "ef1", "--C", repr(C),
                                 "--method", method, "--shots", "1000",
                                 "--model-out", str(model))
            assert code == 0
            assert len(builds) == 1
            clamps = ["clamping to PSD" in str(w.message) for w in caught]
            assert clamps == [True] * (method == "shots")
            ds = qk.generate(kind, n, seed)
            full = qk.gram(qk.builtin("ef1"), ds.points, method=method, shots=1000, seed=seed)
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "Gram matrix has minimum", RuntimeWarning)
                want = qk.train(full, ds.labels, C=C, points=ds.points)
            assert model.read_text() == want.to_text()

    def test_one_encoding_skips_combine(self, capsys):
        # one encoding without --weights trains on its own Gram: combine([g], [1.0])
        # would keep the bytes but costs an n x n sum (13-18 ms at n = 1600)
        argv = ("train", "--generate", "moon", "--n", "60", "--seed", "7", "--encodings")
        with mock.patch.object(kernels, "combine", wraps=kernels.combine) as combine:
            code, _, _ = run(capsys, *argv, "ef1")
            assert code == 0 and combine.call_count == 0
            code, _, _ = run(capsys, *argv, "ef1", "--weights", "1")
            assert code == 0 and combine.call_count == 1
            code, _, _ = run(capsys, *argv, "ef1", "ef3")
            assert code == 0 and combine.call_count == 2

    @pytest.mark.parametrize("method, clamps", [("exact", 0), ("shots", 1)])
    def test_one_factor_per_command(self, tmp_path, capsys, method, clamps):
        # the folds and the saved model share the full Gram's one factor
        with mock.patch.object(svm, "_certified_factor", wraps=svm._certified_factor) as cf, \
                mock.patch.object(svm, "_clamp_psd", wraps=svm._clamp_psd) as cp, \
                mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh, \
                warnings.catch_warnings():
            warnings.filterwarnings("ignore", "Gram matrix has minimum", RuntimeWarning)
            code, _, _ = run(capsys, "train", "--generate", "moon", "--n", "100",
                             "--seed", "7", "--encodings", "ef1", "--C", "100",
                             "--method", method, "--shots", "1000",
                             "--model-out", str(tmp_path / "m.txt"))
        assert code == 0
        assert (cf.call_count, cp.call_count, eigh.call_count) == (1, clamps, clamps)

    @pytest.mark.parametrize("method", ("exact", "shots"))
    def test_one_interior_point_run_per_command(self, tmp_path, capsys, method):
        # the saved model is the last lane of the folds' IPM: one call with or without
        # --model-out, and the same CV lines either way
        argv = ["train", "--generate", "moon", "--n", "100", "--seed", "7", "--encodings",
                "ef1", "--C", "100", "--method", method, "--shots", "1000", "--csv"]
        model, out = tmp_path / "m.txt", []
        for extra in ([], ["--model-out", str(model)]):
            with mock.patch.object(svm, "_interior_points",
                                   wraps=svm._interior_points) as ipm, \
                    warnings.catch_warnings():
                warnings.filterwarnings("ignore", "Gram matrix has minimum", RuntimeWarning)
                code, stdout, _ = run(capsys, *argv, *extra)
            assert code == 0 and ipm.call_count == 1
            out.append(stdout)
        assert out[1] == out[0] + f"wrote model to {model}\n"
        assert svm.SvmModel.from_text(model.read_text()).alphas.any()

    @pytest.mark.parametrize("folds", ("0", "-1"))
    def test_too_few_folds(self, capsys, folds):
        code, stdout, stderr = run(capsys, "train", "--generate", "xor", "--n", "20",
                                   "--encodings", "ef1", "--folds", folds)
        assert code == 1
        assert "folds must be at least 2" in stderr
        assert stdout == ""

    @pytest.mark.parametrize("folds, message", [
        ("0", "folds must be at least 2, got 0"),
        ("7", "dataset size 60 not divisible by 7 folds"),
    ])
    def test_fold_misuse_fails_before_the_gram(self, capsys, folds, message):
        # a shot Gram would be clamped with a warning; the misuse is reported first
        with mock.patch.object(kernels, "gram", wraps=kernels.gram) as builds, \
                mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh, \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, stdout, stderr = run(capsys, "train", "--generate", "moon", "--n", "60",
                                       "--encodings", "ef1", "--method", "shots",
                                       "--shots", "1000", "--folds", folds)
        assert code == 1 and stdout == ""
        assert stderr == f"error: {message}\n"
        assert caught == []
        assert (builds.call_count, eigh.call_count) == (0, 0)

    def test_one_class_dataset_fails_before_the_gram(self, tmp_path, capsys):
        # no re-shuffle can give a fold both classes, so train's own message is reported
        path = tmp_path / "one.csv"
        path.write_text("x1,x2,label\n" + "0.1,0.2,1\n" * 10)
        with mock.patch.object(kernels, "gram", wraps=kernels.gram) as builds:
            code, stdout, stderr = run(capsys, "train", "--dataset", str(path),
                                       "--encodings", "ef1", "--folds", "5")
        assert code == 1 and stdout == ""
        assert stderr == "error: both classes must be present for training\n"
        assert builds.call_count == 0

    @pytest.mark.parametrize("argv, message", [
        (["--tolerance", "inf"], "tolerance must be finite, got inf"),
        (["--tolerance", "0"], "C and tolerance must be positive"),
        (["--model-out", "missing/m.txt"], "output directory 'missing' does not exist"),
        (["--model-out", "isdir"], "output path 'isdir' is a directory"),
        (["--model-out", "F/m.txt"],
         "output path 'F/m.txt' lies below 'F', which is a file, not a directory"),
        (["--model-out", ""], "output path is empty"),
    ], ids=["infinite tolerance", "zero tolerance", "missing directory", "directory",
            "below a file", "empty"])
    def test_setting_misuse_fails_before_the_gram(self, tmp_path, capsys, monkeypatch,
                                                  argv, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "isdir").mkdir()
        (tmp_path / "F").write_text("kept\n")
        with mock.patch.object(kernels, "gram", wraps=kernels.gram) as builds, \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, stdout, stderr = run(capsys, "train", "--generate", "moon", "--n", "60",
                                       "--encodings", "ef1", "--method", "shots",
                                       "--shots", "1000", *argv)
        assert code == 1 and stdout == ""
        assert stderr == f"error: {message}\n"
        assert caught == [] and builds.call_count == 0

    def test_infinite_C_is_allowed(self, capsys):
        # the hard margin; ef1 separates xor
        code, stdout, _ = run(capsys, "train", "--generate", "xor", "--n", "20",
                              "--encodings", "ef1", "--C", "inf")
        assert code == 0 and "mean train=1.0000" in stdout

    def test_custom_without_encodings(self, capsys):
        code, stdout, _ = run(capsys, "train", "--generate", "circle", "--n", "30",
                              "--seed", "7", "--custom-phi12", "x1*x2")
        assert code == 0
        assert "mean train=" in stdout

    def test_custom_named_in_encodings(self, capsys):
        argv = ("train", "--generate", "circle", "--n", "30", "--seed", "7",
                "--custom-phi12", "x1*x2")
        _, implied, _ = run(capsys, *argv)
        code, named, _ = run(capsys, *argv, "--encodings", "custom")
        assert code == 0 and named == implied
        code, _, stderr = run(capsys, *argv[:-2], "--encodings", "custom")
        assert code == 1 and "--custom-phi12" in stderr

    def test_weights_checked_for_one_encoding(self, capsys):
        argv = ("train", "--generate", "circle", "--n", "20", "--encodings", "ef1")
        code, stdout, stderr = run(capsys, *argv, "--weights", "5", "7")
        assert code == 1
        assert stderr == "error: --weights has 2 values for 1 encoding(s)\n"
        assert stdout == ""
        code, stdout, stderr = run(capsys, *argv, "--weights")
        assert code == 1
        assert stderr == "error: --weights has 0 values for 1 encoding(s)\n"
        assert stdout == ""
        code, stdout, stderr = run(capsys, *argv, "--weights", "0.5")
        assert code == 1 and "must sum to 1" in stderr and stdout == ""
        _, bare, _ = run(capsys, *argv)
        code, weighted, _ = run(capsys, *argv, "--weights", "1")
        assert code == 0 and weighted == bare

    @pytest.mark.parametrize("weights, message", [
        (["3", "-1"], "each weight must lie in [0, 2]"),
        (["1", "1.5"], "weights must sum to 2, got 2.5"),
        (["nan", "1"], "each weight must lie in [0, 2]"),
        (["1"], "--weights has 1 values for 2 encoding(s)"),
    ], ids=["range", "sum", "NaN", "count"])
    def test_weight_misuse_fails_before_the_gram(self, capsys, weights, message):
        with mock.patch.object(kernels, "gram", wraps=kernels.gram) as builds:
            code, stdout, stderr = run(capsys, "train", "--generate", "moon", "--n", "60",
                                       "--encodings", "ef1", "ef2", "--weights", *weights)
        assert code == 1 and stdout == ""
        assert stderr == f"error: {message}\n"
        assert builds.call_count == 0

    def test_nan_weight_rejected(self, capsys):
        code, stdout, stderr = run(capsys, "train", "--generate", "circle", "--n", "20",
                                   "--encodings", "ef1", "ef3", "--weights", "nan", "1")
        assert code == 1
        assert stderr == "error: each weight must lie in [0, 2]\n"
        assert stdout == ""

    @pytest.mark.parametrize("flag", ("--C", "--tolerance"))
    def test_nan_solver_setting_rejected(self, capsys, flag):
        argv = ("train", "--generate", "circle", "--n", "20", "--encodings", "ef1")
        code, stdout, stderr = run(capsys, *argv, flag, "nan")
        assert code == 1
        assert stderr == "error: C and tolerance must be positive\n"
        assert stdout == ""
        code, stdout, _ = run(capsys, *argv, "--C", "inf")
        assert code == 0 and "mean train=" in stdout

    def test_no_encoding_rejected(self, capsys):
        code, stdout, stderr = run(capsys, "train", "--generate", "circle", "--n", "30")
        assert code == 1
        assert "at least one encoding required" in stderr
        assert stdout == ""

    SHOT_TRAIN = ("train", "--generate", "exp", "--n", "30", "--seed", "5",
                  "--encodings", "ef1", "--method", "shots", "--shots", "200", "--csv")

    def test_rerun_identical(self, capsys):
        with pytest.warns(RuntimeWarning, match="clamping to PSD"):
            _, out1, _ = run(capsys, *self.SHOT_TRAIN)
        with pytest.warns(RuntimeWarning, match="clamping to PSD"):
            _, out2, _ = run(capsys, *self.SHOT_TRAIN)
        assert out1 == out2

    def test_warnings_print_without_source(self):
        # the full Gram is clamped once; the command prints the warning as its message
        src = Path(qk.__file__).resolve().parent.parent
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-W", "always", "-m", "qkmap.cli",
                               *self.SHOT_TRAIN], capture_output=True, text=True,
                              timeout=120, env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0, proc.stderr
        [line] = proc.stderr.splitlines()
        assert line.startswith("warning: Gram matrix has minimum eigenvalue -")
        assert line.endswith("; clamping to PSD")

    def test_warning_format_restored(self, capsys):
        shown = warnings.formatwarning
        with pytest.warns(RuntimeWarning):
            assert run(capsys, *self.SHOT_TRAIN)[0] == 0
        assert warnings.formatwarning is shown
        assert run(capsys, "train", "--generate", "xor", "--n", "3")[0] == 1
        assert warnings.formatwarning is shown


class TestKernel:
    def test_exact_unit_diagonal(self, tmp_path, capsys):
        out = tmp_path / "k.csv"
        code, _, _ = run(capsys, "kernel", "--generate", "circle", "--n", "10",
                         "--seed", "4", "--encoding", "ef1", "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# method=exact")
        values = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert np.max(np.abs(np.diag(values) - 1.0)) < 1e-10

    def test_shots_close_to_exact(self, tmp_path, capsys):
        exact_f, shots_f = tmp_path / "e.csv", tmp_path / "s.csv"
        common = ("kernel", "--generate", "xor", "--n", "20", "--seed", "4",
                  "--encoding", "ef1")
        run(capsys, *common, "--out", str(exact_f))
        run(capsys, *common, "--method", "shots", "--shots", "10000",
            "--out", str(shots_f))
        load = lambda p: np.array([[float(v) for v in line.split(",")]
                                   for line in p.read_text().splitlines()[1:]])
        assert np.max(np.abs(load(exact_f) - load(shots_f))) <= 0.03

    def test_invalid_method_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "kernel", "--generate", "xor", "--n", "10",
                "--method", "magic", "--out", str(tmp_path / "k.csv"))
        assert exc.value.code == 1

    @pytest.mark.parametrize("out, message", [
        ("missing/k.csv", "output directory {dir!r} does not exist"),
        ("isdir", "output path {out!r} is a directory"),
        ("F/k.csv", "output path {out!r} lies below {dir!r}, which is a file, not a directory"),
        ("", "output path is empty"),
    ], ids=["missing directory", "directory", "below a file", "empty"])
    def test_out_misuse_fails_before_the_gram(self, tmp_path, capsys, out, message):
        (tmp_path / "isdir").mkdir()
        (tmp_path / "F").write_text("kept\n")
        out = str(tmp_path / out) if out else out
        with mock.patch.object(kernels, "gram", wraps=kernels.gram) as builds:
            code, stdout, stderr = run(capsys, "kernel", "--generate", "moon", "--n", "10",
                                       "--out", out)
        assert code == 1 and stdout == ""
        assert stderr == f"error: {message.format(dir=os.path.dirname(out), out=out)}\n"
        assert builds.call_count == 0

    def test_shots_on_an_overlap_rounded_below_zero(self, tmp_path, capsys):
        # the pair's exact overlap rounds to about -3.6e-19; this exited 1 with numpy's
        # "p < 0, p > 1 or p contains NaNs"
        data, out = tmp_path / "d.csv", tmp_path / "k.csv"
        data.write_text("x1,x2,label\n0.3,-0.2,1\n-0.70833995,-3.03001816,-1\n")
        code, _, stderr = run(capsys, "kernel", "--dataset", str(data), "--method", "shots",
                              "--shots", "1000", "--encoding", "ef1", "--out", str(out))
        assert (code, stderr) == (0, "")
        assert out.read_text().splitlines()[1:] == ["1.0,0.0", "0.0,1.0"]

    def test_rerun_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        common = ("kernel", "--generate", "moon", "--n", "12", "--seed", "9",
                  "--encoding", "ef2", "--method", "shots", "--shots", "500")
        run(capsys, *common, "--out", str(a))
        run(capsys, *common, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()
