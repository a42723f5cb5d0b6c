"""Command line interface: subcommands, outputs, exit codes."""

import subprocess
import sys

import numpy as np
import pytest

from despec import imgio, synth
from despec.cli import main


def synth_dir(tmp_path, scene="single-1", extra=(), name="scene"):
    out = tmp_path / name
    rc = main(["synth", scene, "-o", str(out),
               "--width", "96", "--height", "64", *extra])
    assert rc == 0
    return out


def stdout_value(capsys_text, key):
    for line in capsys_text.splitlines():
        if line.startswith(f"{key} = "):
            return line.split(" = ", 1)[1]
    raise AssertionError(f"{key!r} not in output:\n{capsys_text}")


class TestSynth:
    def test_writes_all_artifacts(self, tmp_path, capsys):
        out = synth_dir(tmp_path)
        captured = capsys.readouterr()
        assert "wrote scene single-1 (96x64" in captured.out
        for fname in ("input.pfm", "diffuse.pfm", "specular.pfm",
                      "labels.ppm", "scene.txt"):
            assert (out / fname).exists(), fname
        assert imgio.load(out / "input.pfm").shape == (64, 96, 3)

    def test_noise_and_format_flags(self, tmp_path):
        out = synth_dir(tmp_path, extra=["--sigma", "3", "--seed", "1",
                                         "--format", "ppm16"])
        clean = synth_dir(tmp_path, name="clean", extra=["--format", "ppm16"])
        noisy = imgio.load(out / "input.ppm")
        assert not np.array_equal(noisy, imgio.load(clean / "input.ppm"))

    def test_from_scene_file(self, tmp_path, capsys):
        params = synth.builtin_params("single-2", 48, 32)
        path = tmp_path / "my-scene.txt"
        synth.save_scene(params, path)
        rc = main(["synth", str(path), "-o", str(tmp_path / "out")])
        assert rc == 0
        assert imgio.load(tmp_path / "out" / "input.pfm").shape == (32, 48, 3)

    def test_unknown_scene_exits_4(self, tmp_path, capsys):
        rc = main(["synth", "chrome-sphere", "-o", str(tmp_path / "x")])
        assert rc == 4
        assert "error" in capsys.readouterr().err


class TestRemove:
    def test_separates_and_reports(self, tmp_path, capsys):
        out = synth_dir(tmp_path, scene="four-materials")
        rc = main(["remove", str(out / "input.pfm"),
                   "-d", str(tmp_path / "d.pfm"), "-s", str(tmp_path / "s.pfm"),
                   "-l", str(tmp_path / "l.ppm"),
                   "--report", str(tmp_path / "report.txt"),
                   "--threads", "1"])
        assert rc == 0
        captured = capsys.readouterr()
        assert stdout_value(captured.out, "converged") == "true"
        assert stdout_value(captured.out, "clusters") == "4"
        report = (tmp_path / "report.txt").read_text()
        assert "iterations = " in report and "downsampled = false" in report

        diffuse = imgio.load(tmp_path / "d.pfm")
        specular = imgio.load(tmp_path / "s.pfm")
        truth = imgio.load(out / "input.pfm")
        assert np.abs(diffuse + specular - truth).max() <= 1e-6  # float32 files
        assert (tmp_path / "l.ppm").exists()

    def test_eval_of_remove_output(self, tmp_path, capsys):
        out = synth_dir(tmp_path, scene="four-materials")
        main(["remove", str(out / "input.pfm"),
              "-d", str(tmp_path / "d.pfm"), "-s", str(tmp_path / "s.pfm"),
              "-l", str(tmp_path / "l.ppm")])
        capsys.readouterr()
        rc = main(["eval",
                   "--diffuse", str(tmp_path / "d.pfm"),
                   "--truth-diffuse", str(out / "diffuse.pfm"),
                   "--labels", str(tmp_path / "l.ppm"),
                   "--truth-labels", str(out / "labels.ppm"),
                   "--record", str(tmp_path / "scores.txt")])
        assert rc == 0
        captured = capsys.readouterr()
        assert float(stdout_value(captured.out, "psnr_diffuse_db")) >= 60.0
        assert stdout_value(captured.out, "cluster_accuracy") == "1.000000"
        assert "psnr_diffuse_db" in (tmp_path / "scores.txt").read_text()

    def test_missing_input_exits_3(self, tmp_path, capsys):
        rc = main(["remove", str(tmp_path / "absent.pfm"),
                   "-d", str(tmp_path / "d.pfm"), "-s", str(tmp_path / "s.pfm")])
        assert rc == 3
        assert "error" in capsys.readouterr().err

    def test_unusable_gray_input_exits_5(self, tmp_path, capsys):
        gray = np.full((32, 32, 3), 0.5)
        imgio.save(gray, tmp_path / "gray.pfm")
        rc = main(["remove", str(tmp_path / "gray.pfm"),
                   "-d", str(tmp_path / "d.pfm"), "-s", str(tmp_path / "s.pfm")])
        assert rc == 5
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("illum", ["nan,1,1", "inf,1,1"])
    def test_non_finite_illuminant_exits_5(self, tmp_path, capsys, illum):
        out = synth_dir(tmp_path)
        rc = main(["remove", str(out / "input.pfm"), "--illum", illum,
                   "-d", str(tmp_path / "d.pfm"), "-s", str(tmp_path / "s.pfm")])
        assert rc == 5
        assert "non-finite" in capsys.readouterr().err
        assert not (tmp_path / "d.pfm").exists()

    @pytest.mark.parametrize("flags", [
        "--max-iterations 0",
        "--initial-k 0",
        "--bin-width 0",
        "--fast --target-edge 0",
        "--min-cluster-size -5",
        "--tau-dev -1",
        "--tau-frac -1",
        "--tau-frac 1.5",
        "--tau-frac nan",
        "--bin-width inf",
        "--bin-width 1e-5",
        "--bin-width 2",
        "--peak-floor -1",
        "--threads -4",
        "--seed -1",
    ])
    def test_out_of_range_config_exits_4(self, tmp_path, capsys, flags):
        out = synth_dir(tmp_path)
        rc = main(["remove", str(out / "input.pfm"), *flags.split(),
                   "-d", str(tmp_path / "d.pfm"), "-s", str(tmp_path / "s.pfm")])
        assert rc == 4
        assert "error" in capsys.readouterr().err

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        out = synth_dir(tmp_path)
        cfg = tmp_path / "despec.cfg"
        cfg.write_text("initial_k = 3\nseed = 0\n")
        rc = main(["remove", str(out / "input.pfm"),
                   "-d", str(tmp_path / "d.pfm"), "-s", str(tmp_path / "s.pfm"),
                   "--config", str(cfg), "--initial-k", "1",
                   "--report", str(tmp_path / "report.txt")])
        assert rc == 0
        capsys.readouterr()
        # the explicit flag wins over the config file's initial_k = 3
        assert "k_history = 1\n" in (tmp_path / "report.txt").read_text()

    def test_gamma_decode_round_trip(self, tmp_path, capsys):
        out = synth_dir(tmp_path, scene="single-2")
        linear = imgio.load(out / "input.pfm")
        imgio.save(np.power(linear, 1 / 2.2), tmp_path / "encoded.pfm")
        rc = main(["remove", str(tmp_path / "encoded.pfm"), "--gamma-decode",
                   "-d", str(tmp_path / "d.pfm"), "-s", str(tmp_path / "s.pfm")])
        assert rc == 0
        capsys.readouterr()
        decoded = imgio.load(tmp_path / "d.pfm") + imgio.load(tmp_path / "s.pfm")
        assert np.abs(decoded - linear).max() <= 1e-5  # float32 + power round trip


class TestEval:
    def test_nothing_to_do_exits_2(self, capsys):
        rc = main(["eval"])
        assert rc == 2
        assert "nothing to evaluate" in capsys.readouterr().err

    def test_size_mismatch_exits_6(self, tmp_path, capsys):
        imgio.save(np.zeros((4, 4, 3)), tmp_path / "a.pfm")
        imgio.save(np.zeros((5, 4, 3)), tmp_path / "b.pfm")
        rc = main(["eval", "--diffuse", str(tmp_path / "a.pfm"),
                   "--truth-diffuse", str(tmp_path / "b.pfm")])
        assert rc == 6
        assert "error" in capsys.readouterr().err


class TestBench:
    def test_scene_timing(self, capsys):
        rc = main(["bench", "--scene", "single-1", "--width", "64",
                   "--height", "48", "--repeats", "2", "--threads", "1"])
        assert rc == 0
        captured = capsys.readouterr()
        assert stdout_value(captured.out, "runs") == "2"
        assert float(stdout_value(captured.out, "median_seconds")) > 0.0

    def test_needs_input_or_scene(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench"])
        assert exc.value.code == 2


class TestParsing:
    def test_unknown_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["remove", "--frobnicate"])
        assert exc.value.code == 2

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "despec" in capsys.readouterr().out

    def test_console_script_installed(self):
        proc = subprocess.run([sys.executable, "-m", "despec.cli", "--version"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "despec" in proc.stdout
