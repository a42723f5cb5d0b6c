"""Command line interface: subcommands, outputs, exit codes."""

import subprocess
import sys

import numpy as np
import pytest

from despec import imgio, pipeline, synth
from despec.cli import _config_from_args, build_parser, main


def synth_dir(tmp_path, scene="single-1", extra=(), name="scene"):
    out = tmp_path / name
    rc = main(["synth", scene, "-o", str(out),
               "--width", "96", "--height", "64", *extra])
    assert rc == 0
    return out


def one_error_line(capsys) -> str:
    """The single ``despec: error:`` line a failed command printed."""
    err = capsys.readouterr().err
    assert err.startswith("despec: error: ") and len(err.splitlines()) == 1, err
    assert "Traceback" not in err
    return err


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

    def test_existing_file_with_any_name_is_a_scene_file(self, tmp_path, monkeypatch):
        """A bare file name in the working directory is read as a scene
        file whatever its suffix, not looked up as a builtin name."""
        synth.save_scene(synth.builtin_params("single-2", 40, 24), tmp_path / "myscene.cfg")
        monkeypatch.chdir(tmp_path)
        assert main(["synth", "myscene.cfg", "-o", "out"]) == 0
        assert imgio.load(tmp_path / "out" / "input.pfm").shape == (24, 40, 3)

    def test_unknown_scene_exits_4(self, tmp_path, capsys):
        rc = main(["synth", "chrome-sphere", "-o", str(tmp_path / "x")])
        assert rc == 4
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        "--sigma nan", "--sigma inf", "--sigma -1", "--width 0", "--height 0",
    ])
    def test_bad_noise_or_size_exits_4(self, tmp_path, capsys, flags):
        out = tmp_path / "x"
        rc = main(["synth", "four-materials", "-o", str(out), "--width", "20",
                   "--height", "20", *flags.split()])
        assert rc == 4
        assert "error" in capsys.readouterr().err
        assert not (out / "input.pfm").exists()

    def test_noise_beyond_pfm_range_exits_3(self, tmp_path, capsys, recwarn):
        """Noise of sigma 1e308 counts drives samples past the float32
        range: one error line naming the file, no inf written."""
        out = tmp_path / "x"
        rc = main(["synth", "four-materials", "-o", str(out), "--width", "40",
                   "--height", "30", "--sigma", "1e308"])
        assert rc == 3
        err = one_error_line(capsys)
        assert str(out / "input.pfm") in err and "float32 range" in err
        assert not (out / "input.pfm").exists()
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("lobe", [
        "nan 0.5 0.1 0.4", "0.5 inf 0.1 0.4", "0.5 0.5 nan 0.4", "0.5 0.5 0.1 inf",
    ])
    def test_non_finite_lobe_exits_4(self, tmp_path, capsys, lobe):
        scene = tmp_path / "scene.txt"
        scene.write_text(f"scene = single-1\nmaterial = 0.4 0.4 0.2\nlobe = {lobe}\n")
        rc = main(["synth", str(scene), "-o", str(tmp_path / "x")])
        assert rc == 4
        assert "bad lobe" in capsys.readouterr().err

    def test_out_of_memory_exits_5(self, tmp_path, capsys, monkeypatch):
        def too_big(spec):
            raise MemoryError
        monkeypatch.setattr(synth, "render", too_big)
        rc = main(["synth", "four-materials", "-o", str(tmp_path / "x")])
        assert rc == 5
        err = capsys.readouterr().err
        assert err.startswith("despec: error: out of memory") and "Traceback" not in err

    @pytest.mark.parametrize("case", ["missing", "directory", "non-utf8"])
    def test_unreadable_scene_file_exits_4(self, tmp_path, capsys, case):
        scene = tmp_path / "scene.txt"
        if case == "directory":
            scene.mkdir()
        elif case == "non-utf8":
            scene.write_bytes(b"scene = single-1  # caf\xe9\n")
        rc = main(["synth", str(scene), "-o", str(tmp_path / "x")])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith("despec: error: cannot read scene")
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    @pytest.mark.parametrize("case", ["existing-file", "below-a-file"])
    def test_unusable_output_directory_exits_3(self, tmp_path, capsys, case):
        taken = tmp_path / "taken"
        taken.write_text("")
        out = taken if case == "existing-file" else taken / "sub"
        rc = main(["synth", "single-1", "-o", str(out), "--width", "8", "--height", "8"])
        assert rc == 3
        assert "cannot create output directory" in one_error_line(capsys)
        assert taken.read_text() == ""


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

    def test_unwritable_report_exits_3(self, tmp_path, capsys):
        out = synth_dir(tmp_path)
        capsys.readouterr()
        report = tmp_path / "missing" / "report.txt"
        rc = main(["remove", str(out / "input.pfm"), "--report", str(report),
                   "-d", str(tmp_path / "d.pfm"), "-s", str(tmp_path / "s.pfm")])
        assert rc == 3
        assert f"cannot write {report}" in one_error_line(capsys)

    @pytest.mark.parametrize("flag", ["-d", "-s", "-l", "--report"])
    def test_unwritable_output_leaves_no_partial_output(self, tmp_path, capsys, flag):
        """Every output path is checked before the pipeline runs: a bad one
        exits 3 with one error line, and nothing is written or printed."""
        out = synth_dir(tmp_path)
        capsys.readouterr()
        paths = {"-d": tmp_path / "d.pfm", "-s": tmp_path / "sp.pfm",
                 "-l": tmp_path / "l.ppm", "--report": tmp_path / "r.txt"}
        paths[flag] = tmp_path / "missing" / paths[flag].name
        argv = ["remove", str(out / "input.pfm")]
        for name, path in paths.items():
            argv += [name, str(path)]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"despec: error: cannot write {paths[flag]}: " \
                               "not a file in a writable directory\n"
        assert not any(path.exists() for path in paths.values())

    @pytest.mark.parametrize("flag", ["-d", "-s"])
    def test_unknown_output_format_leaves_no_partial_output(self, tmp_path, capsys, flag):
        """An image output whose format cannot be inferred exits 3 before
        the pipeline runs, so the other output is not written either."""
        out = synth_dir(tmp_path)
        capsys.readouterr()
        paths = {"-d": tmp_path / "d.pfm", "-s": tmp_path / "s.pfm", "-l": tmp_path / "l.ppm"}
        paths[flag] = paths[flag].with_suffix(".png")
        argv = ["remove", str(out / "input.pfm")]
        for name, path in paths.items():
            argv += [name, str(path)]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"despec: error: cannot infer format for {paths[flag]}\n"
        assert not any(path.exists() for path in paths.values())

    @pytest.mark.filterwarnings("ignore::despec.errors.NoConvergenceWarning")
    def test_too_many_labels_leave_no_partial_output(self, tmp_path, capsys):
        """A run that ends with more clusters than an 8-bit label map holds
        exits 3 before it writes any of its outputs."""
        assert main(["synth", "four-materials", "-o", str(tmp_path / "scene"),
                     "--width", "64", "--height", "48", "--sigma", "3"]) == 0
        capsys.readouterr()
        paths = {"-d": tmp_path / "d.pfm", "-s": tmp_path / "s.pfm", "-l": tmp_path / "l.ppm"}
        argv = ["remove", str(tmp_path / "scene" / "input.pfm"),
                "--tau-dev", "0", "--min-cluster-size", "1"]
        for flag, path in paths.items():
            argv += [flag, str(path)]
        assert main(argv) == 3
        assert "labels exceed an 8-bit label map" in one_error_line(capsys)
        assert not any(path.exists() for path in paths.values())

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

    def test_black_illuminant_exits_5(self, tmp_path, capsys):
        out = synth_dir(tmp_path)
        rc = main(["remove", str(out / "input.pfm"), "--illum", "0,0,0",
                   "-d", str(tmp_path / "d.pfm"), "-s", str(tmp_path / "s.pfm")])
        assert rc == 5
        err = capsys.readouterr().err
        assert err.startswith("despec: error: illumination color norm 0 is below")
        assert not (tmp_path / "d.pfm").exists()

    @pytest.mark.parametrize("flags", [
        "--max-iterations 0",
        "--initial-k 0",
        "--fast --target-edge 0",
        "--min-cluster-size -5",
        "--tau-dev -1",
        "--tau-dev nan",
        "--threads -4",
        "--seed -1",
        "--initial-k two",
        "--tau-dev lots",
        "--min-cluster-size some",
    ])
    def test_out_of_range_config_exits_4(self, tmp_path, capsys, flags):
        out = synth_dir(tmp_path)
        rc = main(["remove", str(out / "input.pfm"), *flags.split(),
                   "-d", str(tmp_path / "d.pfm"), "-s", str(tmp_path / "s.pfm")])
        assert rc == 4
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["tau_frac", "bin_width", "peak_floor"])
    def test_fixed_constants_are_not_knobs(self, tmp_path, capsys, key):
        """The failing fraction, bin width and peak floor are constants:
        as a flag they are unknown (exit 2), as a config key too (exit 4)."""
        outputs = ["-d", str(tmp_path / "d.pfm"), "-s", str(tmp_path / "s.pfm")]
        with pytest.raises(SystemExit) as exc:
            main(["remove", "in.pfm", "--" + key.replace("_", "-"), "1", *outputs])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        cfg = tmp_path / "despec.cfg"
        cfg.write_text(f"{key} = 1\n")
        out = synth_dir(tmp_path)
        capsys.readouterr()
        assert main(["remove", str(out / "input.pfm"), "--config", str(cfg), *outputs]) == 4
        assert f"unknown key '{key}'" in one_error_line(capsys)
        assert not (tmp_path / "d.pfm").exists()

    def test_divide_overflow_exits_5_and_writes_nothing(self, tmp_path, capsys):
        out = synth_dir(tmp_path)
        capsys.readouterr()
        paths = {"-d": tmp_path / "d.pfm", "-s": tmp_path / "s.pfm",
                 "-l": tmp_path / "l.ppm", "--report": tmp_path / "r.txt"}
        argv = ["remove", str(out / "input.pfm"), "--illum", "divide:1e-320,1,1"]
        for flag, path in paths.items():
            argv += [flag, str(path)]
        assert main(argv) == 5
        assert "non-finite" in one_error_line(capsys)
        assert not any(path.exists() for path in paths.values())

    def test_diffuse_beyond_pfm_range_exits_3(self, tmp_path, capsys, recwarn):
        """Balancing a near-float32-max input by 0.5 in red lifts diffuse
        samples past what a PFM can hold: exit 3 with one error line
        naming the file, and no partial output."""
        out = synth_dir(tmp_path, scene="four-materials")
        big = tmp_path / "big.pfm"
        imgio.save(imgio.load(out / "input.pfm") * 3e38, big)
        capsys.readouterr()
        diffuse, specular = tmp_path / "d.pfm", tmp_path / "s.pfm"
        rc = main(["remove", str(big), "-d", str(diffuse), "-s", str(specular),
                   "--illum", "divide:0.5,1,1"])
        assert rc == 3
        err = one_error_line(capsys)
        assert str(diffuse) in err and "float32 range" in err
        assert not diffuse.exists() and not specular.exists()
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("first, second", [("-d", "-s"), ("-s", "-l"), ("-l", "--report"),
                                               ("-d", "--report")])
    def test_same_output_twice_exits_2(self, tmp_path, capsys, first, second):
        """Two output flags that resolve to one file are a usage error,
        raised before anything is written; the second is spelled through
        a '..' detour so only the resolved paths match."""
        out = synth_dir(tmp_path)
        capsys.readouterr()
        (tmp_path / "sub").mkdir()
        paths = {"-d": tmp_path / "d.pfm", "-s": tmp_path / "s.pfm",
                 "-l": tmp_path / "l.ppm", "--report": tmp_path / "r.txt"}
        paths[second] = tmp_path / "sub" / ".." / paths[first].name
        argv = ["remove", str(out / "input.pfm")]
        for flag, path in paths.items():
            argv += [flag, str(path)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"despec: error: {first} and {second} both name " \
                               f"{paths[second]}\n"
        assert not any(path.exists() for path in paths.values())

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

    def test_non_utf8_config_exits_4(self, tmp_path, capsys):
        out = synth_dir(tmp_path)
        cfg = tmp_path / "despec.cfg"
        cfg.write_bytes(b"seed = 3  # caf\xe9\n")
        rc = main(["remove", str(out / "input.pfm"), "--config", str(cfg),
                   "-d", str(tmp_path / "d.pfm"), "-s", str(tmp_path / "s.pfm")])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith("despec: error: cannot read config")
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert not (tmp_path / "d.pfm").exists()

    # one valid, non-default value per option
    SAMPLE_VALUES = {
        "illum": "divide:0.9,1,0.8", "initial_k": "3", "tau_dev": "0.05",
        "min_cluster_size": "64", "seed": "7", "max_iterations": "4",
        "fast": "on", "target_edge": "150", "threads": "2",
    }

    @pytest.mark.parametrize("opt", pipeline.OPTIONS, ids=lambda opt: opt.key)
    def test_flag_and_file_agree(self, tmp_path, opt):
        assert set(self.SAMPLE_VALUES) == {o.key for o in pipeline.OPTIONS}
        value = self.SAMPLE_VALUES[opt.key]
        flag = "--" + opt.key.replace("_", "-")
        cfg = tmp_path / "despec.cfg"
        cfg.write_text(f"{opt.key} = {value}\n")
        base = ["remove", "in.pfm", "-d", "d.pfm", "-s", "s.pfm"]
        parser = build_parser()
        from_flag = _config_from_args(
            parser.parse_args(base + [flag if opt.switch else f"{flag}={value}"]))
        from_file = _config_from_args(parser.parse_args(base + ["--config", str(cfg)]))
        assert from_flag == from_file
        assert from_flag != pipeline.PipelineConfig()

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_result_exits_2(self, tmp_path, capsys, bad):
        img = np.full((4, 4, 3), 0.5)
        imgio.save(img, tmp_path / "truth.pfm")
        img[2, 1, 1] = bad
        imgio.save(img, tmp_path / "d.pfm")
        rc = main(["eval", "--diffuse", str(tmp_path / "d.pfm"),
                   "--truth-diffuse", str(tmp_path / "truth.pfm")])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "despec: error: result image contains non-finite values " \
                               "(NaN or inf)\n"

    def test_unwritable_record_exits_3(self, tmp_path, capsys):
        imgio.save(np.full((4, 4, 3), 0.5), tmp_path / "a.pfm")
        record = tmp_path / "missing" / "scores.txt"
        rc = main(["eval", "--diffuse", str(tmp_path / "a.pfm"),
                   "--truth-diffuse", str(tmp_path / "a.pfm"), "--record", str(record)])
        assert rc == 3
        assert f"cannot write {record}" in one_error_line(capsys)


class TestBench:
    def test_scene_timing(self, capsys):
        rc = main(["bench", "--scene", "single-1", "--width", "64",
                   "--height", "48", "--repeats", "2", "--threads", "1"])
        assert rc == 0
        captured = capsys.readouterr()
        assert stdout_value(captured.out, "runs") == "2"
        assert float(stdout_value(captured.out, "median_seconds")) > 0.0
        stages = [line for line in captured.out.splitlines() if line.startswith("stage_")]
        assert [line.split("_seconds = ")[0] for line in stages] == [
            f"stage_{name}" for name in ("validate", "white_balance", "downsample", "field",
                                         "cluster", "models", "label_map", "separate")]

    @pytest.mark.parametrize("repeats", ["0", "-3"])
    def test_no_repeats_exits_4_before_any_run(self, capsys, monkeypatch, repeats):
        def must_not_run(*args, **kwargs):
            raise AssertionError("rendered or timed before the check")

        monkeypatch.setattr(synth, "render", must_not_run)
        monkeypatch.setattr(pipeline, "run", must_not_run)
        rc = main(["bench", "--scene", "single-1", f"--repeats={repeats}"])
        assert rc == 4
        captured = capsys.readouterr()
        assert "runs =" not in captured.out
        assert "repeats must be >= 1" in captured.err

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
