"""Command line interface: subcommands, outputs, exit codes."""

import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from conftest import assert_exact_files, assert_exact_split
from despec import clustering, errors, imgio, pipeline, synth
from despec.cli import EXIT_CODES_HELP, _config_from_args, build_parser, main
from despec.recovery import SeparationResult


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
        params = synth.builtin_scene("single-2", 48, 32)
        path = tmp_path / "my-scene.txt"
        synth.save_scene(params, path)
        rc = main(["synth", str(path), "-o", str(tmp_path / "out")])
        assert rc == 0
        assert imgio.load(tmp_path / "out" / "input.pfm").shape == (32, 48, 3)

    def test_existing_file_with_any_name_is_a_scene_file(self, tmp_path, monkeypatch):
        """A bare file name in the working directory is read as a scene
        file whatever its suffix, not looked up as a builtin name."""
        synth.save_scene(synth.builtin_scene("single-2", 40, 24), tmp_path / "myscene.cfg")
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

    @pytest.mark.parametrize("seed", [-1, 2**128])
    def test_seed_outside_the_key_range_exits_4(self, tmp_path, capsys, seed):
        out = tmp_path / "x"
        rc = main(["synth", "single-1", "-o", str(out), "--width", "20", "--height", "20",
                   "--sigma", "3", "--seed", str(seed)])
        assert rc == 4
        assert f"seed must be in [0, 2**128), got {seed}" in one_error_line(capsys)
        assert not (out / "input.pfm").exists()

    def test_largest_seed_renders(self, tmp_path):
        out = tmp_path / "x"
        assert main(["synth", "single-1", "-o", str(out), "--width", "20", "--height", "20",
                     "--sigma", "3", "--seed", str(2**128 - 1)]) == 0
        assert imgio.load(out / "input.pfm").shape == (20, 20, 3)

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

    def test_noise_beyond_ppm_range_saves_without_warning(self, tmp_path):
        """Under -W error, inf samples quantize to maxval in a PPM save
        with no overflow warning, and the save succeeds."""
        out = tmp_path / "x"
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "despec.cli", "synth",
                               "single-1", "--width", "8", "--height", "8", "--format", "ppm16",
                               "--sigma", "1e308", "-o", str(out)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "Warning" not in proc.stderr
        assert imgio.load(out / "input.ppm").max() == 1.0

    @pytest.mark.parametrize("lobe", [
        "nan 0.5 0.1 0.4", "0.5 inf 0.1 0.4", "0.5 0.5 nan 0.4", "0.5 0.5 0.1 inf",
    ])
    def test_non_finite_lobe_exits_4(self, tmp_path, capsys, lobe):
        scene = tmp_path / "scene.txt"
        scene.write_text(f"scene = single-1\nmaterial = 0.4 0.4 0.2\nlobe = {lobe}\n")
        rc = main(["synth", str(scene), "-o", str(tmp_path / "x")])
        assert rc == 4
        assert "bad lobe" in capsys.readouterr().err

    @pytest.mark.parametrize("illum", ["nan 1 1", "inf 1 1"])
    def test_non_finite_scene_illumination_exits_4(self, tmp_path, capsys, recwarn, illum):
        """Such a scene used to render NaN samples into input.pfm and exit 0."""
        scene = tmp_path / "scene.txt"
        scene.write_text(f"scene = single-1\nwidth = 8\nheight = 8\nillumination = {illum}\n")
        rc = main(["synth", str(scene), "-o", str(tmp_path / "x")])
        assert rc == 4
        assert "illumination color" in one_error_line(capsys)
        assert not (tmp_path / "x" / "input.pfm").exists()
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.filterwarnings("error")
    def test_scene_color_at_any_scale_renders_its_direction(self, tmp_path, capsys):
        """An illumination whose norm overflows, or whose squares lose
        precision, writes the bytes of 1 1 1; black still exits 4."""
        def synth_with(illum):
            scene = tmp_path / "scene.txt"
            scene.write_text(f"scene = single-1\nwidth = 32\nheight = 24\n"
                             f"illumination = {illum}\n")
            return main(["synth", str(scene), "-o", str(tmp_path / illum.replace(" ", "_"))])

        for illum in ("1 1 1", "1e300 1e300 1e300", "1e-160 1e-160 1e-160"):
            assert synth_with(illum) == 0
        for name in ("input.pfm", "diffuse.pfm", "specular.pfm"):
            want = (tmp_path / "1_1_1" / name).read_bytes()
            assert (tmp_path / "1e300_1e300_1e300" / name).read_bytes() == want, name
            assert (tmp_path / "1e-160_1e-160_1e-160" / name).read_bytes() == want, name
        capsys.readouterr()
        assert synth_with("0 0 0") == 4
        assert one_error_line(capsys) == \
            "despec: error: illumination color (0.0, 0.0, 0.0) is black\n"

    @pytest.mark.parametrize("scene", synth.BUILTIN_SCENES)
    def test_scene_file_reproduces_its_images(self, tmp_path, scene):
        """The scene.txt written next to the images renders them again
        byte for byte, over-seg's lobe centres 0.1 + 0.2 * i included."""
        first = synth_dir(tmp_path, scene=scene, name="a")
        assert main(["synth", str(first / "scene.txt"), "-o", str(tmp_path / "b")]) == 0
        for name in ("input.pfm", "diffuse.pfm", "specular.pfm", "labels.ppm", "scene.txt"):
            assert (tmp_path / "b" / name).read_bytes() == (first / name).read_bytes(), name

    def test_out_of_memory_exits_5(self, tmp_path, capsys, monkeypatch):
        def too_big(params):
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
        stages = [line for line in captured.out.splitlines() if line.startswith("stage_")]
        assert [line.split("_seconds = ")[0] for line in stages] == [
            f"stage_{name}" for name in ("validate", "white_balance", "downsample", "field",
                                         "cluster", "models", "label_map", "separate")]
        report = (tmp_path / "report.txt").read_text()
        assert "iterations = " in report and "downsampled = false" in report

        diffuse = imgio.load(tmp_path / "d.pfm")
        specular = imgio.load(tmp_path / "s.pfm")
        truth = imgio.load(out / "input.pfm")
        assert np.abs(diffuse + specular - truth).max() <= 1e-6  # float32 files
        assert (tmp_path / "l.ppm").exists()

    @pytest.mark.parametrize("fast", [False, True])
    def test_written_files_split_the_input_exactly(self, tmp_path, capsys, fast):
        """A PFM input stays float32 through the run, so the written
        parts satisfy d + s == b, b - d == s and b - s == d for every
        float32 sample, on both paths."""
        out = synth_dir(tmp_path, scene="four-materials", extra=["--sigma", "3"])
        d, s = tmp_path / "d.pfm", tmp_path / "s.pfm"
        flags = ["--fast"] if fast else []
        with mock.patch.object(pipeline, "TARGET_EDGE", 24):
            rc = main(["remove", str(out / "input.pfm"), "-d", str(d), "-s", str(s), *flags])
        assert rc == 0
        assert stdout_value(capsys.readouterr().out, "downsampled") == str(fast).lower()
        assert_exact_files(out / "input.pfm", d, s)

    @pytest.mark.parametrize("fmt", ["ppm8", "ppm16"])
    def test_ppm_input_pfm_parts_split_it_exactly(self, tmp_path, capsys, fmt):
        """PPM samples load as float64, which a PFM cannot hold.  With both
        parts going to PFM the run splits the input rounded to float32, so
        the written parts add up to that image exactly."""
        out = synth_dir(tmp_path, scene="four-materials", extra=["--sigma", "3", "--format", fmt])
        d, s = tmp_path / "d.pfm", tmp_path / "s.pfm"
        assert main(["remove", str(out / "input.ppm"), "-d", str(d), "-s", str(s)]) == 0
        img = imgio.load(out / "input.ppm").astype(np.float32)
        assert_exact_split(SeparationResult(imgio.load(d), imgio.load(s), labels=None), img)

    @pytest.mark.parametrize("suffixes", [("ppm", "ppm"), ("ppm", "pfm"), ("pfm", "ppm")])
    def test_a_ppm_part_comes_from_the_float64_input(self, tmp_path, capsys, suffixes):
        """With a PPM part the run keeps the float64 PPM samples: each
        written file equals the same part of a library run on them."""
        out = synth_dir(tmp_path, scene="four-materials", extra=["--sigma", "3", "--format", "ppm16"])
        paths = [tmp_path / f"{name}.{suffix}" for name, suffix in zip("ds", suffixes)]
        assert main(["remove", str(out / "input.ppm"), "-d", str(paths[0]), "-s", str(paths[1])]) == 0
        result, _ = pipeline.run(imgio.load(out / "input.ppm"))
        for part, path in zip((result.diffuse, result.specular), paths):
            want = tmp_path / f"want.{path.suffix[1:]}"
            imgio.save(part, want)
            assert path.read_bytes() == want.read_bytes()

    def test_eval_of_remove_output(self, tmp_path, capsys):
        out = synth_dir(tmp_path, scene="four-materials")
        main(["remove", str(out / "input.pfm"),
              "-d", str(tmp_path / "d.pfm"), "-s", str(tmp_path / "s.pfm"),
              "-l", str(tmp_path / "l.ppm")])
        capsys.readouterr()
        rc = main(["eval",
                   "--diffuse", str(tmp_path / "d.pfm"),
                   "--truth-diffuse", str(out / "diffuse.pfm"),
                   "--specular", str(tmp_path / "s.pfm"),
                   "--truth-specular", str(out / "specular.pfm"),
                   "--labels", str(tmp_path / "l.ppm"),
                   "--truth-labels", str(out / "labels.ppm"),
                   "--record", str(tmp_path / "scores.txt")])
        assert rc == 0
        captured = capsys.readouterr()
        assert float(stdout_value(captured.out, "psnr_diffuse_db")) >= 60.0
        assert float(stdout_value(captured.out, "psnr_specular_db")) >= 60.0
        assert stdout_value(captured.out, "cluster_accuracy") == "1.000000"
        assert "psnr_diffuse_db" in (tmp_path / "scores.txt").read_text()

    def test_clipped_ppm_samples_are_counted_on_stderr(self, tmp_path, capsys):
        """Diffuse 1.8 to 2.0 times (0.7053, 0.7053, 0.0705) puts the red
        and green sample of each of the 32x24 pixels above 1 in the PPM."""
        scene = tmp_path / "bright.txt"
        scene.write_text("scene = single-1\nwidth = 32\nheight = 24\ndiffuse_range = 1.8 2.0\n")
        assert main(["synth", str(scene), "-o", str(tmp_path / "bright")]) == 0
        capsys.readouterr()
        rc = main(["remove", str(tmp_path / "bright" / "input.pfm"),
                   "-d", str(tmp_path / "d.ppm"), "-s", str(tmp_path / "s.ppm")])
        assert rc == 0
        assert capsys.readouterr().err == "clipped_samples = 1536\n"

    @pytest.mark.filterwarnings("error")
    def test_illuminant_whose_norm_overflows_splits_as_its_direction(self, tmp_path, capsys):
        """--illum 1e300,1e300,1e300 used to warn of an overflow and exit 5,
        and 1e-160,1e-160,1e-160 to exit 5 as black; both now write the
        bytes of --illum 1,1,1, as such a scene illumination renders."""
        out = synth_dir(tmp_path)
        written = {}
        for illum in ("1,1,1", "1e300,1e300,1e300", "1e-160,1e-160,1e-160"):
            d, s, labels = (tmp_path / f"{illum}-{name}" for name in ("d.pfm", "s.pfm", "l.ppm"))
            assert main(["remove", str(out / "input.pfm"), "--illum", illum,
                         "-d", str(d), "-s", str(s), "-l", str(labels)]) == 0
            written[illum] = [path.read_bytes() for path in (d, s, labels)]
        assert written["1e300,1e300,1e300"] == written["1,1,1"]
        assert written["1e-160,1e-160,1e-160"] == written["1,1,1"]

    def test_tiny_illuminant_is_not_black(self, tmp_path, capsys):
        """Only an all-zero color is black: 1e-7 per channel has a norm
        below a black pixel's, and splits."""
        out = synth_dir(tmp_path)
        assert main(["remove", str(out / "input.pfm"), "--illum", "1e-7,1e-7,1e-7",
                     "-d", str(tmp_path / "d.pfm"), "-s", str(tmp_path / "s.pfm")]) == 0

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
        exits 3 before it writes any of its outputs; a size floor of 1
        keeps every cluster the rounds grow."""
        assert main(["synth", "four-materials", "-o", str(tmp_path / "scene"),
                     "--width", "64", "--height", "48", "--sigma", "3"]) == 0
        capsys.readouterr()
        paths = {"-d": tmp_path / "d.pfm", "-s": tmp_path / "s.pfm", "-l": tmp_path / "l.ppm"}
        argv = ["remove", str(tmp_path / "scene" / "input.pfm"), "--tau-dev", "0"]
        for flag, path in paths.items():
            argv += [flag, str(path)]
        with mock.patch.object(clustering, "adaptive_min_cluster_size", lambda n_valid: 1):
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
        assert err == "despec: error: illumination color (0.0, 0.0, 0.0) is black\n"
        assert not (tmp_path / "d.pfm").exists()

    @pytest.mark.parametrize("flags", [
        "--initial-k 0",
        "--tau-dev -1",
        "--tau-dev nan",
        "--threads -4",
        "--initial-k two",
        "--tau-dev lots",
    ])
    def test_out_of_range_config_exits_4(self, tmp_path, capsys, flags):
        out = synth_dir(tmp_path)
        rc = main(["remove", str(out / "input.pfm"), *flags.split(),
                   "-d", str(tmp_path / "d.pfm"), "-s", str(tmp_path / "s.pfm")])
        assert rc == 4
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["tau_frac", "bin_width", "peak_floor", "seed",
                                     "max_iterations", "min_cluster_size", "target_edge"])
    def test_fixed_constants_are_not_knobs(self, tmp_path, capsys, key):
        """The failing fraction, bin width, peak floor, k-means seed, round
        cap, size floor and --fast target edge are constants: as a flag
        they are unknown (exit 2), as a config key too (exit 4)."""
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

    def test_help_shows_the_cluster_defaults(self, capsys):
        """--initial-k and --tau-dev show ClusterConfig's defaults."""
        with pytest.raises(SystemExit) as exc:
            main(["remove", "--help"])
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        defaults = clustering.ClusterConfig()
        assert f"--initial-k K starting cluster count (default {defaults.initial_k})" in text
        assert (f"--tau-dev T per-pixel unit-circle deviation threshold "
                f"(default {defaults.tau_dev})") in text

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
        cfg.write_text("initial_k = 3\ntau_dev = 0.1\n")
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
        cfg.write_bytes(b"initial_k = 3  # caf\xe9\n")
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
        "fast": "on", "threads": "2",
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

    def test_gamma_decode_powers_in_float64(self, tmp_path, capsys):
        """--gamma-decode raises the float32 samples to 2.2 in float64, so
        the run is the library run on the float64 decoded image."""
        out = synth_dir(tmp_path, scene="four-materials", extra=["--sigma", "3"])
        d, s = tmp_path / "d.pfm", tmp_path / "s.pfm"
        rc = main(["remove", str(out / "input.pfm"), "--gamma-decode",
                   "-d", str(d), "-s", str(s), "--threads", "1"])
        assert rc == 0
        capsys.readouterr()
        decoded = np.power(imgio.load(out / "input.pfm").astype(np.float64), 2.2)
        result, _ = pipeline.run(decoded, pipeline.PipelineConfig(threads=1))
        assert result.diffuse.dtype == np.float64
        assert np.array_equal(imgio.load(d), result.diffuse.astype(np.float32))
        assert np.array_equal(imgio.load(s), result.specular.astype(np.float32))


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


class TestParsing:
    def test_unknown_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["remove", "--frobnicate"])
        assert exc.value.code == 2

    def test_bench_is_not_a_subcommand(self, capsys):
        """Stage timings come from remove's stage_* lines; bench is gone."""
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--scene", "single-1"])
        assert exc.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

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

    def test_exit_codes_agree_with_the_readme_and_the_errors(self):
        """The README's exit-code table and the CLI help list the codes 0-6,
        and every error class's exit code is among them."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        table = readme.split("### Exit codes", 1)[1].split("\n#", 1)[0]
        documented = [int(code) for code in re.findall(r"^\| (\d+) \|", table, re.M)]
        helped = [int(code) for code in re.findall(r"^  (\d+)  ", EXIT_CODES_HELP, re.M)]
        assert documented == helped == list(range(7))
        raised = {cls.exit_code for cls in vars(errors).values()
                  if isinstance(cls, type) and issubclass(cls, errors.DespecError)}
        assert raised <= set(documented)
