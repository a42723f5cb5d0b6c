"""Command line interface.

Subcommands: remove (separate an image), synth (render a test scene),
eval (score results against ground truth).
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import __version__, imgio, metrics, pipeline, synth
from ._keyvalue import write_text
from .errors import DespecError, IoFailureError

EXIT_CODES_HELP = """\
exit codes:
  0  success
  1  unexpected internal error
  2  usage error (unknown or missing arguments, unusable input data, two outputs naming one file)
  3  file I/O error (unsupported format, corrupt header, truncated data, unwritable output,
     a sample a PFM cannot hold)
  4  scene or configuration error (bad value, unreadable file)
  5  processing error (too few usable pixels, degenerate colors, out of memory)
  6  evaluation input mismatch
"""


def _add_pipeline_flags(sp: argparse.ArgumentParser) -> None:
    """One flag per pipeline option; values stay text for the option table."""
    grp = sp.add_argument_group("pipeline options")
    grp.add_argument("--config", metavar="FILE",
                     help="key=value config file; explicit flags override it")
    for opt in pipeline.OPTIONS:
        flag = "--" + opt.key.replace("_", "-")
        if opt.switch:
            grp.add_argument(flag, action="store_const", const="on", help=opt.help)
        else:
            grp.add_argument(flag, metavar=opt.metavar, help=opt.help)


def _config_from_args(args) -> pipeline.PipelineConfig:
    cfg = pipeline.load_config(args.config) if args.config else None
    given = {opt.key: getattr(args, opt.key) for opt in pipeline.OPTIONS
             if getattr(args, opt.key) is not None}
    return pipeline.config_from_values(given, cfg)


def _check_outputs(paths: dict) -> None:
    """Check the output paths given, keyed by flag, so a run that cannot
    write all its outputs fails before it writes any: IoFailureError
    unless each names a file in an existing, writable directory, and
    ValueError if two name the same file."""
    flag_of: dict[str, str] = {}
    for flag, path in paths.items():
        if path is None:
            continue
        folder = os.path.dirname(path) or "."
        if os.path.isdir(path) or not os.path.isdir(folder) or not os.access(folder, os.W_OK):
            raise IoFailureError(f"cannot write {path}: not a file in a writable directory")
        real = os.path.realpath(path)
        if real in flag_of:
            raise ValueError(f"{flag_of[real]} and {flag} both name {path}")
        flag_of[real] = flag


def cmd_remove(args) -> int:
    img = imgio.load(args.input)
    if args.gamma_decode:
        # lossy convenience path for gamma-encoded input; float64, so a
        # float32 PFM is not powered in float32
        img = np.power(img, 2.2, dtype=np.float64)
    cfg = _config_from_args(args)
    _check_outputs({"-d": args.diffuse, "-s": args.specular, "-l": args.labels,
                    "--report": args.report})
    # an unknown extension fails before the run
    formats = {imgio.save_format(path) for path in (args.diffuse, args.specular)}
    if (formats == {"pfm"} and not args.gamma_decode
            and pipeline.parse_illumination(cfg.illumination)[1] is None):
        # both parts are written as float32: split the input rounded to
        # float32 (a no-op for a PFM), so the parts add up to it exactly
        img = img.astype(np.float32, copy=False)
    result, diag = pipeline.run(img, cfg)
    if args.labels:  # first: it refuses over 255 labels before writing anything
        imgio.save_labels(diag.labels, args.labels)
    clipped = imgio.save(result.diffuse, args.diffuse)
    clipped += imgio.save(result.specular, args.specular)
    for line in diag.to_lines():
        print(line)
    if clipped:
        print(f"clipped_samples = {clipped}", file=sys.stderr)
    if args.report:
        write_text(args.report, "\n".join(diag.to_lines()) + "\n")
    return 0


def cmd_synth(args) -> int:
    if os.path.exists(args.scene) or args.scene.endswith(".txt") or "/" in args.scene:
        params = synth.load_scene(args.scene)
    else:
        params = synth.builtin_scene(args.scene)
    if args.width is not None:
        params.width = args.width
    if args.height is not None:
        params.height = args.height
    gt = synth.render(params)
    noisy = synth.add_noise(gt, args.sigma, seed=args.seed)

    out = args.output
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise IoFailureError(f"cannot create output directory {out}: {exc}") from exc
    fmt = args.format
    ext = "pfm" if fmt == "pfm" else "ppm"
    imgio.save(noisy, os.path.join(out, f"input.{ext}"), fmt)
    imgio.save(gt.diffuse, os.path.join(out, f"diffuse.{ext}"), fmt)
    imgio.save(gt.specular, os.path.join(out, f"specular.{ext}"), fmt)
    imgio.save_labels(gt.labels, os.path.join(out, "labels.ppm"))
    synth.save_scene(params, os.path.join(out, "scene.txt"))
    print(f"wrote scene {params.name} ({params.width}x{params.height}, "
          f"sigma={args.sigma:g}) to {out}")
    return 0


def cmd_eval(args) -> int:
    report = metrics.EvalReport()
    if args.diffuse and args.truth_diffuse:
        report.psnr_diffuse = metrics.psnr(imgio.load(args.diffuse),
                                           imgio.load(args.truth_diffuse))
    if args.specular and args.truth_specular:
        report.psnr_specular = metrics.psnr(imgio.load(args.specular),
                                            imgio.load(args.truth_specular))
    if args.labels and args.truth_labels:
        report.cluster_accuracy = metrics.cluster_accuracy(
            imgio.load_labels(args.labels), imgio.load_labels(args.truth_labels)
        )
    lines = report.to_lines()
    if not lines:
        print("nothing to evaluate; pass result/truth pairs", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    if args.record:
        metrics.write_report(report, args.record)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="despec",
        description="Separate specular highlights from a single linear-light image.",
        epilog=EXIT_CODES_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("remove", help="split an image into diffuse + specular")
    sp.add_argument("input", help="input image (PPM P6 or PFM)")
    sp.add_argument("-d", "--diffuse", required=True, help="output diffuse image")
    sp.add_argument("-s", "--specular", required=True, help="output specular image")
    sp.add_argument("-l", "--labels", help="output cluster label map (8-bit PPM)")
    sp.add_argument("--report", metavar="FILE", help="write diagnostics key=value file")
    sp.add_argument("--gamma-decode", action="store_true",
                    help="apply a 2.2 power before processing (lossy; for "
                         "gamma-encoded inputs)")
    _add_pipeline_flags(sp)
    sp.set_defaults(func=cmd_remove)

    sp = sub.add_parser("synth", help="render a synthetic scene with ground truth")
    sp.add_argument("scene", help=f"builtin name ({', '.join(synth.BUILTIN_SCENES)}) "
                                  "or a scene description file")
    sp.add_argument("-o", "--output", required=True, help="output directory")
    sp.add_argument("--width", type=int)
    sp.add_argument("--height", type=int)
    sp.add_argument("--sigma", type=float, default=0.0,
                    help="Gaussian noise level in 8-bit counts (default 0)")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--format", choices=("pfm", "ppm16", "ppm8"), default="pfm")
    sp.set_defaults(func=cmd_synth)

    sp = sub.add_parser("eval", help="score results against ground truth")
    sp.add_argument("--diffuse", help="recovered diffuse image")
    sp.add_argument("--truth-diffuse", help="ground-truth diffuse image")
    sp.add_argument("--specular", help="recovered specular image")
    sp.add_argument("--truth-specular", help="ground-truth specular image")
    sp.add_argument("--labels", help="predicted label map")
    sp.add_argument("--truth-labels", help="ground-truth label map")
    sp.add_argument("--record", metavar="FILE", help="also write a key=value record")
    sp.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DespecError as exc:
        print(f"despec: error: {exc}", file=sys.stderr)
        return exc.exit_code
    except ValueError as exc:
        print(f"despec: error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("despec: error: out of memory (image or scene too large)", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
