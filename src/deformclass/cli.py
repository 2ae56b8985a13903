"""Command-line interface.

Subcommands: ``gen`` writes a synthetic dataset to disk, ``align`` classifies
a query image against a dataset directory, ``cnn`` builds/trains/applies the
convolutional classifiers, ``sep`` reports separation and boundary-regularity
estimates for two templates, ``bench`` runs a full experiment from a config
file.  Exit codes: 0 success, 1 when ``bench`` wrote its reports but some
rows failed, 2 config error, 3 data error, 4 numeric failure.  An unreadable
or undecodable config, an unwritable output path and a size that needs more
memory than numpy can allocate are config errors; an output whose directory
is missing, or is not a directory, is rejected before the work starts.
``main`` first sets glibc's allocator thresholds for the whole process
(``_keep_freed_memory``); importing the package leaves them as they are.
"""
from __future__ import annotations

import argparse
import ctypes
import sys
from pathlib import Path

from .align import align_images, build_gallery, check_grid_side, classify_1nn
from .cnn import build_filter_bank, check_temperature, classify_bank
from .datagen import DeformDistribution, generate_dataset, unit_arrays
from .errors import ConfigError, DataError, NumericError
from .geometry import check_sample_budget, gamma_scan, trace_boundary
from .harness import (ExperimentConfig, _parse_pair, emit_report,
                      parse_config, parse_template_spec, run_experiment)
from .io import (check_output_dir, read_bytes, read_dataset, read_pgm,
                 write_bytes, write_dataset)
from .model import IDENTITY, check_resolution, normalize_l2, rasterize
from .separation import SearchConfig, estimate_separation
from .train import (ArchSpec, OptSpec, load_checkpoint, save_checkpoint,
                    train_least_squares)


# glibc's mallopt parameters, and the values the command sets for its own
# process.  By default glibc serves an allocation above a dynamic threshold
# (128 KB at start) with a fresh mmap, and trims the heap top after a free,
# so the large numpy temporaries of every sweep unit (align's grid blocks,
# the 1-NN query stacks, rasterize_batch's grids) fault their pages in anew.
# Per in-process perfbench sweep_iac unit on a 2-vCPU VM (numpy 2.4.6):
# default 6,890 minor faults and 11 ms of system time, median 75 ms; mmap
# threshold alone 18,041 faults, 93 ms (the heap top is trimmed instead);
# trim threshold alone 10,138 faults, 86 ms; both 0.6 faults, 64 ms.  A
# 256 MiB trim threshold measured the same as 64 MiB.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_BYTES = 16 * 2 ** 20
_TRIM_THRESHOLD_BYTES = 64 * 2 ** 20


def _keep_freed_memory() -> None:
    """Serve allocations below 16 MiB from this process's heap, and trim
    its free top only beyond 64 MiB.

    Only the command sets this process-wide policy: the library's functions
    leave their caller's allocator as it is.  Off Linux, or with a C library
    that has no ``mallopt``, nothing changes.
    """
    if not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deformclass",
        description="Deformation-model image classification toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a dataset directory")
    gen.add_argument("--template0", required=True, help="e.g. tent:delta=0.25")
    gen.add_argument("--template1", required=True, help="e.g. cross:arm=0.0625")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--d", type=int, default=ExperimentConfig.d)
    gen.add_argument("--seed", type=int, default=DeformDistribution.seed)
    for field in ("eta_range", "xi_range", "xi_prime_range"):
        flag = "--" + field.replace("_", "-")
        gen.add_argument(flag, type=lambda text, key=flag: _parse_pair(text, key),
                         default=getattr(DeformDistribution, field))
    gen.add_argument("--flip-prob", type=float,
                     default=DeformDistribution.flip_prob)
    gen.add_argument("--out", required=True)

    al = sub.add_parser("align", help="1-NN classify a query against a dataset")
    al.add_argument("--gallery", required=True, help="dataset directory")
    al.add_argument("--query", required=True, help="PGM file")
    al.add_argument("--m", type=int, default=None, help="resampling resolution")
    al.add_argument("--flips", action="store_true", help="search axis reversals")

    cnn = sub.add_parser("cnn", help="convolutional classifiers")
    cnn_sub = cnn.add_subparsers(dest="cnn_command", required=True)

    bank = cnn_sub.add_parser("bank", help="classify with the explicit filter bank")
    bank.add_argument("--template0", required=True)
    bank.add_argument("--template1", required=True)
    bank.add_argument("--image", required=True, help="PGM file; sets the bank's d")
    bank.add_argument("--xi-max", type=int, default=ExperimentConfig.bank_xi_max)
    bank.add_argument("--beta", type=float, default=None)

    tr = cnn_sub.add_parser("train", help="train the small CNN on a dataset")
    tr.add_argument("--data", required=True, help="dataset directory")
    tr.add_argument("--out", required=True, help="checkpoint file")
    tr.add_argument("--epochs", type=int, default=OptSpec.epochs)
    tr.add_argument("--batch-size", type=int, default=OptSpec.batch_size)
    tr.add_argument("--learning-rate", type=float,
                    default=OptSpec.learning_rate)
    tr.add_argument("--n-filters", type=int, default=ArchSpec.n_filters)
    tr.add_argument("--filter-size", type=int, default=ArchSpec.filter_size)
    tr.add_argument("--beta", type=float, default=ArchSpec.beta)
    tr.add_argument("--seed", type=int, default=OptSpec.seed)

    cl = cnn_sub.add_parser("classify", help="classify an image with a checkpoint")
    cl.add_argument("--checkpoint", required=True)
    cl.add_argument("--image", required=True, help="PGM file")

    sep = sub.add_parser("sep", help="separation and boundary regularity")
    sep.add_argument("--template0", required=True)
    sep.add_argument("--template1", required=True)
    sep.add_argument("--xi-max", type=float, default=SearchConfig.xi_max)
    sep.add_argument("--step", type=float, default=SearchConfig.coarse_step)
    sep.add_argument("--refine-iters", type=int,
                     default=SearchConfig.refine_iters)
    sep.add_argument("--positive-scales", action="store_true",
                     help="skip axis-reversing candidates")
    sep.add_argument("--gamma-d", type=int, default=256,
                     help="raster resolution for the boundary scan")
    sep.add_argument("--gamma-budget", type=int, default=256)

    bench = sub.add_parser("bench", help="run an experiment from a config file")
    bench.add_argument("--config", required=True)
    bench.add_argument("--out", default=None, help="raw CSV path (default stdout)")
    bench.add_argument("--aggregate-out", default=None)
    bench.add_argument("--pretty", action="store_true",
                       help="print aligned tables instead of CSV")
    return parser


def _cmd_gen(args) -> int:
    f0 = parse_template_spec(args.template0)
    f1 = parse_template_spec(args.template1)
    q = DeformDistribution(eta_range=args.eta_range, xi_range=args.xi_range,
                           xi_prime_range=args.xi_prime_range,
                           flip_prob=args.flip_prob, seed=args.seed)
    data = generate_dataset((f0,), (f1,), q, args.n, args.d)
    manifest = write_dataset(data, args.out)
    print(f"wrote {len(data)} images to {manifest.parent}")
    return 0


def _cmd_align(args) -> int:
    if args.m is not None:
        check_grid_side(args.m)
    data = read_dataset(args.gallery)
    gallery = build_gallery([it.image for it in data.items],
                            [it.label for it in data.items], m=args.m)
    # the query is resampled onto the gallery's grid, whatever its own side
    query = align_images([read_pgm(read_bytes(args.query))], gallery[0][0].m)[0]
    label, index, dist, orientation = classify_1nn(gallery, [query],
                                                   args.flips)[0]
    print(f"label={label} neighbor={index} distance={dist:.6f}"
          + (f" orientation={orientation}" if args.flips else ""))
    return 0


def _cmd_cnn(args) -> int:
    if args.cnn_command == "bank":
        f0 = parse_template_spec(args.template0)
        f1 = parse_template_spec(args.template1)
        img = read_pgm(read_bytes(args.image))
        if args.beta is not None:
            check_temperature(args.beta)
        bank = build_filter_bank(f0, f1, args.xi_max, img.d)
        decision = classify_bank(bank, normalize_l2(img), beta=args.beta)
        print(f"label={decision.label} p0={decision.p0:.6f} p1={decision.p1:.6f} "
              f"z0={decision.z0:.6f} z1={decision.z1:.6f}")
        return 0
    if args.cnn_command == "train":
        check_output_dir(args.out)
        arch = ArchSpec(n_filters=args.n_filters, filter_size=args.filter_size,
                        beta=args.beta)
        opt = OptSpec(learning_rate=args.learning_rate, epochs=args.epochs,
                      batch_size=args.batch_size, seed=args.seed)
        x, y = unit_arrays(read_dataset(args.data))
        net = train_least_squares(x, y, arch, opt)
        write_bytes(args.out, save_checkpoint(net))
        print(f"final epoch loss {net.loss_history[-1]:.6f}; "
              f"checkpoint at {args.out}")
        return 0
    net = load_checkpoint(read_bytes(args.checkpoint))
    img = normalize_l2(read_pgm(read_bytes(args.image)))
    p1 = float(net.forward_batch(img.pixels[None])[0][0])
    print(f"label={int(p1 > 0.5)} p0={1.0 - p1:.6f} p1={p1:.6f}")
    return 0


def _cmd_sep(args) -> int:
    f0 = parse_template_spec(args.template0)
    f1 = parse_template_spec(args.template1)
    cfg = SearchConfig(xi_max=args.xi_max, coarse_step=args.step,
                       refine_iters=args.refine_iters,
                       include_flips=not args.positive_scales)
    # the search takes seconds; reject the gamma flags before it runs
    check_resolution(args.gamma_d)
    check_sample_budget(args.gamma_budget)
    result = estimate_separation(f0, f1, cfg)
    lines = [f"separation: d_fg={result.d_fg:.6f} d_gf={result.d_gf:.6f} "
             f"D={result.d_max:.6f}"]
    for name, f in (("template0", f0), ("template1", f1)):
        img = rasterize(f, IDENTITY, args.gamma_d)
        curve = trace_boundary(img.support_mask())
        scan = gamma_scan(curve, sample_budget=args.gamma_budget)
        lines.append(f"{name}: gamma~{scan.estimate:.4f} "
                     f"(boundary points {len(curve.points)}, "
                     f"scan points {scan.points_used})")
    # print only once every step has succeeded: a failing run leaves no
    # result lines on stdout
    print("\n".join(lines))
    return 0


def _cmd_bench(args) -> int:
    for path in (args.out, args.aggregate_out):
        if path:
            check_output_dir(path)
    if (args.out and args.aggregate_out
            and Path(args.out).resolve() == Path(args.aggregate_out).resolve()):
        raise ConfigError(f"--out and --aggregate-out name the same file, "
                          f"{args.out}")
    try:
        text = read_bytes(args.config).decode("utf-8")
    except (DataError, UnicodeDecodeError) as exc:
        # read_bytes names the path too; report the error it wraps
        raise ConfigError(f"cannot read config {args.config}: "
                          f"{exc.__context__ or exc}")
    report = run_experiment(parse_config(text))
    fmt = "pretty" if args.pretty else "csv"
    for view, path, what in (("raw", args.out, "raw rows"),
                             ("aggregate", args.aggregate_out, "aggregates")):
        data = emit_report(report, fmt=fmt, view=view)
        if path:
            write_bytes(path, data)
            print(f"{what} at {path}")
        else:
            sys.stdout.write(data.decode("utf-8"))
    failed = sum(1 for row in report.rows if row.error)
    if failed:
        print(f"{failed} of {len(report.rows)} rows failed", file=sys.stderr)
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    _keep_freed_memory()
    handlers = {"gen": _cmd_gen, "align": _cmd_align, "cnn": _cmd_cnn,
                "sep": _cmd_sep, "bench": _cmd_bench}
    try:
        args = _build_parser().parse_args(argv)
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4
    except MemoryError as exc:
        # e.g. a dataset size whose label array cannot be allocated
        print(f"config error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
