"""Command-line front end: gen, heatmap, screen, train, kernel.

Exit codes: 0 success, 1 validation error, 2 numerical failure.  Every
command is deterministic given its full flag set; all randomness flows
from explicit seeds.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import warnings

import numpy as np

from . import datasets, kernels, pauli, screening, svm
from .encodings import (
    BUILTIN_IDS,
    PhaseFunction,
    builtin,
    parse_phase_expression,
)

EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2


class _Parser(argparse.ArgumentParser):
    """argparse's usage and message, but a usage error exits 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def _encodings_from_args(ids, custom_phi12: str | None) -> list[tuple[str, PhaseFunction]]:
    """(id, phi12) for each named encoding; --custom-phi12 adds 'custom' if unnamed."""
    ids = list(ids)
    if custom_phi12 is not None and "custom" not in ids:
        ids.append("custom")
    pairs = []
    for eid in ids:
        if eid != "custom":
            pairs.append((eid, builtin(eid)))
        elif custom_phi12 is None:
            raise ValueError("encoding 'custom' needs --custom-phi12 EXPR, "
                             "e.g. --custom-phi12 'pi*x1*x2'")
        else:
            pairs.append((eid, parse_phase_expression(custom_phi12)))
    return pairs


def _encoding_from_args(args) -> PhaseFunction:
    """The one encoding of heatmap and kernel: --encoding (default ef1) or the expression."""
    pairs = _encodings_from_args([args.encoding] if args.encoding else [], args.custom_phi12)
    if len(pairs) > 1:
        raise ValueError(f"--encoding {args.encoding} conflicts with --custom-phi12; "
                         "give one of them, or --encoding custom with the expression")
    return pairs[0][1] if pairs else builtin("ef1")


def _load_dataset(args) -> svm.LabeledDataset:
    if args.dataset is None:
        return datasets.generate(args.generate, 100 if args.n is None else args.n, args.seed)
    if args.n is not None:  # a file's size is its row count
        raise ValueError("--n sets the size of a --generate dataset; drop it with --dataset")
    return datasets.from_csv(args.dataset)


def _add_dataset_flags(p):
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--dataset", help="dataset CSV (x1,x2,label)")
    group.add_argument("--generate", choices=datasets.KINDS,
                       help="generate a benchmark dataset instead of reading one")
    p.add_argument("--n", type=int, help="points to generate with --generate (default 100)")


def _check_out_file(path) -> None:
    """A file output's directory must exist, and the path must not be a directory."""
    if not os.path.exists(path):
        _check_out_dir(path)  # names a file that the path lies below
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise ValueError(f"output directory {os.path.dirname(path)!r} does not exist")
    if os.path.isdir(path):
        raise ValueError(f"output path {path!r} is a directory")


def _check_out_dir(path) -> None:
    """A directory output's nearest existing path must be a directory, so makedirs can work."""
    if not path:
        raise ValueError("output path is empty")
    head = path
    while head and not os.path.exists(head) and os.path.dirname(head) != head:
        head = os.path.dirname(head)
    if os.path.exists(head) and not os.path.isdir(head):
        if head == path:
            raise ValueError(f"output path {path!r} is a file, not a directory")
        raise ValueError(f"output path {path!r} lies below {head!r}, which is a file, "
                         "not a directory")


def cmd_gen(args) -> int:
    _check_out_file(args.out)
    ds = datasets.generate(args.kind, args.n, args.seed)
    datasets.to_csv(ds, args.out)
    print(f"wrote {len(ds)} points to {args.out}")
    return 0


def cmd_heatmap(args) -> int:
    phi12 = _encoding_from_args(args)
    if args.axis == "all":
        indices = list(range(16))
    else:
        indices = [pauli.pauli_index(args.axis)]
    _check_out_dir(args.out)
    grids = pauli.coefficient_grids(phi12, indices,
                                    (args.range_min, args.range_max), args.resolution)
    os.makedirs(args.out, exist_ok=True)
    for i, grid in zip(indices, grids):
        stem = os.path.join(args.out, pauli.pauli_label(i))
        pauli.grid_to_csv(grid, stem + ".csv")
        if args.pgm:
            pauli.grid_to_pgm(grid, stem + ".pgm")
    print(f"wrote {len(indices)} grid(s) to {args.out}")
    return 0


def cmd_screen(args) -> int:
    ds = _load_dataset(args)
    pairs = _encodings_from_args(args.encodings or BUILTIN_IDS, args.custom_phi12)
    if args.per_axis and len(pairs) != 1:
        raise ValueError(f"--per-axis needs exactly one encoding, got {len(pairs)}")
    rows = [(eid, screening.minimum_accuracy(ds, phi12)) for eid, phi12 in pairs]
    if args.csv:
        print("encoding,minimum_accuracy,best_axis,best_threshold,orientation")
        for eid, r in rows:
            print(f"{eid},{r.minimum_accuracy!r},{r.best_axis_label},"
                  f"{r.best_threshold!r},{r.best_orientation}")
    else:
        print(f"{'encoding':>10} {'min acc':>8} {'axis':>5}")
        for eid, r in rows:
            print(f"{eid:>10} {r.minimum_accuracy:8.4f} {r.best_axis_label:>5}")
    if args.per_axis:
        sys.stdout.write(rows[0][1].to_csv())
    return 0


def cmd_train(args) -> int:
    ds = _load_dataset(args)
    phi12s = [phi12 for _, phi12 in _encodings_from_args(args.encodings or [], args.custom_phi12)]
    if not phi12s:
        raise ValueError("at least one encoding required")
    # a fold, setting, output or weight misuse fails before any Gram
    svm._fold_order(ds.labels, args.folds, args.seed)
    svm._check_settings(args.C, args.tolerance)
    if args.model_out is not None:
        _check_out_file(args.model_out)
    if args.weights is not None:
        if len(args.weights) != len(phi12s):
            raise ValueError(f"--weights has {len(args.weights)} values for "
                             f"{len(phi12s)} encoding(s)")
        kernels._check_weights(args.weights, len(phi12s))
    gs = [kernels.gram(phi12, ds.points, method=args.method, shots=args.shots, seed=args.seed)
          for phi12 in phi12s]
    if args.weights is not None or len(gs) > 1:
        gs = [kernels.combine(gs, args.weights or [1.0] * len(gs))]
    # one PSD Gram and its factor serve every fold and the saved model
    k, g = svm._psd_factor(gs[0].values)
    report = svm.cross_validate(ds, k, folds=args.folds, C=args.C,
                                tolerance=args.tolerance, seed=args.seed, _factor=g)
    if args.csv:
        print("fold,train_accuracy,test_accuracy")
        for f, (tr, te) in enumerate(zip(report.fold_train_accuracies,
                                         report.fold_test_accuracies)):
            print(f"{f},{tr!r},{te!r}")
        print(f"mean,{report.mean_train!r},{report.mean_test!r}")
    else:
        print(report.summary())
    if args.model_out is not None:
        model = svm.train(k, ds.labels, C=args.C, tolerance=args.tolerance,
                          points=ds.points, _factor=g)
        with open(args.model_out, "w") as fh:
            fh.write(model.to_text())
        print(f"wrote model to {args.model_out}")
    return 0


def cmd_kernel(args) -> int:
    ds = _load_dataset(args)
    phi12 = _encoding_from_args(args)
    _check_out_file(args.out)
    g = kernels.gram(phi12, ds.points, method=args.method,
                     shots=args.shots, seed=args.seed)
    g.to_csv(args.out)
    print(f"wrote {g.size}x{g.size} Gram matrix ({g.method}) to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qkmap",
        description="Feature-map analysis and screening for kernel-based quantum classifiers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a benchmark dataset CSV")
    p.add_argument("kind", choices=datasets.KINDS)
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("heatmap", help="export coefficient grids as CSV/PGM")
    p.add_argument("--encoding", choices=list(BUILTIN_IDS) + ["custom"],
                   help="encoding (default ef1, or custom with --custom-phi12)")
    p.add_argument("--custom-phi12", help="phi12 expression of the custom encoding")
    p.add_argument("--axis", default="all",
                   help='Pauli label like ZZ, or "all" for the 16-panel set')
    p.add_argument("--resolution", type=int, default=101)
    p.add_argument("--range-min", type=float, default=-1.0)
    p.add_argument("--range-max", type=float, default=1.0)
    p.add_argument("--pgm", action="store_true", help="also write PGM images")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=cmd_heatmap)

    p = sub.add_parser("screen", help="minimum-accuracy screening report")
    _add_dataset_flags(p)
    p.add_argument("--encodings", nargs="*", choices=list(BUILTIN_IDS) + ["custom"],
                   help="encodings to screen (default: all five built-ins)")
    p.add_argument("--custom-phi12", help="phi12 expression; adds the custom encoding")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv", action="store_true", help="machine-readable output")
    p.add_argument("--per-axis", action="store_true",
                   help="print the per-axis table (needs exactly one encoding)")
    p.set_defaults(fn=cmd_screen)

    p = sub.add_parser("train", help="cross-validated SVM training report")
    _add_dataset_flags(p)
    p.add_argument("--encodings", nargs="+", choices=list(BUILTIN_IDS) + ["custom"],
                   help="one or more encodings (several are combined)")
    p.add_argument("--custom-phi12", help="phi12 expression; adds the custom encoding")
    p.add_argument("--weights", type=float, nargs="*",
                   help="one weight per encoding (default equal, must sum to count)")
    p.add_argument("--method", default="exact", choices=["exact", "pauli", "shots"])
    p.add_argument("--shots", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--C", type=float, default=1.0)
    p.add_argument("--tolerance", type=float, default=1e-3)
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--csv", action="store_true")
    p.add_argument("--model-out", help="also train on the full set and save the model")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("kernel", help="dump a Gram matrix CSV")
    _add_dataset_flags(p)
    p.add_argument("--encoding", choices=list(BUILTIN_IDS) + ["custom"],
                   help="encoding (default ef1, or custom with --custom-phi12)")
    p.add_argument("--custom-phi12", help="phi12 expression of the custom encoding")
    p.add_argument("--method", default="exact", choices=["exact", "pauli", "shots"])
    p.add_argument("--shots", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_kernel)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """One parser per process, built on the first ``main`` call, so importing stays cheap.

    Parsing leaves it unchanged, so every ``main`` call may reuse it.
    """
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    shown, warnings.formatwarning = warnings.formatwarning, lambda m, *_: f"warning: {m}\n"
    try:
        if getattr(args, "seed", 0) < 0:  # heatmap has no --seed
            raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
        return args.fn(args)
    except (ArithmeticError, np.linalg.LinAlgError) as exc:  # LinAlgError is a ValueError
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError, RuntimeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    finally:
        warnings.formatwarning = shown


if __name__ == "__main__":
    sys.exit(main())
