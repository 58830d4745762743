"""Command-line interface.

One binary, subcommand style. Configuration comes from a JSON file (same
object syntax as a dataset record) with a handful of override flags so runs
stay reproducible; progress goes to stderr and data only to files, written
atomically.

Exit codes: 0 success, 1 domain error (bad record, bad config, missing file),
2 usage error.
"""

import argparse
import dataclasses
import json
import logging
import math
import sys

import numpy as np

from . import train as tr
from .data import (_numbered_graphs, atomic_write_text, from_dict, load_dataset, read_json,
                   save_dataset)
from .eigen import eigendecompose
from .errors import (DatasetFormatError, EigenlearnError, InvalidParams, NothingTrained,
                     NumericalFault)
from .graphs import (GRAPH_KINDS, LAPLACIAN_NORMS, UNNORMALIZED, Graph, adjacency_fits,
                     build_adjacency, build_laplacian, generate_graph)
from .invariants import run_all_checks
from .optim import blas_threads, usable_cpus, worker_threads
from .wavelets import FeatureConfig, augment_features

log = logging.getLogger("eigenlearn")


def _config(cls, path: str | None, what: str = "config"):
    """The config class cls of the JSON file at path; all defaults without one."""
    if path is None:
        return cls()
    return from_dict(cls, read_json(path), f"{path}: {what}")


def _overrides(args) -> dict:
    """The given flags that are named after a PretrainConfig field."""
    return {f.name: getattr(args, f.name) for f in dataclasses.fields(tr.PretrainConfig)
            if getattr(args, f.name, None) is not None}


def _grid_shape(n: int) -> dict:
    """The most nearly square grid of exactly n nodes (1 x n for a prime n)."""
    rows = max(r for r in range(1, math.isqrt(n) + 1) if n % r == 0)
    return {"rows": rows, "cols": n // rows}


def _require_trained(record: tr.RunRecord) -> None:
    """Refuse, before anything is written, a run whose last epoch committed no
    batch: its losses are NaN (see train._epochs), and exit 0 would pass it
    off as a run that trained."""
    if record.rows and math.isnan(record.rows[-1].loss_total):
        raise NothingTrained(f"epoch {record.rows[-1].epoch} committed no batch: every batch "
                             f"of it was skipped ({record.skipped_batches} skipped in the run)")


def _blas_build() -> str:
    """The name and version of the BLAS numpy was built with, or 'unknown'."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 only prints its config
        return "unknown"
    return f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}"


def _log_environment() -> None:
    """One INFO line with what a run's speed and its bits depend on: the
    numpy version, the BLAS build, the usable CPUs, and the BLAS thread
    count, which is the machine's default: every command then holds it at
    one (main)."""
    if log.isEnabledFor(logging.INFO):
        threads = blas_threads()
        log.info("numpy %s, BLAS %s, BLAS threads %s, usable CPUs %d", np.__version__,
                 _blas_build(), "unknown" if threads is None else threads, usable_cpus())


def cmd_gen_data(args) -> int:
    if args.count < 1:
        raise InvalidParams(f"--count must be >= 1, got {args.count}")
    if args.seed < 0:
        raise InvalidParams(f"--seed must be >= 0, got {args.seed}")
    if args.n_min < 2:  # a one-node graph has no lambda_2 and no positional features
        raise InvalidParams(f"--n-min must be >= 2, got {args.n_min}")
    if args.n_max < args.n_min:
        raise InvalidParams(f"--n-max {args.n_max} must be >= --n-min {args.n_min}")
    if not adjacency_fits(args.n_max):
        raise InvalidParams(f"--n-max {args.n_max}: a graph of that many nodes needs an n x n "
                            f"float64 adjacency, more than this machine's memory")
    rng = np.random.default_rng(args.seed)
    kinds = args.kinds.split(",")
    for kind in kinds:
        if kind not in GRAPH_KINDS:
            raise InvalidParams(f"unknown graph kind {kind!r}")
    graphs = []
    for i in range(args.count):
        kind = kinds[int(rng.integers(len(kinds)))]
        n = int(rng.integers(args.n_min, args.n_max + 1))
        params = {"n": n}
        if kind == "erdos_renyi":
            params["p"] = args.p
        if kind == "grid":
            params = _grid_shape(n)
        g = generate_graph(kind, params, seed=args.seed + i + 1)
        s = eigendecompose(build_laplacian(build_adjacency(g)))
        targets = {"lambda_2": float(s.eigenvalues[1])}
        graphs.append(Graph(g.num_nodes, g.edges, g.node_features, targets))
    save_dataset(args.output, graphs)
    log.info("wrote %d graphs to %s", args.count, args.output)
    return 0


def cmd_features(args) -> int:
    cfg = _config(FeatureConfig, args.config, "feature config")
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, dirac_seed=args.seed)
    graphs = []
    for number, g in _numbered_graphs(args.input):
        try:
            graphs.append(g.with_features(augment_features(g, cfg)))
        except EigenlearnError as exc:
            raise DatasetFormatError(args.input, number, str(exc)) from None
    save_dataset(args.output, graphs)
    log.info("augmented %d graphs -> %s", len(graphs), args.output)
    return 0


def cmd_spectrum(args) -> int:
    lines = []
    for number, g in _numbered_graphs(args.input):
        try:
            s = eigendecompose(build_laplacian(build_adjacency(g), args.norm))
        except EigenlearnError as exc:
            raise DatasetFormatError(args.input, number, str(exc)) from None
        rec = {"num_nodes": g.num_nodes,
               "eigenvalues": [float(v) for v in s.eigenvalues]}
        if not args.values_only:
            rec["eigenvectors"] = [[float(v) for v in row] for row in s.eigenvectors]
        lines.append(json.dumps(rec, separators=(",", ":")))
    atomic_write_text(args.output, "".join(line + "\n" for line in lines))
    log.info("wrote spectra of %d graphs to %s", len(lines), args.output)
    return 0


def cmd_pretrain(args) -> int:
    overrides = _overrides(args)
    if args.resume:
        model, base, state, _, head, _ = tr.load_checkpoint(args.resume)
        if head is not None:
            raise InvalidParams(f"{args.resume} is a finetune checkpoint; pretrain --resume "
                                "continues only a pretrain checkpoint")
        for name, value in overrides.items():  # only the epoch budget may change
            if name != "epochs" and value != getattr(base, name):
                raise InvalidParams(f"--{name} {value} cannot change the checkpoint's "
                                    f"{name}={getattr(base, name)} on --resume")
    else:
        model = state = None
        base = _config(tr.PretrainConfig, args.config)
    cfg = dataclasses.replace(base, **overrides)
    examples = tr.precompute_targets(load_dataset(args.input), cfg)
    if model is None:
        with tr.naming(args.config):
            model = tr.build_model(cfg, tr.feature_dim(examples))
    record, state = tr.pretrain(examples, model, cfg, state)
    _require_trained(record)
    atomic_write_text(args.output, record.to_csv())
    if args.checkpoint_out:
        tr.save_checkpoint(args.checkpoint_out, model, cfg, state, model.encoder.in_dim)
        log.info("checkpoint -> %s", args.checkpoint_out)
    if record.rows:
        log.info("pretrain done: %d epochs, final loss %.6f, %d skipped batches",
                 len(record.rows), record.rows[-1].loss_total, record.skipped_batches)
    return 0


def cmd_finetune(args) -> int:
    if not 0 <= args.val_fraction < 1:
        raise InvalidParams(f"--val-fraction must be in [0, 1), got {args.val_fraction}")
    model, cfg, _, _, saved_head, _ = tr.load_checkpoint(args.checkpoint)
    if saved_head is not None:
        raise InvalidParams(f"{args.checkpoint} is a finetune checkpoint; finetune "
                            "--checkpoint starts only from a pretrain checkpoint")
    # --epochs is the fine-tuning budget, so the config checks it as finetune_epochs
    overrides = {"seed": args.seed, "finetune_epochs": args.epochs}
    cfg = dataclasses.replace(cfg, **{k: v for k, v in overrides.items() if v is not None})
    examples = tr.precompute_targets(load_dataset(args.input), cfg)
    rng = np.random.default_rng([cfg.seed, 9])
    order = rng.permutation(len(examples))
    n_val = max(1, int(len(examples) * args.val_fraction)) if args.val_fraction else 0
    val = [examples[i] for i in order[:n_val]]
    tr_examples = [examples[i] for i in order[n_val:]]
    if not tr_examples:
        raise InvalidParams(f"--val-fraction {args.val_fraction} leaves no training graph")
    with tr.naming(args.checkpoint):
        head = tr.build_downstream_head(cfg)
    record, state = tr.finetune(tr_examples, model, head, cfg, args.target,
                                val_examples=val or None)
    _require_trained(record)
    if val:  # evaluated before anything is written, so a fault there writes nothing
        with tr.naming("held-out evaluation", NumericalFault):
            mae = tr.evaluate_mae(model, head, val, cfg, args.target)
        train_mean = float(np.mean([ex.graph.graph_targets[args.target]
                                    for ex in tr_examples]))
        base = float(np.mean([abs(ex.graph.graph_targets[args.target] - train_mean)
                              for ex in val]))
        log.info("held-out MAE %.6f (predict-the-mean baseline %.6f)", mae, base)
    atomic_write_text(args.output, record.to_csv())
    if args.checkpoint_out:
        tr.save_checkpoint(args.checkpoint_out, model, cfg, state, model.encoder.in_dim,
                           downstream_head=head, extra={"target": args.target})
    return 0


def cmd_compare_losses(args) -> int:
    cfg = dataclasses.replace(_config(tr.PretrainConfig, args.config), **_overrides(args))
    examples = tr.precompute_targets(load_dataset(args.input), cfg)
    with tr.naming(args.config):
        results = tr.compare_losses(examples, cfg)
    rows = [row for arm in tr.COMPARISON_ARMS for row in results[arm]]
    atomic_write_text(args.output, tr.comparison_to_csv(rows))
    for arm, arm_rows in results.items():
        if arm_rows:  # none with --epochs 0
            log.info("%s: final eigvec %.6f, energy %.6f", arm,
                     arm_rows[-1].loss_eigvec, arm_rows[-1].loss_energy)
    return 0


def cmd_check_invariants(args) -> int:
    results = run_all_checks()
    width = max(len(r.name) for r in results)
    for r in results:
        marker = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  {marker}  {r.detail}")
    if args.output:
        lines = [json.dumps({"name": r.name, "passed": r.passed, "detail": r.detail},
                            separators=(",", ":")) for r in results]
        atomic_write_text(args.output, "".join(line + "\n" for line in lines))
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eigenlearn",
        description="Spectral pre-training toolkit: graph spectra, wavelet features, "
                    "eigenvector-learning models, and the training loops around them.")
    parser.add_argument("--verbose", action="store_true", help="debug logging")
    parser.add_argument("--quiet", action="store_true", help="errors only")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="emit a synthetic line-delimited graph dataset")
    p.add_argument("--output", required=True)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--kinds", default="path,cycle,star,erdos_renyi")
    p.add_argument("--n-min", type=int, default=6)
    p.add_argument("--n-max", type=int, default=16)
    p.add_argument("--p", type=float, default=0.4, help="edge probability for erdos_renyi")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("features", help="write structure-based node features into a dataset")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--config", help="feature config JSON")
    p.add_argument("--seed", type=int, help="override dirac source seed")
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("spectrum", help="export Laplacian spectra of every graph")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--norm", choices=LAPLACIAN_NORMS, default=UNNORMALIZED)
    p.add_argument("--values-only", action="store_true")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("pretrain", help="eigenvector-learning pre-training run")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True, help="run record CSV")
    start = p.add_mutually_exclusive_group()
    start.add_argument("--config", help="PretrainConfig JSON")
    start.add_argument("--resume", help="continue from a checkpoint (only --epochs may change)")
    p.add_argument("--checkpoint-out")
    p.add_argument("--seed", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--k", type=int)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("finetune", help="fine-tune a pre-trained model on a scalar target")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True, help="run record CSV")
    p.add_argument("--checkpoint", required=True, help="pretrain checkpoint")
    p.add_argument("--target", default="lambda_2")
    p.add_argument("--checkpoint-out")
    p.add_argument("--epochs", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--val-fraction", type=float, default=0.2)
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("compare-losses", help="train the loss-comparison arms and export the series")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--k", type=int)
    p.set_defaults(func=cmd_compare_losses)

    p = sub.add_parser("check-invariants", help="run the executable property suite")
    p.add_argument("--output", help="machine-readable summary (line-delimited JSON)")
    p.set_defaults(func=cmd_check_invariants)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    level = logging.INFO
    if args.verbose:
        level = logging.DEBUG
    if args.quiet:
        level = logging.ERROR
    logging.basicConfig(stream=sys.stderr, level=level,
                        format="%(levelname)s %(name)s: %(message)s")
    _log_environment()
    try:
        # the command's one compute scope: BLAS at one thread, so no bit depends
        # on the machine's BLAS threading, float faults as NumericalFault, one pool
        with worker_threads():
            return args.func(args)
    except (FileNotFoundError, EigenlearnError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
