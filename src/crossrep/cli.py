"""Command-line entry point.

Exit codes: 0 success, 2 usage error, 3 validation/config error or an
unwritable output path, 4 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .clustering import (CrossPredictionMatrix, assignments_tsv, build_pool, cluster_examples,
                         cluster_tasks, cross_prediction_matrix, write_pairwise_distances)
from .data import (CollectionMode, SplitKind, json_field, load_collection, load_pool,
                   load_task, read_json, write_collection)
from .engine import TrainingScope, load_bank, save_bank, stage1_train
from .errors import ConfigError, CrossrepError, IngestionError, ValidationError
from .evaluation import compare_scores, render_comparison
from .learners import parse_learner_spec
from .pipeline import (PipelineConfig, SCORES_NAME, SplitProtocol, load_scores,
                       run_pipeline, write_result)
from .synth import Nonlinearity, SynthSpec, generate_collection

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_RUNTIME = 4


def load_config(path: Path, seed_override: int | None, strict_flag: bool) -> PipelineConfig:
    doc = read_json(path, "config file")
    collection_ref = json_field(path, doc, "collection", str)
    split_doc = json_field(path, doc, "split", dict)
    seed = json_field(path, doc, "seed", int)
    cap = json_field(path, doc, "descriptor_cap", int, None)
    order = json_field(path, doc, "order", int, 1)
    scope = json_field(path, doc, "stage1_scope", TrainingScope, None)
    strict = json_field(path, doc, "strict", bool, False)
    augment = json_field(path, doc, "augment", bool, False)
    normalize = json_field(path, doc, "normalize_targets", bool, False)
    specs = {key: parse_learner_spec(json_field(path, doc, key, dict), f"{path}: {key}")
             for key in ("transformer", "final")}
    split_where = f"{path}: split"
    split_kind = json_field(split_where, split_doc, "kind", SplitKind)
    if split_kind is SplitKind.KFOLD:
        split_args = {"k": json_field(split_where, split_doc, "k", int)}
    else:
        split_args = {"test_fraction": json_field(split_where, split_doc, "test_fraction", float)}
    collection = load_collection(path.parent / collection_ref)
    try:
        return PipelineConfig(
            collection=collection,
            transformer_spec=specs["transformer"],
            final_spec=specs["final"],
            split=SplitProtocol(split_kind, **split_args),
            seed=seed if seed_override is None else seed_override,
            descriptor_cap=cap,
            order=order,
            stage1_scope=scope,
            strict=strict or strict_flag,
            augment=augment,
            normalize=normalize,
            collection_ref=collection_ref,
        )
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def cmd_run(args: argparse.Namespace) -> int:
    config = load_config(Path(args.config), args.seed, args.strict)
    result = run_pipeline(config)
    out_dir = write_result(result, Path(args.out))
    print(f"wrote {out_dir / SCORES_NAME}")
    print(render_comparison(result.table), end="")
    if result.failures:
        print(f"{len(result.failures)} task(s) failed; see the report for details")
    return EXIT_OK


def cmd_synth(args: argparse.Namespace) -> int:
    spec = SynthSpec(
        n_tasks=args.tasks,
        n_examples_per_task=args.examples,
        n_features=args.features,
        relatedness=args.relatedness,
        nonlinearity=Nonlinearity(args.nonlinearity),
        noise_sd=args.noise_sd,
        seed=args.seed,
        mode=CollectionMode(args.mode),
    )
    collection = generate_collection(spec)
    manifest = write_collection(collection, Path(args.out))
    print(f"wrote {manifest}")
    return EXIT_OK


def cmd_train_bank(args: argparse.Namespace) -> int:
    collection = load_collection(Path(args.collection))
    try:
        doc = json.loads(args.learner)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"--learner: invalid JSON at line {exc.lineno}, column "
                          f"{exc.colno}: {exc.msg}") from None
    bank = stage1_train(collection, parse_learner_spec(doc, "--learner"),
                        TrainingScope.FULL_TASK)
    index = save_bank(bank, Path(args.out))
    print(f"wrote {index}")
    return EXIT_OK


def _load_pool(args: argparse.Namespace, pool_path: Path, manifest: bool
               ) -> tuple[np.ndarray, tuple[str, ...], tuple[str, ...]]:
    """The pool's rows, example ids and feature names. A collection or task
    loaded on the way dies here, once its rows are pooled."""
    if manifest:
        # a collection manifest: pool the collection's own example rows
        collection = load_collection(pool_path)
        pool, ids = build_pool(collection, cap=args.pool_cap, seed=args.seed)
        return pool, ids, collection.tasks[0].feature_names
    if args.target:
        pool_task = load_task(pool_path, target=args.target)
        return pool_task.features, pool_task.example_ids, pool_task.feature_names
    return load_pool(pool_path)


def _pooled_matrix(args: argparse.Namespace, pool_path: Path,
                   manifest: bool) -> CrossPredictionMatrix:
    """The bank's predictions on the pool. The bank reads its models one at
    a time as it predicts, so an archive after the first is checked only
    once the pool has loaded. The bank and the pool die when this returns:
    only the matrix is alive while clustering."""
    bank = load_bank(Path(args.bank))
    pool, ids, names = _load_pool(args, pool_path, manifest)
    for item, count in (("task", len(bank.task_ids)), ("example", len(ids))):
        if args.items in (f"{item}s", "both") and args.k > count:
            raise ConfigError(f"--k {args.k} exceeds the {count} {item}s to cluster")
    try:
        return cross_prediction_matrix(bank, pool, example_ids=ids, feature_names=names)
    except ValidationError as exc:
        raise ValidationError(f"{pool_path}: {exc}") from None


def cmd_cluster(args: argparse.Namespace) -> int:
    if args.seed < 0:
        raise ConfigError(f"--seed must be nonnegative, got {args.seed}")
    pool_path = Path(args.pool)
    manifest = pool_path.suffix == ".json"
    if args.pool_cap is not None and not manifest:
        raise ConfigError(f"--pool-cap applies to a collection manifest only, not {pool_path}")
    if args.pool_cap is not None and args.pool_cap < 1:
        raise ConfigError(f"--pool-cap must be at least 1, got {args.pool_cap}")
    if args.k < 1:
        raise ConfigError(f"--k must be at least 1, got {args.k}")
    if args.target is not None and manifest:
        raise ConfigError(f"--target applies to a task-file pool only, not {pool_path}")
    matrix = _pooled_matrix(args, pool_path, manifest)
    try:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        wrote = []
        views = (("task", cluster_tasks, matrix.values.T, matrix.task_ids),
                 ("example", cluster_examples, matrix.values, matrix.example_ids))
        for item, cluster, values, item_ids in views:
            if args.items not in (f"{item}s", "both"):
                continue
            res = cluster(matrix, args.k, args.seed, standardize=args.standardize)
            (out_dir / f"{item}_clusters.tsv").write_text(assignments_tsv(res, item_ids),
                                                          encoding="utf-8")
            print(f"{item} k-means: converged={res.converged} n_iter={res.n_iter}")
            wrote.append(f"{item}_clusters.tsv")
            if args.distances:
                write_pairwise_distances(out_dir / f"{item}_distances.tsv", values, item_ids)
                wrote.append(f"{item}_distances.tsv")
    except ValidationError as exc:
        raise ValidationError(f"{pool_path}: {exc}") from None
    print(f"wrote {', '.join(wrote)} to {out_dir}")
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    table = compare_scores(score for path in args.scores for score in load_scores(path))
    text = render_comparison(table)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return EXIT_OK


def cmd_inspect_bank(args: argparse.Namespace) -> int:
    bank = load_bank(Path(args.bank))
    hyperparams = json.dumps(bank.learner_spec.to_dict()["hyperparams"], sort_keys=True)
    lines = [f"collection: {bank.collection_id}",
             f"learner: {bank.learner_spec.label} {hyperparams}",
             f"scope: {bank.training_scope.value}",
             f"models: {len(bank.models)}"]
    # at most two models alive at a time; nothing is printed until every
    # archive has been read
    for task_id, model in bank.models.items():
        fp = model.train_fingerprint
        solver = " ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                          for k, v in model.state.diagnostics().items())
        lines.append(f"  {task_id}: features={model.feature_count} "
                     f"rows={len(fp.row_ids)} fingerprint={fp.digest[:16]} {solver}")
    print("\n".join(lines))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crossrep",
        description="Multi-task regression on cross-task prediction representations.")
    parser.add_argument("--version", action="version", version=f"crossrep {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a configured experiment")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--strict", action="store_true")
    p_run.set_defaults(fn=cmd_run)

    p_synth = sub.add_parser("synth", help="generate a synthetic collection")
    p_synth.add_argument("--tasks", type=int, required=True)
    p_synth.add_argument("--examples", type=int, required=True)
    p_synth.add_argument("--features", type=int, required=True)
    p_synth.add_argument("--relatedness", type=float, default=0.8)
    p_synth.add_argument("--nonlinearity", choices=["linear", "nonlinear"],
                         default="nonlinear")
    p_synth.add_argument("--noise-sd", type=float, default=0.1)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--mode", choices=["independent", "shared"],
                         default="independent")
    p_synth.add_argument("--out", required=True)
    p_synth.set_defaults(fn=cmd_synth)

    p_bank = sub.add_parser("train-bank", help="fit stage-1 models and save the bank")
    p_bank.add_argument("--collection", required=True, help="collection manifest path")
    p_bank.add_argument("--learner", required=True,
                        help='learner spec as JSON, e.g. \'{"kind": "ridge", "lam": 10}\'')
    p_bank.add_argument("--out", required=True)
    p_bank.set_defaults(fn=cmd_train_bank)

    p_cluster = sub.add_parser("cluster", help="cluster tasks/examples in prediction space")
    p_cluster.add_argument("--bank", required=True, help="bank directory")
    p_cluster.add_argument("--pool", required=True,
                           help="pooled example file, or a collection manifest "
                                "to pool the collection's own rows")
    p_cluster.add_argument("--target", default=None,
                           help="target column to drop if the pool is a task file")
    p_cluster.add_argument("--pool-cap", type=int, default=None,
                           help="seeded subsample size for manifest pools")
    p_cluster.add_argument("--k", type=int, required=True)
    p_cluster.add_argument("--seed", type=int, default=0)
    p_cluster.add_argument("--items", choices=["tasks", "examples", "both"],
                           default="both")
    p_cluster.add_argument("--standardize", action="store_true")
    p_cluster.add_argument("--distances", action="store_true",
                           help="also dump pairwise distance matrices")
    p_cluster.add_argument("--out", required=True)
    p_cluster.set_defaults(fn=cmd_cluster)

    p_cmp = sub.add_parser("compare", help="merge score tables into one comparison")
    p_cmp.add_argument("scores", nargs="+", help="scores.tsv files")
    p_cmp.add_argument("--out", default=None)
    p_cmp.set_defaults(fn=cmd_compare)

    p_inspect = sub.add_parser(
        "inspect-bank", help="list bank models, fingerprints and solver diagnostics")
    p_inspect.add_argument("--bank", required=True)
    p_inspect.set_defaults(fn=cmd_inspect_bank)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ValidationError, IngestionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except CrossrepError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:  # an output path that cannot be created or written
        print(f"error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
