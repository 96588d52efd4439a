"""Command-line front end: stats, auc, embed, and sweep subcommands.

Exit codes: 0 success, 1 usage or validation error, 2 data or parse error,
3 numeric failure. All subcommands are end-to-end deterministic for a fixed
--seed.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from .evaluate import (
    paired_difference,
    run_experiment,
    summarize,
    write_records_csv,
    write_summary_csv,
)
from .graph import (
    EdgeListParseError,
    Graph,
    SaturatedNodeError,
    TooFewEdgesError,
    load_edge_list,
)
from .indices import LOCAL_INDICES
from .pipelines import embedding_factory, local_index_factory, rwr_factory
from .skipgram import EmbeddingParseError, TrainConfig, save_embedding, train
from .walks import WalkParams, generate_corpus

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

METHODS = tuple(LOCAL_INDICES) + ("rwr", "embed")


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; this artifact reserves 2 for data errors
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _load(path: str) -> Graph:
    graph, dropped = load_edge_list(path)
    if dropped:
        print(f"warning: dropped {dropped} self-loop line(s)", file=sys.stderr)
    return graph


def _add_split_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trials", type=int, default=100, help="partitions to test")
    parser.add_argument("--n", type=int, default=1000, help="AUC comparisons per trial")
    parser.add_argument("--test-fraction", type=float, default=0.1)
    parser.add_argument("--seed", type=int, default=0)


def _add_embedding_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--mode", choices=("alias", "restart"), default="alias",
                        help="walk sampler for embedding methods")
    parser.add_argument("--p", type=float, default=1.0, help="return weight 1/p")
    parser.add_argument("--q", type=float, default=1.0, help="outward weight 1/q")
    parser.add_argument("--d", type=int, default=128, help="embedding dimension")
    parser.add_argument("--r", type=int, default=10, help="walks per start node")
    parser.add_argument("--l", type=int, default=80, help="steps per walk")
    parser.add_argument("--k", type=int, default=10, help="context window radius")
    parser.add_argument("--epochs", type=int, default=10, help="skip-gram epochs")
    parser.add_argument("--negatives", type=int, default=5)
    parser.add_argument("--operator", choices=("hadamard", "average", "abs_diff"),
                        default="hadamard")
    parser.add_argument("--lambda", dest="reg_lambda", type=float, default=1e-4,
                        help="L2 penalty for the logistic classifier")
    parser.add_argument("--clf-lr", type=float, default=0.1)
    parser.add_argument("--clf-epochs", type=int, default=500)


def _walk_params(args) -> WalkParams:
    mode = "alias_weighted" if args.mode == "alias" else "restart"
    return WalkParams(length=args.l, walks_per_node=args.r, p=args.p, q=args.q,
                      c=args.c, mode=mode)


def _train_config(args, seed: int = 0) -> TrainConfig:
    return TrainConfig(dim=args.d, window=args.k, epochs=args.epochs,
                       negatives=args.negatives, seed=seed)


def _embedding_factory(args, walk_params: WalkParams, train_config: TrainConfig, tag: str):
    return embedding_factory(
        walk_params, train_config, operator=args.operator,
        reg_lambda=args.reg_lambda, classifier_lr=args.clf_lr,
        classifier_epochs=args.clf_epochs, tag=tag,
    )


def _method_factory(args):
    if args.method in LOCAL_INDICES:
        return local_index_factory(args.method)
    if args.method == "rwr":
        return rwr_factory(args.c)
    return _embedding_factory(args, _walk_params(args), _train_config(args), "embed")


def _report_summaries(summaries) -> None:
    for s in summaries.values():
        print(f"level={s.level} mean={s.mean:.4f} std={s.std:.4f} "
              f"ci95=[{s.ci_low:.4f}, {s.ci_high:.4f}]")


def cmd_stats(args) -> int:
    graph = _load(args.edgelist)
    print(f"nodes: {graph.num_nodes}")
    print(f"edges: {graph.num_edges}")
    if graph.num_nodes == 0:
        print("average degree: n/a")
    else:
        avg = 2 * graph.num_edges / graph.num_nodes
        print(f"average degree: {round(avg)} (exact {avg})")
    return EXIT_OK


def cmd_auc(args) -> int:
    graph = _load(args.edgelist)
    factory = _method_factory(args)
    result = run_experiment(
        graph, [factory], trials=args.trials, test_fraction=args.test_fraction,
        comparisons=args.n, base_seed=args.seed,
    )
    write_records_csv(result, f"{args.out}_trials.csv")
    if args.trials >= 2:
        summaries = summarize(result)
        write_summary_csv(summaries, f"{args.out}_summary.csv")
        _report_summaries(summaries)
    else:
        for record in result.records:
            print(f"trial_seed={record.trial_seed} level={record.level} auc={record.auc}")
    return EXIT_OK


def cmd_embed(args) -> int:
    graph = _load(args.edgelist)
    corpus = generate_corpus(graph, _walk_params(args), args.seed)
    model = train(corpus, _train_config(args, seed=args.seed))
    for epoch, loss in enumerate(model.epoch_losses, start=1):
        print(f"epoch {epoch}: mean loss {loss:.6f}")
    save_embedding(model, args.out)
    print(f"wrote {len(model.vocab)} x {model.dim} embedding to {args.out}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    graph = _load(args.edgelist)
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    if not values:
        print("error: --values is empty", file=sys.stderr)
        return EXIT_USAGE

    if args.param == "index":
        factories = [local_index_factory(v) for v in values]
    elif args.param == "c" and args.method == "rwr":
        factories = [rwr_factory(float(v)) for v in values]
    elif args.param in ("c", "d") and args.method == "embed":
        walk_params, train_config = _walk_params(args), _train_config(args)
        if args.param == "c":
            levels = [(replace(walk_params, mode="restart", c=float(v)), train_config,
                       f"embed_c={float(v):g}") for v in values]
        else:
            levels = [(walk_params, replace(train_config, dim=int(v)), f"embed_d={int(v)}")
                      for v in values]
        factories = [_embedding_factory(args, *level) for level in levels]
    else:
        print(f"error: unsupported sweep: param={args.param} method={args.method}",
              file=sys.stderr)
        return EXIT_USAGE

    result = run_experiment(
        graph, factories, trials=args.trials, test_fraction=args.test_fraction,
        comparisons=args.n, base_seed=args.seed,
    )
    write_records_csv(result, args.out)
    if args.trials >= 2:
        summaries = summarize(result)
        _report_summaries(summaries)
        first, *later = result.levels()
        for level in later:
            mean, stderr = paired_difference(result, level, first)
            print(f"paired level={level} vs={first} mean={mean:.4f} stderr={stderr:.4f}")
        if args.summary_out:
            write_summary_csv(summaries, args.summary_out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="linkpred",
                     description="Link prediction benchmarks on edge-list graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", parents=[], help="node/edge/degree statistics")
    p_stats.add_argument("edgelist")
    p_stats.set_defaults(func=cmd_stats)

    p_auc = sub.add_parser("auc", help="repeated-partition AUC for one method")
    p_auc.add_argument("edgelist")
    p_auc.add_argument("--method", choices=METHODS, required=True)
    p_auc.add_argument("--c", type=float, default=0.9,
                       help="neighbor-move probability (rwr / restart walks)")
    _add_split_options(p_auc)
    _add_embedding_options(p_auc)
    p_auc.add_argument("--out", required=True,
                       help="prefix for <out>_trials.csv and <out>_summary.csv")
    p_auc.set_defaults(func=cmd_auc)

    p_embed = sub.add_parser("embed", help="train and save node embeddings")
    p_embed.add_argument("edgelist")
    p_embed.add_argument("--c", type=float, default=0.9)
    p_embed.add_argument("--seed", type=int, default=0)
    _add_embedding_options(p_embed)
    p_embed.add_argument("--out", required=True, help="embedding file path")
    p_embed.set_defaults(func=cmd_embed)

    p_sweep = sub.add_parser("sweep", help="paired sweep over one parameter")
    p_sweep.add_argument("edgelist")
    p_sweep.add_argument("--param", choices=("c", "d", "index"), required=True)
    p_sweep.add_argument("--method", choices=("rwr", "embed"), default="rwr")
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated levels, e.g. 0.1,0.5,0.9")
    p_sweep.add_argument("--c", type=float, default=0.9)
    _add_split_options(p_sweep)
    _add_embedding_options(p_sweep)
    p_sweep.add_argument("--out", required=True, help="per-trial CSV path")
    p_sweep.add_argument("--summary-out", default=None)
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse printed the message already
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (EdgeListParseError, EmbeddingParseError, SaturatedNodeError, TooFewEdgesError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    raise SystemExit(main())
