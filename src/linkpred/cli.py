"""Command-line front end: stats, auc, embed, and sweep subcommands.

Exit codes: 0 success, 1 usage or validation error, 2 data or parse error
(including a graph with too few edges or non-edges). All subcommands are
end-to-end deterministic for a fixed --seed.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

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
from .predictor import OPERATORS
from .skipgram import TrainConfig, save_embedding, train
from .walks import WalkParams, generate_corpus

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2

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


def _add_classifier_options(parser: argparse.ArgumentParser) -> None:
    """Edge-classifier settings, read only where embeddings are scored."""
    parser.add_argument("--operator", choices=OPERATORS, default="hadamard")
    parser.add_argument("--lambda", dest="reg_lambda", type=float, default=1e-4,
                        help="L2 penalty for the logistic classifier (finite, >= 0)")
    parser.add_argument("--clf-lr", type=float, default=0.1, help="finite, > 0")
    parser.add_argument("--clf-epochs", type=int, default=500, help=">= 1")


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


def _run_and_report(args, graph: Graph, factories, trials_path: str,
                    summary_path: str | None) -> int:
    """Run the paired experiment and write its CSVs. Print each record for one
    trial, else each level's summary and its paired difference from the first."""
    result = run_experiment(graph, factories, trials=args.trials, comparisons=args.n,
                            test_fraction=args.test_fraction, base_seed=args.seed)
    write_records_csv(result, trials_path)
    if args.trials < 2:
        for r in result.records:
            print(f"trial_seed={r.trial_seed} level={r.level} auc={r.auc}")
        return EXIT_OK
    summaries = summarize(result)
    if summary_path:
        write_summary_csv(summaries, summary_path)
    for s in summaries.values():
        print(f"level={s.level} mean={s.mean:.4f} std={s.std:.4f} "
              f"ci95=[{s.ci_low:.4f}, {s.ci_high:.4f}]")
    first, *later = result.levels()
    for level in later:
        mean, stderr = paired_difference(result, level, first)
        print(f"paired level={level} vs={first} mean={mean:.4f} stderr={stderr:.4f}")
    return EXIT_OK


def cmd_auc(args) -> int:
    return _run_and_report(args, _load(args.edgelist), [_method_factory(args)],
                           f"{args.out}_trials.csv", f"{args.out}_summary.csv")


def cmd_embed(args) -> int:
    graph = _load(args.edgelist)
    if graph.num_edges == 0:
        raise TooFewEdgesError("no edges to embed")
    corpus = generate_corpus(graph, _walk_params(args), args.seed)
    model = train(corpus, _train_config(args, seed=args.seed))
    for epoch, loss in enumerate(model.epoch_losses, start=1):
        print(f"epoch {epoch}: mean loss {loss:.6f}")
    save_embedding(model, args.out)
    print(f"wrote {len(model.vocab)} x {model.dim} embedding to {args.out}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    if args.summary_out and args.trials < 2:
        print("error: --summary-out needs --trials >= 2", file=sys.stderr)
        return EXIT_USAGE
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

    return _run_and_report(args, graph, factories, args.out, args.summary_out)


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
    _add_classifier_options(p_auc)
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
    _add_classifier_options(p_sweep)
    p_sweep.add_argument("--out", required=True, help="per-trial CSV path")
    p_sweep.add_argument("--summary-out", default=None,
                         help="summary CSV path; needs --trials >= 2")
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
    except (EdgeListParseError, SaturatedNodeError, TooFewEdgesError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
