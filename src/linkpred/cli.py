"""Command-line front end: stats, auc, embed, and sweep subcommands.

Exit codes: 0 success, 1 usage or validation error, 2 data or parse error
(including a graph with too few edges or non-edges). The method, split,
walk, skip-gram and classifier flags are checked before the edge list is
read; the classifier, fit to its optimum, takes --operator and --lambda only.
All subcommands are end-to-end deterministic for a fixed --seed.
"""

from __future__ import annotations

import argparse
import sys

from .evaluate import (
    check_split_settings,
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
                        help="L2 penalty for the logistic classifier (finite, > 0)")


def _walk_params(args) -> WalkParams:
    return WalkParams(length=args.l, walks_per_node=args.r, p=args.p, q=args.q,
                      c=args.c, mode=args.mode)


def _train_config(args, seed: int = 0) -> TrainConfig:
    return TrainConfig(dim=args.d, window=args.k, epochs=args.epochs,
                       negatives=args.negatives, seed=seed)


def _method_factory(args, embed_tag: str = "embed"):
    """Build ``args.method`` from the shared flags, as every auc and sweep level
    is built; an embedding level is tagged ``embed_tag``."""
    if args.method in LOCAL_INDICES:
        return local_index_factory(args.method)
    if args.method == "rwr":
        return rwr_factory(args.c)
    return embedding_factory(
        _walk_params(args), _train_config(args), operator=args.operator,
        reg_lambda=args.reg_lambda, tag=embed_tag,
    )


def _sweep_levels(args) -> list[tuple[argparse.Namespace, str]]:
    """Each level's flags and embedding tag: a copy of ``args`` with the swept
    flag set to one --values entry (a c level walks with restarts). A sweep
    that reads nothing, or a value the flag cannot take, raises ValueError."""
    if args.param == "d" and args.method == "rwr":
        raise ValueError("unsupported sweep: param=d method=rwr")
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    if not values:
        raise ValueError("--values is empty")
    convert, levels = {"method": str, "c": float, "d": int}[args.param], []
    for text in values:
        if args.param == "method" and text not in METHODS:
            raise ValueError(f"unknown method {text!r}; choose from {', '.join(METHODS)}")
        try:
            value = convert(text)
        except ValueError:
            raise ValueError(f"--values: {text!r} is not a valid {args.param}") from None
        level = argparse.Namespace(**{**vars(args), args.param: value})
        if args.param == "c":
            level.mode = "restart"
        levels.append((level, "embed" if args.param == "method"
                       else f"embed_{args.param}={value:.15g}"))
    return levels


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


def _run_and_report(args, factories, trials_path: str, summary_path: str | None) -> int:
    """Check the split flags, read the edge list, run the paired experiment and
    write its CSVs. Print each record for one trial, else each level's summary
    and its paired difference from the first."""
    check_split_settings(args.trials, args.test_fraction, args.n, args.seed)
    result = run_experiment(_load(args.edgelist), factories, trials=args.trials,
                            comparisons=args.n, test_fraction=args.test_fraction,
                            base_seed=args.seed)
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
    return _run_and_report(args, [_method_factory(args)],
                           f"{args.out}_trials.csv", f"{args.out}_summary.csv")


def cmd_embed(args) -> int:
    seed = abs(args.seed)  # the walks' and SGNS's Generators take seeds >= 0
    params, config = _walk_params(args), _train_config(args, seed=seed)
    graph = _load(args.edgelist)
    if graph.num_edges == 0:
        raise TooFewEdgesError("no edges to embed")
    corpus = generate_corpus(graph, params, seed)
    model = train(corpus, config)
    for epoch, loss in enumerate(model.epoch_losses, start=1):
        print(f"epoch {epoch}: mean loss {loss:.6f}")
    save_embedding(model, graph.nodes, args.out)
    print(f"wrote {graph.num_nodes} x {model.dim} embedding to {args.out}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    if args.summary_out and args.trials < 2:
        raise ValueError("--summary-out needs --trials >= 2")
    factories = [_method_factory(level, tag) for level, tag in _sweep_levels(args)]
    return _run_and_report(args, factories, args.out, args.summary_out)


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
                       help="prefix for <out>_trials.csv and <out>_summary.csv "
                            "(summary only with --trials >= 2)")
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
    p_sweep.add_argument("--param", choices=("method", "c", "d"), required=True)
    p_sweep.add_argument("--method", choices=("rwr", "embed"), default="rwr")
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated levels, e.g. cn,rwr,embed or 0.1,0.5,0.9")
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
