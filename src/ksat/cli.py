"""Command-line interface over JSONL corpora.

Subcommands: ``synth`` (generate a labeled corpus), ``annotate`` (concept
presence, optionally grid-searched thresholds), ``train``, ``eval``,
``report`` (contribution + distance files), and ``gradcheck`` (analytic vs
finite-difference gradients). Exit codes: 0 success, 1 usage error, 2 data
format error, 3 numerical failure. Reruns with identical arguments produce
byte-identical output files.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .annotation import AnnotationParams, apply_annotations, default_params, grid_search
from .corpus import load_jsonl, save_jsonl
from .embeddings import EmbeddingConfig, load_embeddings
from .errors import DataFormatError, NumericalError
from .knowledge import KnowledgeTree, default_tree, load_taxonomy
from .model import KsatModel, load_model, save_model
from .training import TrainConfig, finite_diff_check, train
from . import analysis

PROG = "ksat"


class _Parser(argparse.ArgumentParser):
    """Argparse that reports usage problems on exit code 1 instead of 2."""

    def error(self, message):
        self.exit(1, f"{PROG}: error: {message}\n")


def _add_globals(parser) -> None:
    # registered on both the root and each subcommand so that flags may
    # appear on either side of the subcommand name; SUPPRESS keeps the
    # subcommand's (unset) copies from masking root-level values
    parser.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    parser.add_argument("--taxonomy", default=argparse.SUPPRESS)
    parser.add_argument("--dim", type=int, default=argparse.SUPPRESS)
    parser.add_argument("--quiet", action="store_true", default=argparse.SUPPRESS)


_GLOBAL_DEFAULTS = {
    "seed": 0,
    "taxonomy": None,
    "dim": 64,
    "quiet": False,
}


def build_parser() -> _Parser:
    parser = _Parser(prog=PROG, description=__doc__.splitlines()[0])
    _add_globals(parser)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("synth", help="generate a synthetic labeled corpus")
    _add_globals(p)
    p.add_argument("--n", type=int, required=True, help="number of posts")
    p.add_argument("--out", required=True, help="output JSONL path")

    p = sub.add_parser("annotate", help="add concept-presence annotations")
    _add_globals(p)
    p.add_argument("--data", required=True, help="input JSONL corpus")
    p.add_argument("--out", required=True, help="annotated JSONL output")
    p.add_argument("--grid-search", action="store_true")
    p.add_argument("--thetas", help="comma-separated per-concept thresholds")
    p.add_argument("--frag-size", type=int, default=1, choices=(1, 2, 3))
    p.add_argument("--theta-step", type=float, default=0.1)

    p = sub.add_parser("train", help="train a model on an annotated corpus")
    _add_globals(p)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="model JSON output path")
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--no-kg-bias", action="store_true")
    p.add_argument("--trace-out", help="optional JSON loss/alpha trace path")
    p.add_argument("--embeddings", help="embedding table; trains a file-backed model")

    p = sub.add_parser("eval", help="evaluate a saved model")
    _add_globals(p)
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", help="optional metrics JSON path")
    p.add_argument("--no-kg-bias", action="store_true")
    p.add_argument("--embeddings", help="optional embedding table file")

    p = sub.add_parser("report", help="write contribution and distance reports")
    _add_globals(p)
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--embeddings", help="optional embedding table file")

    p = sub.add_parser("gradcheck", help="verify gradients by finite differences")
    _add_globals(p)
    return parser


def _tree(args) -> KnowledgeTree:
    if args.taxonomy:
        return load_taxonomy(args.taxonomy)
    return default_tree()


def _embed_config(args) -> EmbeddingConfig:
    return EmbeddingConfig(dimension=args.dim, seed=args.seed)


def _table(args):
    if getattr(args, "embeddings", None):
        return load_embeddings(args.embeddings)
    return None


def _saved_model(args, tree: KnowledgeTree) -> KsatModel:
    """Load ``--model``. The saved model fixes the embedding dimension and
    seed, so an explicit ``--dim`` or ``--seed`` must agree with it."""
    model = load_model(args.model, tree)
    saved = {"dim": model.dimension, "seed": model.embedding_config.seed}
    for name in sorted(args.explicit_globals & saved.keys()):
        if getattr(args, name) != saved[name]:
            raise ValueError(
                f"--{name} {getattr(args, name)} contradicts the saved model "
                f"({name} {saved[name]}); omit it or pass the model's value"
            )
    return model


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def _cmd_synth(args) -> int:
    from .corpus import default_synthetic_spec, generate_synthetic

    tree = _tree(args)
    spec = default_synthetic_spec(args.n, args.seed, tree)
    dataset = generate_synthetic(spec, tree)
    save_jsonl(dataset, args.out)
    _say(args, f"wrote {len(dataset)} posts to {args.out}")
    return 0


def _cmd_annotate(args) -> int:
    tree = _tree(args)
    config = _embed_config(args)
    dataset = load_jsonl(args.data)
    if args.grid_search and args.thetas:
        raise ValueError("--grid-search and --thetas are mutually exclusive")
    if args.grid_search:
        result = grid_search(dataset, tree, config, theta_step=args.theta_step)
        params = result.params
        _say(
            args,
            "grid search selected thetas="
            + ",".join(repr(t) for t in params.thetas)
            + f" frag_size={params.frag_size}"
            + f" log_likelihood={result.log_likelihood!r}",
        )
    elif args.thetas:
        try:
            thetas = tuple(float(t) for t in args.thetas.split(","))
        except ValueError as exc:
            raise ValueError(f"bad --thetas value: {exc}") from None
        params = AnnotationParams(thetas=thetas, frag_size=args.frag_size)
    else:
        params = default_params()
    annotated = apply_annotations(dataset, tree, params, config)
    save_jsonl(annotated, args.out)
    _say(args, f"annotated {len(annotated)} posts -> {args.out}")
    return 0


def _cmd_train(args) -> int:
    tree = _tree(args)
    dataset = load_jsonl(args.data)
    table = _table(args)
    config = EmbeddingConfig(
        dimension=args.dim,
        seed=args.seed,
        vocabulary_mode="feature-hash" if table is None else "file-backed",
    )
    model = KsatModel.initialize(tree, config, seed=args.seed)
    tc = TrainConfig(
        learning_rate=args.lr,
        epochs=args.epochs,
        kg_bias_enabled=not args.no_kg_bias,
    )
    result = train(model, dataset, tc, embeddings_table=table)
    save_model(result.model, args.out)
    if args.trace_out:
        trace = {"losses": result.losses, "alphas": result.alphas}
        Path(args.trace_out).write_text(json.dumps(trace, indent=2) + "\n")
    if result.losses:
        _say(
            args,
            f"trained {args.epochs} epochs on {len(dataset)} posts: "
            f"loss {result.initial_loss!r} -> {result.final_loss!r}",
        )
    else:
        _say(args, f"trained 0 epochs on {len(dataset)} posts")
    _say(args, f"saved model to {args.out}")
    return 0


def _cmd_eval(args) -> int:
    tree = _tree(args)
    dataset = load_jsonl(args.data)
    model = _saved_model(args, tree)
    if args.no_kg_bias:
        model.kg_bias_enabled = False
    table = _table(args)
    metrics = analysis.compute_metrics(model, dataset, embeddings_table=table)
    if args.out:
        analysis.write_metrics_json(metrics, args.out)
    _say(
        args,
        f"accuracy={metrics.accuracy!r} auc={metrics.auc!r} n={metrics.n_posts}",
    )
    return 0


def _cmd_report(args) -> int:
    tree = _tree(args)
    dataset = load_jsonl(args.data)
    model = _saved_model(args, tree)
    table = _table(args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    contributions = analysis.contribution_report(model, dataset, embeddings_table=table)
    distances = analysis.distance_report(
        model, analysis.all_pairs(dataset), embeddings_table=table
    )
    analysis.write_contributions_csv(contributions, out_dir / "contributions.csv")
    analysis.write_distances_csv(distances, out_dir / "distances.csv")
    _say(
        args,
        f"wrote {out_dir / 'contributions.csv'} and {out_dir / 'distances.csv'} "
        f"({len(distances.pairs)} pairs, close_fraction={distances.close_fraction!r})",
    )
    return 0


def _cmd_gradcheck(args) -> int:
    from .corpus import default_synthetic_spec, generate_synthetic

    tree = _tree(args)
    # small dimension keeps the finite-difference sweep quick; a large
    # pair-weight epsilon keeps the bias term well inside the range where
    # central differences are trustworthy
    dim = args.dim if "dim" in args.explicit_globals else 16
    config = EmbeddingConfig(dimension=dim, seed=args.seed)
    spec = default_synthetic_spec(3, args.seed, tree)
    dataset = generate_synthetic(spec, tree)
    model = KsatModel.initialize(tree, config, seed=args.seed, epsilon=1.0)
    batch = [(p, p.sentence_presence, p.gold) for p in dataset.posts]
    report = finite_diff_check(model, batch, TrainConfig())
    worst = max(report.block_errors, key=report.block_errors.get)
    _say(
        args,
        f"gradcheck {'PASS' if report.passed else 'FAIL'}: "
        f"max rel err {report.max_error!r} at {worst} "
        f"(tolerance {report.tolerance!r})",
    )
    if not report.passed:
        raise NumericalError(
            f"gradient check failed: {worst} rel err {report.max_error!r}"
        )
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "annotate": _cmd_annotate,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "report": _cmd_report,
    "gradcheck": _cmd_gradcheck,
}


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.explicit_globals = {n for n in _GLOBAL_DEFAULTS if hasattr(args, n)}
    for name, value in _GLOBAL_DEFAULTS.items():
        if not hasattr(args, name):
            setattr(args, name, value)
    if args.command is None:
        parser.print_help()
        return 1
    try:
        if args.seed < 0 or args.seed > 2**64 - 1:
            raise ValueError("--seed must fit in 64 bits")
        return _COMMANDS[args.command](args)
    except ValueError as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 1
    except DataFormatError as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
