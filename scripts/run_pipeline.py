#!/usr/bin/env python3
"""End-to-end demo: synthesize a corpus, annotate it, train, evaluate, report.

Runs the data-driven training mode (the graph-context penalty disabled),
which converges reliably on the synthetic corpus; see ablation_compare.py
for what happens when the penalty is enabled.

Usage:
    python3 scripts/run_pipeline.py [--out-dir DIR] [--n-posts N] [--seed S]
                                    [--dim D] [--epochs E] [--lr LR]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ksat.analysis import (
    compute_metrics,
    contribution_report,
    distance_report,
    write_contributions_csv,
    write_distances_csv,
    write_metrics_json,
)
from ksat.annotation import AnnotationParams, apply_annotations
from ksat.corpus import default_synthetic_spec, generate_synthetic, save_jsonl, split
from ksat.embeddings import EmbeddingConfig
from ksat.knowledge import default_tree
from ksat.model import KsatModel, save_model
from ksat.training import TrainConfig, train


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default="pipeline_out")
    parser.add_argument("--n-posts", type=int, default=200)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--dim", type=int, default=64)
    parser.add_argument("--epochs", type=int, default=150)
    parser.add_argument("--lr", type=float, default=0.05)
    args = parser.parse_args()

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tree = default_tree()
    config = EmbeddingConfig(dimension=args.dim, seed=args.seed)

    print(f"[1/5] generating {args.n_posts} labeled posts (seed {args.seed})")
    dataset = generate_synthetic(
        default_synthetic_spec(args.n_posts, args.seed, tree), tree
    )
    save_jsonl(dataset, out / "corpus.jsonl")

    print("[2/5] annotating concept presence (thetas 0.2, fragment window 1)")
    params = AnnotationParams(thetas=(0.2, 0.2, 0.2), frag_size=1)
    annotated = apply_annotations(dataset, tree, params, config)
    save_jsonl(annotated, out / "annotated.jsonl")

    train_ds, test_ds = split(annotated, 0.8, args.seed)
    print(
        f"[3/5] training {args.epochs} epochs on {len(train_ds.posts)} posts "
        f"(dim {args.dim}, lr {args.lr}, penalty disabled)"
    )
    model = KsatModel.initialize(tree, config, seed=args.seed)
    result = train(
        model,
        train_ds,
        TrainConfig(
            epochs=args.epochs,
            learning_rate=args.lr,
            kg_bias_enabled=False,
        ),
    )
    save_model(result.model, out / "model.json")
    (out / "trace.json").write_text(
        json.dumps({"losses": result.losses, "alphas": result.alphas}, indent=2) + "\n"
    )
    print(f"      loss {result.initial_loss:.4f} -> {result.final_loss:.4f}")

    print(f"[4/5] evaluating on {len(test_ds.posts)} held-out posts")
    metrics = compute_metrics(result.model, test_ds)
    write_metrics_json(metrics, out / "metrics.json")
    print(f"      accuracy {metrics.accuracy:.3f}  macro AUC {metrics.auc:.3f}")

    print("[5/5] writing contribution and distance reports")
    write_contributions_csv(
        contribution_report(result.model, test_ds), out / "contributions.csv"
    )
    distances = distance_report(result.model, test_ds)
    write_distances_csv(distances, out / "distances.csv")
    print(
        f"      {distances.d_kcls.size} pairs, close fraction "
        f"{distances.close_fraction:.3f} (threshold {distances.threshold:.4g})"
    )
    print(f"done: artifacts in {out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
