#!/usr/bin/env python3
"""Compare training with the graph-context penalty enabled versus disabled.

On the synthetic corpus the penalty-enabled run is numerically unstable:
sentence pairs whose restricted concept flags are identical are weighted by
the reciprocal of the pair epsilon (default 1e-6). As training grows layer
0's value projection, that layer's most negative penalty drifts steadily
(on the C6 protocol: -75 after 5 epochs, -672 after 45), because the loss
is blind to a logit shift shared by all outcomes. At epoch 46 a post's
layer-0 maximum log-probability reaches -694.39, every final product
probability underflows, and the product guard stops the run. This script
runs both modes under identical settings and reports what happened to each.

Usage:
    python3 scripts/ablation_compare.py [--n-posts N] [--seed S] [--dim D]
                                        [--epochs E] [--lr LR]
"""

from __future__ import annotations

import argparse
import sys

from ksat.analysis import compute_metrics, within_class_kcls_distance
from ksat.corpus import default_synthetic_spec, generate_synthetic, split
from ksat.embeddings import EmbeddingConfig
from ksat.errors import NumericalError
from ksat.knowledge import default_tree
from ksat.model import KsatModel
from ksat.training import TrainConfig, train


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-posts", type=int, default=300)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--dim", type=int, default=64)
    parser.add_argument("--epochs", type=int, default=200)
    parser.add_argument("--lr", type=float, default=0.05)
    args = parser.parse_args()

    tree = default_tree()
    config = EmbeddingConfig(dimension=args.dim, seed=args.seed)
    dataset = generate_synthetic(
        default_synthetic_spec(args.n_posts, args.seed, tree), tree
    )
    train_ds, test_ds = split(dataset, 0.8, args.seed)
    sizes = f"{len(train_ds.posts)} train / {len(test_ds.posts)} test"
    if max(test_ds.outcome_counts.values(), default=0) < 2:
        # the within-class distance averages over same-outcome held-out pairs
        print(
            f"error: {args.n_posts} posts split {sizes}, and no two held-out "
            "posts share an outcome; the within-class distance needs such a "
            "pair, so use more posts",
            file=sys.stderr,
        )
        return 2
    print(f"corpus: {args.n_posts} posts (seed {args.seed}), {sizes}")

    outcomes = {}
    for label, enabled in (("penalty ON", True), ("penalty OFF", False)):
        print(f"\n=== {label} ===")
        model = KsatModel.initialize(tree, config, seed=args.seed)
        tc = TrainConfig(
            epochs=args.epochs,
            learning_rate=args.lr,
            kg_bias_enabled=enabled,
        )
        try:
            result = train(model, train_ds, tc)
        except NumericalError as exc:
            print(f"training aborted: {exc}")
            outcomes[label] = None
            continue
        metrics = compute_metrics(result.model, test_ds)
        tightness = within_class_kcls_distance(result.model, test_ds)
        print(
            f"loss {result.initial_loss:.4f} -> {result.final_loss:.4f} | "
            f"test accuracy {metrics.accuracy:.3f} | macro AUC {metrics.auc:.3f}"
        )
        print(f"mean within-class knowledge-token distance: {tightness:.4f}")
        outcomes[label] = (metrics, tightness)

    print("\n=== summary ===")
    on, off = outcomes.get("penalty ON"), outcomes.get("penalty OFF")
    if on is None and off is not None:
        print(
            "the penalty-enabled run collapsed before finishing, while the "
            "ablated run trained cleanly; only the ablated metrics are "
            "available for comparison"
        )
    elif on is not None and off is not None:
        print(
            "within-class distance ratio (on/off): "
            f"{on[1] / off[1]:.4f} (below 1.0 means the penalty tightened "
            "same-outcome representations)"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
