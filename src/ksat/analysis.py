"""Evaluation metrics and model-behavior reports.

Quantitative side: accuracy, a gold-by-predicted confusion matrix, and a
macro one-vs-rest ranking AUC computed from midranks (tie-aware, the
Mann-Whitney formulation). Qualitative side: per-layer knowledge/data
contribution magnitudes and pairwise final-layer representation distances,
plus CSV/JSON writers so runs leave inspectable files behind.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import Dataset, Post
from .errors import DataFormatError
from .knowledge import LAYER_ORDER, N_OUTCOMES, Outcome
from .model import KsatModel, forward, normalize_probs


@dataclass
class Metrics:
    accuracy: float
    auc: float
    confusion: np.ndarray  # rows gold, columns predicted
    n_posts: int

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "auc": self.auc,
            "confusion": self.confusion.astype(int).tolist(),
            "outcome_order": [o.value for o in LAYER_ORDER],
            "n_posts": self.n_posts,
        }


def accuracy_score(gold: list[int], predicted: list[int]) -> float:
    if len(gold) != len(predicted):
        raise ValueError("gold and predicted must have equal length")
    if not gold:
        raise ValueError("accuracy needs at least one example")
    hits = sum(1 for g, p in zip(gold, predicted) if g == p)
    return hits / len(gold)


def confusion_matrix(gold: list[int], predicted: list[int]) -> np.ndarray:
    """Counts with gold outcome as row index and predicted as column."""
    if len(gold) != len(predicted):
        raise ValueError("gold and predicted must have equal length")
    out = np.zeros((N_OUTCOMES, N_OUTCOMES), dtype=np.int64)
    for g, p in zip(gold, predicted):
        if not (0 <= g < N_OUTCOMES and 0 <= p < N_OUTCOMES):
            raise ValueError("outcome index out of range")
        out[g, p] += 1
    return out


def _midranks(values: np.ndarray) -> np.ndarray:
    """Ranks starting at 1; tied values share the mean of their positions."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=np.float64)
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def binary_auc(scores: np.ndarray, positives: np.ndarray) -> float:
    """Probability a random positive outranks a random negative (ties half)."""
    scores = np.asarray(scores, dtype=np.float64)
    positives = np.asarray(positives, dtype=bool)
    n_pos = int(positives.sum())
    n_neg = len(positives) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("binary AUC needs at least one positive and one negative")
    ranks = _midranks(scores)
    rank_sum = float(ranks[positives].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def auc_roc(gold: list[int], scores: np.ndarray) -> float:
    """Macro one-vs-rest AUC; classes absent from the gold labels are skipped."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2 or scores.shape[1] != N_OUTCOMES:
        raise ValueError(f"scores must be (n, {N_OUTCOMES})")
    if scores.shape[0] != len(gold):
        raise ValueError("gold and scores must have equal length")
    gold_arr = np.asarray(gold)
    per_class = []
    for c in range(N_OUTCOMES):
        mask = gold_arr == c
        n_pos = int(mask.sum())
        if n_pos == 0 or n_pos == len(gold):
            continue
        per_class.append(binary_auc(scores[:, c], mask))
    if not per_class:
        raise DataFormatError("ranking AUC is undefined when all gold labels agree")
    return float(np.mean(per_class))


def score_posts(
    model: KsatModel, dataset: Dataset, embeddings_table=None
) -> tuple[list[int], list[int], np.ndarray]:
    """(gold indices, predicted indices, normalized score rows) per post."""
    if not dataset.posts:
        raise ValueError("dataset is empty")
    gold: list[int] = []
    predicted: list[int] = []
    rows = []
    for post in dataset.posts:
        if post.gold is None:
            raise DataFormatError(f"post {post.id!r} has no gold outcome")
        final, _ = forward(model, post, embeddings_table=embeddings_table)
        probs = normalize_probs(final)
        gold.append(LAYER_ORDER.index(post.gold))
        predicted.append(int(np.argmax(probs)))
        rows.append(probs)
    return gold, predicted, np.vstack(rows)


def compute_metrics(model: KsatModel, dataset: Dataset, embeddings_table=None) -> Metrics:
    gold, predicted, scores = score_posts(model, dataset, embeddings_table)
    return Metrics(
        accuracy=accuracy_score(gold, predicted),
        auc=auc_roc(gold, scores),
        confusion=confusion_matrix(gold, predicted),
        n_posts=len(gold),
    )


@dataclass
class LayerContribution:
    layer: int
    alpha: float
    knowledge_logit_mean: float  # mean |alpha * readout of the knowledge token|
    data_logit_mean: float  # mean |(1-alpha) * readout of the context token|
    kg_bias_mean: float


def contribution_report(
    model: KsatModel, dataset: Dataset, embeddings_table=None
) -> list[LayerContribution]:
    """Average per-layer magnitudes of the two mixing routes and the bias."""
    if not dataset.posts:
        raise ValueError("dataset is empty")
    n_layers = len(model.layers)
    know = np.zeros((n_layers, N_OUTCOMES))
    data = np.zeros((n_layers, N_OUTCOMES))
    kg = np.zeros(n_layers)
    for post in dataset.posts:
        _, passes = forward(model, post, embeddings_table=embeddings_table)
        for li, lp in enumerate(passes):
            layer = model.layers[li]
            know[li] += np.abs(lp.alpha * (layer.w_out.T @ lp.z_kcls))
            data[li] += np.abs((1.0 - lp.alpha) * (layer.w_out.T @ lp.z_cls))
            kg[li] += lp.kg_bias
    n = len(dataset.posts)
    return [
        LayerContribution(
            layer=li,
            alpha=model.layers[li].alpha,
            knowledge_logit_mean=float(know[li].mean()) / n,
            data_logit_mean=float(data[li].mean()) / n,
            kg_bias_mean=float(kg[li]) / n,
        )
        for li in range(n_layers)
    ]


@dataclass
class PairDistance:
    post_a: str
    post_b: str
    d_cls: float  # distance between final-layer context-token outputs
    d_kcls: float  # distance between final-layer knowledge-token outputs
    close: bool


@dataclass
class DistanceReport:
    pairs: list[PairDistance]
    threshold: float

    @property
    def close_fraction(self) -> float:
        if not self.pairs:
            return 0.0
        return sum(1 for p in self.pairs if p.close) / len(self.pairs)


def final_layer_outputs(
    model: KsatModel, post: Post, embeddings_table=None
) -> tuple[np.ndarray, np.ndarray]:
    """(context token, knowledge token) outputs of the last layer.

    Copies, so a caller that keeps them holds two rows, not the post's
    whole token matrix.
    """
    _, passes = forward(model, post, embeddings_table=embeddings_table)
    return passes[-1].z_cls.copy(), passes[-1].z_kcls.copy()


def distance_report(
    model: KsatModel,
    post_pairs: list[tuple[Post, Post]],
    epsilon_report: float | None = None,
    embeddings_table=None,
) -> DistanceReport:
    """Final-layer distances for the given post pairs.

    The closeness flag marks knowledge-token distances strictly below
    ``epsilon_report``; when that is None it defaults to the 25th percentile
    of the knowledge-token distances over the evaluated pairs.
    """
    if not post_pairs:
        raise ValueError("distance report needs at least one post pair")
    cache: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def outputs(post: Post) -> tuple[np.ndarray, np.ndarray]:
        if post.id not in cache:
            cache[post.id] = final_layer_outputs(model, post, embeddings_table)
        return cache[post.id]

    raw = []
    for post_a, post_b in post_pairs:
        cls_a, kcls_a = outputs(post_a)
        cls_b, kcls_b = outputs(post_b)
        raw.append(
            (
                post_a.id,
                post_b.id,
                float(np.linalg.norm(cls_a - cls_b)),
                float(np.linalg.norm(kcls_a - kcls_b)),
            )
        )
    if epsilon_report is None:
        epsilon_report = float(np.percentile([r[3] for r in raw], 25.0))
    pairs = [
        PairDistance(post_a=a, post_b=b, d_cls=dc, d_kcls=dk, close=dk < epsilon_report)
        for a, b, dc, dk in raw
    ]
    return DistanceReport(pairs=pairs, threshold=float(epsilon_report))


def all_pairs(dataset: Dataset) -> list[tuple[Post, Post]]:
    """Every unordered post pair of a dataset, in corpus order."""
    if len(dataset.posts) < 2:
        raise ValueError("pairing needs at least two posts")
    posts = dataset.posts
    return [
        (posts[i], posts[j])
        for i in range(len(posts))
        for j in range(i + 1, len(posts))
    ]


def within_class_kcls_distance(
    model: KsatModel, dataset: Dataset, embeddings_table=None
) -> float:
    """Mean knowledge-token distance over same-gold-outcome post pairs."""
    by_outcome: dict[Outcome, list[np.ndarray]] = {}
    for post in dataset.posts:
        if post.gold is None:
            raise DataFormatError(f"post {post.id!r} has no gold outcome")
        _, kcls = final_layer_outputs(model, post, embeddings_table)
        by_outcome.setdefault(post.gold, []).append(kcls)
    dists = []
    for reps in by_outcome.values():
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                dists.append(float(np.linalg.norm(reps[i] - reps[j])))
    if not dists:
        raise ValueError("no same-outcome pair exists in this dataset")
    return float(np.mean(dists))


def write_contributions_csv(rows: list[LayerContribution], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["layer", "alpha", "knowledge_logit_mean", "data_logit_mean", "kg_bias_mean"]
        )
        for row in rows:
            writer.writerow(
                [
                    row.layer,
                    repr(row.alpha),
                    repr(row.knowledge_logit_mean),
                    repr(row.data_logit_mean),
                    repr(row.kg_bias_mean),
                ]
            )


def write_distances_csv(report: DistanceReport, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["post_a", "post_b", "d_zcls", "d_zkcls", "close_flag"])
        for pair in report.pairs:
            writer.writerow(
                [
                    pair.post_a,
                    pair.post_b,
                    repr(pair.d_cls),
                    repr(pair.d_kcls),
                    int(pair.close),
                ]
            )


def write_metrics_json(metrics: Metrics, path) -> None:
    Path(path).write_text(json.dumps(metrics.to_dict(), indent=2, sort_keys=True) + "\n")
