"""Evaluation metrics and model-behavior reports.

Quantitative side: accuracy, a gold-by-predicted confusion matrix, and a
macro one-vs-rest ranking AUC computed from midranks (tie-aware, the
Mann-Whitney formulation). Qualitative side: per-layer knowledge/data
contribution magnitudes and the final-layer representation distances over
every post pair of a dataset, held as two float64 arrays (16 bytes a pair),
plus CSV/JSON writers so runs leave inspectable files behind. Every
reader runs its posts per length bucket, through training's driver.
"""

from __future__ import annotations

import csv
import json
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path

import numpy as np

from .corpus import Dataset, Post
from .errors import DataFormatError
from .knowledge import LAYER_ORDER, N_OUTCOMES
from .model import (
    CompiledPost,
    KsatModel,
    _bucket_passes,
    _finite_log_products,
    _log_normalized,
    _log_probs_array,
    _running_sum,
    compile_post,
    forward,
)
from .training import _compile_labeled


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
    """Ranks starting at 1; tied values share the mean of their positions.
    Every NaN is a value of its own, ranked after all numbers in input
    order."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    # a run of ties starts wherever a value differs from the one before it
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    counts = np.diff(starts, append=len(values))
    ranks = np.empty(len(values), dtype=np.float64)
    ranks[order] = np.repeat(starts + (counts + 1) / 2.0, counts)
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


def _run_posts(model: KsatModel, compiled: list[CompiledPost]):
    """Run compiled posts per length bucket. Returns, in post order, their
    ``(posts, layers, outcomes)`` log-probabilities, each layer's CLS and
    KCLS outputs ``(posts, layers, 2, d)`` and its penalty ``(posts,
    layers)``: the numbers `forward` gives each post, bit for bit."""
    log_probs = _log_probs_array(model, len(compiled))
    tokens = np.empty((len(compiled), len(model.layers), 2, model.dimension))
    kg_bias = np.empty((len(compiled), len(model.layers)))
    for rows, passes, _ in _bucket_passes(model, compiled, log_probs):
        tokens[rows] = np.stack([lp.y[:, :2] for lp in passes], axis=1)
        kg_bias[rows] = np.stack([lp.kg_bias for lp in passes], axis=1)
        del passes  # the next bucket runs without these
    return log_probs, tokens, kg_bias


def _pair_norms(reps: np.ndarray) -> np.ndarray:
    """``||reps[..., i, :] - reps[..., j, :]||`` for every row pair i < j, in
    lexicographic order, as `np.triu_indices` lists them.

    Row i's differences from its later partners go into one buffer made
    once per call, in `reps`' dtype (a float64 buffer would round
    long-double differences). Each norm is the square root of one dot
    product, as `np.linalg.norm` of one vector, bit for bit; ``axis=-1``
    norms sum the squares another way."""
    lead, n, d = reps.shape[:-2], reps.shape[-2], reps.shape[-1]
    diffs = np.empty(lead + (n - 1, d), dtype=reps.dtype)
    out = np.empty(lead + (n * (n - 1) // 2,))
    at = 0
    for i in range(n - 1):
        m = n - 1 - i  # row i's later partners
        row = np.subtract(reps[..., i : i + 1, :], reps[..., i + 1 :, :], out=diffs[..., :m, :])
        squares = np.matmul(row[..., None, :], row[..., :, None])[..., 0, 0]
        np.sqrt(squares, out=out[..., at : at + m])
        at += m
    return out


def score_posts(model: KsatModel, dataset: Dataset) -> tuple[list[int], list[int], np.ndarray]:
    """(gold indices, predicted indices, normalized score rows) per post.

    A post is predicted by the argmax of its log final product, as
    `predict` ranks it, and its score row is the exp of its log normalized
    product. So a post whose raw products all underflow to 0.0 is still
    ranked; one whose log products are not all finite raises
    `NumericalError` naming it.
    """
    if not dataset.posts:
        raise ValueError("dataset is empty")
    compiled = _compile_labeled(model, dataset.posts)
    # a NaN parameter makes NaN logits; `_finite_log_products` reports the
    # post instead of NumPy warning about them
    with np.errstate(invalid="ignore"):
        log_probs = _run_posts(model, compiled)[0]
        log_f = _finite_log_products(log_probs, [cp.post_id for cp in compiled])
    predicted = log_f.argmax(axis=1).tolist()  # ties to the earliest outcome
    return [cp.gold for cp in compiled], predicted, np.exp(_log_normalized(log_f))


def compute_metrics(model: KsatModel, dataset: Dataset) -> Metrics:
    gold, predicted, scores = score_posts(model, dataset)
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


def contribution_report(model: KsatModel, dataset: Dataset) -> list[LayerContribution]:
    """Average per-layer magnitudes of the two mixing routes and the bias."""
    if not dataset.posts:
        raise ValueError("dataset is empty")
    compiled = [compile_post(model, p) for p in dataset.posts]
    _, tokens, kg_bias = _run_posts(model, compiled)
    alpha = np.array([layer.alpha for layer in model.layers])[:, None]
    w_out = np.stack([layer.w_out for layer in model.layers])[:, None]  # (L, 1, d, outcomes)
    # each post's and layer's readout of its two tokens, (posts, L, 2,
    # outcomes): one vector-matrix product per token, as `w_out.T @ z`
    # makes for one
    logits = np.matmul(tokens[..., None, :], w_out)[..., 0, :]
    know = _running_sum(np.abs(alpha * logits[:, :, 1]))
    data = _running_sum(np.abs((1.0 - alpha) * logits[:, :, 0]))
    kg = _running_sum(kg_bias)
    n = len(dataset.posts)
    return [
        LayerContribution(
            layer=li,
            alpha=layer.alpha,
            knowledge_logit_mean=float(know[li].mean()) / n,
            data_logit_mean=float(data[li].mean()) / n,
            kg_bias_mean=float(kg[li]) / n,
        )
        for li, layer in enumerate(model.layers)
    ]


@dataclass
class DistanceReport:
    """Final-layer distances over every post pair i < j of a dataset, in
    corpus order: 16 bytes per pair, the two distance arrays."""

    post_ids: list[str]
    d_cls: np.ndarray  # distances between final-layer context-token outputs
    d_kcls: np.ndarray  # distances between final-layer knowledge-token outputs
    threshold: float

    @property
    def close(self) -> np.ndarray:
        return self.d_kcls < self.threshold

    @property
    def close_fraction(self) -> float:
        return int(np.count_nonzero(self.close)) / self.d_kcls.size

    def rows(self) -> Iterator[tuple[str, str, float, float, bool]]:
        """``(post_a, post_b, d_cls, d_kcls, close)`` for every pair, in
        order, made one first post's pairs at a time."""
        ids, at = self.post_ids, 0
        for i, post_a in enumerate(ids[:-1]):
            s = slice(at, at + len(ids) - 1 - i)
            at = s.stop
            d_kcls = self.d_kcls[s]
            yield from zip(
                repeat(post_a),
                ids[i + 1 :],
                self.d_cls[s].tolist(),
                d_kcls.tolist(),
                (d_kcls < self.threshold).tolist(),
            )


def final_layer_outputs(model: KsatModel, post: Post) -> tuple[np.ndarray, np.ndarray]:
    """(context token, knowledge token) outputs of the last layer.

    Copies, so a caller that keeps them holds two rows, not the post's
    whole token matrix.
    """
    _, passes = forward(model, post)
    return passes[-1].z_cls.copy(), passes[-1].z_kcls.copy()


def distance_report(
    model: KsatModel, dataset: Dataset, epsilon_report: float | None = None
) -> DistanceReport:
    """Final-layer distances over every unordered post pair of a dataset.

    The pairs are i < j in corpus order; each post runs once, by position.
    The closeness flag marks knowledge-token distances strictly below
    ``epsilon_report``; when that is None it defaults to the 25th
    percentile of the knowledge-token distances over all pairs.
    """
    if len(dataset.posts) < 2:
        raise ValueError("distance report needs at least two posts")
    compiled = [compile_post(model, p) for p in dataset.posts]
    tokens = _run_posts(model, compiled)[1][:, -1]  # the last layer's CLS and KCLS rows
    d_cls, d_kcls = _pair_norms(tokens.transpose(1, 0, 2))
    if epsilon_report is None:
        epsilon_report = float(np.percentile(d_kcls, 25.0))
    return DistanceReport([p.id for p in dataset.posts], d_cls, d_kcls, float(epsilon_report))


def within_class_kcls_distance(model: KsatModel, dataset: Dataset) -> float:
    """Mean knowledge-token distance over same-gold-outcome post pairs.

    The pairs are taken outcome by outcome, in the order the outcomes first
    occur, each outcome's posts in corpus order.
    """
    compiled = _compile_labeled(model, dataset.posts)
    gold = np.array([cp.gold for cp in compiled], dtype=np.intp)
    kcls = _run_posts(model, compiled)[1][:, -1, 1]
    groups = (np.flatnonzero(gold == g) for g in dict.fromkeys(gold.tolist()))
    # each outcome's pairs in lexicographic (i<j) order
    norms = (_pair_norms(kcls[m]) for m in groups)
    dists = np.concatenate([np.empty(0), *norms])
    if not dists.size:
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
        for post_a, post_b, d_cls, d_kcls, close in report.rows():
            writer.writerow([post_a, post_b, repr(d_cls), repr(d_kcls), int(close)])


def write_metrics_json(metrics: Metrics, path) -> None:
    Path(path).write_text(json.dumps(metrics.to_dict(), indent=2, sort_keys=True) + "\n")
