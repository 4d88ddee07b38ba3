"""Threshold annotation: concept presence, post labels, and threshold search.

A concept is present in a text fragment when the cosine similarity between
the fragment's embedding and the concept's query-text embedding reaches that
concept's threshold. Post-level presence ORs the test over all stride-1
windows of ``frag_size`` consecutive sentences; the resulting assignment maps
to a predicted outcome through the knowledge tree. A grid search scores every
threshold/fragment-size combination with a Bernoulli log-likelihood over
match indicators and returns the lexicographically smallest maximizer.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

from .corpus import Dataset, Post
from .embeddings import EmbeddingConfig, cosine_similarity, embed_text
from .errors import DataFormatError
from .knowledge import Concept, KnowledgeTree, Outcome, outcome_for_assignment

FRAG_SIZES = (1, 2, 3)
DELTA = 1e-9


@dataclass(frozen=True)
class AnnotationParams:
    """Per-concept cosine thresholds plus the fragment window size."""

    thetas: tuple[float, ...]
    frag_size: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "thetas", tuple(float(t) for t in self.thetas))
        if not self.thetas:
            raise ValueError("thetas must be nonempty")
        for t in self.thetas:
            if not -1.0 <= t <= 1.0:
                raise ValueError(f"thetas must lie in [-1, 1], got {t}")
        if self.frag_size not in FRAG_SIZES:
            raise ValueError(f"frag_size must be one of {FRAG_SIZES}, got {self.frag_size}")


def default_params() -> AnnotationParams:
    """The shipped defaults: thetas (0.3, 0.5, 0.3), single-sentence fragments."""
    return AnnotationParams(thetas=(0.3, 0.5, 0.3), frag_size=1)


@lru_cache(maxsize=65536)
def _cached_embedding(text: str, config: EmbeddingConfig):
    vec = embed_text(text, config)
    vec.setflags(write=False)
    return vec


def concept_present(
    fragment_text: str, concept: Concept, theta: float, config: EmbeddingConfig
) -> bool:
    """True when cosine(embed(fragment), embed(query_text)) >= theta."""
    sim = cosine_similarity(
        _cached_embedding(fragment_text, config),
        _cached_embedding(concept.query_text, config),
    )
    return sim >= theta


def fragments(sentences: list[str], frag_size: int) -> list[str]:
    """Stride-1 windows of `frag_size` sentences, joined by single spaces.

    A post with fewer sentences than the window is one whole-post fragment.
    """
    if frag_size not in FRAG_SIZES:
        raise ValueError(f"frag_size must be one of {FRAG_SIZES}, got {frag_size}")
    if len(sentences) <= frag_size:
        return [" ".join(sentences)]
    return [
        " ".join(sentences[i : i + frag_size])
        for i in range(len(sentences) - frag_size + 1)
    ]


@dataclass
class AnnotatedPost:
    post_id: str
    sentence_presence: list[tuple[int, ...]]
    post_presence: tuple[int, ...]
    predicted: Outcome


def annotate_post(
    post: Post, tree: KnowledgeTree, params: AnnotationParams, config: EmbeddingConfig
) -> AnnotatedPost:
    """Annotate one post: per-sentence bits, fragment-OR post bits, prediction.

    ``sentence_presence`` always uses single-sentence tests regardless of the
    fragment size; ``post_presence`` ORs the fragment-level test.
    """
    k = tree.num_concepts
    if len(params.thetas) != k:
        raise ValueError(f"expected {k} thetas for this taxonomy, got {len(params.thetas)}")
    frags = fragments(post.sentences, params.frag_size)
    sentence_presence = [
        tuple(
            1 if concept_present(sentence, c, params.thetas[c.id], config) else 0
            for c in tree.concepts
        )
        for sentence in post.sentences
    ]
    post_presence = tuple(
        1 if any(concept_present(f, c, params.thetas[c.id], config) for f in frags) else 0
        for c in tree.concepts
    )
    predicted = outcome_for_assignment(tree, post_presence)
    return AnnotatedPost(
        post_id=post.id,
        sentence_presence=sentence_presence,
        post_presence=post_presence,
        predicted=predicted,
    )


def apply_annotations(
    dataset: Dataset,
    tree: KnowledgeTree,
    params: AnnotationParams,
    config: EmbeddingConfig,
    threads: int = 1,
) -> Dataset:
    """Annotate every post, returning a new dataset carrying the results.

    Presence lands in the ``sentence_presence`` field; post-level bits and the
    predicted outcome ride along as extra JSONL keys. ``threads`` is accepted
    and ignored: the work is pure Python, which the interpreter lock
    serializes, so worker threads only added overhead.
    """
    def one(post: Post) -> Post:
        ann = annotate_post(post, tree, params, config)
        extras = dict(post.extras)
        extras["post_presence"] = list(ann.post_presence)
        extras["predicted"] = ann.predicted.value
        return Post(
            id=post.id,
            sentences=list(post.sentences),
            gold=post.gold,
            sentence_presence=ann.sentence_presence,
            extras=extras,
        )

    return Dataset(posts=[one(p) for p in dataset.posts])


def outcome_frequencies(dataset: Dataset) -> dict[Outcome, float]:
    """Raw empirical frequency of each gold outcome (0.0 when absent)."""
    golds = [p.gold for p in dataset.posts]
    if any(g is None for g in golds):
        raise DataFormatError("outcome frequencies need gold labels on every post")
    n = len(golds)
    if n == 0:
        raise ValueError("dataset is empty")
    counts = dataset.outcome_counts
    return {o: counts.get(o, 0) / n for o in Outcome}


def match_log_likelihood(match: bool, p: float) -> float:
    """One post's Bernoulli term: log(p+delta) on a match, log(1-p+delta) otherwise."""
    return math.log(p + DELTA) if match else math.log(1.0 - p + DELTA)


def bernoulli_log_likelihood(
    dataset: Dataset,
    tree: KnowledgeTree,
    params: AnnotationParams,
    config: EmbeddingConfig,
) -> float:
    """Sum of per-post match terms under the empirical outcome frequencies.

    Each term treats "predicted equals gold" as a Bernoulli draw whose success
    probability is the dataset frequency of the *predicted* outcome.
    """
    freqs = outcome_frequencies(dataset)
    total = 0.0
    for post in dataset.posts:
        predicted = annotate_post(post, tree, params, config).predicted
        total += match_log_likelihood(predicted == post.gold, freqs[predicted])
    return total


@dataclass(frozen=True)
class GridSearchResult:
    params: AnnotationParams
    log_likelihood: float
    n_candidates: int


def theta_lattice(theta_step: float) -> list[float]:
    """Values -1, -1+step, ..., 1; the step must divide 2 into whole steps."""
    if theta_step <= 0:
        raise ValueError("theta_step must be positive")
    count = int(round(2.0 / theta_step))
    if abs(count * theta_step - 2.0) > 1e-9:
        raise ValueError(f"theta_step {theta_step} does not divide [-1, 1] evenly")
    return [round(-1.0 + i * theta_step, 12) for i in range(count + 1)]


def grid_search(
    dataset: Dataset,
    tree: KnowledgeTree,
    config: EmbeddingConfig,
    theta_step: float = 0.1,
    threads: int = 1,
) -> GridSearchResult:
    """Exhaustive lattice search maximizing the Bernoulli log-likelihood.

    Candidates enumerate in lexicographic (thetas, frag_size) order and only a
    strictly better score displaces the incumbent, so ties resolve to the
    lexicographically smallest parameters. Scores are computed from
    precomputed per-post maximum fragment cosines, which agrees exactly with
    ``bernoulli_log_likelihood`` because OR-over-fragments of ``cos >= theta``
    equals ``max cos >= theta``. ``threads`` is accepted and ignored, as in
    ``apply_annotations``.
    """
    if len(dataset) == 0:
        raise ValueError("grid search needs a nonempty dataset")
    freqs = outcome_frequencies(dataset)
    values = theta_lattice(theta_step)
    k = tree.num_concepts

    # max_cos[post][frag_size][concept] = max over fragments of cosine to query
    max_cos: list[dict[int, list[float]]] = []
    for post in dataset.posts:
        per_frag: dict[int, list[float]] = {}
        for frag_size in FRAG_SIZES:
            frags = fragments(post.sentences, frag_size)
            per_frag[frag_size] = [
                max(
                    cosine_similarity(
                        _cached_embedding(f, config),
                        _cached_embedding(c.query_text, config),
                    )
                    for f in frags
                )
                for c in tree.concepts
            ]
        max_cos.append(per_frag)
    golds = [p.gold for p in dataset.posts]

    def score(candidate: tuple[tuple[float, ...], int]) -> float:
        thetas, frag_size = candidate
        total = 0.0
        for cos_table, gold in zip(max_cos, golds):
            row = cos_table[frag_size]
            presence = tuple(1 if row[i] >= thetas[i] else 0 for i in range(k))
            predicted = tree.outcome_map[presence]
            total += match_log_likelihood(predicted == gold, freqs[predicted])
        return total

    candidates = [
        (thetas, frag_size)
        for thetas in itertools.product(values, repeat=k)
        for frag_size in FRAG_SIZES
    ]
    scores = [score(c) for c in candidates]
    best_idx = 0
    for idx in range(1, len(candidates)):
        if scores[idx] > scores[best_idx]:
            best_idx = idx
    thetas, frag_size = candidates[best_idx]
    return GridSearchResult(
        params=AnnotationParams(thetas=thetas, frag_size=frag_size),
        log_likelihood=scores[best_idx],
        n_candidates=len(candidates),
    )
