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

import numpy as np

from .corpus import Dataset, Post
from .embeddings import EmbeddingConfig, _cosine, _embedder, cosine_similarity, embed_text
from .errors import DataFormatError, number, whole
from .knowledge import Concept, KnowledgeTree, Outcome, outcome_for_assignment

FRAG_SIZES = (1, 2, 3)
DELTA = 1e-9


@dataclass(frozen=True)
class AnnotationParams:
    """Per-concept cosine thresholds (stored as floats) plus the fragment window size."""

    thetas: tuple[float, ...]
    frag_size: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "thetas", tuple(number(t, "theta") for t in self.thetas))
        if not self.thetas:
            raise ValueError("thetas must be nonempty")
        for t in self.thetas:
            if not -1.0 <= t <= 1.0:
                raise ValueError(f"thetas must lie in [-1, 1], got {t}")
        if whole(self.frag_size, "frag_size") not in FRAG_SIZES:
            raise ValueError(f"frag_size must be one of {FRAG_SIZES}, got {self.frag_size}")


def default_params() -> AnnotationParams:
    """The shipped defaults: thetas (0.3, 0.5, 0.3), single-sentence fragments."""
    return AnnotationParams(thetas=(0.3, 0.5, 0.3), frag_size=1)


def concept_present(
    fragment_text: str, concept: Concept, theta: float, config: EmbeddingConfig
) -> bool:
    """True when cosine(embed(fragment), embed(query_text)) >= theta."""
    fragment = embed_text(fragment_text, config)
    return cosine_similarity(fragment, embed_text(concept.query_text, config)) >= theta


def _cosine_rows(tree: KnowledgeTree, config: EmbeddingConfig):
    """``rows(sentences, frag_size)``: ``(n_fragments, K)`` cosines to the query texts.

    The texts go through one ``_embedder``, so each distinct token is hashed
    once per call. The query texts are embedded, and their norms taken, once;
    each fragment's norm is taken once for its K cosines. Rows are memoized while
    the caller holds ``rows``: a sentence's under the corpus's own string, a longer
    fragment's under the tuple of corpus strings in its window, so the memo keeps
    no new text. A window can recur only if each of its sentences does, so a
    window's row is kept only once every sentence in it has been met more than
    once; on text whose sentences are unique the memo holds sentence rows alone.
    """
    embed = _embedder(config)
    vectors = [embed(c.query_text) for c in tree.concepts]
    queries = [(q, float(np.linalg.norm(q))) for q in vectors]
    memo: dict[str | tuple[str, ...], list[float]] = {}
    repeated: set[str] = set()  # sentences met more than once

    def cosines(text: str) -> list[float]:
        vec = embed(text)
        norm = float(np.linalg.norm(vec))
        return [_cosine(vec, norm, q, qn) for q, qn in queries]

    def window_row(window: tuple[str, ...]) -> list[float]:
        row = memo.get(window)
        if row is None:
            row = cosines(" ".join(window))
            if repeated.issuperset(window):
                memo[window] = row
        return row

    def rows(sentences: list[str], frag_size: int) -> np.ndarray:
        if frag_size > 1 and len(sentences) > 1:
            return np.array([window_row(w) for w in _windows(sentences, frag_size)])
        for s in sentences:
            if s in memo:
                repeated.add(s)
            else:
                memo[s] = cosines(s)
        return np.array([memo[s] for s in sentences])

    return rows


def _windows(sentences: list[str], frag_size: int) -> list[tuple[str, ...]]:
    """Stride-1 windows of `frag_size` sentences, as tuples of the sentences.

    A post with fewer sentences than the window is one whole-post window.
    """
    if frag_size not in FRAG_SIZES:
        raise ValueError(f"frag_size must be one of {FRAG_SIZES}, got {frag_size}")
    if len(sentences) <= frag_size:
        return [tuple(sentences)]
    return [
        tuple(sentences[i : i + frag_size])
        for i in range(len(sentences) - frag_size + 1)
    ]


def fragments(sentences: list[str], frag_size: int) -> list[str]:
    """Stride-1 windows of `frag_size` sentences, joined by single spaces.

    A post with fewer sentences than the window is one whole-post fragment.
    """
    return [" ".join(w) for w in _windows(sentences, frag_size)]


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
    fragment size; ``post_presence`` tests each concept's largest fragment
    cosine, which is the OR of the fragment-level tests.
    """
    return _annotate(post, tree, params, _cosine_rows(tree, config))


def _annotate(
    post: Post, tree: KnowledgeTree, params: AnnotationParams, rows
) -> AnnotatedPost:
    """``annotate_post`` with the cosines read through the caller's ``rows``."""
    k = tree.num_concepts
    if len(params.thetas) != k:
        raise ValueError(f"expected {k} thetas for this taxonomy, got {len(params.thetas)}")
    cosines = rows(post.sentences, 1)
    thetas = np.array(params.thetas)
    sentence_presence = [tuple(bits) for bits in (cosines >= thetas).astype(int).tolist()]
    if params.frag_size > 1:
        cosines = rows(post.sentences, params.frag_size)
    max_cos = cosines.max(axis=0)
    post_presence = tuple(int(m >= t) for m, t in zip(max_cos.tolist(), params.thetas))
    predicted = outcome_for_assignment(tree, post_presence)
    return AnnotatedPost(post.id, sentence_presence, post_presence, predicted)


def apply_annotations(
    dataset: Dataset,
    tree: KnowledgeTree,
    params: AnnotationParams,
    config: EmbeddingConfig,
) -> Dataset:
    """Annotate every post, returning a new dataset carrying the results.

    Presence lands in the ``sentence_presence`` field; post-level bits and the
    predicted outcome ride along as extra JSONL keys.
    """
    rows = _cosine_rows(tree, config)

    def one(post: Post) -> Post:
        ann = _annotate(post, tree, params, rows)
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
    rows = _cosine_rows(tree, config)
    total = 0.0
    for post in dataset.posts:
        predicted = _annotate(post, tree, params, rows).predicted
        total += match_log_likelihood(predicted == post.gold, freqs[predicted])
    return total


@dataclass(frozen=True)
class GridSearchResult:
    params: AnnotationParams
    log_likelihood: float
    n_candidates: int


def _lattice_steps(theta_step: float) -> int:
    """How many steps of `theta_step` lead from -1 to 1; the step must be
    finite, positive and divide 2 into whole steps."""
    if not (math.isfinite(theta_step) and theta_step > 0):
        raise ValueError(f"theta_step must be finite and positive, got {theta_step}")
    count = int(round(2.0 / theta_step))
    if abs(count * theta_step - 2.0) > 1e-9:
        raise ValueError(f"theta_step {theta_step} does not divide [-1, 1] evenly")
    return count


def theta_lattice(theta_step: float) -> list[float]:
    """Values -1, -1+step, ..., 1; the step must divide 2 into whole steps."""
    return [round(-1.0 + i * theta_step, 12) for i in range(_lattice_steps(theta_step) + 1)]


def grid_search(
    dataset: Dataset,
    tree: KnowledgeTree,
    config: EmbeddingConfig,
    theta_step: float = 0.1,
) -> GridSearchResult:
    """Exhaustive lattice search maximizing the Bernoulli log-likelihood.

    The whole lattice is scored post by post: each post's per-concept
    maximum fragment cosines, compared against the lattice, give every
    candidate's presence assignment as a K-bit code (concept 0 the most
    significant bit), and a ``(outcome, code)`` table of match terms adds
    that post's term to every candidate at once. Each candidate's total is
    the same sum, in the same post order, as ``bernoulli_log_likelihood``.
    Scores are laid out in lexicographic (thetas, frag_size) order and the
    first maximum wins, so ties resolve to the lexicographically smallest
    parameters.

    The scores, the codes and the picked terms are three candidate-sized
    arrays made once per call, before anything else is built, so a step too
    fine for them to fit in memory is refused at once.
    """
    if len(dataset) == 0:
        raise ValueError("grid search needs a nonempty dataset")
    freqs = outcome_frequencies(dataset)
    k = tree.num_concepts
    n_frag = len(FRAG_SIZES)
    grid_shape = (_lattice_steps(theta_step) + 1,) * k + (n_frag,)
    try:
        scores = np.zeros(grid_shape)
        codes = np.empty(grid_shape, dtype=np.intp)
        picked = np.empty(grid_shape)
    except (MemoryError, ValueError) as exc:
        raise ValueError(
            f"theta_step {theta_step} gives {math.prod(grid_shape):.3g} candidates, "
            "too many to allocate"
        ) from exc
    values = theta_lattice(theta_step)
    lattice = np.array(values)
    code_outcomes = [
        tree.outcome_map[presence] for presence in itertools.product((0, 1), repeat=k)
    ]
    terms = {
        gold: np.array([match_log_likelihood(o == gold, freqs[o]) for o in code_outcomes])
        for gold in Outcome
    }

    v = len(values)
    rows = _cosine_rows(tree, config)
    for post in dataset.posts:
        max_cos = np.array([rows(post.sentences, f).max(axis=0) for f in FRAG_SIZES])
        codes.fill(0)
        for i in range(k):
            shape = (1,) * i + (v,) + (1,) * (k - 1 - i) + (n_frag,)
            codes += (max_cos[:, i] >= lattice[:, None]).reshape(shape) * (1 << (k - 1 - i))
        # "clip" writes straight into `out`; the codes are all in range
        scores += np.take(terms[post.gold], codes, out=picked, mode="clip")

    best = np.unravel_index(np.argmax(scores), scores.shape)
    return GridSearchResult(
        params=AnnotationParams(
            thetas=tuple(values[j] for j in best[:k]), frag_size=FRAG_SIZES[best[k]]
        ),
        log_likelihood=float(scores[best]),
        n_candidates=scores.size,
    )
