"""Post corpora: JSONL persistence, stratified splits, synthetic generation.

A post is an id plus one or more sentences, optionally a gold outcome and
per-sentence concept-presence vectors. Unknown JSONL keys are preserved
verbatim so round-tripping a file through load/save keeps its content.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import DataFormatError, text_lines
from .knowledge import (
    LAYER_ORDER,
    KnowledgeTree,
    Outcome,
    _check_bits,
    canonical_hash,
    default_tree,
    outcome_for_assignment,
    outcome_from_name,
)

_KNOWN_KEYS = ("id", "sentences", "gold", "sentence_presence")


@dataclass
class Post:
    id: str
    sentences: list[str]
    gold: Outcome | None = None
    sentence_presence: list[tuple[int, ...]] | None = None
    extras: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        """The one check of a post's fields; presence rows go through `_check_bits`."""
        if not (isinstance(self.id, str) and self.id):
            raise DataFormatError(f"post id must be a nonempty string, got {self.id!r}")
        sentences = self.sentences
        if not (isinstance(sentences, list) and all(isinstance(s, str) for s in sentences)):
            raise DataFormatError(f"post {self.id!r}: sentences must be a list of strings")
        if not sentences:
            raise DataFormatError(f"post {self.id!r} must have at least one sentence")
        if not (self.gold is None or isinstance(self.gold, Outcome)):
            raise DataFormatError(f"post {self.id!r}: gold must be an Outcome, got {self.gold!r}")
        # saved beside the known keys, so a known key would overwrite its field
        if not (
            isinstance(self.extras, dict)
            and all(isinstance(k, str) and k not in _KNOWN_KEYS for k in self.extras)
        ):
            raise DataFormatError(
                f"post {self.id!r}: extras must be a dict of str keys other than "
                + ", ".join(_KNOWN_KEYS)
            )
        if self.sentence_presence is not None:
            if not isinstance(self.sentence_presence, list):
                raise DataFormatError(f"post {self.id!r}: sentence_presence must be a list of rows")
            if len(self.sentence_presence) != len(self.sentences):
                raise DataFormatError(
                    f"post {self.id!r}: sentence_presence length "
                    f"{len(self.sentence_presence)} != {len(self.sentences)} sentences"
                )
            try:
                self.sentence_presence = [
                    _check_bits(row, "presence vector") for row in self.sentence_presence
                ]
            except ValueError as exc:
                raise DataFormatError(f"post {self.id!r}: {exc}") from exc


@dataclass
class Dataset:
    posts: list[Post]

    @property
    def outcome_counts(self) -> Counter:
        return Counter(p.gold for p in self.posts if p.gold is not None)

    def __len__(self) -> int:
        return len(self.posts)


def _post_from_obj(obj: dict, where: str) -> Post:
    if not isinstance(obj, dict):
        raise DataFormatError(f"{where}: expected a JSON object")
    try:
        pid = obj["id"]
        sentences = obj["sentences"]
    except KeyError as exc:
        raise DataFormatError(f"{where}: missing required key {exc}") from exc
    gold = None
    if obj.get("gold") is not None:
        try:
            gold = outcome_from_name(obj["gold"])
        except DataFormatError as exc:
            raise DataFormatError(f"{where}: {exc}") from exc
    extras = {k: v for k, v in obj.items() if k not in _KNOWN_KEYS}
    try:
        return Post(
            id=pid, sentences=sentences, gold=gold,
            sentence_presence=obj.get("sentence_presence"), extras=extras,
        )
    except DataFormatError as exc:
        raise DataFormatError(f"{where}: {exc}") from exc


def load_jsonl(path) -> Dataset:
    """Load one post per line; duplicate ids and malformed lines are errors."""
    posts: list[Post] = []
    seen: set[str] = set()
    for lineno, line in text_lines(path):
        if not line:
            continue
        try:
            obj = json.loads(line)
        except ValueError as exc:  # a JSONDecodeError, or an int past Python's digit limit
            raise DataFormatError(f"{path}:{lineno}: invalid JSON ({exc})") from exc
        post = _post_from_obj(obj, f"{path}:{lineno}")
        if post.id in seen:
            raise DataFormatError(f"{path}:{lineno}: duplicate post id {post.id!r}")
        seen.add(post.id)
        posts.append(post)
    return Dataset(posts=posts)


def post_to_obj(post: Post) -> dict:
    obj: dict = {"id": post.id, "sentences": list(post.sentences)}
    if post.gold is not None:
        obj["gold"] = post.gold.value
    if post.sentence_presence is not None:
        obj["sentence_presence"] = [list(row) for row in post.sentence_presence]
    for key in sorted(post.extras):
        obj[key] = post.extras[key]
    return obj


def save_jsonl(dataset: Dataset, path) -> None:
    """Write posts one JSON object per line, in dataset order, deterministically."""
    with open(path, "w", encoding="utf-8") as handle:
        for post in dataset.posts:
            handle.write(json.dumps(post_to_obj(post)) + "\n")


def split(dataset: Dataset, train_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Stratified two-way split by gold outcome.

    Per-class train counts are rounded to the nearest integer (then clamped so
    both sides keep at least one member), which keeps class proportions within
    one post of the requested fraction. Posts must all carry gold labels and
    every present class needs at least two members. Output order follows the
    input dataset order.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    unlabeled = [p.id for p in dataset.posts if p.gold is None]
    if unlabeled:
        raise DataFormatError(
            f"cannot stratify: {len(unlabeled)} posts lack gold labels (e.g. {unlabeled[0]!r})"
        )
    by_class: dict[Outcome, list[int]] = {}
    for idx, post in enumerate(dataset.posts):
        by_class.setdefault(post.gold, []).append(idx)
    rng = np.random.default_rng(seed)
    train_idx: set[int] = set()
    for outcome in LAYER_ORDER:
        indices = by_class.get(outcome)
        if indices is None:
            continue
        if len(indices) < 2:
            raise DataFormatError(
                f"cannot stratify: class {outcome.value} has only {len(indices)} post(s)"
            )
        n_train = int(round(train_fraction * len(indices)))
        n_train = min(max(n_train, 1), len(indices) - 1)
        order = rng.permutation(len(indices))
        train_idx.update(indices[i] for i in order[:n_train])
    train = [p for i, p in enumerate(dataset.posts) if i in train_idx]
    test = [p for i, p in enumerate(dataset.posts) if i not in train_idx]
    return Dataset(posts=train), Dataset(posts=test)


@dataclass
class SyntheticSpec:
    """Generator settings for trigger-planted synthetic corpora."""

    n_posts: int
    seed: int
    sentences_per_post: tuple[int, int] = (1, 2)
    keyword_bank: dict[int, list[str]] = field(default_factory=dict)
    noise_phrases: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.n_posts < 0:
            raise ValueError("n_posts must be nonnegative")
        lo, hi = self.sentences_per_post
        if lo < 1 or hi < lo:
            raise ValueError(f"bad sentences_per_post range {self.sentences_per_post}")
        if not self.noise_phrases:
            raise ValueError("need at least one noise phrase")
        for cid, phrases in self.keyword_bank.items():
            if not phrases:
                raise ValueError(f"concept {cid} has an empty trigger phrase list")


# Trigger phrases share enough tokens with the default taxonomy query texts to
# clear the shipped thresholds; noise phrases share none of their tokens.
# One canonical phrase per concept: each concept's signal occupies a single
# hashed direction, which keeps the desk-scale corpus learnable within a
# small epoch budget and makes annotation recovery unambiguous. Each phrase
# is its concept's query text plus one trailing word, so detection margins
# stay high without being trivially exact.
_DEFAULT_BANK = {
    0: ["wish to be dead sleep never wake up daily"],
    1: ["thinking about ending my life suicidal thoughts late"],
    2: ["attempt harming herself using a gun or pills yesterday"],
}

# Filler vocabulary chosen so that, at embedding dimension 64 under hash
# seeds 0 and 7, no filler token lands in a bucket occupied by any concept
# query token: filler sentences embed exactly orthogonal to every query.
_DEFAULT_NOISE = [
    "rain fell late yesterday",
    "watched cartoons downstairs daily",
    "bus jammed downtown streets",
    "kettle simmered softly afternoon",
    "garden needs extra watering",
    "ferry crossed harbor early",
]


def default_synthetic_spec(
    n_posts: int, seed: int, tree: KnowledgeTree | None = None
) -> SyntheticSpec:
    """Spec with curated banks for the default tree; query-text banks otherwise."""
    tree = tree or default_tree()
    if canonical_hash(tree) == canonical_hash(default_tree()):
        bank = {cid: list(phrases) for cid, phrases in _DEFAULT_BANK.items()}
    else:
        bank = {c.id: [c.query_text] for c in tree.concepts}
    return SyntheticSpec(
        n_posts=n_posts, seed=seed, keyword_bank=bank, noise_phrases=list(_DEFAULT_NOISE)
    )


def _noise_padding_safe(tree: KnowledgeTree, assignment: tuple[int, ...]) -> bool:
    """True when noise filler cannot alias a trigger sentence's graph class.

    Within a layer, two sentences whose connection vectors restrict to the
    same bits form a distance-0 pair, and the attention-contribution penalty
    weights such pairs by 1/epsilon. Noise sentences restrict to all-zeros
    everywhere, so padding is only safe when every TRUE concept belongs to
    every layer context — otherwise some trigger would restrict to all-zeros
    alongside the noise and hand training a near-singular penalty weight.
    """
    true_ids = [cid for cid, bit in enumerate(assignment) if bit]
    return all(
        cid in tree.layer_contexts[outcome]
        for outcome in LAYER_ORDER
        for cid in true_ids
    )


def generate_synthetic(spec: SyntheticSpec, tree: KnowledgeTree | None = None) -> Dataset:
    """Deterministically generate labeled posts with planted trigger phrases.

    Outcomes rotate round-robin; each post samples a truth assignment
    uniformly among those realizing its outcome, plants one trigger phrase per
    TRUE concept in its own sentence (ascending concept id), and pads with
    noise up to a sampled length. Gold labels come from tree inference on the
    planted assignment, and ``sentence_presence`` carries the planted
    per-sentence bits.

    Two generation rules keep the graph-context penalty well-conditioned on
    this corpus. Noise filler appears only in posts where it cannot restrict
    to the same per-layer class as a trigger sentence (see
    ``_noise_padding_safe``); other posts hold exactly their trigger
    sentences. And all noise filler within one post repeats a single phrase:
    identical text yields identical keys and values, hence exactly equal
    attention contributions and a zero penalty numerator for those pairs.
    """
    tree = tree or default_tree()
    k = tree.num_concepts
    for concept in tree.concepts:
        if concept.id not in spec.keyword_bank:
            raise ValueError(f"keyword bank missing concept id {concept.id}")
    realizing: dict[Outcome, list[tuple[int, ...]]] = {o: [] for o in LAYER_ORDER}
    for bits in sorted(itertools.product((0, 1), repeat=k)):
        realizing[tree.outcome_map[bits]].append(bits)
    rng = np.random.default_rng(spec.seed)
    lo, hi = spec.sentences_per_post
    posts: list[Post] = []
    for i in range(spec.n_posts):
        outcome = LAYER_ORDER[i % len(LAYER_ORDER)]
        candidates = realizing[outcome]
        if not candidates:
            raise ValueError(f"no assignment realizes outcome {outcome.value}")
        assignment = candidates[int(rng.integers(len(candidates)))]
        n_true = sum(assignment)
        target = int(rng.integers(lo, hi + 1))
        if _noise_padding_safe(tree, assignment):
            n_sentences = max(target, n_true, 1)
        else:
            n_sentences = max(n_true, 1)
        sentences: list[str] = []
        presence: list[tuple[int, ...]] = []
        for cid, bit in enumerate(assignment):
            if bit:
                phrases = spec.keyword_bank[cid]
                sentences.append(phrases[int(rng.integers(len(phrases)))])
                presence.append(tuple(1 if j == cid else 0 for j in range(k)))
        if len(sentences) < n_sentences:
            filler = spec.noise_phrases[int(rng.integers(len(spec.noise_phrases)))]
            while len(sentences) < n_sentences:
                sentences.append(filler)
                presence.append(tuple(0 for _ in range(k)))
        gold = outcome_for_assignment(tree, assignment)
        posts.append(
            Post(
                id=f"s{i:05d}",
                sentences=sentences,
                gold=gold,
                sentence_presence=presence,
                extras={"planted": "".join(str(b) for b in assignment)},
            )
        )
    return Dataset(posts=posts)
